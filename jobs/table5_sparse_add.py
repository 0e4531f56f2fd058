"""Reproduce Table 5 (add over sparse relations): ``python jobs/table5_sparse_add.py``.

Columnwise-kernel experiment (the paper measures the BAT add kernel);
no Spark session is needed.
"""
from repro.experiments import harness, table5

if __name__ == "__main__":
    harness.save(5, table5.run())

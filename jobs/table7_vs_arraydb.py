"""Reproduce Table 7 (add + selection, RMA+ vs array DB): ``spark-submit jobs/table7_vs_arraydb.py``."""
import sys

sys.path.insert(0, "jobs")
from _session import get_spark  # noqa: E402

from repro.experiments import harness, table7  # noqa: E402

if __name__ == "__main__":
    spark = get_spark("table7-vs-arraydb")
    try:
        harness.save(7, table7.run(spark))
    finally:
        spark.stop()

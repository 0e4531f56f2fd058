"""Reproduce Table 4 (add over wide relations): ``spark-submit jobs/table4_wide_add.py``."""
import sys

sys.path.insert(0, "jobs")
from _session import get_spark  # noqa: E402

from repro.experiments import harness, table4  # noqa: E402

if __name__ == "__main__":
    spark = get_spark("table4-wide-add")
    try:
        harness.save(4, table4.run(spark))
    finally:
        spark.stop()

"""Reproduce Table 6 (qqr scaling, R vs RMA+): ``spark-submit jobs/table6_qqr_scaling.py``."""
import sys

sys.path.insert(0, "jobs")
from _session import get_spark  # noqa: E402

from repro.experiments import harness, table6  # noqa: E402

if __name__ == "__main__":
    spark = get_spark("table6-qqr-scaling")
    try:
        harness.save(6, table6.run(spark))
    finally:
        spark.stop()

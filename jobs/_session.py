"""Shared SparkSession builder for the spark-submit entrypoints.

Mirrors the conftest fixture: Arrow on, broadcast joins off (shuffle
paths exercised), modest shuffle parallelism for local mode. One setting
more: a stored input of any size becomes Arrow-batch partitions, never a
driver-local relation (Spark's default does that below 48 MiB, which
made the 500K cells of Tables 6 and 7 slower than the 1M cells). Driver
memory is read at JVM launch, not from SparkConf, so when the job runs
as a plain ``python jobs/<name>.py`` it must be injected via
``PYSPARK_SUBMIT_ARGS`` *before* pyspark is imported — which is why this
module sets the env var at import time.
"""
import os

os.environ.setdefault("SPARK_DRIVER_MEM", "24g")
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

from pyspark.sql import SparkSession  # noqa: E402


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.localRelationThreshold", 0)
        .getOrCreate()
    )

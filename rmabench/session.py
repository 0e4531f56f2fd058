"""Spark session, process environment and the recorded machine facts."""
from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"


def configure_environment(work_dir: Path) -> None:
    """Keep the JVM, Spark and Python temp files inside ``work_dir``.

    Must run before pyspark launches its JVM: the master, driver memory
    and JVM options are read from ``PYSPARK_SUBMIT_ARGS`` at launch.
    """
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Every JVM, the launcher's too: no perf-data file in /tmp, temp files in tmp.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--driver-java-options", "-XX:TieredStopAtLevel=1",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell",
    ])


def start():
    """A SparkSession configured like the repository's jobs (``jobs/_session.py``)."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("rmabench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        # The status tracker keeps only this many jobs; a traced run reads them all.
        .config("spark.ui.retainedJobs", 100_000)
        .config("spark.ui.retainedStages", 100_000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF; its Python workers follow
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _mem_total_kb() -> int | None:
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _openblas_max_threads() -> int | None:
    import numpy as np

    try:
        cfg = np.__config__.CONFIG["Build Dependencies"]["blas"]["openblas configuration"]
    except (AttributeError, KeyError, TypeError):
        return None
    m = re.search(r"MAX_THREADS=(\d+)", str(cfg))
    return int(m.group(1)) if m else None


def _git_sha(root: Path) -> str | None:
    """HEAD's commit, read from ``.git`` directly (no git process, no parent dirs)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def environment(spark, root: Path, workload: str, seed: int) -> dict:
    import numpy as np
    import pyspark

    sc = spark.sparkContext
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "mem_total_kb": _mem_total_kb(),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "openblas_max_threads": _openblas_max_threads(),
        "pyspark": pyspark.__version__,
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
    }

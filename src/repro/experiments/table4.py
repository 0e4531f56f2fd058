"""Table 4 — ``add`` over wide relations.

Paper: 1000 tuples, one order attribute, 1K…10K application attributes;
runtime grows from 0.6 s to 62 s (superlinear in width). Scaled ÷10
here (100…1000 attributes): Spark, like MonetDB, pays a per-column
planning/codegen cost, so the per-column runtime also grows with width.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import ops
from repro.experiments.harness import force, print_table, warm_median

PAPER_ATTRS = [1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000]
PAPER_SECONDS = [0.6, 2.2, 4.8, 8.8, 13.4, 20, 27, 36, 47, 62]

DEFAULT_ATTRS = [100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
N_ROWS = 1000


def wide_add_seconds(spark: SparkSession, n_attrs: int, n_rows: int = N_ROWS) -> float:
    """Warm median seconds of one wide ``add`` (key-aligned, fully evaluated).

    The ``add`` runs on the distributed kernel, the analogue of the paper's
    in-kernel add; ``auto`` would copy these small inputs to the driver.
    With only 1000 tuples the cost is per-column planning/codegen, not
    data volume (exactly the regime Table 4 measures), so the shuffle
    parallelism is lowered to keep task-scheduling noise out of the
    signal.
    """
    r = synth_data.matrix_relation(spark, n_rows=n_rows, n_app=n_attrs, seed=n_attrs)
    s = synth_data.matrix_relation(
        spark, n_rows=n_rows, n_app=n_attrs, key="id2", seed=n_attrs + 1
    )
    r.cache().count(), s.cache().count()
    prev = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    try:
        out = ops.add(r, s, ["id"], ["id2"], backend="spark", align="keys")
        sec = warm_median(lambda: force(out))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev)
        r.unpersist(), s.unpersist()
    return sec


def run(spark: SparkSession, attrs: Sequence[int] = DEFAULT_ATTRS) -> list[dict]:
    """Reproduce Table 4; returns one record per attribute count."""
    out = []
    for k in attrs:
        sec = wide_add_seconds(spark, k)
        out.append({"n_attrs": k, "seconds": sec})
    print_table(
        "Table 4: add over wide relations (paper: 1K-10K attrs, 0.6-62 s)",
        ["#attr", "sec"],
        [[r["n_attrs"], r["seconds"]] for r in out],
    )
    return out

"""Table 7 — ``add`` followed by a selection: RMA+ vs the array database.

Paper: two matrices with 10 columns, {1M, 5M, 10M, 15M} rows; RMA+ adds
pairs of relations directly, SciDB must first compute an *array join*
over the input arrays, losing by more than an order of magnitude
(4.6 s vs 1m21 s at 1M, 1m39 s vs 18m23 s at 15M; run on a smaller
4-core box).

Scaled ÷10 here: {100K, 500K, 1M, 1.5M} rows. The RMA+ side is a
key-aligned columnwise ``add`` plus a filter; the array-database side
(:mod:`repro.arraydb`) joins |rows|·10 cells on their coordinates before
adding — same asymptotic handicap as SciDB's array join.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro import synth_data
from repro.arraydb import array_add, array_select, to_array
from repro.core import ops
from repro.experiments.harness import force, print_table, warm_median

PAPER = {
    1_000_000: {"RMA+": 4.6, "SciDB": 81.0},
    5_000_000: {"RMA+": 24.4, "SciDB": 426.0},
    10_000_000: {"RMA+": 78.0, "SciDB": 782.0},
    15_000_000: {"RMA+": 99.0, "SciDB": 1103.0},
}

SCALE = 10
SIZES = [n // SCALE for n in PAPER]
N_APP = 10
#: selection over result values; uniform inputs in 0..10000 sum to
#: ~10000 on average, so this keeps roughly half the tuples.
PREDICATE_THRESHOLD = 10_000.0


#: partition count of the "stored" relations (aligned columnar storage).
STORAGE_PARTITIONS = 16


def _inputs(spark: SparkSession, n_rows: int):
    r = synth_data.matrix_relation(spark, n_rows=n_rows, n_app=N_APP, seed=1)
    s = synth_data.matrix_relation(spark, n_rows=n_rows, n_app=N_APP, key="id2", seed=2)
    return r, s


def rma_add_select_seconds(spark: SparkSession, n_rows: int) -> float:
    """RMA+: relational add over *stored* relations, then a selection.

    MonetDB's add runs columnwise over order-aligned BATs with no join.
    The Spark analogue of that storage layout is both inputs cached
    co-partitioned and sorted by their keys, which lets Catalyst elide
    the exchange and sort — the join degenerates into a per-partition
    merge. The ``add`` runs on the distributed kernel (``auto`` would copy
    every size here to the driver). It is built (its inputs validated, its
    key sets compared) once, outside the timing;
    :func:`~repro.experiments.harness.warm_median` times the evaluation of
    add + selection (the paper times warm kernels too: averages of 3 runs).
    """
    r, s = _inputs(spark, n_rows)
    ra = r.repartition(STORAGE_PARTITIONS, "id").sortWithinPartitions("id").cache()
    sa = s.repartition(STORAGE_PARTITIONS, "id2").sortWithinPartitions("id2").cache()
    ra.count(), sa.count()
    try:
        out = ops.add(ra, sa, ["id"], ["id2"], backend="spark", align="keys")
        return warm_median(lambda: force(out.filter(F.col("a0") > PREDICATE_THRESHOLD)))
    finally:
        ra.unpersist(), sa.unpersist()


def arraydb_add_select_seconds(spark: SparkSession, n_rows: int) -> float:
    """Array DB: array join on cell coordinates, add, then the selection.

    Array construction is excluded from the timing (SciDB stores data as
    arrays already); the timed part is the array join + add + filter,
    which is where the paper locates SciDB's disadvantage: |rows|·k
    cells must be paired through a join. Timed like the RMA side.
    """
    r, s = _inputs(spark, n_rows)
    a = to_array(r, ["id"]).cache()
    b = to_array(s, ["id2"]).cache()
    a.count(), b.count()
    try:
        def query() -> float:
            out = array_select(array_add(a, b), f"v > {PREDICATE_THRESHOLD / N_APP}")
            return force(out)

        return warm_median(query)
    finally:
        a.unpersist(), b.unpersist()


def run(spark: SparkSession, sizes: Sequence[int] = tuple(SIZES)) -> list[dict]:
    """Reproduce Table 7 on the scaled sizes."""
    out = []
    for n in sizes:
        rma_sec = rma_add_select_seconds(spark, n)
        adb_sec = arraydb_add_select_seconds(spark, n)
        paper = PAPER.get(n * SCALE, {})
        out.append(
            {
                "n_rows": n,
                "rma_sec": rma_sec,
                "arraydb_sec": adb_sec,
                "paper_rma": paper.get("RMA+"),
                "paper_scidb": paper.get("SciDB"),
            }
        )
    print_table(
        "Table 7: add + selection, RMA+ vs array DB (scaled /10)",
        ["tuples", "RMA+ sec", "arrayDB sec", "paper RMA+", "paper SciDB"],
        [
            [r["n_rows"], r["rma_sec"], r["arraydb_sec"], r["paper_rma"], r["paper_scidb"]]
            for r in out
        ],
    )
    return out

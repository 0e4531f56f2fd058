"""Table 6 — ``qqr`` scaling: R vs RMA+.

Paper grid: {5M, 50M, 100M} tuples × {10, 40, 70} application
attributes on a 98 GB machine. RMA+ delegates to MKL up to 50M×40 and
switches to the BAT (Gram-Schmidt) kernel beyond, which is slower but
survives (memory managed by the DBMS); R fails with OOM at 50M×70 and
100M×{40,70}.

Scaled ÷100 here: {50K, 500K, 1M} tuples, same attribute counts, and an
R memory budget of 98 GB ÷ 98 = 1 GB. The budget charges 4× the matrix
bytes (frame + matrix copy + QR workspace), which makes exactly the
paper's cells fail: 500K×70, 1M×40, 1M×70. RMA+ uses LAPACK up to
500K×40 and the Gram-Schmidt BAT kernel beyond, reproducing the runtime
jump the paper reports (61.4 s → 2018 s at 50M, i.e. MKL → BAT).
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import SparkSession

from repro import synth_data
from repro.core import ops
from repro.experiments.harness import print_table, warm_median
from repro.rlike import MemoryBudgetExceeded, RFrame
from repro.rlike.rframe import r_qqr

#: paper numbers, seconds; None = fail (OOM)
PAPER = {
    (5_000_000, 10): {"R": 3.5, "RMA+": 2.1},
    (5_000_000, 40): {"R": 20.0, "RMA+": 6.6},
    (5_000_000, 70): {"R": 47.0, "RMA+": 11.6},
    (50_000_000, 10): {"R": 37.0, "RMA+": 21.3},
    (50_000_000, 40): {"R": 221.0, "RMA+": 61.4},
    (50_000_000, 70): {"R": None, "RMA+": 2018.0},
    (100_000_000, 10): {"R": 74.0, "RMA+": 40.0},
    (100_000_000, 40): {"R": None, "RMA+": 1690.0},
    (100_000_000, 70): {"R": None, "RMA+": 4064.0},
}

SCALE = 100
ROWS = [5_000_000 // SCALE, 50_000_000 // SCALE, 100_000_000 // SCALE]
ATTRS = [10, 40, 70]
R_MEM_BUDGET = 1 << 30  # 98 GB testbed ÷ 98

#: matrix-size cap (in cells) up to which RMA+ hands qqr to LAPACK
#: (paper: "for relations up to 50Mx40, RMA+ delegates to MKL"; 100M×10
#: also fits — the policy is by matrix footprint, i.e. 2e9 cells ÷ SCALE).
MKL_CELL_LIMIT = 50_000_000 * 40 // SCALE


def rma_qqr_seconds(spark: SparkSession, n_rows: int, n_app: int) -> tuple[float, str]:
    """Warm median seconds of RMA+ ``qqr`` with the paper's MKL-vs-BAT delegation policy."""
    r = synth_data.matrix_relation(spark, n_rows=n_rows, n_app=n_app, seed=n_app)
    r.cache().count()
    backend = "local" if n_rows * n_app <= MKL_CELL_LIMIT else "bat"
    try:
        sec = warm_median(lambda: ops.qqr(r, ["id"], backend=backend).count())
    finally:
        r.unpersist()
    return sec, backend


def r_qqr_seconds(n_rows: int, n_app: int, budget: int = R_MEM_BUDGET) -> float | None:
    """Warm median seconds of the R-analogue ``qqr``; None when the memory budget is exceeded."""
    pdf = synth_data.matrix_relation_pdf(n_rows=n_rows, n_app=n_app, seed=n_app)
    frame = RFrame(pdf, mem_budget_bytes=budget)
    app = [c for c in pdf.columns if c != "id"]
    try:
        return warm_median(lambda: r_qqr(frame, app))
    except MemoryBudgetExceeded:
        return None


def run(
    spark: SparkSession,
    rows: Sequence[int] = tuple(ROWS),
    attrs: Sequence[int] = tuple(ATTRS),
) -> list[dict]:
    """Reproduce Table 6 on the scaled grid."""
    out = []
    for n in rows:
        for k in attrs:
            r_sec = r_qqr_seconds(n, k)
            rma_sec, backend = rma_qqr_seconds(spark, n, k)
            paper = PAPER.get((n * SCALE, k), {})
            out.append(
                {
                    "n_rows": n,
                    "n_attrs": k,
                    "r_sec": r_sec,
                    "rma_sec": rma_sec,
                    "rma_backend": backend,
                    "paper_r": paper.get("R"),
                    "paper_rma": paper.get("RMA+"),
                }
            )
    print_table(
        "Table 6: qqr runtimes, R vs RMA+ (scaled /100; 'fail' = out of memory)",
        ["tuples", "#attr", "R sec", "RMA+ sec", "RMA+ backend", "paper R", "paper RMA+"],
        [
            [
                r["n_rows"],
                r["n_attrs"],
                "fail" if r["r_sec"] is None else r["r_sec"],
                r["rma_sec"],
                r["rma_backend"],
                "fail" if r["paper_r"] is None else r["paper_r"],
                r["paper_rma"],
            ]
            for r in out
        ],
    )
    return out

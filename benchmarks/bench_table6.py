"""Benchmark: Table 6 — ``qqr`` scaling, R-analogue vs RMA+ (scaled ÷100).

Paper grid {5M,50M,100M}×{10,40,70}; R fails (OOM) at 50M×70 and
100M×{40,70}; RMA+ switches MKL→BAT beyond 2e9 cells. Cells where the
R-analogue exceeds its (scaled) memory budget are skipped — the paper
reports them as ``fail``. Full grid + paper numbers:
``jobs/table6_qqr_scaling.py``.
"""
import pytest

from repro.experiments import table6

GRID = [(n, k) for n in table6.ROWS for k in table6.ATTRS]
IDS = [f"{n//1000}K_x{k}" for n, k in GRID]


@pytest.mark.parametrize("n_rows,n_app", GRID, ids=IDS)
def test_rma_qqr(benchmark, spark, n_rows, n_app):
    paper = table6.PAPER[(n_rows * table6.SCALE, n_app)]
    benchmark.extra_info["paper_rma_sec"] = paper["RMA+"]
    _, backend = benchmark.pedantic(
        table6.rma_qqr_seconds, args=(spark, n_rows, n_app), rounds=1, iterations=1, warmup_rounds=0
    )
    benchmark.extra_info["backend"] = backend  # the MKL→BAT rule of table6.rma_qqr_seconds


@pytest.mark.parametrize("n_rows,n_app", GRID, ids=IDS)
def test_r_qqr(benchmark, n_rows, n_app):
    paper = table6.PAPER[(n_rows * table6.SCALE, n_app)]
    if paper["R"] is None:
        pytest.skip("paper reports 'fail' (R out of memory) for this cell")
    benchmark.extra_info["paper_r_sec"] = paper["R"]
    benchmark.pedantic(
        table6.r_qqr_seconds, args=(n_rows, n_app), rounds=1, iterations=1, warmup_rounds=0
    )


def test_fail_cells_fail(spark):
    """The budget reproduces exactly the paper's three fail cells."""
    fails = [(n, k) for n in table6.ROWS for k in table6.ATTRS if table6.r_qqr_seconds(n, k) is None]
    expect = [
        (n // table6.SCALE, k) for (n, k), v in table6.PAPER.items() if v["R"] is None
    ]
    assert sorted(fails) == sorted(expect)

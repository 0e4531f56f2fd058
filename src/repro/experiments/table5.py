"""Table 5 — ``add`` over sparse relations.

Paper: two relations of 5M tuples × 10 application attributes, non-zero
values uniform in 1…5M; as the fraction of (randomly placed) zeros grows
from 0% to 100%, ``add`` speeds up from 1.68 s to 0.76 s (≈2.2×) thanks
to MonetDB's compression. Our substrate makes the mechanism explicit: a
dense columnwise kernel (flat runtime) versus a sparse non-zero-index
representation (:mod:`repro.batops.sparse`) whose cost scales with the
number of non-zeros.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batops import kernels, sparse
from repro.experiments.harness import print_table, warm_median

PAPER_ZERO_PCT = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
PAPER_SECONDS = [1.68, 1.60, 1.49, 1.41, 1.33, 1.25, 1.16, 0.99, 0.94, 0.89, 0.76]

N_ROWS = 5_000_000
N_APP = 10


def _gen(zero_frac: float, n_rows: int, seed: int) -> np.ndarray:
    g = np.random.default_rng(seed)
    m = g.random((n_rows, N_APP)) * 5_000_000 + 1
    if zero_frac > 0:
        m[g.random((n_rows, N_APP)) < zero_frac] = 0.0
    return m


def sparse_vs_dense_add(zero_frac: float, n_rows: int = N_ROWS) -> dict:
    """Warm median seconds of dense and sparse columnwise ``add`` at one zero fraction."""
    a, b = _gen(zero_frac, n_rows, 0), _gen(zero_frac, n_rows, 1)
    bats_a, bats_b = kernels.as_bats(a), kernels.as_bats(b)
    dense_sec = warm_median(lambda: kernels.col_add(bats_a, bats_b))
    sp_a = [sparse.from_dense(c) for c in bats_a]
    sp_b = [sparse.from_dense(c) for c in bats_b]
    sparse_sec = warm_median(lambda: sparse.sparse_add_cols(sp_a, sp_b))
    return {"zero_pct": int(round(zero_frac * 100)), "dense_sec": dense_sec, "sparse_sec": sparse_sec}


def run(n_rows: int = N_ROWS, zero_pcts: Sequence[int] = tuple(PAPER_ZERO_PCT)) -> list[dict]:
    """Reproduce Table 5; dense = uncompressed, sparse = compressed columns."""
    out = [sparse_vs_dense_add(p / 100.0, n_rows=n_rows) for p in zero_pcts]
    print_table(
        "Table 5: add over sparse relations (paper: 1.68 s at 0% -> 0.76 s at 100%)",
        ["%zeros", "dense sec", "sparse sec"],
        [[r["zero_pct"], r["dense_sec"], r["sparse_sec"]] for r in out],
    )
    return out

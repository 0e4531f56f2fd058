"""The "R" competitor: pandas data.frames + numpy matrices (§8.3, §8.5).

R in the paper has two performance-relevant properties that this
substrate reproduces:

1. matrix operations require an explicit data.frame → matrix transform
   (and back), whose cost is timed separately so §8.5-style transform
   shares can be computed;
2. everything must fit in process memory — a configurable *memory
   budget* raises :class:`MemoryBudgetExceeded`, reproducing R's
   ``fail`` cells of Table 6 at scaled sizes. The budget check charges
   4× the matrix bytes (data.frame copy + matrix copy + decomposition
   workspace), the footprint profile of R's ``qr()``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core import matrix_ops


class MemoryBudgetExceeded(MemoryError):
    """Raised when a transform would exceed the configured memory budget."""


@dataclass
class RTimings:
    """Accumulated wall-clock split: transform vs compute (for §8.5 shares)."""

    transform_s: float = 0.0
    compute_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.transform_s + self.compute_s

    @property
    def transform_share(self) -> float:
        return self.transform_s / self.total_s if self.total_s else 0.0


_WORKSPACE_FACTOR = 4  # frame + matrix copy + Q + R, see module docstring


@dataclass
class RFrame:
    """A data.frame with explicit matrix transforms and a memory budget."""

    pdf: pd.DataFrame
    mem_budget_bytes: int | None = None
    timings: RTimings = field(default_factory=RTimings)

    # -- the data.frame <-> matrix boundary ------------------------------

    def as_matrix(self, cols: list[str]) -> np.ndarray:
        """data.frame → matrix transform (timed; budget-checked)."""
        nbytes = len(self.pdf) * len(cols) * 8
        if self.mem_budget_bytes is not None and nbytes * _WORKSPACE_FACTOR > self.mem_budget_bytes:
            raise MemoryBudgetExceeded(
                f"cannot allocate {_WORKSPACE_FACTOR}x{nbytes} bytes "
                f"within budget {self.mem_budget_bytes}"
            )
        t0 = time.perf_counter()
        m = self.pdf[cols].to_numpy(dtype=np.float64, copy=True)
        self.timings.transform_s += time.perf_counter() - t0
        return m

    def from_matrix(self, m: np.ndarray, cols: list[str]) -> "RFrame":
        """matrix → data.frame transform (timed)."""
        t0 = time.perf_counter()
        out = pd.DataFrame(np.asarray(m, dtype=np.float64).copy(), columns=cols)
        self.timings.transform_s += time.perf_counter() - t0
        return RFrame(out, self.mem_budget_bytes, self.timings)

    # -- matrix operations (timed as compute) ----------------------------

    def matrix_op(self, fn, *matrices: np.ndarray) -> np.ndarray:
        t0 = time.perf_counter()
        out = fn(*matrices)
        self.timings.compute_s += time.perf_counter() - t0
        return out


def r_qqr(frame: RFrame, app_cols: list[str]) -> RFrame:
    """R's ``qr.Q(qr(as.matrix(df)))`` pipeline: transform → QR → transform.

    The compute step is the LAPACK QR that RMA+ calls (``matrix_ops.qqr``),
    so the two systems differ only in how the matrix reaches it.
    """
    q = frame.matrix_op(matrix_ops.qqr, frame.as_matrix(app_cols))
    return frame.from_matrix(q, app_cols)

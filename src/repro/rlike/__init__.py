"""Statistical-package competitor — the R stand-in."""
from repro.rlike.rframe import MemoryBudgetExceeded, RFrame, RTimings  # noqa: F401

"""Covariance of the application part — the Section 5 pipeline (Fig. 6).

``covariance`` follows the paper's w1–w7 steps literally (aggregate for
the expectations, ``sub`` to centre, ``tra`` + ``mmu`` for
``XᵀX``, scalar division by ``n-1``); ``covariance_via_cpd`` computes
the same result with a single self ``cpd`` (the variant used for
the Conferences workload, where the paper calls ``cblas_dsyrk``).
Both return a relation with schema ``(C) ∘ Ū`` — the covariance matrix
*with origins*: C values are the application attribute names, which is
what lets the paper join the result with the rankings/film relations.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import ops
from repro.core.constructors import application_schema


def _centered(r: DataFrame, by: list[str], app: list[str], backend: str) -> DataFrame:
    """w1–w3: subtract the per-attribute mean from the application part."""
    w2 = r.agg(*[F.avg(c).alias(c) for c in app])  # expectations, 1 tuple
    means = r.select(*[F.col(c).alias(f"{c}__v") for c in by]).crossJoin(w2)
    w3 = ops.sub(r, means, by, [f"{c}__v" for c in by], backend=backend, align="keys")
    return w3.select(*by, *app)


def covariance(r: DataFrame, by: str | Sequence[str], *, backend: str = "auto") -> DataFrame:
    """Unbiased covariance matrix via the literal Fig. 6 pipeline (sub/tra/mmu)."""
    by = [by] if isinstance(by, str) else list(by)
    app = application_schema(r, by)
    n = r.count()
    if n < 2:
        raise ValueError("covariance requires at least two tuples")
    w3 = _centered(r, by, app, backend)
    # w4 columns are ∇U (key values); mmu aligns them with w3's rows
    # sorted by U — origins keep every cell correctly labelled even
    # though w4's rows are sorted by C (attribute names).
    w4 = ops.tra(w3, by)  # (C) ∘ ∇U
    w5 = ops.mmu(w4, w3, ["C"], by)  # (C) ∘ Ū
    scale = float(n - 1)
    return w5.select("C", *[(F.col(c) / scale).alias(c) for c in app])


def covariance_via_cpd(r: DataFrame, by: str | Sequence[str], *, backend: str = "auto") -> DataFrame:
    """Unbiased covariance via a single self cross product (distributed with ``backend="spark"``)."""
    by = [by] if isinstance(by, str) else list(by)
    app = application_schema(r, by)
    n = r.count()
    if n < 2:
        raise ValueError("covariance requires at least two tuples")
    w3 = _centered(r, by, app, backend)
    g = ops.cpd(w3, w3, by, by, backend=backend)
    scale = float(n - 1)
    return g.select("C", *[(F.col(c) / scale).alias(c) for c in app])

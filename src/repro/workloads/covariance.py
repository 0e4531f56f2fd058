"""Covariance of the application part — the Section 5 pipeline (Fig. 6).

``covariance`` follows the paper's w1–w7 steps literally (one aggregate
for the tuple count and the expectations, ``sub`` to centre, ``tra`` +
``mmu`` for ``XᵀX``, scalar division by ``n-1``); ``covariance_via_cpd``
computes the same result with a single self ``cpd`` (the variant used for
the Conferences workload, where the paper calls ``cblas_dsyrk``).
Both return a relation with schema ``(C) ∘ Ū`` — the covariance matrix
*with origins*: C values are the application attribute names, which is
what lets the paper join the result with the rankings/film relations.

Only ``covariance_via_cpd`` runs on inputs over
``spark.driver.maxResultSize``: its ``sub`` and self ``cpd`` rerun on
their spark kernels, while ``covariance``'s ``tra`` has one column per
tuple, needs the whole input on the driver, and raises there.
"""
from __future__ import annotations

from typing import Callable, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core import ops
from repro.core.constructors import application_schema


def _covariance(
    r: DataFrame, by: str | Sequence[str], gram: Callable[[DataFrame, list[str]], DataFrame]
) -> DataFrame:
    """Centre the application part (w1–w3), take ``gram(w3, by)`` = XᵀX, divide by ``n-1``.

    One aggregation gives ``n`` and the expectations (w1, w2). The means
    relation is a projection of ``r`` with the expectations as double
    literals, so μ of it scans ``r`` and repeats no aggregation.
    """
    by = [by] if isinstance(by, str) else list(by)
    app = application_schema(r, by)
    # Only numeric attributes are averaged, since the aggregation runs before
    # sub and a cast of a string could fail there; sub names any other one.
    num = {f.name for f in r.schema.fields if isinstance(f.dataType, T.NumericType)}
    n, *w2 = r.agg(F.count(F.lit(1)), *[F.avg(c) if c in num else F.lit(None) for c in app]).first()
    if n < 2:
        raise ValueError("covariance requires at least two tuples")
    # An average is null only over nulls, which sub then reports in r.
    means = r.select(
        *[F.col(c).alias(f"{c}__v") for c in by],
        *[F.lit(e).cast("double").alias(c) for c, e in zip(app, w2)],
    )
    w3 = ops.sub(r, means, by, [f"{c}__v" for c in by], align="keys").select(*by, *app)
    scale = float(n - 1)
    return gram(w3, by).select("C", *[(F.col(c) / scale).alias(c) for c in app])


def covariance(r: DataFrame, by: str | Sequence[str]) -> DataFrame:
    """Unbiased covariance matrix via the literal Fig. 6 pipeline (sub/tra/mmu)."""
    # w4 columns are ∇U (key values); mmu aligns them with w3's rows
    # sorted by U — origins keep every cell correctly labelled even
    # though w4's rows are sorted by C (attribute names).
    return _covariance(r, by, lambda w3, by: ops.mmu(ops.tra(w3, by), w3, ["C"], by))


def covariance_via_cpd(r: DataFrame, by: str | Sequence[str]) -> DataFrame:
    """Unbiased covariance via a single self cross product ``cpd(w3, w3)``."""
    return _covariance(r, by, lambda w3, by: ops.cpd(w3, w3, by, by))

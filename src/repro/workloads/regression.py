"""Ordinary / multiple linear regression via RMA (§8.6 workloads 1–2).

The paper computes OLS as ``MMU(INV(CPD(A, A)), CPD(A, V))`` where ``A``
holds the independent variables (plus an intercept column) and ``V`` the
dependent variable. Here the whole chain runs as *relational* matrix
operations, so the coefficient relation keeps origins: each coefficient
is labelled by the name of its regressor.

Relational subtlety: ``inv`` orders the Gram relation's rows by the
``C`` attribute (alphabetical), while its columns stay in schema order.
To keep rows and columns of the Gram matrix aligned we rename the
regressors to ``x0, x1, …``, zero-padded to the width of the largest
index (``x000 … x100`` for 100 regressors and the intercept), so that
alphabetical order is positional order, and map the names back at the end — the RMA-level analogue of the paper's ordered
attribute handling.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import ops


def ols(r: DataFrame, by: str | Sequence[str], x_cols: Sequence[str], y_col: str) -> DataFrame:
    """Fit ``y ~ X`` by OLS; returns a relation (regressor, coef).

    ``by`` is the order schema (key) of ``r``; ``x_cols`` the independent
    attributes; ``y_col`` the dependent attribute. The result has schema
    ``(C, <y_col>)`` with one tuple per regressor (``"intercept"`` for
    the constant term).
    """
    by = [by] if isinstance(by, str) else list(by)
    xs = list(x_cols)
    width = len(str(len(xs)))  # the intercept is index len(xs)
    canon = {c: f"x{i:0{width}d}" for i, c in enumerate([*xs, "intercept"])}
    a_rel = r.select(
        *by, *[F.col(c).cast("double").alias(canon[c]) for c in xs], F.lit(1.0).alias(canon["intercept"])
    )
    v_rel = r.select(*by, F.col(y_col).cast("double").alias(y_col))

    gram = ops.cpd(a_rel, a_rel, by, by)
    gram_inv = ops.inv(gram, ["C"])
    xty = ops.cpd(a_rel, v_rel, by, by)
    beta = ops.mmu(gram_inv, xty, ["C"], ["C"])

    back = {v: k for k, v in canon.items()}
    mapping = F.create_map(*[x for kv in back.items() for x in (F.lit(kv[0]), F.lit(kv[1]))])
    return beta.select(mapping[F.col("C")].alias("C"), F.col(y_col))

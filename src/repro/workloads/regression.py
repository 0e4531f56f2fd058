"""Ordinary / multiple linear regression via RMA (§8.6 workloads 1–2).

The paper computes OLS as ``MMU(INV(CPD(A, A)), CPD(A, V))`` where ``A``
holds the independent variables (plus an intercept column) and ``V`` the
dependent variable. Here the whole chain runs as *relational* matrix
operations, so the coefficient relation keeps origins: each coefficient
is labelled by the name of its regressor.

Both cross products come from one: the self cross product of ``[A | y]``
is the augmented Gram ``[AᵀA  Aᵀy; yᵀA  yᵀy]``, and its ``C`` origins
pick the blocks. The rows whose ``C`` is a regressor, projected to the
regressors, are ``AᵀA``; the same rows projected to ``y`` are ``Aᵀy``.
So μ copies the input lineage once, however many joins it holds.

Relational subtlety: ``inv`` orders the Gram relation's rows by the
``C`` attribute (alphabetical), while its columns stay in schema order.
To keep rows and columns of the Gram matrix aligned we rename the
regressors to ``x0, x1, …``, zero-padded to the width of the largest
index (``x000 … x100`` for 100 regressors and the intercept), so that
alphabetical order is positional order, and map the names back at the
end — the RMA-level analogue of the paper's ordered attribute handling.
The keys and the dependent variable keep their names, so an error about
them (a duplicate key, a null) names the input's attribute; none of them
may be named like a regressor's new name.
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
    the constant term). ``r`` is read once, by the one ``cpd``.
    """
    by = [by] if isinstance(by, str) else list(by)
    xs = list(x_cols)
    width = len(str(len(xs)))  # the intercept is index len(xs)
    canon = {c: f"x{i:0{width}d}" for i, c in enumerate([*xs, "intercept"])}
    aug = r.select(
        *by,
        *[F.col(c).cast("double").alias(canon[c]) for c in xs],
        F.lit(1.0).alias(canon["intercept"]),
        F.col(y_col).cast("double").alias(y_col),
    )

    gram = ops.cpd(aug, aug, by, by)  # [AᵀA Aᵀy; yᵀA yᵀy], rows labelled by C
    blocks = gram.filter(F.col("C") != y_col)
    gram_inv = ops.inv(blocks.select("C", *canon.values()), ["C"])
    beta = ops.mmu(gram_inv, blocks.select("C", y_col), ["C"], ["C"])

    back = {v: k for k, v in canon.items()}
    mapping = F.create_map(*[x for kv in back.items() for x in (F.lit(kv[0]), F.lit(kv[1]))])
    return beta.select(mapping[F.col("C")].alias("C"), F.col(y_col))

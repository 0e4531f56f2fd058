"""Ordinary / multiple linear regression via RMA (§8.6 workloads 1–2).

The paper computes OLS as ``MMU(INV(CPD(A, A)), CPD(A, V))`` where ``A``
holds the independent variables (plus an intercept column) and ``V`` the
dependent variable. Here the whole chain runs as *relational* matrix
operations, so the coefficient relation keeps origins: each coefficient
is labelled by the name of its regressor.

Relational subtlety: ``inv`` orders the Gram relation's rows by the
``C`` attribute (alphabetical), while its columns stay in schema order.
To keep rows and columns of the Gram matrix aligned we rename the
regressors to ``x00, x01, …`` (alphabetical = positional) and map the
names back at the end — the RMA-level analogue of the paper's ordered
attribute handling.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import ops


def ols(
    r: DataFrame,
    by: str | Sequence[str],
    x_cols: Sequence[str],
    y_col: str,
    *,
    intercept: bool = True,
    backend: str = "auto",
) -> DataFrame:
    """Fit ``y ~ X`` by OLS; returns a relation (regressor, coef).

    ``by`` is the order schema (key) of ``r``; ``x_cols`` the independent
    attributes; ``y_col`` the dependent attribute. The result has schema
    ``(C, <y_col>)`` with one tuple per regressor (``"intercept"`` for
    the constant term).
    """
    by = [by] if isinstance(by, str) else list(by)
    xs = list(x_cols)
    canon = {c: f"x{i:02d}" for i, c in enumerate(xs)}
    sel_a = [F.col(c) for c in by] + [F.col(c).cast("double").alias(a) for c, a in canon.items()]
    if intercept:
        canon_all = {**canon, "intercept": f"x{len(xs):02d}"}
        sel_a.append(F.lit(1.0).alias(canon_all["intercept"]))
    else:
        canon_all = canon
    a_rel = r.select(*sel_a)
    v_rel = r.select(*by, F.col(y_col).cast("double").alias(y_col))

    gram = ops.cpd(a_rel, a_rel, by, by, backend=backend)
    gram_inv = ops.inv(gram, ["C"], validate=False)
    xty = ops.cpd(a_rel, v_rel, by, by, backend=backend)
    beta = ops.mmu(gram_inv, xty, ["C"], ["C"], validate=False)

    back = {v: k for k, v in canon_all.items()}
    mapping = F.create_map(*[x for kv in back.items() for x in (F.lit(kv[0]), F.lit(kv[1]))])
    return beta.select(mapping[F.col("C")].alias("C"), F.col(y_col))

"""Distributed ("BAT-like") kernels for relational matrix operations.

The paper's RMA+BAT backend computes base results with columnar engine
operations instead of copying to MKL. The Spark analogues here stay in
the engine (Catalyst expressions, ``mapInPandas``) and never collect the
application part to the driver:

- :func:`zip_linear` — ``add``/``sub``/``emu`` by pairing the i-th
  sorted row of each input (positional) or by joining on equal order
  keys (the paper's §8.1 sort-avoidance optimisation);
- :func:`gram` — ``AᵀB`` via per-partition partial Gram matrices
  (exact; addition is permutation-invariant so no sort is needed);
- :func:`sol_normal` — ``sol`` from two partial Gram matrices;
- :func:`qqr_rows` — CholeskyQR: ``R`` from the Gram matrix, then each
  row's Q values computed in place with a broadcast ``R⁻¹`` (again no
  global sort: row i of Q belongs to row i of the input, wherever it
  lives);
- :func:`mmu_rows` — matrix multiply with a broadcast right operand
  (the right operand of ``mmu`` has as many *rows* as the left has
  columns, so it is always small).
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

_LINEAR: dict[str, Callable[[Column, Column], Column]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "emu": lambda a, b: a * b,
}


def _indexed(r: DataFrame, by: Sequence[str], app: Sequence[str], prefix: str) -> DataFrame:
    """Rename to collision-free names and add the sort position ``__rn``."""
    w = Window.orderBy(*[F.col(f"{prefix}k{i}").asc() for i in range(len(by))])
    sel = [F.col(c).alias(f"{prefix}k{i}") for i, c in enumerate(by)]
    sel += [F.col(c).cast("double").alias(f"{prefix}a{i}") for i, c in enumerate(app)]
    return r.select(*sel).withColumn("__rn", F.row_number().over(w))


def zip_linear(
    r: DataFrame,
    by: Sequence[str],
    s: DataFrame,
    by2: Sequence[str],
    app_r: Sequence[str],
    app_s: Sequence[str],
    op: str,
    out_schema: Sequence[str],
    align: str = "position",
) -> DataFrame:
    """Distributed ``add``/``sub``/``emu`` with result schema ``U ∘ V ∘ Ū``.

    ``align="position"`` pairs rows by rank under the order schemas
    (faithful to Def. in Table 2; needs a total sort). ``align="keys"``
    joins on ``r.U = s.V`` — valid exactly when both order parts hold
    the same value sets, in which case it is equivalent and avoids the
    global sort (§8.1 optimisation).
    """
    f = _LINEAR[op]
    k = len(app_r)
    if align == "keys":
        if len(by) != len(by2):
            raise ValueError("key alignment requires order schemas of equal length")
        ra = r.select(
            *[F.col(c).alias(f"__ak{i}") for i, c in enumerate(by)],
            *[F.col(c).cast("double").alias(f"__aa{i}") for i, c in enumerate(app_r)],
        )
        sb = s.select(
            *[F.col(c).alias(f"__bk{i}") for i, c in enumerate(by2)],
            *[F.col(c).cast("double").alias(f"__ba{i}") for i, c in enumerate(app_s)],
        )
        cond = [ra[f"__ak{i}"] == sb[f"__bk{i}"] for i in range(len(by))]
        j = ra.join(sb, cond, "inner")
    else:
        ra = _indexed(r, by, app_r, "__a")
        sb = _indexed(s, by2, app_s, "__b")
        j = ra.join(sb, "__rn", "inner")
    out = [F.col(f"__ak{i}") for i in range(len(by))]
    out += [F.col(f"__bk{i}") for i in range(len(by2))]
    out += [f(F.col(f"__aa{i}"), F.col(f"__ba{i}")) for i in range(k)]
    return j.select(*[c.alias(n) for c, n in zip(out, out_schema)])


def gram(
    r: DataFrame,
    app_r: Sequence[str],
    s: DataFrame | None = None,
    by: Sequence[str] | None = None,
    by2: Sequence[str] | None = None,
    app_s: Sequence[str] | None = None,
) -> np.ndarray:
    """``AᵀB`` (or ``AᵀA`` when ``s`` is None) via partial Gram sums.

    The self case needs no row alignment at all; the binary case zips
    rows positionally first (``cpd`` pairs the i-th sorted rows).
    Each partition emits ``(i, j, v)`` partial products; Spark sums them
    and the tiny ``k1×k2`` result is collected.
    """
    if s is None:
        pairs = r.select(*[F.col(c).cast("double").alias(f"__aa{i}") for i, c in enumerate(app_r)])
        a_cols = [f"__aa{i}" for i in range(len(app_r))]
        b_cols = a_cols
    else:
        assert by is not None and by2 is not None and app_s is not None
        ra = _indexed(r, by, app_r, "__a")
        sb = _indexed(s, by2, app_s, "__b")
        pairs = ra.join(sb, "__rn", "inner")
        a_cols = [f"__aa{i}" for i in range(len(app_r))]
        b_cols = [f"__ba{i}" for i in range(len(app_s))]
    k1, k2 = len(a_cols), len(b_cols)

    out_schema = T.StructType(
        [
            T.StructField("i", T.IntegerType()),
            T.StructField("j", T.IntegerType()),
            T.StructField("v", T.DoubleType()),
        ]
    )

    def partial(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        acc = np.zeros((k1, k2))
        seen = False
        for pdf in batches:
            a = pdf[a_cols].to_numpy(dtype=np.float64)
            b = pdf[list(b_cols)].to_numpy(dtype=np.float64)
            acc += a.T @ b
            seen = True
        if seen:
            ii, jj = np.meshgrid(np.arange(k1), np.arange(k2), indexing="ij")
            yield pd.DataFrame({"i": ii.ravel(), "j": jj.ravel(), "v": acc.ravel()})

    agg = (
        pairs.mapInPandas(partial, schema=out_schema)
        .groupBy("i", "j")
        .agg(F.sum("v").alias("v"))
        .collect()
    )
    g = np.zeros((k1, k2))
    for row in agg:
        g[row["i"], row["j"]] = row["v"]
    return g


def sol_normal(
    r: DataFrame,
    by: Sequence[str],
    app_r: Sequence[str],
    s: DataFrame,
    by2: Sequence[str],
    app_s: Sequence[str],
) -> np.ndarray:
    """``sol`` by the normal equations over partial Grams: ``x = (AᵀA)⁻¹ Aᵀb``."""
    if len(app_s) != 1:
        raise ValueError(f"SOL right-hand side must be a single column, got {len(app_s)}")
    return np.linalg.solve(gram(r, app_r), gram(r, app_r, s, by, by2, app_s))


def _chol_r(g: np.ndarray) -> np.ndarray:
    """Upper-triangular R with ``RᵀR = G`` and positive diagonal."""
    try:
        return np.linalg.cholesky(g).T
    except np.linalg.LinAlgError as e:
        raise ValueError(
            "distributed qqr/rqr (CholeskyQR) requires a full-rank "
            f"application part: {e}"
        ) from None


def rqr_matrix(r: DataFrame, app_r: Sequence[str]) -> np.ndarray:
    """R factor of the QR decomposition, computed without any sort."""
    return _chol_r(gram(r, app_r))


def qqr_rows(r: DataFrame, by: Sequence[str], app_r: Sequence[str]) -> DataFrame:
    """CholeskyQR: result relation with schema ``U ∘ Ū`` (Q values).

    Two engine passes: one for the Gram matrix, one ``mapInPandas``
    multiplying each row block by the broadcast ``R⁻¹``. Rows keep their
    own contextual values, so no global sort is required.
    """
    r_inv = np.linalg.inv(rqr_matrix(r, app_r))
    b_rinv = r.sparkSession.sparkContext.broadcast(r_inv)
    in_fields = {f.name: f for f in r.schema.fields}
    out_schema = T.StructType(
        [in_fields[c] for c in by] + [T.StructField(c, T.DoubleType()) for c in app_r]
    )
    by_l, app_l = list(by), list(app_r)

    def to_q(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            a = pdf[app_l].to_numpy(dtype=np.float64)
            q = a @ b_rinv.value
            out = pdf[by_l].reset_index(drop=True)
            for i, c in enumerate(app_l):
                out[c] = q[:, i]
            yield out

    return r.select(*by_l, *app_l).mapInPandas(to_q, schema=out_schema)


def mmu_rows(
    r: DataFrame,
    by: Sequence[str],
    app_r: Sequence[str],
    right: np.ndarray,
    out_app: Sequence[str],
) -> DataFrame:
    """``mmu`` with a broadcast right matrix: schema ``U ∘ V̄``.

    ``right`` is the (already U-sorted) ``j1×j2`` matrix of the second
    relation — small by construction, since ``j1`` equals the number of
    application attributes of ``r``.
    """
    if len(app_r) != right.shape[0]:
        raise ValueError(
            f"MMU inner dimensions differ: {len(app_r)} application "
            f"attributes vs {right.shape[0]} rows"
        )
    b_right = r.sparkSession.sparkContext.broadcast(right)
    in_fields = {f.name: f for f in r.schema.fields}
    out_schema = T.StructType(
        [in_fields[c] for c in by] + [T.StructField(c, T.DoubleType()) for c in out_app]
    )
    by_l, app_l, out_l = list(by), list(app_r), list(out_app)

    def mul(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            prod = pdf[app_l].to_numpy(dtype=np.float64) @ b_right.value
            out = pdf[by_l].reset_index(drop=True)
            for i, c in enumerate(out_l):
                out[c] = prod[:, i]
            yield out

    return r.select(*by_l, *app_l).mapInPandas(mul, schema=out_schema)

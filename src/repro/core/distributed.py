"""Distributed kernels for relational matrix operations on Spark.

The paper's RMA+BAT backend computes base results with columnar engine
operations instead of copying to MKL. The Spark analogues here run in
the engine (Catalyst expressions, ``mapInArrow``); only small matrices
reach the driver: Gram results, and the right operand of ``mmu``. A
``mapInArrow`` function runs on the Python workers, which may not import
this package: its body uses only numpy, pyarrow and its own locals. The
kernels assume operands whose shapes ``ops`` has checked.

- :func:`zip_linear` — ``add``/``sub``/``emu`` by pairing the i-th
  sorted row of each input (positional) or by joining on equal order
  keys (the paper's §8.1 sort-avoidance optimisation);
- :func:`gram` — ``AᵀB`` via per-partition partial Gram matrices
  (exact; addition is permutation-invariant so no sort is needed);
- :func:`mmu_rows` — matrix multiply with the right operand shipped to
  every task in the function's closure (the right operand of ``mmu`` has
  as many *rows* as the left has columns, so it is always small);
- :func:`qqr_rows` — CholeskyQR: ``R`` from the Gram matrix, then each
  row's Q values through the ``mmu`` kernel with ``R⁻¹`` as the right
  operand (no global sort: row i of Q belongs to row i of the input,
  wherever it lives).
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.constructors import row_position

_LINEAR: dict[str, Callable[[Column, Column], Column]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "emu": lambda a, b: a * b,
}


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _renamed(r: DataFrame, by: Sequence[str], app: Sequence[str], side: str) -> DataFrame:
    """Project ``r`` to collision-free names ``__{side}k*`` (keys) and ``__{side}a*`` (doubles)."""
    sel = [F.col(c).alias(f"__{side}k{i}") for i, c in enumerate(by)]
    sel += [F.col(c).cast("double").alias(f"__{side}a{i}") for i, c in enumerate(app)]
    return r.select(*sel)


def _aligned(r: DataFrame, by: Sequence[str], app_r: Sequence[str],
             s: DataFrame, by2: Sequence[str], app_s: Sequence[str], align: str) -> DataFrame:
    """Pair the rows of ``r`` (``__ak*``/``__aa*``) with those of ``s`` (``__bk*``/``__ba*``).

    ``align="position"`` pairs the i-th rows under the order schemas;
    ``align="keys"`` joins on ``r.U = s.V`` (equal-length order schemas).
    """
    ra, sb = _renamed(r, by, app_r, "a"), _renamed(s, by2, app_s, "b")
    if align == "keys":
        return ra.join(sb, [ra[f"__ak{i}"] == sb[f"__bk{i}"] for i in range(len(by))], "inner")
    ra = ra.withColumn("__rn", row_position(_names("__ak", len(by))))
    sb = sb.withColumn("__rn", row_position(_names("__bk", len(by2))))
    return ra.join(sb, "__rn", "inner")


def zip_linear(r: DataFrame, by: Sequence[str], s: DataFrame, by2: Sequence[str],
               app_r: Sequence[str], app_s: Sequence[str], op: str, out_schema: Sequence[str],
               align: str = "position") -> DataFrame:
    """Distributed ``add``/``sub``/``emu`` with result schema ``U ∘ V ∘ Ū``.

    ``align="position"`` pairs rows by rank under the order schemas
    (faithful to Def. in Table 2; needs a total sort). ``align="keys"``
    joins on ``r.U = s.V`` — valid exactly when both order parts hold
    the same value sets, in which case it is equivalent and avoids the
    global sort (§8.1 optimisation).
    """
    f = _LINEAR[op]
    out = [F.col(c) for c in [*_names("__ak", len(by)), *_names("__bk", len(by2))]]
    out += [f(F.col(f"__aa{i}"), F.col(f"__ba{i}")) for i in range(len(app_r))]
    j = _aligned(r, by, app_r, s, by2, app_s, align)
    return j.select(*[c.alias(n) for c, n in zip(out, out_schema)])


def _partial_gram(pairs: DataFrame, a_cols: list[str], b_cols: list[str]) -> np.ndarray:
    """``AᵀB`` for columns ``a_cols`` and ``b_cols`` of ``pairs``, from partial sums.

    Each partition emits its ``k1×k2`` partial Gram as one row; the driver
    collects and sums those rows.
    """
    k1, k2 = len(a_cols), len(b_cols)

    def partial(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        acc = np.zeros((k1, k2))
        for b in batches:
            # Column-major n×k blocks: BLAS rounds differently on other layouts.
            a = np.array([b[c].to_numpy(zero_copy_only=False) for c in a_cols]).T
            acc += a.T @ np.array([b[c].to_numpy(zero_copy_only=False) for c in b_cols]).T
        yield pa.RecordBatch.from_arrays([pa.array([acc.ravel()], pa.list_(pa.float64()))], names=["g"])

    rows = pairs.mapInArrow(partial, schema="g array<double>").collect()
    return sum((np.array(row["g"]) for row in rows), np.zeros(k1 * k2)).reshape(k1, k2)


def gram(r: DataFrame, app_r: Sequence[str], s: DataFrame | None = None,
         by: Sequence[str] = (), by2: Sequence[str] = (), app_s: Sequence[str] = ()) -> np.ndarray:
    """``AᵀB`` (or ``AᵀA`` when ``s`` is None) via partial Gram sums.

    The self case needs no row alignment at all; the binary case pairs
    rows positionally first (``cpd`` pairs the i-th sorted rows).
    """
    a_cols = _names("__aa", len(app_r))
    if s is None:
        return _partial_gram(_renamed(r, [], app_r, "a"), a_cols, a_cols)
    pairs = _aligned(r, by, app_r, s, by2, app_s, "position")
    return _partial_gram(pairs, a_cols, _names("__ba", len(app_s)))


def rqr_matrix(r: DataFrame, app_r: Sequence[str]) -> np.ndarray:
    """R factor of the QR decomposition (``RᵀR = AᵀA``, positive diagonal), without any sort."""
    try:
        return np.linalg.cholesky(gram(r, app_r)).T
    except np.linalg.LinAlgError as e:
        raise ValueError(f"CholeskyQR requires a full-rank application part: {e}") from None


def qqr_rows(r: DataFrame, by: Sequence[str], app_r: Sequence[str]) -> DataFrame:
    """CholeskyQR: result relation with schema ``U ∘ Ū`` (Q values).

    Two engine passes: one for the Gram matrix, one multiplying each row
    block by ``R⁻¹``, sent in the task closure (the ``mmu`` kernel). Rows
    keep their own contextual values, so no global sort is required.
    """
    return mmu_rows(r, by, app_r, np.linalg.inv(rqr_matrix(r, app_r)), app_r)


def mmu_rows(r: DataFrame, by: Sequence[str], app_r: Sequence[str],
             right: np.ndarray, out_app: Sequence[str]) -> DataFrame:
    """``mmu`` with the right matrix sent to every task: schema ``U ∘ V̄``.

    ``right`` is the (already U-sorted) ``j1×j2`` matrix of the second
    relation — small by construction, since ``j1`` equals the number of
    application attributes of ``r``. It travels in the closure of the
    ``mapInArrow`` function, which pyspark broadcasts on its own when it
    is large; an explicit broadcast would leave a file in the driver's
    temp directory per call.
    """
    in_fields = {f.name: f for f in r.schema.fields}
    out_schema = T.StructType(
        [in_fields[c] for c in by] + [T.StructField(c, T.DoubleType()) for c in out_app]
    )
    by_l, app_l, out_l = list(by), list(app_r), list(out_app)

    def mul(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        for b in batches:
            a = np.array([b[c].to_numpy(zero_copy_only=False) for c in app_l], dtype=np.float64).T
            prod = a @ right
            yield pa.RecordBatch.from_arrays([*(b[c] for c in by_l), *prod.T], names=[*by_l, *out_l])

    return r.select(*by_l, *app_l).mapInArrow(mul, schema=out_schema)

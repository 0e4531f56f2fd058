"""Matrix/relation constructors and casts (Sections 3 and 4.1).

- column cast ``∇U`` (:func:`column_cast`): ordered list of the sorted
  values of a single key attribute, read from the order part of μ — used
  to *name result columns* for ``tra``, ``usv``, ``opd``.
- schema cast ``ΔU`` (:func:`schema_cast`): single-column matrix of
  attribute names — used as the row-origin column ``C``.
- matrix constructor ``μ_U(r)`` (:func:`matrix_constructor`): the values
  of ``r.U`` sorted by ``U``; complement ``μ̄_U(r)``
  (:func:`matrix_constructor_complement`) takes the application part.
- relation constructor ``γ(m, R)`` (:func:`relation_constructor`): turns
  a matrix plus a schema back into a relation (Spark DataFrame).
- row position (:func:`row_position`): row ``i`` of ``μ_U(r)`` as an
  engine column, for aligning relations without leaving Spark.

The constructors are the bridge between unordered relations and ordered
matrices; every relational matrix operation in :mod:`repro.core.ops` is
defined through them exactly as in Table 2 of the paper.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql import types as T

#: Spark types whose nulls the pandas conversion turns into NaN, a value they also hold.
_NAN_TYPES = (T.FloatType, T.DoubleType)


def application_schema(r: DataFrame, by: Sequence[str]) -> list[str]:
    """``Ū = R - U``: the attributes of ``r`` not in order schema ``by``.

    Order of the remaining attributes follows the relation schema, as in
    the paper (schemas are ordered sets).
    """
    missing = [c for c in by if c not in r.columns]
    if missing:
        raise ValueError(f"order schema attributes {missing} not in schema {r.columns}")
    if len(set(by)) != len(by):
        raise ValueError(f"order schema has duplicate attributes: {list(by)}")
    return [c for c in r.columns if c not in set(by)]


def split_sorted(r: DataFrame, by: Sequence[str]) -> tuple[pd.DataFrame, np.ndarray]:
    """Split ``r`` into (order part, application part) sorted by ``by``.

    Returns the order part as a pandas frame (contextual values, kept as
    relation columns) and the application part as a float64 matrix — the
    results of ``μ_U(r)`` and ``μ̄_U(r)``. This is the "copy to MKL
    format" step of the paper's RMA+MKL backend; its cost is what §8.5
    measures. The copy is one unsorted collect (no range sort, so no
    sampling job or shuffle of its own); the rows are then sorted on the
    driver, stably and in Spark's ascending order: nulls first, NaN after
    every number, ``-0.0`` equal to ``0.0``, strings by code point. A null
    in a floating-point or integral order attribute stays null (a masked
    ``Float`` column), apart from NaN.
    """
    by = list(by)
    app = application_schema(r, by)
    types = {f.name: f.dataType for f in r.schema.fields}
    nan_keys = [c for c in by if isinstance(types[c], _NAN_TYPES)]
    # Columns are read by position: the null flags follow r's own columns, so
    # their names cannot clash, and no per-column projection has to be planned.
    pdf = r.select("*", *[r[c].isNull() for c in nan_keys]).toPandas()
    at = {c: j for j, c in enumerate(r.columns)}
    flag = {c: len(at) + j for j, c in enumerate(nan_keys)}
    order = {}
    for c in by:
        col = pdf.iloc[:, at[c]]
        if col.dtype.kind == "f":  # pandas turned nulls into NaN
            null = pdf.iloc[:, flag[c]] if c in flag else col.isna()
            if null.any():
                col = pd.Series(pd.arrays.FloatingArray(col.to_numpy(), null.to_numpy(dtype=bool)))
        order[c] = col
    ranks = [_ranks(col) for col in order.values()]
    perm = np.lexsort(ranks[::-1]) if ranks else np.arange(len(pdf))
    order_part = pd.DataFrame(order, index=pdf.index).take(perm).reset_index(drop=True)
    # Gather column by column: permuting the whole frame would hold a second
    # copy of it. Column-major like a pandas float block, because BLAS kernels
    # round differently on other layouts.
    m = np.empty((len(pdf), len(app)), order="F")
    for j, c in enumerate(app):
        m[:, j] = pdf.iloc[:, at[c]].to_numpy(dtype=np.float64)[perm]
    return order_part, m


def distinct_keys(order: pd.DataFrame) -> int:
    """``count(DISTINCT struct(U))`` of an order part from :func:`split_sorted`.

    Counted on the driver with Spark's grouping equality: null equals
    null but not NaN, NaN equals NaN, ``-0.0`` equals ``0.0``.
    """
    if order.shape[1] == 0:
        return min(len(order), 1)
    ranks = np.column_stack([_ranks(order[c]) for c in order.columns])
    return len(np.unique(ranks, axis=0))


def _ranks(col: pd.Series) -> np.ndarray:
    """Dense ranks of ``col`` in Spark's ascending order; nulls rank ``-1``.

    Equal ranks mean equal grouping keys. A plain (unmasked) float column
    holds no nulls here (:func:`split_sorted` masks them), so its NaN are
    values: they rank last and equal each other.
    """
    if col.dtype.kind == "f":
        masked = isinstance(col.dtype, pd.api.extensions.ExtensionDtype)
        null = col.isna().to_numpy() if masked else np.zeros(len(col), dtype=bool)
        vals = col.to_numpy(dtype=np.float64, na_value=np.nan)[~null]
    else:
        null = col.isna().to_numpy()
        vals = col.to_numpy()[~null]
    ranks = np.full(len(col), -1, dtype=np.int64)
    ranks[~null] = np.unique(vals, return_inverse=True)[1]  # -0.0 == 0.0; NaN last, as one value
    return ranks


def row_position(by: Sequence[str]) -> Column:
    """Engine-side 1-based position of a row in ``μ_U(r)``: row ``i`` of the matrix.

    ``row_number()`` over ``by`` ascending (Spark's order: nulls first),
    the engine counterpart of the driver-side sort of :func:`split_sorted`.
    The window is unpartitioned, so Spark moves every row to one partition.
    """
    return F.row_number().over(Window.orderBy(*[F.col(c).asc() for c in by]))


def matrix_constructor(r: DataFrame, by: Sequence[str]) -> np.ndarray:
    """``μ_U(r)``: matrix of the values of ``r.U`` sorted by ``U`` (Def. 4.2)."""
    return split_sorted(r.select(*by), by)[0].to_numpy()


def matrix_constructor_complement(r: DataFrame, by: Sequence[str]) -> np.ndarray:
    """``μ̄_U(r)``: matrix of the values of ``r.Ū`` sorted by ``U``."""
    return split_sorted(r, by)[1]


def column_cast(order: pd.DataFrame, attr: str) -> list[str]:
    """``∇U``: sorted values of key attribute ``attr``, as column names (Eq. 2).

    ``order`` is a sorted order part from :func:`split_sorted`. Applicable
    only when the order schema has exactly one attribute; the values must
    be unique after stringification because they become attribute names
    of the result schema.
    """
    names = [_to_name(v) for v in order[attr].tolist()]
    if len(set(names)) != len(names):
        raise ValueError(
            f"column cast of {attr!r} yields duplicate attribute names; "
            "the order schema must be a key with distinct printable values"
        )
    return names


def schema_cast(attrs: Sequence[str]) -> np.ndarray:
    """``ΔU``: single-column matrix of the attribute names of ``U`` (Eq. 4)."""
    return np.array(list(attrs), dtype=object).reshape(-1, 1)


def _to_name(v) -> str:
    """Render an order-part value as a result attribute name."""
    if v is pd.NA or v is pd.NaT:
        return str(None)
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def relation_constructor(
    spark: SparkSession,
    parts: Sequence[np.ndarray | pd.DataFrame],
    schema: Sequence[str],
) -> DataFrame:
    """``γ(m, R)``: build a relation from concatenated matrices (Def. 4.4).

    ``parts`` are matrices/frames with equal row counts; their columnwise
    concatenation (the ``□`` of Eq. 3) is zipped with attribute names
    ``schema``. Numeric parts become doubles; contextual parts keep
    their values. Raises if attribute names collide — the relation
    constructor requires a well-formed schema.
    """
    names = list(schema)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"result schema has duplicate attributes {dupes}; rename "
            "(ρ) argument attributes so origins stay distinguishable"
        )
    cols: dict[str, object] = {}
    n_rows = None
    i = 0
    for part in parts:
        if isinstance(part, pd.DataFrame):
            block = part.reset_index(drop=True)
            block_cols = [block[c] for c in block.columns]
        else:
            arr = np.asarray(part)
            if arr.ndim == 1:
                arr = arr.reshape(-1, 1)
            block_cols = [arr[:, j] for j in range(arr.shape[1])]
        for col in block_cols:
            if n_rows is None:
                n_rows = len(col)
            elif len(col) != n_rows:
                raise ValueError("matrix concatenation requires equal row counts")
            cols[names[i]] = col
            i += 1
    if i != len(names):
        raise ValueError(f"schema has {len(names)} attributes but parts supply {i} columns")
    pdf = pd.DataFrame(cols if cols else {}, columns=names)
    for c in pdf.columns:
        if pd.api.types.is_numeric_dtype(pdf[c]):
            pdf[c] = pdf[c].astype(np.float64)
    return spark.createDataFrame(pdf)

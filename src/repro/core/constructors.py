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
matrices. :mod:`repro.core.ops` builds every relational matrix operation
of Table 2 of the paper from :func:`split_sorted` (μ and μ̄ from one
collect), :func:`column_cast`, :func:`schema_cast` and
:func:`relation_constructor`; :func:`matrix_constructor` and
:func:`matrix_constructor_complement` are the paper's μ and μ̄ as
defined, on which the Figure 2–3 tests rest. Data crosses
between Spark and the driver as Arrow tables, whose validity bitmaps keep
a null apart from every value (NaN included), so an order part keeps the
Spark type and value of every origin.

μ costs one ``toArrow`` collect per input that γ did not build. γ keeps
the Arrow table it hands to ``createDataFrame`` for as long as the
relation it returns is alive, and μ of that very relation reads the
table instead: a relation built by ``createDataFrame`` cannot change, and
a projection or any other derived relation is a new object that μ
collects as usual. Spark receives that table as lazy partitions, one per
Arrow batch, never as a driver-local relation.
"""
from __future__ import annotations

import threading
import weakref
from typing import Sequence

import numpy as np
import pyarrow as pa
from pyspark.sql import Column, DataFrame, SparkSession, Window
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_schema
from pyspark.sql.utils import is_timestamp_ntz_preferred


#: Spark's guard on the bytes one action may collect to the driver.
_MAX_RESULT_SIZE = "spark.driver.maxResultSize"

#: Arrow data below this many bytes becomes an eager ``LocalRelation`` in
#: ``createDataFrame``; γ sets it to 0 for its one call.
_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"

#: Held while γ has the threshold set, so that two threads cannot
#: restore each other's value and leave the session's changed.
_THRESHOLD_LOCK = threading.Lock()

#: The Arrow table of each relation that γ built, alive as long as the
#: relation. DataFrames hash by identity, so only that object finds it.
_BUILT: weakref.WeakKeyDictionary[DataFrame, pa.Table] = weakref.WeakKeyDictionary()


class DriverLimitError(ValueError):
    """μ's collect was aborted: the input does not fit ``spark.driver.maxResultSize``."""


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


def split_sorted(r: DataFrame, by: Sequence[str], check: bool = False) -> tuple[pa.Table, np.ndarray]:
    """Split ``r`` into (order part, application part) sorted by ``by``.

    Returns the order part as an Arrow table (contextual values, kept as
    relation columns with their Spark type) and the application part as a
    float64 matrix — the results of ``μ_U(r)`` and ``μ̄_U(r)``. This is the
    "copy to MKL format" step of the paper's RMA+MKL backend; its cost is
    what §8.5 measures. The copy is one unsorted Arrow collect (no range
    sort, so no sampling job or shuffle of its own) per input that γ did
    not build; a relation that :func:`relation_constructor` returned is
    read from the Arrow table γ kept, and starts no Spark job. The rows
    are then sorted on the driver, stably and in Spark's ascending order:
    nulls first, NaN after every number, ``-0.0`` equal to ``0.0``,
    strings by code point. A null application value reads as NaN.

    With ``check``, the copy validates ``r``: a null application value
    raises (found from Arrow's ``null_count``, with no pass over the data),
    and so does an order schema that is not a key — two neighbours of the
    sort with equal ranks in every order attribute, which is Spark's
    grouping equality (null equals null but not NaN, NaN equals NaN,
    ``-0.0`` equals ``0.0``). The messages do not name an operation;
    ``ops`` prefixes its own.

    Spark aborts the collect when it exceeds ``spark.driver.maxResultSize``;
    that raises :class:`DriverLimitError`, naming the limit. A relation γ
    built is already on the driver, so the limit does not apply to it.
    """
    by = list(by)
    app = application_schema(r, by)
    t = _BUILT.get(r)
    if t is None:
        try:
            t = r.toArrow()
        except Exception as e:  # Spark aborts the collect job; pyspark re-raises the JVM error
            if _MAX_RESULT_SIZE not in str(e):
                raise
            limit = r.sparkSession.sparkContext.getConf().get(_MAX_RESULT_SIZE, "1g")
            raise DriverLimitError(f"the input does not fit {_MAX_RESULT_SIZE} = {limit} on the driver") from None
    ranks = [_ranks(t[c]) for c in by]
    perm = np.lexsort(ranks[::-1]) if by else np.arange(t.num_rows)
    if check:
        check_no_nulls([c for c in app if t[c].null_count])
        tie = np.ones(max(t.num_rows - 1, 0), dtype=bool)  # row i of the sort ties row i + 1
        for rk in ranks:
            tie &= np.diff(rk[perm]) == 0
        if tie.any():
            raise ValueError(f"order schema {by} does not form a key")
    # A table without columns keeps its row count, but not through take.
    order = t.select(by).take(perm) if by else t.select(by)
    # Gather column by column: permuting the whole table would hold a second
    # copy of it. Column-major, because BLAS kernels round differently on
    # other layouts.
    m = np.empty((t.num_rows, len(app)), order="F")
    for j, c in enumerate(app):
        m[:, j] = t[c].to_numpy()[perm]
    return order, m


def check_no_nulls(attrs: Sequence[str]) -> None:
    """Reject application attributes ``attrs`` that hold nulls: a matrix has no null cell.

    The message names the attributes, not the operation; ``ops`` prefixes it.
    """
    if attrs:
        raise ValueError(f"application attribute(s) {list(attrs)} hold nulls")


def _ranks(col: pa.ChunkedArray) -> np.ndarray:
    """Dense ranks of ``col`` in Spark's ascending order; nulls rank ``-1``.

    Equal ranks mean equal grouping keys. NaN is a value, not a null: it
    ranks after every number, and all NaN rank equal. Integral values are
    ranked as integers, so no two of them meet through a float.
    """
    null = col.is_null().to_numpy()
    ranks = np.full(len(col), -1, dtype=np.int64)
    ranks[~null] = np.unique(col.drop_null().to_numpy(), return_inverse=True)[1]  # -0.0 == 0.0
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
    return np.column_stack(split_sorted(r.select(*by), by)[0].columns)


def matrix_constructor_complement(r: DataFrame, by: Sequence[str]) -> np.ndarray:
    """``μ̄_U(r)``: matrix of the values of ``r.Ū`` sorted by ``U``."""
    return split_sorted(r, by)[1]


def column_cast(order: pa.Table, attr: str) -> list[str]:
    """``∇U``: sorted values of key attribute ``attr``, as column names (Eq. 2).

    ``order`` is a sorted order part from :func:`split_sorted`. Applicable
    only when the order schema has exactly one attribute; the values must
    be unique after stringification because they become attribute names
    of the result schema.
    """
    names = [_to_name(v) for v in order[attr].to_pylist()]
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
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def relation_constructor(
    spark: SparkSession,
    parts: Sequence[np.ndarray | pa.Table],
    schema: Sequence[str],
) -> DataFrame:
    """``γ(m, R)``: build a relation from concatenated matrices (Def. 4.4).

    ``parts`` are matrices and order parts (Arrow tables) with equal row
    counts; their columnwise concatenation (the ``□`` of Eq. 3) is zipped
    with attribute names ``schema``. Numeric matrices become doubles,
    other matrices keep their values, and order parts keep their Spark
    types and values. Raises if attribute names collide — the relation
    constructor requires a well-formed schema.

    The Arrow table handed to ``createDataFrame`` is kept for
    :func:`split_sorted` of the returned relation, as long as that
    relation lives. A float64 matrix is not copied before ``pa.array``,
    which wraps a contiguous column and copies a strided one, so the
    caller must not change the matrix afterwards.

    The relation's partitions are the table's Arrow batches.
    ``createDataFrame`` runs with ``localRelationThreshold`` at 0, so Spark
    never builds an eager ``LocalRelation`` (rows converted on the driver
    at once, and a row projection generated per schema); it converts the
    batches only when it scans them. The caller's setting is restored
    afterwards. The price: collecting a tiny result starts one job, where a
    ``LocalRelation`` started none.
    """
    names = list(schema)
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(
            f"result schema has duplicate attributes {dupes}; rename "
            "(ρ) argument attributes so origins stay distinguishable"
        )
    cols: list[tuple[pa.Field | None, pa.Array | pa.ChunkedArray]] = []
    for part in parts:
        if isinstance(part, pa.Table):
            cols += zip(part.schema, part.columns)
            continue
        arr = np.asarray(part)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.dtype.kind in "biuf":
            arr = arr.astype(np.float64, copy=False)
        cols += [(None, pa.array(col)) for col in arr.T]
    if len({len(col) for _, col in cols}) > 1:
        raise ValueError("matrix concatenation requires equal row counts")
    if len(cols) != len(names):
        raise ValueError(f"schema has {len(names)} attributes but parts supply {len(cols)} columns")
    fields = [pa.field(n, col.type) if f is None else f.with_name(n) for n, (f, col) in zip(names, cols)]
    t = pa.Table.from_arrays([col for _, col in cols], schema=pa.schema(fields))
    # Without a schema, pyspark adds the fields to a StructType one at a
    # time, and each addition rescans every field: quadratic in the width.
    spark_schema = from_arrow_schema(t.schema, is_timestamp_ntz_preferred())
    with _THRESHOLD_LOCK:
        caller = spark.conf.get(_LOCAL_RELATION_THRESHOLD, None)
        spark.conf.set(_LOCAL_RELATION_THRESHOLD, "0")
        try:
            r = spark.createDataFrame(t, spark_schema)
        finally:
            if caller is None:
                spark.conf.unset(_LOCAL_RELATION_THRESHOLD)
            else:
                spark.conf.set(_LOCAL_RELATION_THRESHOLD, caller)
    _BUILT[r] = t
    return r

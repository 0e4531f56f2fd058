r"""The 19 relational matrix operations (Section 4, Table 2).

Every operation is closed: it takes relations (Spark DataFrames) plus an
*order schema* per argument and returns a relation. The order schema
``by`` must form a key; the remaining attributes form the *application
schema* (numeric data the matrix operation is applied to). Result
relations carry row and column *origins* morphed from the inputs
according to the operation's shape type, exactly as in Table 2:

=============  ==========  ================================================
shape type     operations  result schema
=============  ==========  ================================================
``(r1,r1)``    usv         ``U ∘ ∇U``
``(r1,r2)``    opd         ``U ∘ ∇V``
``(r1,c1)``    inv evc     ``U ∘ Ū``
\              chf qqr
``(r1,c2)``    mmu         ``U ∘ V̄``
``(r1,1)``     evl vsv     ``U ∘ (op)``
``(c1,r1)``    tra         ``(C) ∘ ∇U``  (C values = Ū)
``(c1,c1)``    rqr dsv     ``(C) ∘ Ū``   (C values = Ū)
``(c1,c2)``    cpd sol     ``(C) ∘ V̄``   (C values = Ū)
``(r*,c*)``    emu add     ``U ∘ V ∘ Ū``
\              sub
``(1,1)``      det rnk     ``(C, op)``   (single tuple ``('op', value)``)
=============  ==========  ================================================

The result schema is derived from the shape type alone (:func:`_apply`):
the rows axis picks the row origins, the cols axis the column names.
Each input is validated once, in one step: μ checks a copy on the driver,
one aggregation an input that stays in the engine. The operand shapes are
then checked once per call, on every backend, against
``shapes.OPERAND_CONSTRAINTS``; the kernels assume checked operands. Every
``ValueError`` of a call starts with ``<op>: ``, which one ``except`` in
:func:`_apply` adds; no check below it names the op.

Backends (``backend=`` keyword):

- ``"local"`` — the RMA+MKL analogue: copy each input to the driver in
  one unsorted Arrow collect (none for a relation γ built, whose Arrow
  table is still there), then sort it, check there that its order
  schema is a key and its application part holds no null, read ``∇``
  there, run numpy/LAPACK, rebuild the relation.
- ``"spark"`` — distributed kernels (:mod:`repro.core.distributed`) for
  ``add``/``sub``/``emu``, ``cpd``, ``mmu``, ``qqr``, ``rqr``.
- ``"bat"`` — the faithful columnwise kernels (:mod:`repro.batops`) for
  ``inv`` (Algorithm 2) and ``qqr``/``rqr`` (Gram-Schmidt).
- ``"auto"`` — ``local`` for every operation, as long as each copy fits
  ``spark.driver.maxResultSize``. When Spark aborts a copy for exceeding
  it, ``add``/``sub``/``emu``/``cpd``/``mmu`` rerun on their spark kernel,
  which is as accurate as LAPACK; the other operations raise a
  ``ValueError`` naming the operation and the limit.
"""
from __future__ import annotations

from collections import ChainMap, namedtuple
from typing import Sequence

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.batops import kernels as bat
from repro.core import distributed, matrix_ops
from repro.core.constructors import (
    DriverLimitError,
    application_schema,
    check_no_nulls,
    column_cast,
    relation_constructor,
    schema_cast,
    split_sorted,
)
from repro.core.shapes import OPERAND_CONSTRAINTS, Dim, shape_type

C_ATTR = "C"
_ALIGNS = ("position", "keys")
_KEY_SETS = "align='keys' needs both order schemas to hold the same key values"


def _norm(by: str | Sequence[str]) -> list[str]:
    return [by] if isinstance(by, str) else list(by)


#: The checked arguments of one RMA call, as the spark kernels see them;
#: ``n`` is the sorted matrix of ``s`` when it was copied to the driver, and
#: ``shared`` means both arguments are one relation under one order schema.
_Call = namedtuple("_Call", "op r by app_r s by2 app_s n schema align shared")


def _columnwise(kernel):
    """Run a BAT kernel (lists of 1-D columns) on matrices."""
    return lambda *ms: bat.from_bats(kernel(*[bat.as_bats(m) for m in ms]))


def _zip(c: _Call) -> DataFrame:
    return distributed.zip_linear(c.r, c.by, c.s, c.by2, c.app_r, c.app_s, c.op, c.schema, align=c.align)


# The kernels of each backend. LAPACK and BAT kernels take the sorted
# matrices; spark kernels take the call and return the result relation, or
# a small matrix that is rebuilt with γ. Entries look their functions up
# when they run, and the local table reads ``matrix_ops.UNARY``/``BINARY``
# at each lookup, so any of them can be swapped.
_KERNELS = {
    "local": ChainMap(matrix_ops.UNARY, matrix_ops.BINARY),
    "spark": {
        "add": _zip,
        "sub": _zip,
        "emu": _zip,
        "cpd": lambda c: (distributed.gram(c.r, c.app_r) if c.shared
                          else distributed.gram(c.r, c.app_r, c.s, c.by, c.by2, c.app_s)),
        "mmu": lambda c: distributed.mmu_rows(c.r, c.by, c.app_r, c.n, c.app_s),
        "qqr": lambda c: distributed.qqr_rows(c.r, c.by, c.app_r),
        "rqr": lambda c: distributed.rqr_matrix(c.r, c.app_r),
    },
    "bat": {
        "inv": _columnwise(bat.gauss_jordan_inv),
        "qqr": _columnwise(lambda b: bat.gram_schmidt_qr(b)[0]),
        "rqr": _columnwise(lambda b: bat.gram_schmidt_qr(b)[1]),
    },
}


#: Operations whose spark kernel is as accurate as LAPACK, so that ``auto``
#: reruns them there when an input does not fit on the driver. CholeskyQR
#: (``qqr``/``rqr``) squares κ, and ``sol`` has no spark kernel: those raise.
_FALLBACK = ("add", "sub", "emu", "cpd", "mmu")


def _backend(op: str, backend: str) -> str:
    """Resolve ``auto`` to ``local``; reject unknown backends and those without a kernel for ``op``."""
    if backend == "auto" or op in _KERNELS.get(backend, ()):
        return "local" if backend == "auto" else backend
    usable = ["auto", *[b for b, table in _KERNELS.items() if op in table]]
    raise ValueError(f"no {backend.upper()} kernel for backend={backend!r}; use one of {usable}")


def _application(r: DataFrame, by: list[str]) -> list[str]:
    """Check the application schema Ū of ``r`` is non-empty and numeric; return it."""
    app = application_schema(r, by)
    if not app:
        raise ValueError("application schema is empty (every attribute is in the order schema)")
    fields = {f.name: f.dataType for f in r.schema.fields}
    bad = [c for c in app if not isinstance(fields[c], T.NumericType)]
    if bad:
        raise ValueError(
            f"application attributes must be numeric; {bad} are not "
            "(add them to the order schema or project them away)"
        )
    return app


def _input(r: DataFrame, by: list[str], app: list[str], copy: bool) -> tuple:
    """One checked input of a call: ``(order, m, tuples)``.

    A ``copy`` is μ of ``r``, validated by :func:`split_sorted` on the
    driver. An input that stays in the engine is ``(None, None, tuples)``,
    after one aggregation checks that ``by`` is a key and ``app`` holds no
    null: ``count(1)``, ``count(DISTINCT struct(U))`` and ``count(Ū)``, the
    tuples without a null application value; only if that falls short does
    a second aggregation name the attributes that hold nulls. Keys are
    counted as Spark groups them: nulls equal each other, NaN equals NaN,
    ``-0.0`` equals ``0.0``.
    """
    if copy:
        order, m = split_sorted(r, by, check=True)
        return order, m, order.num_rows
    n, keys, full = r.agg(F.count(F.lit(1)), F.count_distinct(F.struct(*by)),
                          F.call_function("count", *[F.col(c) for c in app])).first()
    if keys != n:
        raise ValueError(f"order schema {by} does not form a key")
    if full != n:
        counts = r.agg(*[F.count(c) for c in app]).first()
        check_no_nulls([c for c, k in zip(app, counts) if k != n])
    return None, None, n


def _same_keys(order_r, order_s) -> bool:
    """Whether the i-th rows of two sorted order parts join, for every i.

    Join equality: a null matches nothing, NaN equals NaN, ``-0.0``
    equals ``0.0``. Both parts are keys of equally many rows, so this
    holds exactly when they hold the same key values.
    """
    for a, b in zip(order_r.columns, order_s.columns):
        if a.null_count or b.null_count:
            return False
        a, b = a.to_numpy(), b.to_numpy()
        if not np.all((a == b) | ((a != a) & (b != b))):
            return False
    return True


def _apply(
    op: str,
    r: DataFrame,
    by: str | Sequence[str],
    s: DataFrame | None = None,
    by2: str | Sequence[str] = (),
    *,
    backend: str,
    align: str = "position",
) -> DataFrame:
    """Run relational matrix operation ``op``; its shape type fixes the result schema.

    Every ``ValueError`` of the call leaves here, and only here, prefixed
    ``"<op>: "``; a :class:`DriverLimitError` stays one.
    """
    try:
        st = shape_type(op)
        by, by2 = _norm(by), _norm(by2)
        shared = s is r and by2 == by
        auto = backend == "auto"
        backend = _backend(op, backend)
        if align not in _ALIGNS:
            raise ValueError(f"unknown align {align!r}; use one of {list(_ALIGNS)}")
        if align == "keys" and len(by) != len(by2):
            raise ValueError("key alignment requires order schemas of equal length")
        app_r = _application(r, by)
        app_s = _application(s, by2) if st.binary else []
        cast = {Dim.R1: by, Dim.R2: by2}.get(st.cols)  # result columns named by ∇ of this order schema
        if cast is not None and len(cast) != 1:
            raise ValueError(
                f"the order schema {cast} must have exactly one attribute "
                "(its column cast ∇ names the result columns)"
            )

        # Each input goes through one step: μ if the kernel reads it on the
        # driver (a LAPACK/BAT kernel every input, the spark mmu its right
        # operand), else one validating aggregation; a shared input goes
        # through once. Under auto, a copy that Spark aborts sends the call
        # to the engine.
        def inputs(backend: str) -> tuple:
            copy_r, copy_s = backend != "spark", backend != "spark" or op == "mmu"
            first = _input(r, by, app_r, copy_s if shared else copy_r)
            return first, (first if shared or not st.binary else _input(s, by2, app_s, copy_s))

        try:
            (order_r, m, n_r), (order_s, n, n_s) = inputs(backend)
        except DriverLimitError as e:
            if not auto:
                raise
            if op not in _FALLBACK:
                raise DriverLimitError(f"{e}; {op} has no spark kernel as accurate as LAPACK") from None
            backend = "spark"
            (order_r, m, n_r), (order_s, n, n_s) = inputs(backend)
        dims = {"r1": n_r, "c1": len(app_r), "r2": n_s, "c2": len(app_s)}
        for names, holds, message in OPERAND_CONSTRAINTS:
            if op in names and not holds(**dims):
                raise ValueError(message.format(**dims))
        # LAPACK pairs the i-th sorted rows, the spark kernel joins on the keys:
        # the same pairing exactly when both hold the same key values. The
        # sorted order parts tell that before any matrix work; the spark kernel
        # counts its join's rows after it.
        if align == "keys" and backend != "spark" and not _same_keys(order_r, order_s):
            raise ValueError(_KEY_SETS)

        rows = {Dim.R1: by, Dim.RS: [*by, *by2]}.get(st.rows, [C_ATTR])
        if cast is not None:
            cols = column_cast(order_r if st.cols is Dim.R1 else order_s, cast[0])
        else:
            cols = {Dim.C2: app_s, Dim.ONE: [op]}.get(st.cols, app_r)
        schema = [*rows, *cols]
        if len(set(schema)) != len(schema):
            raise ValueError(
                f"result attributes {schema} clash; rename (ρ) attributes "
                "so that the origins of every cell stay distinguishable"
            )

        if backend == "spark":
            args = (_Call(op, r, by, app_r, s, by2, app_s, n, schema, align, shared),)
        else:
            args = (m, n) if st.binary else (m,)
        base = _KERNELS[backend][op](*args)  # raises only on values: a zero pivot, a rank deficiency, ...
        if align == "keys" and backend == "spark" and base.count() != n_r:
            raise ValueError(_KEY_SETS)
        if isinstance(base, DataFrame):
            return base
        origins = {Dim.R1: [order_r], Dim.RS: [order_r, order_s], Dim.C1: [schema_cast(app_r)]}
        parts = origins.get(st.rows, [np.array([[op]], dtype=object)])
        return relation_constructor(r.sparkSession, [*parts, base], schema)
    except ValueError as e:
        raise (DriverLimitError if isinstance(e, DriverLimitError) else ValueError)(f"{op}: {e}") from e


# --- public API (one function per operation) ----------------------------

def emu(r, s, by, by2, *, backend="auto", align="position") -> DataFrame:
    """``emu_{U;V}(r, s)``: element-wise multiplication; schema ``U ∘ V ∘ Ū``."""
    return _apply("emu", r, by, s, by2, backend=backend, align=align)


def add(r, s, by, by2, *, backend="auto", align="position") -> DataFrame:
    """``add_{U;V}(r, s)``: matrix addition; schema ``U ∘ V ∘ Ū``."""
    return _apply("add", r, by, s, by2, backend=backend, align=align)


def sub(r, s, by, by2, *, backend="auto", align="position") -> DataFrame:
    """``sub_{U;V}(r, s)``: matrix subtraction; schema ``U ∘ V ∘ Ū``."""
    return _apply("sub", r, by, s, by2, backend=backend, align=align)


def mmu(r, s, by, by2, *, backend="auto") -> DataFrame:
    """``mmu_{U;V}(r, s)``: matrix multiplication; schema ``U ∘ V̄``."""
    return _apply("mmu", r, by, s, by2, backend=backend)


def opd(r, s, by, by2, *, backend="auto") -> DataFrame:
    """``opd_{U;V}(r, s)``: outer product; schema ``U ∘ ∇V``."""
    return _apply("opd", r, by, s, by2, backend=backend)


def cpd(r, s, by, by2, *, backend="auto") -> DataFrame:
    """``cpd_{U;V}(r, s)``: cross product ``AᵀB``; schema ``(C) ∘ V̄``.

    With ``backend="auto"`` it runs on LAPACK; the self cross product
    (``r is s``) copies its one input once. Only an input too large for
    the driver runs distributed, via partial Gram matrices, and the self
    cross product then needs no sort (§8.1 optimisation).
    """
    return _apply("cpd", r, by, s, by2, backend=backend)


def sol(r, s, by, by2, *, backend="auto") -> DataFrame:
    """``sol_{U;V}(r, s)``: least-squares solve of ``r·x = s``; schema ``(C) ∘ V̄``."""
    return _apply("sol", r, by, s, by2, backend=backend)


def tra(r, by, *, backend="auto") -> DataFrame:
    """``tra_U(r)``: transpose; schema ``(C) ∘ ∇U``, C values = ``Ū``."""
    return _apply("tra", r, by, backend=backend)


def inv(r, by, *, backend="auto") -> DataFrame:
    """``inv_U(r)``: matrix inversion; schema ``U ∘ Ū``."""
    return _apply("inv", r, by, backend=backend)


def evc(r, by, *, backend="auto") -> DataFrame:
    """``evc_U(r)``: eigenvectors; schema ``U ∘ Ū``."""
    return _apply("evc", r, by, backend=backend)


def evl(r, by, *, backend="auto") -> DataFrame:
    """``evl_U(r)``: eigenvalues; schema ``U ∘ (evl)``."""
    return _apply("evl", r, by, backend=backend)


def qqr(r, by, *, backend="auto") -> DataFrame:
    """``qqr_U(r)``: Q of the QR decomposition; schema ``U ∘ Ū``."""
    return _apply("qqr", r, by, backend=backend)


def rqr(r, by, *, backend="auto") -> DataFrame:
    """``rqr_U(r)``: R of the QR decomposition; schema ``(C) ∘ Ū``."""
    return _apply("rqr", r, by, backend=backend)


def dsv(r, by, *, backend="auto") -> DataFrame:
    """``dsv_U(r)``: diagonal matrix of singular values; schema ``(C) ∘ Ū``."""
    return _apply("dsv", r, by, backend=backend)


def usv(r, by, *, backend="auto") -> DataFrame:
    """``usv_U(r)``: left singular vectors; schema ``U ∘ ∇U`` (needs ``|U|=1``)."""
    return _apply("usv", r, by, backend=backend)


def vsv(r, by, *, backend="auto") -> DataFrame:
    """``vsv_U(r)``: singular values as a column; schema ``U ∘ (vsv)``."""
    return _apply("vsv", r, by, backend=backend)


def det(r, by, *, backend="auto") -> DataFrame:
    """``det_U(r)``: determinant; single-tuple relation with schema ``(C, det)``."""
    return _apply("det", r, by, backend=backend)


def rnk(r, by, *, backend="auto") -> DataFrame:
    """``rnk_U(r)``: numerical rank; single-tuple relation with schema ``(C, rnk)``."""
    return _apply("rnk", r, by, backend=backend)


def chf(r, by, *, backend="auto") -> DataFrame:
    """``chf_U(r)``: Cholesky factor (upper, ``RᵀR=A``); schema ``U ∘ Ū``."""
    return _apply("chf", r, by, backend=backend)


#: name → callable, for the SQL front-end and generic tests.
UNARY_OPS = {"tra": tra, "inv": inv, "evc": evc, "evl": evl, "qqr": qqr, "rqr": rqr,
             "dsv": dsv, "usv": usv, "vsv": vsv, "det": det, "rnk": rnk, "chf": chf}
BINARY_OPS = {"emu": emu, "add": add, "sub": sub, "mmu": mmu, "opd": opd, "cpd": cpd, "sol": sol}

"""Shape-type registry tests — Table 1 of the paper, verbatim."""
import inspect

import numpy as np
import pytest

from repro.core import matrix_ops, ops
from repro.core.shapes import (
    SHAPE_TYPES,
    Dim,
    ShapeType,
    shape_type,
)

ALL_OPS = [
    "emu", "mmu", "opd", "cpd", "add", "sub", "tra", "sol", "inv", "evc",
    "evl", "qqr", "rqr", "dsv", "usv", "vsv", "det", "rnk", "chf",
]


def test_all_19_operations_registered():
    assert sorted(SHAPE_TYPES) == sorted(ALL_OPS)
    assert len(SHAPE_TYPES) == 19


def test_public_ops_cover_table1_with_fixed_options():
    """One public function per Table 1 operation; its only keyword-only
    options are ``backend``, plus ``align`` for the linear operations."""
    public = ops.UNARY_OPS | ops.BINARY_OPS
    assert public.keys() == SHAPE_TYPES.keys()
    for name, fn in public.items():
        params = inspect.signature(fn).parameters.values()
        options = [p.name for p in params if p.kind is p.KEYWORD_ONLY]
        assert options == (["backend", "align"] if name in ("add", "sub", "emu") else ["backend"]), name


@pytest.mark.parametrize(
    "op,expected",
    [
        ("usv", "(r1,r1)"),
        ("opd", "(r1,r2)"),
        ("inv", "(r1,c1)"),
        ("evc", "(r1,c1)"),
        ("chf", "(r1,c1)"),
        ("qqr", "(r1,c1)"),
        ("mmu", "(r1,c2)"),
        ("evl", "(r1,1)"),
        ("vsv", "(r1,1)"),
        ("tra", "(c1,r1)"),
        ("rqr", "(c1,c1)"),
        ("dsv", "(c1,c1)"),
        ("cpd", "(c1,c2)"),
        ("sol", "(c1,c2)"),
        ("emu", "(r*,c*)"),
        ("add", "(r*,c*)"),
        ("sub", "(r*,c*)"),
        ("det", "(1,1)"),
        ("rnk", "(1,1)"),
    ],
)
def test_shape_types_match_table1(op, expected):
    assert str(shape_type(op)) == expected


@pytest.mark.parametrize(
    "op,binary",
    [(o, o in {"emu", "mmu", "opd", "cpd", "add", "sub", "sol"}) for o in ALL_OPS],
)
def test_arity(op, binary):
    assert shape_type(op).binary is binary


@pytest.mark.parametrize(
    "op,d1,d2,expected",
    [
        ("mmu", (3, 4), (4, 2), (3, 2)),     # i1×j1, j1×j2 → i1×j2
        ("opd", (3, 4), (5, 4), (3, 5)),     # i1×j1, i2×j1 → i1×i2
        ("cpd", (5, 3), (5, 2), (3, 2)),     # i1×j1, i1×j2 → j1×j2
        ("sol", (5, 3), (5, 1), (3, 1)),     # i1×j1, i1×1 → j1×1
        ("add", (4, 3), (4, 3), (4, 3)),
        ("emu", (4, 3), (4, 3), (4, 3)),
        ("sub", (4, 3), (4, 3), (4, 3)),
        ("tra", (4, 3), None, (3, 4)),       # i1×j1 → j1×i1
        ("qqr", (4, 3), None, (4, 3)),
        ("rqr", (4, 3), None, (3, 3)),
        ("dsv", (4, 3), None, (3, 3)),
        ("usv", (4, 3), None, (4, 4)),       # i1×j1 → i1×i1
        ("vsv", (4, 3), None, (4, 1)),
        ("inv", (3, 3), None, (3, 3)),
        ("evc", (3, 3), None, (3, 3)),
        ("chf", (3, 3), None, (3, 3)),
        ("evl", (3, 3), None, (3, 1)),
        ("det", (3, 3), None, (1, 1)),
        ("rnk", (4, 3), None, (1, 1)),
    ],
)
def test_result_dims_follow_table1(op, d1, d2, expected):
    """The base kernels return the (rows, cols) that Table 1 gives each operation."""
    g = np.random.default_rng(0)
    m = g.random(d1)
    if d1[0] == d1[1]:
        m = m @ m.T + d1[0] * np.eye(d1[0])  # symmetric positive definite: every square kernel applies
    out = matrix_ops.UNARY[op](m) if d2 is None else matrix_ops.BINARY[op](m, g.random(d2))
    assert out.shape == expected


def test_unknown_op_raises():
    with pytest.raises(ValueError, match="unknown matrix operation"):
        shape_type("nope")


def test_shape_type_str_and_fields():
    st = ShapeType(Dim.R1, Dim.C2, binary=True)
    assert st.rows is Dim.R1 and st.cols is Dim.C2 and str(st) == "(r1,c2)"

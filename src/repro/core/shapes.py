"""Shape types of matrix operations (Table 1 of the paper).

Matrix operations are *shape restricted*: the number of result rows
(columns) equals the number of rows of one input (``r1``/``r2``/``r*``),
the number of columns of one input (``c1``/``c2``/``c*``), or one
(``one``). The shape type drives how contextual information (origins) is
inherited in relational matrix operations (Tables 2 and 3). The operand
constraints of §3.2 (e.g. MMU multiplies ``i1×j1 · j1×j2``) are the one
shape check of every call; kernels assume operands that pass it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Dim(str, Enum):
    """One axis of a shape type: where the result dimensionality comes from."""

    R1 = "r1"  # rows of first input
    R2 = "r2"  # rows of second input
    RS = "r*"  # rows of both inputs (they must agree)
    C1 = "c1"  # columns of first input
    C2 = "c2"  # columns of second input
    CS = "c*"  # columns of both inputs (they must agree)
    ONE = "1"  # exactly one


@dataclass(frozen=True)
class ShapeType:
    """Shape type (rows, cols) of a matrix operation, per Table 1."""

    rows: Dim
    cols: Dim
    binary: bool  # does the operation take two argument matrices?

    def __str__(self) -> str:  # e.g. "(r1,c2)"
        return f"({self.rows.value},{self.cols.value})"


# Table 1: shape types of the matrix operations of the R matrix algebra.
SHAPE_TYPES: dict[str, ShapeType] = {
    "usv": ShapeType(Dim.R1, Dim.R1, binary=False),
    "opd": ShapeType(Dim.R1, Dim.R2, binary=True),
    "inv": ShapeType(Dim.R1, Dim.C1, binary=False),
    "evc": ShapeType(Dim.R1, Dim.C1, binary=False),
    "chf": ShapeType(Dim.R1, Dim.C1, binary=False),
    "qqr": ShapeType(Dim.R1, Dim.C1, binary=False),
    "mmu": ShapeType(Dim.R1, Dim.C2, binary=True),
    "evl": ShapeType(Dim.R1, Dim.ONE, binary=False),
    "vsv": ShapeType(Dim.R1, Dim.ONE, binary=False),
    "tra": ShapeType(Dim.C1, Dim.R1, binary=False),
    "rqr": ShapeType(Dim.C1, Dim.C1, binary=False),
    "dsv": ShapeType(Dim.C1, Dim.C1, binary=False),
    "cpd": ShapeType(Dim.C1, Dim.C2, binary=True),
    "sol": ShapeType(Dim.C1, Dim.C2, binary=True),
    "emu": ShapeType(Dim.RS, Dim.CS, binary=True),
    "add": ShapeType(Dim.RS, Dim.CS, binary=True),
    "sub": ShapeType(Dim.RS, Dim.CS, binary=True),
    "det": ShapeType(Dim.ONE, Dim.ONE, binary=False),
    "rnk": ShapeType(Dim.ONE, Dim.ONE, binary=False),
}


# The operand constraints of §3.2, over the tuple counts r1, r2 and the
# application-attribute counts c1, c2 of the inputs: the operations that
# carry each, when it holds, and what a violation says.
OPERAND_CONSTRAINTS = (
    (("add", "sub", "emu", "cpd", "sol"), lambda r1, r2, **_: r1 == r2,
     "inputs must have the same number of tuples, got {r1} and {r2}"),
    (("add", "sub", "emu", "opd"), lambda c1, c2, **_: c1 == c2,
     "application schemas must be union compatible, got {c1} vs {c2} attributes"),
    (("mmu",), lambda c1, r2, **_: c1 == r2,
     "inner dimensions differ: application attributes of the first input vs tuples of the second, "
     "got {c1} and {r2}"),
    (("sol",), lambda c2, **_: c2 == 1,
     "the right-hand side must be a single column, got {c2} application attributes"),
    (("inv", "evc", "evl", "det", "chf"), lambda r1, c1, **_: r1 == c1,
     "the matrix must be square, got {r1} tuples and {c1} application attributes"),
    (("qqr", "rqr"), lambda r1, c1, **_: r1 >= c1,
     "a reduced QR needs at least as many tuples as application attributes, "
     "got {r1} tuples for {c1} attributes"),
    (("rnk",), lambda r1, **_: r1 >= 1, "the relation has no tuples"),
)


def shape_type(op: str) -> ShapeType:
    """Look up the shape type of matrix/RMA operation ``op`` (lowercase)."""
    try:
        return SHAPE_TYPES[op]
    except KeyError:
        raise ValueError(f"unknown matrix operation: {op!r}") from None

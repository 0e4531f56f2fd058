"""Shape types of matrix operations (Table 1 of the paper).

Matrix operations are *shape restricted*: the number of result rows
(columns) equals the number of rows of one input (``r1``/``r2``/``r*``),
the number of columns of one input (``c1``/``c2``/``c*``), or one
(``one``). The shape type drives how contextual information (origins) is
inherited in relational matrix operations (Tables 2 and 3).
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

def shape_type(op: str) -> ShapeType:
    """Look up the shape type of matrix/RMA operation ``op`` (lowercase)."""
    try:
        return SHAPE_TYPES[op]
    except KeyError:
        raise ValueError(f"unknown matrix operation: {op!r}") from None


def result_dims(op: str, dims1: tuple[int, int], dims2: tuple[int, int] | None = None) -> tuple[int, int]:
    """Result (rows, cols) of ``op`` on inputs with the given (rows, cols).

    Follows column 1 of Table 1. For ``r*``/``c*`` the two inputs must
    agree; that is validated by the caller.
    """
    st = shape_type(op)

    def pick(d: Dim) -> int:
        if d in (Dim.R1, Dim.RS):
            return dims1[0]
        if d is Dim.C1 or d is Dim.CS:
            return dims1[1]
        if d is Dim.R2:
            assert dims2 is not None
            return dims2[0]
        if d is Dim.C2:
            assert dims2 is not None
            return dims2[1]
        return 1

    return pick(st.rows), pick(st.cols)

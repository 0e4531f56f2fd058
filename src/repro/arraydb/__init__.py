"""Coordinate-store array database — the SciDB stand-in for Table 7."""
from repro.arraydb.arraystore import (  # noqa: F401
    array_add,
    array_select,
    to_array,
)

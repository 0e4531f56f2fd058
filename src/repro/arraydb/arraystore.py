"""A minimal array database over Spark — the SciDB analogue (§8.4).

SciDB stores matrices as arrays of cells indexed by dimensions; adding
two arrays requires an *array join* over the input arrays, which the
paper identifies as the reason SciDB loses to RMA+ by more than an
order of magnitude on ``add`` + selection (Table 7).

Here an array is a DataFrame of cells ``(i, j, v)``: dimension ``i`` is
the dense row index derived from the order schema, ``j`` the column
index, ``v`` the value. :func:`array_add` is the array join (a shuffle
join on the cell coordinates), faithfully reproducing the asymptotic
behaviour: |r|·k joined cells instead of k columnwise additions.
"""
from __future__ import annotations

from typing import Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.constructors import application_schema, row_position


def to_array(r: DataFrame, by: Sequence[str]) -> DataFrame:
    """Melt relation ``r`` into an array of cells ``(i, j, v)``.

    ``i`` is the rank of the tuple under the order schema ``by`` (SciDB
    dimension), ``j`` the position of the attribute in the application
    schema. The order part itself is dropped — SciDB arrays carry only
    numeric dimensions, which is precisely the contextual-information
    loss the paper criticises.
    """
    by = [by] if isinstance(by, str) else list(by)
    app = application_schema(r, by)
    indexed = r.withColumn("i", row_position(by) - F.lit(1))
    cells = indexed.select(
        "i",
        F.explode(
            F.array(*[
                F.struct(F.lit(j).alias("j"), F.col(c).cast("double").alias("v"))
                for j, c in enumerate(app)
            ])
        ).alias("cell"),
    )
    return cells.select("i", F.col("cell.j").alias("j"), F.col("cell.v").alias("v"))


def array_add(a: DataFrame, b: DataFrame) -> DataFrame:
    """Array join: add two cell arrays by joining on their coordinates."""
    bb = b.select(F.col("i"), F.col("j"), F.col("v").alias("v2"))
    return (
        a.join(bb, ["i", "j"], "inner")
        .select("i", "j", (F.col("v") + F.col("v2")).alias("v"))
    )


def array_select(a: DataFrame, predicate: str) -> DataFrame:
    """Filter cells by a SQL predicate over ``v`` (e.g. ``"v > 100"``)."""
    return a.filter(predicate)


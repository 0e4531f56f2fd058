"""Mini SQL extension: relational matrix operations in the FROM clause.

The paper extends MonetDB's SQL parser with the syntax
``OP(r BY U)`` / ``OP(r BY U, s BY V)`` usable wherever a table may
appear. This front-end rewrites such calls innermost-first into RMA
invocations (:mod:`repro.core.ops`), registers each intermediate result
as a temporary view, and hands the residual statement to ``spark.sql``.
Supported argument relations: table/view names or nested RMA calls.

Example (from the paper)::

    rma_sql(spark, "SELECT * FROM INV(r BY T)")
    rma_sql(spark, "SELECT * FROM MMU(r BY U, s BY V)")
"""
from __future__ import annotations

import itertools
import re

from pyspark.sql import DataFrame, SparkSession

from repro.core.ops import BINARY_OPS, UNARY_OPS

_OP_NAMES = sorted(set(UNARY_OPS) | set(BINARY_OPS))
_CALL_START = re.compile(r"\b(" + "|".join(n.upper() for n in _OP_NAMES) + r")\s*\(", re.IGNORECASE)
_BY = re.compile(r"\bBY\b", re.IGNORECASE)
_IDENT = re.compile(r"^[A-Za-z_][A-Za-z_0-9.]*$")
_view_counter = itertools.count()


class RMASyntaxError(ValueError):
    """Raised for malformed RMA table-function syntax."""


def _find_innermost_call(sql: str) -> tuple[int, int, str, str] | None:
    """Find an RMA call whose argument text contains no nested RMA call.

    Returns (start, end, op_name, arg_text) with ``end`` past the
    closing parenthesis, or None if no call remains.
    """
    for m in _CALL_START.finditer(sql):
        depth = 1
        i = m.end()
        while i < len(sql) and depth:
            if sql[i] == "(":
                depth += 1
            elif sql[i] == ")":
                depth -= 1
            i += 1
        if depth:
            raise RMASyntaxError(f"unbalanced parentheses after {m.group(1)}(")
        args = sql[m.end() : i - 1]
        if _CALL_START.search(args):
            continue  # not innermost; a later match will be
        if not _BY.search(args):
            continue  # e.g. a scalar function that shares a name
        return m.start(), i, m.group(1).lower(), args
    return None


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _parse_args(args: str, op: str) -> list[tuple[str, list[str]]]:
    """Parse ``r BY a, b, s BY c`` into [(relation, [order cols]), ...].

    A new argument begins at every comma-separated segment containing
    ``BY``; segments without ``BY`` extend the previous argument's order
    schema (order schemas may span several attributes).
    """
    groups: list[tuple[str, list[str]]] = []
    for seg in _split_top_level(args):
        m = _BY.search(seg)
        if m:
            rel = seg[: m.start()].strip()
            col = seg[m.end() :].strip()
            if not rel or not col:
                raise RMASyntaxError(f"{op.upper()}: malformed argument {seg!r}")
            groups.append((rel, [col]))
        else:
            if not groups:
                raise RMASyntaxError(f"{op.upper()}: argument {seg!r} lacks a BY clause")
            groups[-1][1].append(seg)
    return groups


def rma_sql(spark: SparkSession, sql: str) -> DataFrame:
    """Execute a SQL statement that may contain RMA table functions."""
    temp_views: list[str] = []
    try:
        while (found := _find_innermost_call(sql)) is not None:
            start, end, op, args = found
            groups = _parse_args(args, op)
            rels = []
            for rel, _ in groups:
                if not _IDENT.match(rel):
                    raise RMASyntaxError(
                        f"{op.upper()}: argument relation must be a table/view "
                        f"name or nested RMA call, got {rel!r}"
                    )
                rels.append(spark.table(rel))
            if op in UNARY_OPS:
                if len(groups) != 1:
                    raise RMASyntaxError(f"{op.upper()} takes one argument, got {len(groups)}")
                out = UNARY_OPS[op](rels[0], groups[0][1])
            else:
                if len(groups) != 2:
                    raise RMASyntaxError(f"{op.upper()} takes two arguments, got {len(groups)}")
                out = BINARY_OPS[op](rels[0], rels[1], groups[0][1], groups[1][1])
            view = f"__rma_{next(_view_counter)}"
            out.createOrReplaceTempView(view)
            temp_views.append(view)
            sql = sql[:start] + view + sql[end:]
        # spark.sql analyses eagerly and inlines temp-view definitions into
        # the plan, so the views can be dropped right after.
        return spark.sql(sql)
    finally:
        for v in temp_views:
            spark.catalog.dropTempView(v)

"""Shared utilities for the table-reproduction harnesses.

Every cell of Tables 4–7 is timed by one rule, :func:`warm_median`: one
untimed run, then the median of ``REPEATS`` timed runs (the paper reports
averages of warm runs). Each table's job stores the records of its run
with :func:`save`.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable, Sequence

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

REPEATS = 3


class Seconds(float):
    """Median wall seconds of a cell; ``runs`` holds the timed runs behind it."""

    runs: list[float]


def warm_median(fn: Callable[[], object]) -> Seconds:
    """Run ``fn`` once untimed, then return the median of ``REPEATS`` timed runs.

    The untimed run absorbs codegen/JIT, page faults and allocator warm-up.
    """
    fn()
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - t0)
    sec = Seconds(statistics.median(runs))
    sec.runs = runs
    return sec


def save(table: int, records: list[dict]) -> Path:
    """Write ``BENCH_table<table>.json`` into the working directory: the records, machine and commit.

    Each :class:`Seconds` of a record is stored as its median and its runs.
    """
    records = [{k: {"median": float(v), "runs": v.runs} if isinstance(v, Seconds) else v
                for k, v in rec.items()} for rec in records]
    out = {
        "table": table,
        "repeats": REPEATS,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_kb": _mem_total_kb(),
        "git": subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True).stdout.strip() or None,
        "records": records,
    }
    path = Path(f"BENCH_table{table}.json")
    path.write_text(json.dumps(out, indent=1) + "\n")
    return path


def _mem_total_kb() -> int:
    return int(Path("/proc/meminfo").read_text().split("MemTotal:")[1].split()[0])


def force(df: DataFrame) -> float:
    """Fully evaluate every numeric column of ``df`` (defeats column pruning).

    Returns the grand total so the work cannot be optimised away.
    """
    nums = [f.name for f in df.schema.fields if f.dataType.typeName() in
            ("double", "float", "integer", "long", "short", "byte")]
    if not nums:
        return float(df.count())
    row = df.select([F.sum(F.col(c)).alias(c) for c in nums]).collect()[0]
    return float(sum(v for v in row if v is not None))


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    """Print rows in the shape the paper's table reports them."""
    print(f"\n== {title} ==")
    widths = [max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) for i, h in enumerate(headers)]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(_fmt(v).rjust(w) for v, w in zip(r, widths)))


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)

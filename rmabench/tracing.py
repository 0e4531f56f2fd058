"""Spans around the public functions of each layer, recorded from outside.

The program itself carries no tracing yet, so :func:`installed` replaces
the layer functions by timing wrappers for the duration of a ``with``
block and puts the originals back afterwards. ``repro.core.ops`` imports
``split_sorted``, ``column_cast`` and ``relation_constructor`` by name,
so those are wrapped in both modules; the LAPACK base kernels are the
values of ``matrix_ops.UNARY``/``BINARY``.

Spans live in memory (name, start, end, parent, query id) and are
written once, by the caller, when the run ends. Every span sets its own
Spark job group, so the jobs a span started are read afterwards from
``statusTracker()``; that works with the Spark UI disabled.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import repro.workloads
from repro.core import constructors, distributed, matrix_ops, ops

_JOB_GROUP = "spark.jobGroup.id"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    query: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    jobs: int = 0  # jobs started while this span was the innermost one
    tasks: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[Span] = []
        self.query: int | None = None
        self._stack: list[Span] = []

    def _group(self, span: Span | None) -> str | None:
        return None if span is None else f"rmabench-span-{span.id}"

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(
            id=len(self.spans),
            name=name,
            layer=name.split(".")[0],
            parent=None if parent is None else parent.id,
            query=self.query,
            start=0.0,
        )
        self.spans.append(s)
        self.sc.setLocalProperty(_JOB_GROUP, self._group(s))
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.sc.setLocalProperty(_JOB_GROUP, self._group(parent))

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {s.id: [] for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent].append(s)
        return out

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part covered by its (sequential) children."""
        kids = self.children()
        return {s.id: s.duration - sum(c.duration for c in kids[s.id]) for s in self.spans}

    def subtree(self, span: Span) -> list[Span]:
        kids = self.children()
        out, todo = [], [span]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids[s.id])
        return out

    def read_jobs(self, timeout_s: float = 10.0) -> None:
        """Fill ``jobs``/``tasks`` per span from the Spark status tracker.

        The tracker is fed asynchronously by the listener bus, so this waits
        until no job of a traced group is still reported as running.
        """
        tracker = self.sc.statusTracker()
        deadline = time.monotonic() + timeout_s
        while True:
            infos = {s.id: [tracker.getJobInfo(j) for j in tracker.getJobIdsForGroup(self._group(s))]
                     for s in self.spans}
            running = any(i is None or i.status == "RUNNING" for v in infos.values() for i in v)
            if not running or time.monotonic() > deadline:
                break
            time.sleep(0.2)
        for s in self.spans:
            s.jobs = len(infos[s.id])
            s.tasks = 0
            for info in infos[s.id]:
                for sid in info.stageIds if info is not None else ():
                    st = tracker.getStageInfo(sid)
                    s.tasks += st.numCompletedTasks if st is not None else 0

    def to_json(self) -> list[dict]:
        self_t = self.self_times()
        return [
            {
                "id": s.id, "name": s.name, "layer": s.layer, "parent": s.parent,
                "query": s.query, "start": s.start, "end": s.end, "self_s": self_t[s.id],
                "jobs": s.jobs, "tasks": s.tasks,
                **{k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))},
            }
            for s in self.spans
        ]


# --- what each wrapper records --------------------------------------------

def _flops(name: str, args: tuple) -> float:
    """Floating-point operations of the base kernels the workloads run.

    Kernels no workload runs (and ``tra``, a copy) count 0.
    """
    shapes = [a.shape for a in args]
    if name in ("add", "sub", "emu"):
        m, n = shapes[0]
        return float(m * n)
    if name in ("mmu", "cpd"):
        (m, k), (_, n) = shapes  # mmu: (m×k)·(k×n); cpd: (m×k)ᵀ·(m×n)
        return 2.0 * m * k * n
    if name in ("qqr", "rqr"):
        m, n = shapes[0]
        return 4.0 * m * n * n - 4.0 * n ** 3 / 3  # Householder QR and explicit Q
    if name == "inv":
        n = shapes[0][0]
        return 2.0 * n ** 3
    return 0.0


def _note_mu(span: Span, args, kwargs, out) -> None:
    m = out[1]
    span.attrs["bytes"] = int(m.shape[0]) * int(m.shape[1]) * 8


def _note_gamma(span: Span, args, kwargs, out) -> None:
    parts = args[1] if len(args) > 1 else kwargs["parts"]
    span.attrs["rows"] = len(parts[0])
    span.attrs["df"] = out


def _note_result(span: Span, args, kwargs, out) -> None:
    span.attrs["df"] = out


def _note_kernel(name: str):
    def note(span: Span, args, kwargs, out) -> None:
        span.attrs["flops"] = _flops(name, args)
    return note


def _wrap(tracer: Tracer, fn: Callable, name: str, note=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            if note is not None:
                note(s, args, kwargs, out)
            return out

    return wrapper


def _targets():
    """(container, key, span name, note) for every traced layer function."""
    for name in (*ops.UNARY_OPS, *ops.BINARY_OPS):
        yield ops, name, f"ops.{name}", _note_result
    for mod in (constructors, ops):
        yield mod, "split_sorted", "constructors.mu", _note_mu
        yield mod, "column_cast", "constructors.cast", None
        yield mod, "relation_constructor", "constructors.gamma", _note_gamma
    for name in ("gram", "zip_linear", "rqr_matrix", "qqr_rows", "mmu_rows"):
        yield distributed, name, f"distributed.{name}", None
    for table in (matrix_ops.UNARY, matrix_ops.BINARY):
        for name in table:
            yield table, name, f"matrix_ops.{name}", _note_kernel(name)
    yield repro.workloads, "ols", "workloads.ols", None
    yield repro.workloads, "covariance", "workloads.covariance", None


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for obj, key, name, note in _targets():
            if isinstance(obj, dict):
                orig = obj[key]
                obj[key] = _wrap(tracer, orig, name, note)
            else:
                orig = getattr(obj, key)
                setattr(obj, key, _wrap(tracer, orig, name, note))
            saved.append((obj, key, orig))
        yield tracer
    finally:
        for obj, key, orig in reversed(saved):
            if isinstance(obj, dict):
                obj[key] = orig
            else:
                setattr(obj, key, orig)

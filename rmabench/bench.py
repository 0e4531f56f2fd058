"""One benchmark run: set-up, warm-up, a closed loop of queries, metrics.

A single client repeats the workload's query until the measured phase has
lasted ``seconds``. The untraced run yields the end-to-end metrics. The
traced run alternates untraced and traced queries, so it can also report
the tracing overhead, and yields the per-layer metrics.
"""
from __future__ import annotations

import os
import statistics
import threading
import time
import traceback
from pathlib import Path
from typing import Any

from rmabench import queries, session, tracing

# Set-ups per run after the first, which also launches the JVM; setup_s is
# their median, so JVM start-up noise stays out of it.
WARM_SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "cells_per_s": "cells/s",
    "driver_rss_peak_mb": "MB",
    "accuracy_digits": "digits",
    "success_ratio": "ratio",
}

# Layers named by the span-name prefix, as the modules of the repository.
LAYERS = ("bench", "workloads", "ops", "constructors", "matrix_ops", "distributed", "engine")

PER_LAYER_UNITS = {
    "setup.session_s": "s",
    "setup.generate_s": "s",
    "setup.cache_s": "s",
    "setup.cold_s": "s",
    "setup.warmup_s": "s",
    "ops.call_s": "s",
    "ops.jobs": "count",
    "ops.calls": "count",
    "constructors.mu_s": "s",
    "constructors.mu_bytes": "bytes",
    "constructors.cast_s": "s",
    "constructors.gamma_s": "s",
    "constructors.gamma_rows": "rows",
    "constructors.gamma_partitions": "count",
    "matrix_ops.kernel_s": "s",
    "matrix_ops.gflop_per_s": "GFLOP/s",
    "distributed.gram_s": "s",
    "distributed.gram_jobs": "count",
    "distributed.single_partition_exchanges": "count",
    "distributed.out_partitions": "count",
    "engine.action_s": "s",
    "engine.jobs": "count",
    "engine.tasks": "count",
    "workloads.ols_s": "s",
    "workloads.covariance_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "accuracy.local_digits": "digits",
    "accuracy.spark_digits": "digits",
    "trace.latency_p50_s": "s",
    "trace.overhead_s": "s",
}


class RssPeak:
    """Peak resident set size of this process while the block runs."""

    def __init__(self, interval_s: float = 0.01):
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            rss = int(f.read().split()[1]) * self._page
        self.peak_bytes = max(self.peak_bytes, rss)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "RssPeak":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sample()


def _cpu_jiffies() -> list[int]:
    """The machine-wide CPU counters of ``/proc/stat`` (user … steal)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def plan_stats(df) -> tuple[int, int]:
    """(``Exchange SinglePartition`` nodes, output partitions) of a relation's plan.

    Reads the physical plan Spark chose for ``df``: the final adaptive plan
    when ``df`` itself was executed, the initial one otherwise. Planning
    runs no job; only a plan without exchanges is turned into an RDD, to
    read the partition count its scan reports.
    """
    qe = df._jdf.queryExecution()
    plan = qe.executedPlan()
    text = plan.toString()
    if text.startswith("AdaptiveSparkPlan isFinalPlan=true"):
        text = text.split("== Initial Plan ==")[0]
    exchanges = text.count("Exchange SinglePartition")
    current = plan.executedPlan() if plan.nodeName() == "AdaptiveSparkPlan" else plan
    parts = current.outputPartitioning().numPartitions()
    if parts == 0 and "Exchange" not in text:
        parts = qe.toRdd().getNumPartitions()
    return exchanges, parts


def layer_metrics(tracer: tracing.Tracer, root: tracing.Span) -> dict[str, float]:
    """Per-layer totals for one traced query (the subtree of ``root``)."""
    spans = tracer.subtree(root)
    self_t = tracer.self_times()

    def incl(s: tracing.Span, attr: str) -> int:
        return sum(getattr(x, attr) for x in tracer.subtree(s))

    def named(prefix: str) -> list[tracing.Span]:
        return [s for s in spans if s.name.startswith(prefix)]

    op_spans = named("ops.")
    gamma = named("constructors.gamma")
    kernels = named("matrix_ops.")
    kernel_s = sum(s.duration for s in kernels)
    flops = sum(s.attrs.get("flops", 0.0) for s in kernels)
    results = []
    for s in op_spans:
        if "df" in s.attrs:
            results.append(plan_stats(s.attrs["df"]))
            s.attrs["single_partition_exchanges"], s.attrs["out_partitions"] = results[-1]
    out = {
        "ops.call_s": sum(s.duration for s in op_spans),
        "ops.jobs": sum(incl(s, "jobs") for s in op_spans),
        "ops.calls": len(op_spans),
        "constructors.mu_s": sum(s.duration for s in named("constructors.mu")),
        "constructors.mu_bytes": sum(s.attrs.get("bytes", 0) for s in named("constructors.mu")),
        "constructors.cast_s": sum(s.duration for s in named("constructors.cast")),
        "constructors.gamma_s": sum(s.duration for s in gamma),
        "constructors.gamma_rows": sum(s.attrs.get("rows", 0) for s in gamma),
        "constructors.gamma_partitions": sum(plan_stats(s.attrs["df"])[1] for s in gamma if "df" in s.attrs),
        "matrix_ops.kernel_s": kernel_s,
        "matrix_ops.gflop_per_s": flops / kernel_s / 1e9 if kernel_s > 0 else 0.0,
        # gram inside rqr_matrix/qqr_rows is its own span; none nests in another
        "distributed.gram_s": sum(s.duration for s in named("distributed.gram")),
        "distributed.gram_jobs": sum(incl(s, "jobs") for s in named("distributed.gram")),
        "distributed.single_partition_exchanges": sum(e for e, _ in results),
        "distributed.out_partitions": min((p for _, p in results), default=0),
        "engine.action_s": sum(s.duration for s in named("engine.action")),
        "engine.jobs": sum(incl(s, "jobs") for s in named("engine.action")),
        "engine.tasks": sum(incl(s, "tasks") for s in named("engine.action")),
        "workloads.ols_s": sum(s.duration for s in named("workloads.ols")),
        "workloads.covariance_s": sum(s.duration for s in named("workloads.covariance")),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_t[s.id] for s in spans if s.layer == layer)
    return out


def _set_up(wl: queries.Workload, seed: int, size: dict, warm_setups: int):
    """Run the set-up ``1 + warm_setups`` times; keep the last session and inputs."""
    spark, inputs, phases = None, None, []
    for _ in range(1 + warm_setups):
        if spark is not None:
            spark.stop()
        t0 = time.perf_counter()
        spark = session.start()
        t1 = time.perf_counter()
        inputs = wl.generate(spark, seed, **size)
        t2 = time.perf_counter()
        queries.cache(inputs)
        t3 = time.perf_counter()
        phases.append((t1 - t0, t2 - t1, t3 - t2))
    return spark, inputs, phases


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: Path,
    scale: str = "full",
    warm_setups: int = WARM_SETUPS,
    keep_session: bool = False,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; return (result line, details).

    The result line has exactly the keys ``correct``, ``attempted``,
    ``failed`` and ``metrics``; details hold the environment, every
    latency and check, and, when traced, every span.
    """
    wl = queries.WORKLOADS[workload]
    size = wl.sizes[scale]
    spark, inputs, phases = _set_up(wl, seed, size, warm_setups)
    cold, warm = phases[0], phases[1:] or phases[:1]  # no warm set-up: the cold one stands in
    env = session.environment(spark, root, workload, seed)
    attempted = failed = 0
    errors: list[str] = []

    def one_query(span=queries.no_span):
        nonlocal attempted, failed
        attempted += 1
        t0 = time.perf_counter()
        try:
            checks = wl.run_query(inputs, span)
        except Exception:  # a failing RMA call is a result, not a crash
            errors.append(traceback.format_exc(limit=3))
            checks = None
        latency = time.perf_counter() - t0
        if checks is None or not all(c.ok for c in checks):
            failed += 1
        return latency, checks

    t0 = time.perf_counter()
    one_query()
    warmup_s = time.perf_counter() - t0

    tracer = tracing.Tracer(spark.sparkContext)
    untraced: list[float] = []
    traced: list[float] = []
    roots: list[tracing.Span] = []
    all_checks: list[queries.Check] = []
    ok = 0
    cpu0 = _cpu_jiffies()
    with RssPeak() as rss:
        start = time.perf_counter()
        while True:
            done = len(untraced) + len(traced)
            enough = len(untraced) >= 1 and (not trace or len(traced) >= 1)
            if enough and time.perf_counter() - start >= seconds:
                break
            if trace and done % 2 == 1:
                tracer.query = len(roots)
                with tracing.installed(tracer):
                    with tracer.span("bench.query") as q:
                        latency, checks = one_query(tracer.span)
                roots.append(q)
                traced.append(latency)
            else:
                latency, checks = one_query()
                untraced.append(latency)
            if checks is not None:
                all_checks.extend(checks)
                ok += all(c.ok for c in checks)
        measured_s = time.perf_counter() - start
    cpu = [b - a for a, b in zip(cpu0, _cpu_jiffies())]

    measured = len(untraced) + len(traced)
    metrics: dict[str, float]
    if not trace:
        metrics = {
            "setup_s": _median([sum(p) for p in warm]),
            "latency_p50_s": _median(untraced),
            "cells_per_s": wl.cells(**size) * ok / measured_s,
            "driver_rss_peak_mb": rss.peak_bytes / 2**20,
            "accuracy_digits": min((c.digits for c in all_checks), default=0.0),
            "success_ratio": ok / measured,
        }
        units = END_TO_END_UNITS
    else:
        tracer.read_jobs()
        per_query = [layer_metrics(tracer, q) for q in roots]
        metrics = {
            "setup.session_s": _median([p[0] for p in warm]),
            "setup.generate_s": _median([p[1] for p in warm]),
            "setup.cache_s": _median([p[2] for p in warm]),
            "setup.cold_s": sum(cold),
            "setup.warmup_s": warmup_s,
        }
        for name in per_query[0]:
            metrics[name] = _median([m[name] for m in per_query])
        for kernel in ("local", "spark"):
            metrics[f"accuracy.{kernel}_digits"] = min(
                (c.digits for c in all_checks if c.kernel == kernel), default=16.0)
        metrics["trace.latency_p50_s"] = _median(traced)
        metrics["trace.overhead_s"] = _median(traced) - _median(untraced)
        units = PER_LAYER_UNITS

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    details = {
        "env": env,
        "scale": scale,
        "size": size,
        "setup_phases_s": phases,
        "warmup_s": warmup_s,
        "measured_s": measured_s,
        # CPU time the hypervisor gave to other guests: a noisy host shows here
        "cpu_steal_share": cpu[7] / max(1, sum(cpu)),
        "latencies_untraced_s": untraced,
        "latencies_traced_s": traced,
        "latency_samples": len(untraced),
        "checks": [{"label": c.label, "kernel": c.kernel, "err": c.err, "tol": c.tol, "digits": c.digits}
                   for c in all_checks],
        "errors": errors,
        "spans": tracer.to_json() if trace else [],
    }
    if not keep_session:
        session.shutdown(spark)
    return result, details

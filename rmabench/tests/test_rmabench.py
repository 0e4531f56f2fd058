"""Self-test of the benchmark at toy sizes.

Run from the root of the repository::

    python -m pytest rmabench/tests -q -p no:cacheprovider
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rmabench import bench, queries, session, tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def spark():
    s = session.start()
    yield s
    s.stop()


@pytest.fixture(scope="module")
def runs(spark):
    """(result, details) per (workload, trace), each run once at toy size."""
    cache: dict = {}

    def get(workload: str, trace: bool):
        if (workload, trace) not in cache:
            cache[workload, trace] = bench.run(
                workload, seed=7, seconds=0.01, trace=trace, root=ROOT,
                scale="toy", warm_setups=0, keep_session=True,
            )
        return cache[workload, trace]

    return get


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "rmabench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(queries.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS
    for w in SPEC["workloads"]:
        stated = {k: float(v) for k, v in re.findall(r"(\w+)=([0-9.e+-]+)", w["why"].split(" tol ", 1)[1])}
        assert stated == queries.WORKLOADS[w["name"]].tolerances


@pytest.mark.parametrize("err, digits", [
    (0.0, 16.0), (1e-20, 16.0), (1e-9, 9.0), (1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0),
])
def test_digits_are_finite_and_capped(err, digits):
    assert queries.Check("x", "local", err, 1.0).digits == pytest.approx(digits)


@pytest.mark.parametrize("workload", sorted(queries.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(runs, workload, trace):
    result, _ = runs(workload, trace)
    line = json.loads(json.dumps(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 2
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(queries.WORKLOADS))
def test_self_times_are_non_negative_and_add_up(runs, workload):
    _, details = runs(workload, True)
    spans = details["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    kids: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)

    def subtree_self(s: dict) -> float:
        return s["self_s"] + sum(subtree_self(c) for c in kids[s["id"]])

    for s in spans:
        assert s["self_s"] >= 0.0, s
        assert math.isclose(subtree_self(s), s["end"] - s["start"], rel_tol=1e-9, abs_tol=1e-9)
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
            assert s["query"] == p["query"]
    roots = [s for s in spans if s["parent"] is None]
    assert roots and all(r["name"] == "bench.query" for r in roots)


def _sorted_rows(df):
    pdf = df.toPandas()
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def test_wrapped_calls_return_the_same_relations(spark):
    import pandas as pd
    import repro.workloads
    from repro.core import ops

    both = queries.LINEAR_QR.generate(spark, 3, n_add=40, k_add=2, n_qr=60, k_qr=3)
    lin, inp = both["add"], both["qr"]
    pipe = queries.PIPELINES_SMALL.generate(spark, 3, trips=50, authors=12, confs=3)
    calls = {
        "add_position": lambda: ops.add(lin["r"], lin["s"], "id", "id2"),
        "add_keys": lambda: ops.add(lin["r"], lin["s"], "id", "id2", align="keys"),
        "qqr_local": lambda: ops.qqr(inp["r"], "id"),
        "qqr_spark": lambda: ops.qqr(inp["r"], "id", backend="spark"),
        "tra": lambda: ops.tra(inp["r"], "id"),
        "covariance": lambda: repro.workloads.covariance(pipe["pubs"], "author"),
        "ols": lambda: repro.workloads.ols(
            pipe["trips"].withColumn("d", pipe["trips"]["end_station"] * 1.0),
            "trip_id", ["d"], "duration"),
    }
    plain = {k: _sorted_rows(f()) for k, f in calls.items()}
    originals = [(o, k, o[k] if isinstance(o, dict) else getattr(o, k)) for o, k, _, _ in tracing._targets()]
    tracer = tracing.Tracer(spark.sparkContext)
    with tracing.installed(tracer):
        wrapped = {k: _sorted_rows(f()) for k, f in calls.items()}
    for k in calls:
        pd.testing.assert_frame_equal(plain[k], wrapped[k], check_exact=True, obj=k)
    assert {s.name for s in tracer.spans} >= {
        "ops.add", "ops.qqr", "ops.tra", "constructors.mu", "constructors.cast",
        "constructors.gamma", "distributed.zip_linear", "distributed.gram",
        "distributed.qqr_rows", "matrix_ops.qqr", "workloads.ols", "workloads.covariance",
    }
    for o, k, f in originals:  # every wrapper is removed again
        assert (o[k] if isinstance(o, dict) else getattr(o, k)) is f


def test_plan_stats_see_the_single_partition_alignment(runs):
    result, details = runs("linear_qr", True)
    assert result["metrics"]["distributed.single_partition_exchanges"]["value"] > 0
    per_query: dict = {}
    for s in details["spans"]:
        if s["name"].startswith("ops."):
            per_query.setdefault(s["query"], []).append((s["name"], s["single_partition_exchanges"]))
    # add by position: one unpartitioned Window per input; add by keys and qqr: none
    expected = [("ops.add", 2), ("ops.add", 0), ("ops.qqr", 0), ("ops.qqr", 0)]
    assert per_query and all(calls == expected for calls in per_query.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rmabench", tmp_path / "rmabench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "rmabench/run.py", "--workload", "linear_qr", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""The benchmark workloads: inputs, references, the query, the check.

Each workload makes its inputs from a seed, computes a float64 numpy
reference from the same generated arrays during set-up, and repeats one
fixed query through the public ``repro.core.ops`` / ``repro.workloads``
API. A query forces every result through a Spark action and returns one
:class:`Check` per result, so the caller can score accuracy and tolerance.

The tolerances are stated in ``BENCHMARK.json`` (each workload's ``why``)
and a self-test keeps the two in step.
"""
from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

import repro.workloads
from repro import synth_data
from repro.core import ops


@dataclass
class Check:
    label: str
    kernel: str  # "local" (LAPACK through μ and γ) or "spark" (a distributed kernel)
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.err <= self.tol  # NaN fails

    @property
    def digits(self) -> float:
        """``-log10(err)``, capped at 16 (an exact result scores 16).

        A wrong shape or row count is scored as an infinite error, and an
        infinite or NaN error scores 0.
        """
        if not 0 < self.err < math.inf:
            return 16.0 if self.err == 0 else 0.0
        return min(16.0, -math.log10(self.err))


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    """Max-abs error relative to the reference's max-abs value."""
    got, ref = np.asarray(got, dtype=np.float64), np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _seeds(seed: int, k: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(k)]


def no_span(name: str):
    return nullcontext()


@dataclass
class Workload:
    name: str
    sizes: dict[str, dict[str, int]]  # scale -> generator sizes
    tolerances: dict[str, float]  # check label -> tolerance
    generate: Callable[..., dict[str, Any]]  # (spark, seed, **size) -> inputs
    query: Callable[..., list[Check]]  # (inputs, tols, span) -> checks
    cells: Callable[..., int]  # (**size) -> input matrix cells per query

    def run_query(self, inputs: dict[str, Any], span=no_span) -> list[Check]:
        return self.query(inputs, self.tolerances, span)


def cache(inputs: dict[str, Any]) -> None:
    """Persist and materialise every input relation."""
    for v in inputs.values():
        if isinstance(v, DataFrame):
            v.cache().count()
        elif isinstance(v, dict):
            cache(v)


# --- linear_qr, first half: Table 7's add + selection ----------------------

_SELECT = 10_000.0  # a0 of the sum ranges over [0, 20000): keeps about half


def _linear_generate(spark: SparkSession, seed: int, *, n: int, k: int) -> dict[str, Any]:
    sr, ss, sp, sq = _seeds(seed, 4)
    r = synth_data.matrix_relation_pdf(n_rows=n, n_app=k, key="id", seed=sr)
    s = synth_data.matrix_relation_pdf(n_rows=n, n_app=k, key="id2", seed=ss)
    app = [f"a{j}" for j in range(k)]
    m = r[app].to_numpy() + s[app].to_numpy()  # rows are in key order here
    keep = m[:, 0] > _SELECT
    ref = np.append(m[keep].sum(axis=0), keep.sum())
    # Relations are unordered bags: store the rows shuffled.
    r = r.iloc[np.random.default_rng(sp).permutation(n)].reset_index(drop=True)
    s = s.iloc[np.random.default_rng(sq).permutation(n)].reset_index(drop=True)
    return {"r": spark.createDataFrame(r), "s": spark.createDataFrame(s), "app": app, "ref": ref}


def _linear_query(inp: dict[str, Any], tols: dict[str, float], span) -> list[Check]:
    r, s, app = inp["r"], inp["s"], inp["app"]
    checks = []
    for label, kw in (("add_position", {}), ("add_keys", {"align": "keys"})):
        x = ops.add(r, s, "id", "id2", **kw)
        with span("engine.action"):
            row = x.filter(F.col("a0") > _SELECT).agg(
                *[F.sum(c) for c in app], F.count(F.lit(1))
            ).collect()[0]
        with span("bench.check"):
            got = np.array([float(v) for v in row])
            err = _rel_err(got, inp["ref"]) if got[-1] == inp["ref"][-1] else math.inf
            checks.append(Check(label, "spark", err, tols[label]))
    return checks


# --- linear_qr, second half: qqr on a tall, conditioned relation -----------

KAPPA = 1e4


def _qr_generate(spark: SparkSession, seed: int, *, n: int, k: int) -> dict[str, Any]:
    sa, sp = _seeds(seed, 2)
    g = np.random.default_rng(sa)
    u, _ = np.linalg.qr(g.standard_normal((n, k)))
    v, _ = np.linalg.qr(g.standard_normal((k, k)))
    a = (u * np.logspace(0, -math.log10(KAPPA), k)) @ v.T * 1e4  # 2-norm κ(A) = KAPPA
    _, r_ref = np.linalg.qr(a)
    sign = np.where(np.diag(r_ref) < 0, -1.0, 1.0)
    app = [f"a{j}" for j in range(k)]
    pdf = pd.DataFrame(a, columns=app)
    pdf.insert(0, "id", np.arange(1, n + 1))
    pdf = pdf.iloc[np.random.default_rng(sp).permutation(n)].reset_index(drop=True)
    return {
        "r": spark.createDataFrame(pdf), "app": app, "a": a,
        "r_ref": r_ref * sign[:, None], "a_norm": float(np.linalg.norm(a, 2)),
    }


def _qr_query(inp: dict[str, Any], tols: dict[str, float], span) -> list[Check]:
    r, app, a = inp["r"], inp["app"], inp["a"]
    checks = []
    for kernel, backend in (("local", "auto"), ("spark", "spark")):
        q_rel = ops.qqr(r, "id", backend=backend)
        with span("engine.action"):
            pdf = q_rel.toPandas()
        with span("bench.check"):
            q = pdf.sort_values("id")[app].to_numpy(dtype=np.float64)
            if q.shape != a.shape:
                err = math.inf
            else:
                orth = np.linalg.norm(q.T @ q - np.eye(q.shape[1]), 2)
                resid = np.linalg.norm(q @ inp["r_ref"] - a, 2) / inp["a_norm"]
                err = float(max(orth, resid))
            checks.append(Check(f"qqr_{kernel}", kernel, err, tols[f"qqr_{kernel}"]))
    return checks


def _linear_qr_generate(spark: SparkSession, seed: int, *, n_add: int, k_add: int,
                        n_qr: int, k_qr: int) -> dict[str, Any]:
    s_add, s_qr = _seeds(seed, 2)
    return {"add": _linear_generate(spark, s_add, n=n_add, k=k_add),
            "qr": _qr_generate(spark, s_qr, n=n_qr, k=k_qr)}


def _linear_qr_query(inp: dict[str, Any], tols: dict[str, float], span) -> list[Check]:
    return _linear_query(inp["add"], tols, span) + _qr_query(inp["qr"], tols, span)


LINEAR_QR = Workload(
    name="linear_qr",
    sizes={"full": {"n_add": 50_000, "k_add": 10, "n_qr": 50_000, "k_qr": 20},
           "toy": {"n_add": 2_000, "k_add": 3, "n_qr": 500, "k_qr": 4}},
    # LAPACK is backward stable; one-pass CholeskyQR loses about κ² digits.
    tolerances={"add_position": 1e-9, "add_keys": 1e-9, "qqr_local": 1e-12, "qqr_spark": 1e-6},
    generate=_linear_qr_generate,
    query=_linear_qr_query,
    # two adds of two n×k inputs each, two qqr of one n×k input
    cells=lambda *, n_add, k_add, n_qr, k_qr: 2 * 2 * n_add * k_add + 2 * n_qr * k_qr,
)


# --- pipelines_small: §8.6 OLS and the §5 covariance chain -----------------

def _pipelines_generate(spark: SparkSession, seed: int, *, trips: int, authors: int, confs: int) -> dict[str, Any]:
    st, sp = _seeds(seed, 2)
    trips_df = synth_data.trips(spark, n=trips, seed=st)
    stations_df = synth_data.stations(spark)
    pubs_df = synth_data.publications(spark, n_authors=authors, n_confs=confs, seed=sp)

    t, s, p = trips_df.toPandas(), stations_df.toPandas(), pubs_df.toPandas()
    xy = s.set_index("code")[["lat", "lon"]]
    p1, p2 = xy.loc[t["start_station"]].to_numpy(), xy.loc[t["end_station"]].to_numpy()
    dist = np.hypot(p1[:, 0] - p2[:, 0], p1[:, 1] - p2[:, 1])
    x = np.column_stack([dist, np.ones_like(dist)])
    beta = np.linalg.lstsq(x, t["duration"].to_numpy(dtype=np.float64), rcond=None)[0]
    confs_l = [c for c in p.columns if c != "author"]
    cov = np.cov(p[confs_l].to_numpy(dtype=np.float64), rowvar=False)
    return {
        "trips": trips_df, "stations": stations_df, "pubs": pubs_df,
        "ols_ref": {"distance": beta[0], "intercept": beta[1]},
        "confs": confs_l, "cov_ref": cov,
    }


def _pipelines_query(inp: dict[str, Any], tols: dict[str, float], span) -> list[Check]:
    st = inp["stations"]
    s1 = st.select(F.col("code").alias("start_station"), F.col("lat").alias("lat1"), F.col("lon").alias("lon1"))
    s2 = st.select(F.col("code").alias("end_station"), F.col("lat").alias("lat2"), F.col("lon").alias("lon2"))
    prepped = (
        inp["trips"].join(s1, "start_station")
        .join(s2, "end_station")
        .withColumn("distance", F.hypot(F.col("lat1") - F.col("lat2"), F.col("lon1") - F.col("lon2")))
        .select("trip_id", "distance", "duration")
    )
    beta_rel = repro.workloads.ols(prepped, "trip_id", ["distance"], "duration")
    with span("engine.action"):
        rows = beta_rel.collect()
    with span("bench.check"):
        got = {row["C"]: row["duration"] for row in rows}
        ref = inp["ols_ref"]
        err = _rel_err([got.get(c, math.nan) for c in ref], list(ref.values())) if len(got) == len(ref) else math.inf
        checks = [Check("ols", "spark", err, tols["ols"])]  # Gram on Spark

    cov_rel = repro.workloads.covariance(inp["pubs"], "author")
    with span("engine.action"):
        pdf = cov_rel.toPandas()
    with span("bench.check"):
        confs = inp["confs"]
        if sorted(pdf["C"]) != sorted(confs):
            err = math.inf
        else:
            got = pdf.set_index("C").loc[confs, confs].to_numpy(dtype=np.float64)
            err = _rel_err(got, inp["cov_ref"])
        checks.append(Check("covariance", "local", err, tols["covariance"]))  # tra/mmu via LAPACK
    return checks


def _pipelines_cells(*, trips: int, authors: int, confs: int) -> int:
    n, mc = trips, authors * confs
    # OLS (2 regressors incl. intercept): cpd(A,A) 2·2n, inv 2×2, cpd(A,V) 2n+n,
    # mmu 2×2 by 2×1. Covariance: sub 2·mc, tra mc, mmu 2·mc.
    ols = 4 * n + 4 + 3 * n + 4 + 2
    return ols + 5 * mc


PIPELINES_SMALL = Workload(
    name="pipelines_small",
    sizes={"full": {"trips": 20_000, "authors": 1_000, "confs": 20},
           "toy": {"trips": 300, "authors": 40, "confs": 4}},
    tolerances={"ols": 1e-8, "covariance": 1e-9},
    generate=_pipelines_generate,
    query=_pipelines_query,
    cells=_pipelines_cells,
)


WORKLOADS = {w.name: w for w in (LINEAR_QR, PIPELINES_SMALL)}

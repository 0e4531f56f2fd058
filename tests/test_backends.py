"""Backend equivalence: local (LAPACK), spark (distributed), bat (columnwise).

The paper's point (§7.3, §8.5): the physical computation of the base
result is interchangeable. All backends must produce the same relation.
"""
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import ops

from helpers import KEY_CASES, key_case, sorted_matrix


def _cmp(a, b, by, cols, atol=1e-8):
    pa = a.orderBy(*by).toPandas()
    pb = b.orderBy(*by).toPandas()
    assert list(pa.columns) == list(pb.columns)
    assert np.allclose(pa[cols].to_numpy(dtype=float), pb[cols].to_numpy(dtype=float), atol=atol)


def _two_keys(r, key, names):
    """Replace order attribute ``key`` (``k`` + 3 digits) by a string and an int attribute.

    The pair (last digit, first two digits) is a key that sorts the rows in
    another order than ``key``; the result is spread over three partitions.
    """
    rest = [c for c in r.columns if c != key]
    g, n = F.substring(key, 4, 1).alias(names[0]), F.substring(key, 2, 2).cast("int").alias(names[1])
    return r.select(g, n, *rest).repartition(3)


def _pair(rel_factory, n, k_r, k_s, seed, two_keys):
    """Relations r (key ``id``) and s (key ``id2``) with their order schemas."""
    r, _ = rel_factory(n, k_r, seed=seed)
    s, _ = rel_factory(n, k_s, seed=seed + 1, key="id2", prefix="b")
    if not two_keys:
        return r, s, ["id"], ["id2"]
    return _two_keys(r, "id", ["g", "i"]), _two_keys(s, "id2", ["g2", "i2"]), ["g", "i"], ["g2", "i2"]


_LINEAR_CASES = [
    *[pytest.param(op, align, False, id=f"{align}-{op}")
      for align in ("position", "keys") for op in ("add", "sub", "emu")],
    *[pytest.param("add", align, True, id=f"{align}-add-two_keys") for align in ("position", "keys")],
]


@pytest.mark.parametrize("op,align,two_keys", _LINEAR_CASES)
def test_linear_spark_matches_local(rel_factory, op, align, two_keys):
    r, s, by, by2 = _pair(rel_factory, 40, 3, 3, 1, two_keys)
    f = getattr(ops, op)
    spark_out = f(r, s, by, by2, backend="spark", align=align)
    local_out = f(r, s, by, by2, backend="local")
    _cmp(spark_out, local_out, by, ["a00", "a01", "a02"])


@pytest.mark.parametrize("n,k", [(60, 4), (200, 7)])
def test_qqr_spark_matches_local(rel_factory, n, k):
    r, _ = rel_factory(n, k, seed=5)
    cols = [f"a{j:02d}" for j in range(k)]
    _cmp(
        ops.qqr(r, ["id"], backend="spark"),
        ops.qqr(r, ["id"], backend="local"),
        ["id"],
        cols,
        atol=1e-6,
    )


def test_qqr_bat_matches_local(rel_factory):
    r, _ = rel_factory(30, 4, seed=6)
    cols = [f"a{j:02d}" for j in range(4)]
    _cmp(ops.qqr(r, ["id"], backend="bat"), ops.qqr(r, ["id"], backend="local"), ["id"], cols, atol=1e-7)


@pytest.mark.parametrize("backend", ["spark", "bat"])
def test_rqr_backends_match_local(rel_factory, backend):
    r, _ = rel_factory(50, 4, seed=7)
    cols = [f"a{j:02d}" for j in range(4)]
    _cmp(
        ops.rqr(r, ["id"], backend=backend),
        ops.rqr(r, ["id"], backend="local"),
        ["C"],
        cols,
        atol=1e-6,
    )


def test_inv_bat_matches_local(rel_factory):
    r, _ = rel_factory(6, 6, square=True, seed=8)
    cols = [f"a{j:02d}" for j in range(6)]
    _cmp(ops.inv(r, ["id"], backend="bat"), ops.inv(r, ["id"], backend="local"), ["id"], cols, atol=1e-7)


def test_mmu_spark_matches_local(rel_factory):
    r, _ = rel_factory(80, 3, seed=9)
    s, _ = rel_factory(3, 2, seed=10, key="id2", prefix="b")
    _cmp(
        ops.mmu(r, s, ["id"], ["id2"], backend="spark"),
        ops.mmu(r, s, ["id"], ["id2"], backend="local"),
        ["id"],
        ["b00", "b01"],
    )


def test_cpd_binary_spark_matches_local(rel_factory):
    r, _ = rel_factory(70, 3, seed=11)
    s, _ = rel_factory(70, 2, seed=12, key="id2", prefix="b")
    _cmp(
        ops.cpd(r, s, ["id"], ["id2"], backend="spark"),
        ops.cpd(r, s, ["id"], ["id2"], backend="local"),
        ["C"],
        ["b00", "b01"],
        atol=1e-7,
    )


def test_sol_spark_matches_local(rel_factory):
    r, _ = rel_factory(50, 3, seed=13)
    s, _ = rel_factory(50, 1, seed=14, key="id2", prefix="y")
    _cmp(
        ops.sol(r, s, ["id"], ["id2"], backend="spark"),
        ops.sol(r, s, ["id"], ["id2"], backend="local"),
        ["C"],
        ["y00"],
        atol=1e-6,
    )


@pytest.mark.parametrize("op,k_s,cols", [("cpd", 2, ["b00", "b01"]), ("sol", 1, ["b00"])], ids=["cpd", "sol"])
def test_gram_spark_matches_local_two_attribute_keys(rel_factory, op, k_s, cols):
    """Binary ``cpd`` and ``sol`` pair rows in the engine under a string + int order schema."""
    r, s, by, by2 = _pair(rel_factory, 60, 3, k_s, 11, True)
    f = ops.BINARY_OPS[op]
    _cmp(f(r, s, by, by2, backend="spark"), f(r, s, by, by2, backend="local"), ["C"], cols, atol=1e-6)


def _origin(v):
    """A key value as a multiset element: NaN equals NaN but not null."""
    return "NaN" if isinstance(v, float) and math.isnan(v) else v


def _is_key(rows):
    """Whether the order values (all but the last, ``v``) of non-empty ``rows`` form a key."""
    keys = [tuple(map(_origin, row[:-1])) for row in rows]
    return 0 < len(set(keys)) == len(keys)


def _keyed_pair(spark, case):
    """Relations r and s (order attributes renamed ``…_2``) and their order schemas, for ``align="keys"``.

    A ``KEY_CASES`` name pairs its relation with a copy of itself; ``unequal``
    pairs keys {1, 2, 3} with {2, 3, 4}, ``join_equal`` pairs ``-0.0``/NaN/1
    with ``0.0``/NaN/1, equal key values under join equality.
    """
    if case in KEY_CASES:
        r, by = key_case(spark, case)
        by2 = [f"{c}_2" for c in by]
        return r, r.select(*[F.col(c).alias(c2) for c, c2 in zip(by, by2)], "v"), by, by2
    left, right = {"unequal": ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]),
                   "join_equal": ([-0.0, float("nan"), 1.0], [0.0, float("nan"), 1.0])}[case]
    r = spark.createDataFrame([(k, 10.0 * i) for i, k in enumerate(left, 1)], "k double, v double")
    s = spark.createDataFrame([(k, float(i)) for i, k in enumerate(right, 1)], "k_2 double, v double")
    return r, s, ["k"], ["k_2"]


@pytest.mark.parametrize("case", [*KEY_CASES, "unequal", "join_equal"])
def test_key_alignment_agrees_across_backends(spark, case):
    """``align="keys"`` on local and spark: the same relation, or the same error."""
    r, s, by, by2 = _keyed_pair(spark, case)
    outcomes = []
    for backend in ("local", "spark"):
        try:
            out = ops.add(r, s, by, by2, backend=backend, align="keys")
            outcomes.append((out.columns, Counter(tuple(map(_origin, row)) for row in out.collect())))
        except ValueError as e:
            outcomes.append(str(e))
    assert outcomes[0] == outcomes[1]
    if case == "unequal":
        assert outcomes[0] == "add: align='keys' needs both order schemas to hold the same key values"


_ORIGIN_CALLS = [*[("qqr", b) for b in ("local", "spark", "bat")], ("add", "local")]


@pytest.mark.parametrize("case", [c for c, (_, rows) in KEY_CASES.items() if _is_key(rows)])
@pytest.mark.parametrize("op,backend", _ORIGIN_CALLS, ids=[f"{op}-{b}" for op, b in _ORIGIN_CALLS])
def test_origins_keep_type_and_value(spark, case, op, backend):
    """Every result row keeps the Spark type and exact value of its input's order attributes."""
    r, by = key_case(spark, case)
    r = r.coalesce(1)  # one Arrow batch holds the nulls and the values together
    if op == "qqr":
        out = ops.qqr(r, by, backend=backend)
    else:
        by2 = [f"{c}_2" for c in by]
        s = r.select(*[F.col(c).alias(c2) for c, c2 in zip(by, by2)], "v")
        out = ops.add(r, s, by, by2, backend=backend)
    assert out.select(*by).schema == r.select(*by).schema

    def keys(rel):
        return Counter(tuple(_origin(row[c]) for c in by) for row in rel.select(*by).collect())

    assert keys(out) == keys(r)


#: Runs the mapInArrow kernels with ``src`` on the driver's ``sys.path`` only.
_WORKER_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from pyspark.sql import SparkSession
from repro.core import ops

spark = SparkSession.builder.getOrCreate()
r = spark.createDataFrame([(f"k{{i}}", float(i), float(i * i % 7)) for i in range(20)], "id string, a double, b double")
s = spark.createDataFrame([("a", 1.0, 2.0), ("b", 3.0, 4.0)], "k string, x double, y double")
for out in (ops.qqr(r, ["id"], backend="spark"), ops.cpd(r, r, ["id"], ["id"], backend="spark"),
            ops.mmu(r, s, ["id"], ["k"], backend="spark")):
    assert out.count() > 0
spark.stop()
"""


def _run_spark_script(script, tmp_path, conf=""):
    """Run ``script`` (formatted with ``src``) in a fresh Python with its own local[2] Spark driver.

    ``src`` is only on the driver's ``sys.path``; ``conf`` adds ``--conf`` options, e.g. ones
    Spark fixes when the driver starts.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYSPARK_PYTHON"] = sys.executable
    env["PYSPARK_SUBMIT_ARGS"] = ("--master local[2] --driver-memory 1g --conf spark.driver.host=127.0.0.1 "
                                  f"--conf spark.ui.enabled=false {conf} pyspark-shell")
    proc = subprocess.run([sys.executable, "-c", script.format(src=str(src))], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_spark_kernels_run_without_the_package_on_workers(tmp_path):
    """Python workers need not import ``repro``: the kernels' bodies use only numpy and pyarrow."""
    _run_spark_script(_WORKER_SCRIPT, tmp_path)


#: 60K×4 doubles plus a long key: each input is about 2.4 MB as Arrow, over a 1 MB limit.
_DRIVER_LIMIT_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from repro.core import ops

spark = SparkSession.builder.getOrCreate()
g = np.random.default_rng(0)
n, app = 60_000, ["a0", "a1", "a2", "a3"]


def rel(m, key):
    pdf = pd.DataFrame(m, columns=app)
    pdf.insert(0, key, np.arange(n))
    return spark.createDataFrame(pdf.sample(frac=1.0, random_state=1))


a, b = g.random((n, 4)), g.random((n, 4))
r, s, want = rel(a, "id"), rel(b, "id2"), rel(a + b, "w").withColumnRenamed("w", "id")


def raises(call, prefix):
    try:
        call()
    except ValueError as e:
        assert str(e).startswith(prefix) and "spark.driver.maxResultSize = 1m" in str(e), str(e)
    else:
        raise AssertionError(prefix + " did not raise")


for align in ("position", "keys"):
    out = ops.add(r, s, ["id"], ["id2"], align=align)  # auto: reruns on the spark kernel
    err = out.join(want, "id").agg(F.count(F.lit(1)), *[F.max(F.abs(out[c] - want[c])) for c in app]).first()
    assert err[0] == n and max(err[1:]) <= 1e-12, (align, err)
gram = ops.cpd(r, r, ["id"], ["id"]).toPandas().set_index("C").loc[app, app].to_numpy()
assert np.allclose(gram, a.T @ a, rtol=1e-12), gram
raises(lambda: ops.qqr(r, ["id"]), "qqr: ")
raises(lambda: ops.add(r, s, ["id"], ["id2"], backend="local"), "add: ")
spark.stop()
"""


def test_auto_falls_back_to_the_engine_over_the_driver_limit(tmp_path):
    """An ``auto`` input over ``spark.driver.maxResultSize`` runs ``add`` and ``cpd(r, r)`` in the
    engine; ``qqr``, which has no kernel there as accurate as LAPACK, and an explicit ``local``
    call raise a ``ValueError`` naming the operation and the limit.

    The limit is fixed when the driver starts, so the calls run in a driver of their own. Broadcast
    joins are off, as in the test session: the check joins the result with the expected values,
    and a broadcast collects its side to the driver, which Spark's default threshold for one
    (10 MB) lets go over this limit.
    """
    _run_spark_script(_DRIVER_LIMIT_SCRIPT, tmp_path,
                      "--conf spark.driver.maxResultSize=1m --conf spark.sql.autoBroadcastJoinThreshold=-1")


def test_gram_exact_across_partitions(spark, rel_factory):
    """Partial-Gram sums are exact regardless of partitioning."""
    from repro.core.distributed import gram

    r, m = rel_factory(500, 5, seed=15)
    r8 = r.repartition(8)
    g = gram(r8, [f"a{j:02d}" for j in range(5)])
    assert np.allclose(g, m.T @ m, atol=1e-6)


def test_unavailable_backend_raises(rel_factory):
    r, _ = rel_factory(4, 4, square=True)
    with pytest.raises(ValueError, match="backend"):
        ops.inv(r, ["id"], backend="spark")
    with pytest.raises(ValueError, match="BAT kernel"):
        ops.evc(r, ["id"], backend="bat")
    with pytest.raises(ValueError, match="BAT kernel"):
        ops.add(r, r, ["id"], ["id"], backend="bat")


def test_unknown_backend_and_align_raise(rel_factory):
    """A misspelt option names the operation and the allowed values."""
    r, _ = rel_factory(4, 2)
    s, _ = rel_factory(4, 2, key="id2", prefix="b")
    with pytest.raises(ValueError, match=r"qqr: .*'mkl'.*\['auto', 'local', 'spark', 'bat'\]"):
        ops.qqr(r, "id", backend="mkl")
    with pytest.raises(ValueError, match=r"add: .*'key'.*\['position', 'keys'\]"):
        ops.add(r, s, "id", "id2", align="key")


def test_spark_backend_never_sorts_globally(rel_factory):
    """qqr spark keeps each row's own context (no order column needed)."""
    r, _ = rel_factory(100, 3, seed=16)
    out = ops.qqr(r.repartition(7), ["id"], backend="spark")
    m = sorted_matrix(out, ["id"], ["a00", "a01", "a02"])
    assert np.allclose(m.T @ m, np.eye(3), atol=1e-8)


_DISTRIBUTED = ("zip_linear", "gram", "qqr_rows", "rqr_matrix", "mmu_rows")
_AUTO_CASES = [
    *[(op, f"matrix_ops.{op}") for op in ops.BINARY_OPS],
    ("cpd(r, r)", "matrix_ops.cpd"),
    *[(op, f"matrix_ops.{op}") for op in ops.UNARY_OPS],
]


@pytest.mark.parametrize("op,kernel", _AUTO_CASES, ids=[c[0] for c in _AUTO_CASES])
def test_auto_backend_policy(monkeypatch, rel_factory, op, kernel):
    """``backend="auto"``: every operation whose inputs fit on the driver runs
    LAPACK, linear ops and ``cpd(r, r)`` included, and no distributed kernel.

    The spies replace kernels after import, so they also prove that ops
    looks kernels up when the call runs (the benchmark tracer relies on it).
    """
    from repro.core import distributed, matrix_ops

    ran = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in _DISTRIBUTED:
        monkeypatch.setattr(distributed, name, spy(f"distributed.{name}", getattr(distributed, name)))
    for table in (matrix_ops.UNARY, matrix_ops.BINARY):
        for name, fn in list(table.items()):
            monkeypatch.setitem(table, name, spy(f"matrix_ops.{name}", fn))

    r, _ = rel_factory(4, 4, square=True, spd=True, seed=17)
    s, _ = rel_factory(4, 1 if op == "sol" else 4, seed=18, key="id2", prefix="b")
    if op == "cpd(r, r)":
        ops.cpd(r, r, ["id"], ["id"], backend="auto")
    elif op in ops.BINARY_OPS:
        ops.BINARY_OPS[op](r, s, ["id"], ["id2"], backend="auto")
    else:
        ops.UNARY_OPS[op](r, ["id"], backend="auto")
    assert ran == [kernel]


def test_bat_qqr_rejects_rank_deficient_input(spark):
    """``v9 = v0 + v1`` leaves a Gram-Schmidt residual of rounding size, not an exact 0."""
    m = np.random.default_rng(0).standard_normal((4000, 10))
    m[:, 9] = m[:, 0] + m[:, 1]
    pdf = pd.DataFrame(m, columns=[f"v{j}" for j in range(10)])
    pdf.insert(0, "id", range(4000))
    with pytest.raises(ValueError, match="rank-deficient input: column 9"):
        ops.qqr(spark.createDataFrame(pdf), ["id"], backend="bat")

"""Input validation: order schemas must be keys, application parts numeric."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from helpers import KEY_CASES, key_case, make_rel, spark_jobs
from repro.core import distributed, ops
from repro.core.constructors import split_sorted


@pytest.fixture
def dup_key(spark):
    return spark.createDataFrame(
        pd.DataFrame({"k": ["a", "a", "b"], "v": [1.0, 2.0, 3.0], "w": [1.0, 1.0, 1.0]})
    )


def test_order_schema_must_form_key(dup_key):
    with pytest.raises(ValueError, match="does not form a key"):
        ops.qqr(dup_key, ["k"])


def test_null_keys_are_duplicates(spark):
    """Two null order-schema values are one key value, as under ``distinct()``."""
    r = spark.createDataFrame(
        pd.DataFrame({"k": ["a", None, None], "v": [1.0, 2.0, 3.0], "w": [1.0, 0.0, 1.0]})
    )
    with pytest.raises(ValueError, match="does not form a key"):
        ops.qqr(r, ["k"])


def test_shared_input_key_check(dup_key):
    """``cpd(r, r)`` validates its one relation once, and still catches duplicates."""
    for backend in ("auto", "spark"):  # the driver copy, and the engine aggregation
        with pytest.raises(ValueError, match="does not form a key"):
            ops.cpd(dup_key, dup_key, ["k"], ["k"], backend=backend)


def test_spark_mmu_checks_its_collected_operand(spark, dup_key):
    r = spark.createDataFrame(pd.DataFrame({"i": ["x", "y"], "p": [1.0, 2.0], "q": [3.0, 4.0], "u": [0.0, 1.0]}))
    with pytest.raises(ValueError, match="does not form a key"):
        ops.mmu(r, dup_key, ["i"], ["k"], backend="spark")


def test_binary_key_check_covers_both_sides(spark, dup_key):
    ok = spark.createDataFrame(
        pd.DataFrame({"k2": ["a", "b", "c"], "v": [1.0, 2.0, 3.0], "w": [1.0, 1.0, 1.0]})
    )
    for backend in ("auto", "spark"):
        with pytest.raises(ValueError, match="does not form a key"):
            ops.add(ok, dup_key, ["k2"], ["k"], backend=backend)
        with pytest.raises(ValueError, match="does not form a key"):
            ops.add(dup_key, ok, ["k"], ["k2"], backend=backend)


def test_non_numeric_application_attribute_rejected(spark):
    r = spark.createDataFrame(
        pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0], "label": ["x", "y"]})
    )
    with pytest.raises(ValueError, match="must be numeric"):
        ops.qqr(r, ["k"])


def test_footnote2_extra_attributes_must_be_handled_explicitly(spark):
    """Footnote 2: attributes join the order schema or are projected away."""
    r = spark.createDataFrame(
        pd.DataFrame({"k": ["a", "b"], "note": ["x", "y"], "v": [1.0, 2.0], "w": [3.0, 4.0]})
    )
    with pytest.raises(ValueError, match="must be numeric"):
        ops.qqr(r, ["k"])
    assert ops.qqr(r, ["k", "note"]).columns == ["k", "note", "v", "w"]  # super key
    assert ops.qqr(r.select("k", "v", "w"), ["k"]).columns == ["k", "v", "w"]  # projection


def test_empty_application_schema_rejected(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0]}))
    with pytest.raises(ValueError, match="application schema is empty"):
        ops.qqr(r, ["k", "v"])


def test_integer_application_attributes_are_accepted(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a", "b"], "v": [1, 2], "w": [3, 4]}))
    out = ops.tra(r, ["k"]).orderBy("C").toPandas()
    assert out["a"].tolist() == [1.0, 3.0]


def test_opd_second_order_schema_must_be_unit(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0]}))
    s = spark.createDataFrame(
        pd.DataFrame({"k1": ["a", "a"], "k2": [1, 2], "v": [1.0, 2.0]})
    )
    with pytest.raises(ValueError, match="exactly one attribute"):
        ops.opd(r, s, ["k"], ["k1", "k2"])


def test_unknown_order_attribute(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a"], "v": [1.0]}))
    with pytest.raises(ValueError, match="not in schema"):
        ops.qqr(r, ["missing"])


@pytest.mark.parametrize("case", [c for c in KEY_CASES if c != "empty"])
def test_local_key_check_agrees_with_spark(spark, case):
    """The key check on the collected copy gives the verdict of ``count(1) == count(DISTINCT struct(U))``."""
    r, by = key_case(spark, case)
    n, keys = r.agg(F.count(F.lit(1)), F.count_distinct(F.struct(*by))).first()
    if n == keys:
        assert ops.rnk(r, by, backend="local").count() == 1
    else:
        with pytest.raises(ValueError, match="does not form a key"):
            ops.rnk(r, by, backend="local")


def test_empty_order_schema_keys_at_most_one_tuple(spark):
    """``U = ∅`` is a key of a relation with one tuple, and of none with two."""
    r = spark.createDataFrame([(1.0,), (2.0,)], "v double")
    with pytest.raises(ValueError, match="does not form a key"):
        ops.rnk(r, [], backend="local")
    assert ops.rnk(r.limit(1), [], backend="local").count() == 1


def _jobs(spark, fn):
    with spark_jobs(spark) as jobs:
        fn()
    return jobs()


@pytest.fixture
def rel_pair(spark):
    r, _ = make_rel(spark, 30, 3, seed=1)
    s, _ = make_rel(spark, 30, 2, seed=2, prefix="b")
    return r, s


def _union_compatible(s):
    """``s`` of ``rel_pair`` with key ``id2`` and the three application attributes of ``r``."""
    return s.select(s["id"].alias("id2"), s["b00"].alias("a00"), s["b01"].alias("a01"), F.lit(1.0).alias("a02"))


@pytest.mark.parametrize("op", ["qqr", "tra", "cpd", "add", "sub", "cpd(r, r)"])
def test_local_call_collects_each_input_once(spark, rel_pair, op):
    """A local call costs one plain collect per input; validating it starts no job.

    ``auto`` runs every call here, the linear ops and ``cpd(r, r)`` included,
    and copies the one input of ``cpd(r, r)`` once.
    """
    r, s = rel_pair
    t = _union_compatible(s)
    inputs, call = {
        "qqr": ([r], lambda: ops.qqr(r, "id")),
        "tra": ([r], lambda: ops.tra(r, "id")),
        "cpd": ([r, s], lambda: ops.cpd(r, s, "id", "id")),
        "add": ([r, t], lambda: ops.add(r, t, "id", "id2")),
        "sub": ([r, t], lambda: ops.sub(r, t, "id", "id2")),
        "cpd(r, r)": ([r], lambda: ops.cpd(r, r, "id", "id")),
    }[op]
    collects = sum(_jobs(spark, lambda: x.select(*x.columns).toPandas()) for x in inputs)
    assert _jobs(spark, call) == collects


@pytest.mark.parametrize("op", ["add", "cpd", "mmu"])
def test_engine_inputs_keep_one_aggregation(spark, rel_pair, op):
    """Inputs that stay in the engine are validated by one aggregation each.

    The call costs its kernel's jobs plus one aggregation per engine input.
    The spark ``mmu`` copies its right operand to the driver, so only its
    left operand pays an aggregation; the copy validates the right one.
    """
    r, s = rel_pair
    s = _union_compatible(s)
    t, _ = make_rel(spark, 3, 2, seed=3, key="id2", prefix="b")  # 3 rows: one per attribute of r
    app = ["a00", "a01", "a02"]
    inputs, call, kernel = {
        "add": ([(r, "id"), (s, "id2")], lambda: ops.add(r, s, "id", "id2", backend="spark"),
                lambda: distributed.zip_linear(r, ["id"], s, ["id2"], app, app, "add", ["id", "id2", *app])),
        "cpd": ([(r, "id")], lambda: ops.cpd(r, r, "id", "id", backend="spark"),  # r once
                lambda: distributed.gram(r, app)),
        "mmu": ([(r, "id")], lambda: ops.mmu(r, t, "id", "id2", backend="spark"),
                lambda: distributed.mmu_rows(r, ["id"], app, split_sorted(t, ["id2"])[1], ["b00", "b01"])),
    }[op]
    aggs = sum(_jobs(spark, lambda: x.agg(F.count(F.lit(1)), F.count_distinct(F.struct(by))).first())
               for x, by in inputs)
    assert _jobs(spark, call) - _jobs(spark, kernel) == aggs


def test_spark_sol_costs_no_more_jobs_than_cpd(spark, rel_pair):
    """The spark ``sol`` reads ``AᵀA`` and ``Aᵀb`` from one Gram pass over the paired rows."""
    r, _ = rel_pair
    y, _ = make_rel(spark, 30, 1, seed=4, key="id2", prefix="y")
    sol = _jobs(spark, lambda: ops.sol(r, y, "id", "id2", backend="spark"))
    cpd = _jobs(spark, lambda: ops.cpd(r, y, "id", "id2", backend="spark"))
    assert sol <= cpd


_BACKENDS = ("local", "spark", "bat")
_NULL_CALLS = [*[("qqr", b, "r") for b in _BACKENDS],
               *[("add", b, side) for b in ("local", "spark") for side in "rs"]]
_ROWS = [("a", 1.0, 2.0), ("b", 4.0, 1.0), ("c", 3.0, 5.0)]


def _with_null(spark, key="k"):
    """``_ROWS`` with a null in place of 4.0."""
    return spark.createDataFrame([("b", None, 1.0) if row[0] == "b" else row for row in _ROWS],
                                 f"{key} string, v double, w double")


@pytest.mark.parametrize("op,backend,side", _NULL_CALLS, ids=[f"{o}-{b}-null_in_{s}" for o, b, s in _NULL_CALLS])
def test_null_application_value_rejected(spark, op, backend, side):
    """A null application value raises instead of turning the result into NaN."""
    if op == "qqr":
        call = lambda: ops.qqr(_with_null(spark), ["k"], backend=backend)  # noqa: E731
    else:
        ok = spark.createDataFrame(_ROWS, "k2 string, v double, w double")
        if side == "r":
            r, s = _with_null(spark), ok
        else:
            r, s = ok.withColumnRenamed("k2", "k"), _with_null(spark, "k2")
        call = lambda: ops.add(r, s, ["k"], ["k2"], backend=backend)  # noqa: E731
    with pytest.raises(ValueError, match=rf"^{op}: application attribute\(s\) \['v'\] hold nulls$"):
        call()


_SHAPE_CALLS = [*[(op, b) for op in ("qqr", "rqr") for b in _BACKENDS], ("rnk", "local")]


@pytest.mark.parametrize("rows", [0, 1], ids=["empty", "one_row"])
@pytest.mark.parametrize("op,backend", _SHAPE_CALLS, ids=[f"{o}-{b}" for o, b in _SHAPE_CALLS])
def test_degenerate_shapes_name_the_op(spark, op, backend, rows):
    """qqr/rqr need n ≥ k tuples (a reduced QR of a tall matrix), rnk at least one."""
    r = spark.createDataFrame(_ROWS[:rows], "k string, v double, w double")
    call = lambda: ops.UNARY_OPS[op](r, ["k"], backend=backend)  # noqa: E731
    if op == "rnk" and rows == 1:
        assert call().first()["rnk"] == 1.0
    else:
        with pytest.raises(ValueError, match=f"^{op}: "):
            call()

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
    with pytest.raises(ValueError, match=r"^qqr: order schema attributes \['missing'\] not in schema"):
        ops.qqr(r, ["missing"])


def test_duplicate_order_attribute(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a"], "v": [1.0]}))
    with pytest.raises(ValueError, match="^qqr: order schema has duplicate attributes"):
        ops.qqr(r, ["k", "k"])


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


@pytest.mark.parametrize("op", ["add", "cpd", "mmu", "mmu(r, r)"])
def test_engine_inputs_keep_one_aggregation(spark, rel_pair, op):
    """Inputs that stay in the engine are validated by one aggregation each.

    The call costs its kernel's jobs plus one aggregation per engine input.
    The spark ``mmu`` copies its right operand to the driver, so only its
    left operand pays an aggregation; the copy validates the right one. A
    shared ``mmu(r, r)`` goes through that copy once and pays none.
    """
    r, s = rel_pair
    s = _union_compatible(s)
    t, _ = make_rel(spark, 3, 2, seed=3, key="id2", prefix="b")  # 3 rows: one per attribute of r
    q, _ = make_rel(spark, 3, 3, seed=4)  # square, so mmu(q, q) is defined
    app = ["a00", "a01", "a02"]
    inputs, call, kernel = {
        "add": ([(r, "id"), (s, "id2")], lambda: ops.add(r, s, "id", "id2", backend="spark"),
                lambda: distributed.zip_linear(r, ["id"], s, ["id2"], app, app, "add", ["id", "id2", *app])),
        "cpd": ([(r, "id")], lambda: ops.cpd(r, r, "id", "id", backend="spark"),  # r once
                lambda: distributed.gram(r, app)),
        "mmu": ([(r, "id")], lambda: ops.mmu(r, t, "id", "id2", backend="spark"),
                lambda: distributed.mmu_rows(r, ["id"], app, split_sorted(t, ["id2"])[1], ["b00", "b01"])),
        "mmu(r, r)": ([], lambda: ops.mmu(q, q, "id", "id", backend="spark"),
                      lambda: distributed.mmu_rows(q, ["id"], app, split_sorted(q, ["id"])[1], app)),
    }[op]
    aggs = sum(_jobs(spark, lambda: x.agg(F.count(F.lit(1)), F.count_distinct(F.struct(by))).first())
               for x, by in inputs)
    assert _jobs(spark, call) - _jobs(spark, kernel) == aggs


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


def _relations(spark):
    """Relations that each break one rule of an op call, and valid ones to pair them with."""
    ddl = "k string, v double, w double"
    return {
        "ok": spark.createDataFrame(_ROWS, ddl),
        "ok2": spark.createDataFrame(_ROWS, ddl.replace("k ", "k2 ")),
        "other_keys": spark.createDataFrame([("a", 1.0, 2.0), ("b", 4.0, 1.0), ("d", 3.0, 5.0)],
                                            ddl.replace("k ", "k2 ")),
        "dup": spark.createDataFrame([("a", 1.0, 2.0), ("a", 4.0, 1.0), ("c", 3.0, 5.0)], ddl),
        "null": _with_null(spark),
        "text": spark.createDataFrame([("a", 1.0, "x"), ("b", 2.0, "y")], "k string, v double, s string"),
        "two_keys": spark.createDataFrame([("a", 1, 1.0), ("a", 2, 2.0)], "k1 string, k2 int, v double"),
        # A key (null ≠ "None") whose column cast ∇ gives two attributes named "None".
        "cast": spark.createDataFrame([("None", 1.0), (None, 2.0)], "k string, v double"),
    }


# One broken rule per case: the op, the call on ``_relations``, and words of the message.
_INPUT_ERRORS = {
    **{f"duplicate_key-{b}": ("qqr", lambda x, b=b: ops.qqr(x["dup"], "k", backend=b), "does not form a key")
       for b in _BACKENDS},
    **{f"null-{b}": ("qqr", lambda x, b=b: ops.qqr(x["null"], "k", backend=b), "hold nulls")
       for b in ("local", "spark")},
    "missing_order_attribute": ("qqr", lambda x: ops.qqr(x["ok"], ["missing"]), "not in schema"),
    "duplicate_order_attribute": ("qqr", lambda x: ops.qqr(x["ok"], ["k", "k"]), "duplicate attributes"),
    "non_numeric": ("qqr", lambda x: ops.qqr(x["text"], "k"), "must be numeric"),
    "empty_application": ("qqr", lambda x: ops.qqr(x["ok"].select("k", "v"), ["k", "v"]),
                          "application schema is empty"),
    "cast_arity": ("tra", lambda x: ops.tra(x["two_keys"], ["k1", "k2"]), "exactly one attribute"),
    "column_cast-tra": ("tra", lambda x: ops.tra(x["cast"], "k"), "duplicate attribute names"),
    "column_cast-usv": ("usv", lambda x: ops.usv(x["cast"], "k"), "duplicate attribute names"),
    "column_cast-opd": ("opd", lambda x: ops.opd(x["ok"].select("k", "v"), x["cast"].withColumnRenamed("k", "k2"),
                                                 "k", "k2"), "duplicate attribute names"),
    "unknown_align": ("add", lambda x: ops.add(x["ok"], x["ok2"], "k", "k2", align="rows"), "unknown align"),
    "unknown_backend": ("qqr", lambda x: ops.qqr(x["ok"], "k", backend="gpu"), "no GPU kernel"),
    **{f"key_sets-{b}": ("add", lambda x, b=b: ops.add(x["ok"], x["other_keys"], "k", "k2", backend=b, align="keys"),
                         "same key values") for b in ("local", "spark")},
}


@pytest.mark.parametrize("case", list(_INPUT_ERRORS))
def test_input_error_names_the_op(spark, case):
    """One case per check of a call: whichever step raises, the ``ValueError`` starts with the op."""
    op, call, words = _INPUT_ERRORS[case]
    with pytest.raises(ValueError, match=f"^{op}: .*{words}"):
        call(_relations(spark))


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


# One violated operand constraint per case: the op, words of the message, the
# backends with a kernel for the op, and (tuples, attributes) of each input.
_VIOLATIONS = [
    ("add", "same number of tuples", ("local", "spark"), (3, 2), (4, 2)),
    ("cpd", "same number of tuples", ("local", "spark"), (3, 2), (4, 1)),
    ("sol", "same number of tuples", ("local",), (3, 2), (4, 1)),
    ("add", "union compatible", ("local", "spark"), (3, 2), (3, 3)),
    ("opd", "union compatible", ("local",), (3, 2), (4, 3)),
    ("mmu", "inner dimensions", ("local", "spark"), (4, 2), (3, 2)),
    ("sol", "single column", ("local",), (3, 2), (3, 2)),
    ("inv", "square", ("local", "bat"), (4, 2), None),
    *[(op, "square", ("local",), (4, 2), None) for op in ("evc", "evl", "det", "chf")],
]


@pytest.mark.parametrize("op,words,backends,shape_r,shape_s", _VIOLATIONS,
                         ids=[f"{v[0]}-{v[1].replace(' ', '_')}" for v in _VIOLATIONS])
def test_operand_constraint_names_the_op(spark, op, words, backends, shape_r, shape_s):
    """Each operand constraint is checked once, before any kernel: one message on every backend."""
    r, _ = make_rel(spark, *shape_r, seed=1)
    if shape_s is None:
        call = lambda backend: ops.UNARY_OPS[op](r, ["id"], backend=backend)  # noqa: E731
    else:
        s, _ = make_rel(spark, *shape_s, seed=2, key="id2", prefix="b")
        call = lambda backend: ops.BINARY_OPS[op](r, s, ["id"], ["id2"], backend=backend)  # noqa: E731
    messages = set()
    for backend in backends:
        with pytest.raises(ValueError, match=f"^{op}: .*{words}") as e:
            call(backend)
        messages.add(str(e.value))
    assert len(messages) == 1


# A value a kernel rejects: the op, its backend, the matrix and words of the message.
_VALUE_ERRORS = [
    ("inv", "local", [[1.0, 2.0], [2.0, 4.0]], "Singular matrix"),
    ("inv", "bat", [[0.0, 1.0], [1.0, 0.0]], "zero pivot"),
    ("chf", "local", [[1.0, 2.0], [0.0, 1.0]], "symmetric"),
    ("evl", "local", [[0.0, -1.0], [1.0, 0.0]], "complex eigenvalues"),
    ("qqr", "bat", [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], "rank-deficient"),
    ("qqr", "spark", [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], "full-rank"),
]


@pytest.mark.parametrize("op,backend,m,words", _VALUE_ERRORS, ids=[f"{v[0]}-{v[1]}" for v in _VALUE_ERRORS])
def test_kernel_value_error_names_the_op(spark, op, backend, m, words):
    r = spark.createDataFrame([(f"k{i}", *row) for i, row in enumerate(m)], "k string, v double, w double")
    with pytest.raises(ValueError, match=f"^{op}: .*{words}"):
        ops.UNARY_OPS[op](r, ["k"], backend=backend)

"""Input validation: order schemas must be keys, application parts numeric."""
import pandas as pd
import pytest

from repro.core import ops


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
    with pytest.raises(ValueError, match="does not form a key"):
        ops.cpd(dup_key, dup_key, ["k"], ["k"])


def test_key_check_skippable_for_benchmarks(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0], "w": [0.0, 1.0]}))
    assert ops.qqr(r, ["k"], validate=False).count() == 2


def test_binary_key_check_covers_both_sides(spark, dup_key):
    ok = spark.createDataFrame(
        pd.DataFrame({"k2": ["a", "b", "c"], "v": [1.0, 2.0, 3.0], "w": [1.0, 1.0, 1.0]})
    )
    with pytest.raises(ValueError, match="does not form a key"):
        ops.add(ok, dup_key, ["k2"], ["k"])


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

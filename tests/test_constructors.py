"""Tests for the matrix/relation constructors and casts (Sections 3, 4.1)."""
import datetime
import decimal
import gc
import math
import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from helpers import KEY_CASES, key_case, sorted_matrix, spark_jobs
from repro.core import constructors, ops
from repro.core.constructors import (
    application_schema,
    column_cast,
    matrix_constructor,
    matrix_constructor_complement,
    relation_constructor,
    schema_cast,
    split_sorted,
)


def test_application_schema_order_follows_relation_schema(weather):
    assert application_schema(weather, ["T"]) == ["H", "W"]
    assert application_schema(weather, ["W", "T"]) == ["H"]


def test_application_schema_missing_attr_raises(weather):
    with pytest.raises(ValueError, match="not in schema"):
        application_schema(weather, ["X"])


def test_application_schema_duplicate_attr_raises(weather):
    with pytest.raises(ValueError, match="duplicate"):
        application_schema(weather, ["T", "T"])


def test_matrix_constructor_order_part(weather):
    m = matrix_constructor(weather, ["T"])
    assert m[:, 0].tolist() == ["5am", "6am", "7am", "8am"]


def test_matrix_constructor_complement_fig3(weather_sel):
    # μ̄_T(σ_{T>6am}(r)) = [[6,7],[8,5]] — matrix n of Figure 3.
    n = matrix_constructor_complement(weather_sel, ["T"])
    assert n.tolist() == [[6.0, 7.0], [8.0, 5.0]]


def test_split_sorted_returns_both_parts(weather):
    order, m = split_sorted(weather, ["T"])
    assert order["T"].to_pylist() == ["5am", "6am", "7am", "8am"]
    assert m.tolist() == [[1.0, 3.0], [1.0, 4.0], [6.0, 7.0], [8.0, 5.0]]


def test_split_sorted_single_app_column_is_2d(weather):
    _, m = split_sorted(weather.select("T", "H"), ["T"])
    assert m.shape == (4, 1)


def test_split_sorted_multi_attr_order_schema(weather):
    order, m = split_sorted(weather, ["H", "T"])
    # sorted by (H, T): (1,5am), (1,6am), (6,7am), (8,8am)
    assert order["T"].to_pylist() == ["5am", "6am", "7am", "8am"]
    assert m[:, 0].tolist() == [3.0, 4.0, 7.0, 5.0]


def _value(v):
    """A key value compared across Spark rows and order parts: NaN equals NaN; types must match."""
    return "NaN" if isinstance(v, float) and math.isnan(v) else (type(v), v)


@pytest.mark.parametrize("case", KEY_CASES)
def test_split_sorted_matches_spark_order(spark, case):
    """The driver-side sort is Spark's ascending order, stable on ties."""
    r, by = key_case(spark, case)
    # Spark's order made stable by the collect order of the rows.
    want = r.withColumn("_i", F.monotonically_increasing_id()).orderBy(*by, "_i").collect()
    order, m = split_sorted(r, by)
    assert list(order.column_names) == by
    got_keys = [tuple(map(_value, row.values())) for row in order.to_pylist()]
    assert got_keys == [tuple(_value(row[c]) for c in by) for row in want]
    assert m.shape == (len(want), 1)
    assert m[:, 0].tolist() == [row["v"] for row in want]


@pytest.mark.parametrize("case", KEY_CASES)
def test_split_sorted_key_verdict_matches_spark_count_distinct(spark, case):
    """A checked copy rejects exactly the relations where ``count(1) != count(DISTINCT struct(U))``:
    null≠NaN, NaN=NaN, 0.0=−0.0, null=null."""
    r, by = key_case(spark, case)
    n, keys = r.agg(F.count(F.lit(1)), F.count_distinct(F.struct(*by))).first()
    if n == keys:
        assert len(split_sorted(r, by, check=True)[0]) == n
    else:
        with pytest.raises(ValueError, match=r"^order schema \[.*\] does not form a key$"):
            split_sorted(r, by, check=True)


def test_column_cast_keeps_null_apart_from_nan(spark):
    r, by = key_case(spark, "null_nan")
    assert column_cast(split_sorted(r, by)[0], "k") == ["None", "nan"]


def test_column_cast_example_3_1(spark):
    # ∇O = (A, B, C) for relation r of Figure 1.
    r = spark.createDataFrame(
        pd.DataFrame({"O": ["A", "C", "D", "B"], "V": [30, 22, 10, 10], "W": [1, 5, 2, 1]})
    )
    assert column_cast(split_sorted(r, ["O"])[0], "O") == ["A", "B", "C", "D"]


def test_column_cast_numeric_values_become_names(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": [2.0, 1.0], "v": [1.0, 2.0]}))
    assert column_cast(split_sorted(r, ["k"])[0], "k") == ["1", "2"]


def test_column_cast_duplicate_values_raise(spark):
    r = spark.createDataFrame(pd.DataFrame({"k": [1, 1], "v": [1.0, 2.0]}))
    with pytest.raises(ValueError, match="duplicate"):
        column_cast(split_sorted(r, ["k"])[0], "k")


def test_schema_cast_example_3_2():
    # Δ(D,B) is a single-column matrix of the attribute names.
    m = schema_cast(["D", "B"])
    assert m.shape == (2, 1)
    assert m[:, 0].tolist() == ["D", "B"]


def test_relation_constructor_roundtrip(spark, weather):
    order, m = split_sorted(weather, ["T"])
    v = relation_constructor(spark, [order, m], ["T", "H", "W"])
    assert sorted(v.columns) == ["H", "T", "W"]
    got = v.orderBy("T").toPandas()
    assert got["H"].tolist() == [1.0, 1.0, 6.0, 8.0]


def test_relation_constructor_duplicate_schema_raises(spark):
    with pytest.raises(ValueError, match="duplicate"):
        relation_constructor(spark, [np.ones((2, 2))], ["A", "A"])


def test_relation_constructor_row_count_mismatch_raises(spark):
    with pytest.raises(ValueError, match="equal row counts"):
        relation_constructor(spark, [np.ones((2, 1)), np.ones((3, 1))], ["A", "B"])


def test_relation_constructor_schema_arity_mismatch_raises(spark):
    with pytest.raises(ValueError, match="supply"):
        relation_constructor(spark, [np.ones((2, 2))], ["A", "B", "C"])


def test_relation_constructor_mixed_context_and_numeric(spark):
    out = relation_constructor(
        spark,
        [np.array([["x"], ["y"]], dtype=object), np.array([[1.0], [2.0]])],
        ["C", "v"],
    )
    pdf = out.orderBy("C").toPandas()
    assert pdf["C"].tolist() == ["x", "y"]
    assert pdf["v"].tolist() == [1.0, 2.0]


def test_relation_constructor_schema_matches_create_dataframe(spark):
    """γ passes the Spark schema that ``createDataFrame`` derives from the Arrow table itself."""
    t = pa.table({
        "s": pa.array(["x", None]),
        "i": pa.array([1, 2], pa.int32()),
        "d": pa.array([1.5, float("nan")]),
        "m": pa.array([decimal.Decimal("1.25"), None], pa.decimal128(10, 2)),
        "ts": pa.array([datetime.datetime(2020, 1, 1, 3), None], pa.timestamp("us")),
        "tz": pa.array([datetime.datetime(2020, 1, 1, 3), None], pa.timestamp("us", tz="UTC")),
    })
    before = spark.conf.get("spark.sql.timestampType")
    try:
        for setting in ("TIMESTAMP_NTZ", "TIMESTAMP_LTZ"):
            spark.conf.set("spark.sql.timestampType", setting)
            assert relation_constructor(spark, [t], t.column_names).schema == spark.createDataFrame(t).schema
    finally:
        spark.conf.set("spark.sql.timestampType", before)


def test_second_tra_of_a_gamma_relation_starts_no_job(spark, rel_factory):
    r, m = rel_factory(6, 3)
    tr = ops.tra(r, "id")
    with spark_jobs(spark) as jobs:
        back = ops.tra(tr, "C")
    assert jobs() == 0
    assert sorted_matrix(back, ["C"], ["a00", "a01", "a02"]).tolist() == m.tolist()


def test_inv_of_a_gram_starts_no_job(spark, rel_factory):
    r, m = rel_factory(8, 3, seed=3)
    gram = ops.cpd(r, r, "id", "id")
    with spark_jobs(spark) as jobs:
        gi = ops.inv(gram, ["C"])
    assert jobs() == 0
    assert np.allclose(sorted_matrix(gi, ["C"], ["a00", "a01", "a02"]), np.linalg.inv(m.T @ m), rtol=1e-12)


def _mu(r, by, check):
    """``split_sorted``'s result, or the text of the ``ValueError`` it raised."""
    try:
        return split_sorted(r, by, check)
    except ValueError as e:
        return str(e)


def _bits(col):
    """The values of an order column, with NaN and ``-0.0`` told apart by their text."""
    return [(type(v), repr(v)) for v in col.to_pylist()]


@pytest.mark.parametrize("case", KEY_CASES)
def test_mu_of_a_gamma_relation_equals_its_collect(spark, case):
    """μ reads γ's kept table; it gives what collecting the relation gives, checks included."""
    r, by = key_case(spark, case)
    g = relation_constructor(spark, split_sorted(r, by), [*by, "v"])
    assert g in constructors._BUILT
    for check in (False, True):
        got, want = _mu(g, by, check), _mu(g.select("*"), by, check)
        if isinstance(want, str):  # only the key check raises here
            assert check and "does not form a key" in want
            assert got == want
            continue
        (order, m), (want_order, want_m) = got, want
        assert order.schema == want_order.schema
        assert [_bits(c) for c in order.columns] == [_bits(c) for c in want_order.columns]
        assert m.shape == want_m.shape and m.tobytes() == want_m.tobytes()


def test_gamma_s_table_dies_with_its_relation(spark):
    g = relation_constructor(spark, [np.ones((2, 2))], ["A", "B"])
    kept = weakref.ref(constructors._BUILT[g])
    del g
    gc.collect()
    assert kept() is None

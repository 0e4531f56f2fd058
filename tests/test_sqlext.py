"""SQL front-end tests (§7.2): RMA table functions in the FROM clause."""
import numpy as np
import pandas as pd
import pytest

from repro.sqlext import rma_sql
from repro.sqlext.parser import RMASyntaxError, _parse_args, _split_top_level


@pytest.fixture
def views(spark, weather):
    weather.createOrReplaceTempView("r")
    w = spark.createDataFrame(
        pd.DataFrame({"k": ["H", "W"], "x": [1.0, 0.0], "y": [0.0, 2.0]})
    )
    w.createOrReplaceTempView("s")
    yield
    spark.catalog.dropTempView("r")
    spark.catalog.dropTempView("s")


def test_paper_unary_syntax(spark, views):
    out = rma_sql(spark, "SELECT * FROM QQR(r BY T)")
    assert out.columns == ["T", "H", "W"]
    assert out.count() == 4


def test_by_may_follow_a_line_break(spark, views):
    got = rma_sql(spark, "SELECT * FROM QQR(r\nBY T)").orderBy("T").toPandas()
    want = rma_sql(spark, "SELECT * FROM QQR(r BY T)").orderBy("T").toPandas()
    pd.testing.assert_frame_equal(got, want)


def test_paper_inv_syntax(spark, views):
    out = rma_sql(spark, "SELECT * FROM INV(TRA(s BY k) BY C)")
    assert out.count() == 2


def test_paper_binary_syntax(spark, views):
    out = rma_sql(spark, "SELECT * FROM MMU(r BY T, s BY k)")
    pdf = out.orderBy("T").toPandas()
    assert out.columns == ["T", "x", "y"]
    # r app (H,W) @ [[1,0],[0,2]] = (H, 2W)
    assert pdf["x"].tolist() == [1.0, 1.0, 6.0, 8.0]
    assert pdf["y"].tolist() == [6.0, 8.0, 14.0, 10.0]


def test_relational_wrapping(spark, views):
    out = rma_sql(
        spark,
        "SELECT T, H + W AS hw FROM QQR(r BY T) WHERE T > '6am' ORDER BY T",
    )
    assert out.columns == ["T", "hw"]
    assert out.count() == 2


def test_nested_rma_calls(spark, views):
    out = rma_sql(spark, "SELECT * FROM TRA(TRA(r BY T) BY C)")
    pdf = out.orderBy("C").toPandas()
    assert out.columns == ["C", "H", "W"]
    assert pdf["C"].tolist() == ["5am", "6am", "7am", "8am"]


def test_multi_attribute_by(spark, views):
    out = rma_sql(spark, "SELECT * FROM QQR(r BY W, T)")
    assert out.columns == ["W", "T", "H"]


def test_folded_covariance_expression(spark, views):
    """§7.2's folded query shape: projection over MMU of TRA."""
    out = rma_sql(
        spark,
        "SELECT C, `5am` + `6am` AS early FROM TRA(r BY T)",
    )
    assert out.columns == ["C", "early"]
    got = {row["C"]: row["early"] for row in out.collect()}
    assert got == {"H": 2.0, "W": 7.0}


def test_sql_without_rma_passes_through(spark, views):
    out = rma_sql(spark, "SELECT COUNT(*) AS n FROM r")
    assert out.collect()[0]["n"] == 4


def test_result_survives_view_cleanup(spark, views):
    out = rma_sql(spark, "SELECT * FROM QQR(r BY T)")
    names = [t.name for t in spark.catalog.listTables()]
    assert not any(n.startswith("__rma_") for n in names)  # views cleaned up
    assert out.count() == 4  # plan still valid after temp views dropped


def test_split_top_level_respects_parens():
    assert _split_top_level("a, b(c, d), e") == ["a", "b(c, d)", "e"]


def test_parse_args_groups_by_clauses():
    got = _parse_args("r BY a, b, s BY c", "mmu")
    assert got == [("r", ["a", "b"]), ("s", ["c"])]


def test_unary_arity_error(spark, views):
    with pytest.raises(RMASyntaxError, match="one argument"):
        rma_sql(spark, "SELECT * FROM QQR(r BY T, s BY k)")


def test_binary_arity_error(spark, views):
    with pytest.raises(RMASyntaxError, match="two arguments"):
        rma_sql(spark, "SELECT * FROM MMU(r BY T)")


def test_missing_by_clause_error():
    with pytest.raises(RMASyntaxError, match="lacks a BY"):
        _parse_args("x, r BY a", "mmu")


def test_unbalanced_parens_error(spark, views):
    with pytest.raises(RMASyntaxError, match="unbalanced"):
        rma_sql(spark, "SELECT * FROM QQR(r BY T")


def test_values_match_direct_api(spark, views, weather):
    from repro.core import ops

    via_sql = rma_sql(spark, "SELECT * FROM RQR(r BY T)").orderBy("C").toPandas()
    direct = ops.rqr(weather, ["T"]).orderBy("C").toPandas()
    assert np.allclose(via_sql[["H", "W"]].to_numpy(), direct[["H", "W"]].to_numpy())

"""Mixed workloads: §5 covariance pipeline, §8.6 OLS / multiple regression."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from helpers import spark_jobs
from repro import synth_data
from repro.core import ops
from repro.workloads import covariance, covariance_via_cpd, ols


@pytest.fixture(scope="module")
def ratings(spark):
    return synth_data.ratings_db(spark)


def ca_ratings(ratings):
    u, r = ratings["u"], ratings["r"]
    return (
        u.join(r, "User").filter(F.col("State") == "CA").select("User", "Balto", "Heat", "Net")
    )


def test_section5_w1_data_preparation(ratings):
    w1 = ca_ratings(ratings)
    pdf = w1.orderBy("User").toPandas()
    assert pdf["User"].tolist() == ["Ann", "Jan"]  # California users only


def test_section5_covariance_matches_numpy(ratings):
    w1 = ca_ratings(ratings)
    w7 = covariance(w1, "User").orderBy("C").toPandas()
    x = np.array([[2.0, 1.5, 0.5], [1.0, 4.0, 1.0]])  # Ann, Jan
    expect = np.cov(x, rowvar=False)
    assert w7["C"].tolist() == ["Balto", "Heat", "Net"]
    assert np.allclose(w7[["Balto", "Heat", "Net"]].to_numpy(), expect, atol=1e-8)


def test_section5_w8_join_covariance_with_films(ratings):
    """w8: origins let the covariance relation join back to the films."""
    w7 = covariance(ca_ratings(ratings), "User")
    f = ratings["f"]
    w8 = (
        w7.join(f, w7["C"] == f["Title"])
        .filter(F.col("Director") == "Lee")
        .select(F.col("Title").alias("T"), "Balto", "Heat", "Net")
    )
    pdf = w8.orderBy("T").toPandas()
    assert pdf["T"].tolist() == ["Balto", "Heat"]  # Lee's films only


@pytest.mark.parametrize("n,k", [(30, 3), (100, 5)])
def test_covariance_pipeline_vs_numpy(spark, n, k):
    r = synth_data.matrix_relation(spark, n_rows=n, n_app=k, seed=n)
    got = covariance(r, "id").orderBy("C").toPandas()
    x = r.orderBy("id").toPandas()[[f"a{j}" for j in range(k)]].to_numpy()
    expect = np.cov(x, rowvar=False)
    assert np.allclose(got[[f"a{j}" for j in range(k)]].to_numpy(), expect, atol=1e-6)


@pytest.mark.parametrize("n,k", [(50, 4)])
def test_covariance_via_cpd_matches_pipeline(spark, n, k):
    r = synth_data.matrix_relation(spark, n_rows=n, n_app=k, seed=7)
    a = covariance(r, "id").orderBy("C").toPandas()
    b = covariance_via_cpd(r, "id").orderBy("C").toPandas()
    cols = [f"a{j}" for j in range(k)]
    assert a["C"].tolist() == b["C"].tolist()
    assert np.allclose(a[cols].to_numpy(), b[cols].to_numpy(), atol=1e-6)


def test_covariance_requires_two_tuples(spark):
    r = synth_data.matrix_relation(spark, n_rows=1, n_app=2)
    with pytest.raises(ValueError, match="two tuples"):
        covariance(r, "id")


_NULL = r"^sub: application attribute\(s\) \['a'\] hold nulls"


@pytest.mark.parametrize("schema,rows,match", [
    ("id long, a double, b double", [(1, 1.0, 2.0), (2, None, 3.0), (3, 4.0, 5.0)], _NULL),
    ("id long, a double, b double", [(1, None, 2.0), (2, None, 3.0)], _NULL),
    ("id long, a double, s string", [(1, 1.0, "x"), (2, 2.0, "y")],
     r"^sub: application attributes must be numeric; \['s'\] are not"),
], ids=["one_null", "all_null", "string"])
def test_covariance_input_errors_name_sub(spark, schema, rows, match):
    """covariance's own aggregation runs first; a null or a string still reaches sub's checks."""
    r = spark.createDataFrame(rows, schema)
    with pytest.raises(ValueError, match=match):
        covariance(r, "id")


def _trips_lineage(spark, n):
    """The §8.6 trips joined twice with their stations, uncached: ``(trip_id, distance, duration)``."""
    st = synth_data.stations(spark)
    s1 = st.select(F.col("code").alias("start_station"), F.col("lat").alias("lat1"), F.col("lon").alias("lon1"))
    s2 = st.select(F.col("code").alias("end_station"), F.col("lat").alias("lat2"), F.col("lon").alias("lon2"))
    return (
        synth_data.trips(spark, n=n, seed=3).join(s1, "start_station").join(s2, "end_station")
        .withColumn("distance", F.hypot(F.col("lat1") - F.col("lat2"), F.col("lon1") - F.col("lon2")))
        .select("trip_id", "distance", "duration")
    )


def test_ols_copies_a_join_lineage_once(spark):
    """One self cpd of [A | y] collects the lineage once; two cross products collected it three times."""
    r = _trips_lineage(spark, 2000)
    with spark_jobs(spark) as jobs:
        beta = ols(r, "trip_id", ["distance"], "duration")
    assert jobs() <= 7
    pdf = r.toPandas()
    a = np.column_stack([pdf["distance"], np.ones(len(pdf))])
    expect, *_ = np.linalg.lstsq(a, pdf["duration"].to_numpy(), rcond=None)
    got = {row["C"]: row["duration"] for row in beta.collect()}
    assert [got["distance"], got["intercept"]] == pytest.approx(expect, rel=1e-10)


def test_ols_errors_name_the_input_attributes(spark):
    """A duplicate key or a null dependent value is reported under the input's own names."""
    schema = "t long, x double, d double"
    dup = spark.createDataFrame([(1, 1.0, 2.0), (1, 2.0, 3.0), (2, 3.0, 5.0)], schema)
    with pytest.raises(ValueError, match=r"^cpd: order schema \['t'\] does not form a key"):
        ols(dup, "t", ["x"], "d")
    null = spark.createDataFrame([(1, 1.0, 2.0), (2, 2.0, None), (3, 3.0, 5.0)], schema)
    with pytest.raises(ValueError, match=r"^cpd: application attribute\(s\) \['d'\] hold nulls"):
        ols(null, "t", ["x"], "d")


def test_ols_recovers_known_coefficients(spark):
    """Trips workload: duration = 20*distance + 120 + noise."""
    import pandas as pd

    g = np.random.default_rng(0)
    n = 2000
    dist = g.random(n) * 50
    dur = 20.0 * dist + 120.0 + g.normal(0, 0.5, n)
    r = spark.createDataFrame(
        pd.DataFrame({"trip_id": np.arange(n), "distance": dist, "duration": dur})
    )
    beta = ols(r, "trip_id", ["distance"], "duration")
    got = {row["C"]: row["duration"] for row in beta.collect()}
    assert got["distance"] == pytest.approx(20.0, abs=0.01)
    assert got["intercept"] == pytest.approx(120.0, abs=0.5)


def test_ols_matches_lstsq_multiple_regression(spark):
    """Journeys workload: multiple independent variables."""
    import pandas as pd

    g = np.random.default_rng(1)
    n, k = 500, 4
    x = g.random((n, k)) * 10
    y = x @ np.array([1.5, -2.0, 0.5, 3.0]) + 7.0 + g.normal(0, 0.1, n)
    pdf = pd.DataFrame(x, columns=[f"d{j}" for j in range(k)])
    pdf["journey_id"] = np.arange(n)
    pdf["duration"] = y
    r = spark.createDataFrame(pdf)
    beta = ols(r, "journey_id", [f"d{j}" for j in range(k)], "duration")
    got = {row["C"]: row["duration"] for row in beta.collect()}
    a = np.column_stack([x, np.ones(n)])
    expect, *_ = np.linalg.lstsq(a, y, rcond=None)
    for j in range(k):
        assert got[f"d{j}"] == pytest.approx(expect[j], abs=1e-6)
    assert got["intercept"] == pytest.approx(expect[k], abs=1e-6)


def test_ols_100_regressors_match_lstsq(spark):
    """From 100 regressors on, the renamed regressors still sort in positional order."""
    import pandas as pd

    g = np.random.default_rng(100)
    n, k = 400, 100
    x = g.standard_normal((n, k))
    y = x @ g.standard_normal(k) + 3.0 + g.normal(0, 0.1, n)
    pdf = pd.DataFrame(x, columns=[f"d{j}" for j in range(k)])
    pdf["i"], pdf["y"] = np.arange(n), y
    beta = ols(spark.createDataFrame(pdf), "i", [f"d{j}" for j in range(k)], "y")
    got = {row["C"]: row["y"] for row in beta.collect()}
    expect, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(n)]), y, rcond=None)
    assert np.allclose([got[f"d{j}"] for j in range(k)] + [got["intercept"]], expect, rtol=0, atol=1e-8)


def test_ols_through_the_origin(spark):
    """On data with no constant term, the fitted intercept is zero."""
    import pandas as pd

    g = np.random.default_rng(2)
    n = 300
    x = g.random(n) * 10
    y = 5.0 * x
    r = spark.createDataFrame(pd.DataFrame({"i": np.arange(n), "x": x, "y": y}))
    got = {row["C"]: row["y"] for row in ols(r, "i", ["x"], "y").collect()}
    assert got.keys() == {"x", "intercept"}
    assert got["x"] == pytest.approx(5.0, abs=1e-8)
    assert got["intercept"] == pytest.approx(0.0, abs=1e-8)


def test_trip_count_workload(spark):
    """§8.6 workload 4: add of two rider-year relations, then a lookup."""
    y1 = synth_data.matrix_relation(spark, n_rows=100, n_app=10, key="rider", seed=1)
    y2 = synth_data.matrix_relation(spark, n_rows=100, n_app=10, key="rider2", seed=2)
    total = ops.add(y1, y2, ["rider"], ["rider2"], align="keys")
    assert total.count() == 100
    one = total.filter(F.col("rider") == 1).collect()[0]
    a = y1.filter(F.col("rider") == 1).collect()[0]
    b = y2.filter(F.col("rider2") == 1).collect()[0]
    assert one["a0"] == pytest.approx(a["a0"] + b["a0"])


def test_conference_workload_join_with_ranking(spark):
    """§8.6 workload 3: covariance joined with the ranking relation."""
    pub = synth_data.publications(spark, n_authors=60, n_confs=5)
    rank = spark.createDataFrame([(f"conf_{j}", g) for j, g in enumerate(["A++", "A", "A++", "B", "A+"])],
                                 "conf string, rating string")
    cov = covariance_via_cpd(pub, "author")
    joined = cov.join(rank, cov["C"] == rank["conf"])
    assert joined.count() == 5
    aplus = joined.filter(F.col("rating") == "A++")
    assert aplus.count() == rank.filter(F.col("rating") == "A++").count()

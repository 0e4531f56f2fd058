"""DuckDB-oracle checks for the relational parts and the RMA add path."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.core import ops
from repro.oracle import assert_equivalent


def test_rma_add_matches_sql_join_add(spark):
    """Key-aligned RMA add is equivalent to a relational join + column add."""
    r = synth_data.matrix_relation(spark, n_rows=100, n_app=3, seed=1)
    s = synth_data.matrix_relation(spark, n_rows=100, n_app=3, key="id2", seed=2)
    out = ops.add(r, s, ["id"], ["id2"], align="keys")
    sql = """
        SELECT r.id AS id, s.id2 AS id2,
               r.a0 + s.a0 AS a0, r.a1 + s.a1 AS a1, r.a2 + s.a2 AS a2
        FROM r JOIN s ON r.id = s.id2
    """
    assert_equivalent(out, sql, r=r, s=s)


def test_rma_sub_positional_matches_sql(spark):
    r = synth_data.matrix_relation(spark, n_rows=50, n_app=2, seed=3)
    s = synth_data.matrix_relation(spark, n_rows=50, n_app=2, key="id2", seed=4)
    out = ops.sub(r, s, ["id"], ["id2"])
    # ids are both 1..50, so positional pairing equals the key join
    sql = """
        SELECT r.id AS id, s.id2 AS id2, r.a0 - s.a0 AS a0, r.a1 - s.a1 AS a1
        FROM r JOIN s ON r.id = s.id2
    """
    assert_equivalent(out, sql, r=r, s=s)


def test_section5_data_preparation_w1(spark):
    db = synth_data.ratings_db(spark)
    u, r = db["u"], db["r"]
    w1 = u.join(r, "User").filter(F.col("State") == "CA").select("User", "Balto", "Heat", "Net")
    sql = """
        SELECT u.User AS User, r.Balto AS Balto, r.Heat AS Heat, r.Net AS Net
        FROM u JOIN r ON u.User = r.User WHERE u.State = 'CA'
    """
    assert_equivalent(w1, sql, u=u, r=r)


def test_w2_expectation_aggregation(spark):
    db = synth_data.ratings_db(spark)
    r = db["r"]
    w2 = r.agg(
        F.avg("Balto").alias("b"), F.avg("Heat").alias("h"), F.avg("Net").alias("n")
    )
    sql = "SELECT AVG(Balto) AS b, AVG(Heat) AS h, AVG(Net) AS n FROM r"
    assert_equivalent(w2, sql, r=r)


def test_trips_preparation_join(spark):
    trips = synth_data.trips(spark, n=300)
    st = synth_data.stations(spark)
    prepped = trips.join(
        st.select(F.col("code").alias("start_station"), "lat", "lon"), "start_station"
    ).select("trip_id", "duration", "lat", "lon")
    sql = """
        SELECT t.trip_id AS trip_id, t.duration AS duration, s.lat AS lat, s.lon AS lon
        FROM trips t JOIN stations s ON t.start_station = s.code
    """
    assert_equivalent(prepped, sql, trips=trips, stations=st)

"""Data generator tests: determinism, schemas, paper micro-DB."""
import numpy as np

from repro import synth_data


def test_matrix_relation_shape(spark):
    r = synth_data.matrix_relation(spark, n_rows=50, n_app=3)
    assert r.columns == ["id", "a0", "a1", "a2"]
    assert r.count() == 50


def test_matrix_relation_key_is_unique(spark):
    r = synth_data.matrix_relation(spark, n_rows=100, n_app=2)
    assert r.select("id").distinct().count() == 100


def test_matrix_relation_deterministic(spark):
    a = synth_data.matrix_relation(spark, n_rows=20, n_app=2, seed=5).orderBy("id").toPandas()
    b = synth_data.matrix_relation(spark, n_rows=20, n_app=2, seed=5).orderBy("id").toPandas()
    assert np.allclose(a[["a0", "a1"]], b[["a0", "a1"]])


def test_matrix_relation_value_range(spark):
    pdf = synth_data.matrix_relation_pdf(n_rows=1000, n_app=2)
    vals = pdf[["a0", "a1"]].to_numpy()
    assert vals.min() >= 0 and vals.max() < 10_000


def test_pdf_and_spark_twins_agree(spark):
    df = synth_data.matrix_relation(spark, n_rows=30, n_app=2, seed=3).orderBy("id").toPandas()
    pdf = synth_data.matrix_relation_pdf(n_rows=30, n_app=2, seed=3)
    assert np.allclose(df[["a0", "a1"]], pdf[["a0", "a1"]])


def test_ratings_db_matches_figure5(spark):
    db = synth_data.ratings_db(spark)
    assert db["u"].count() == 3 and db["f"].count() == 3 and db["r"].count() == 3
    ann = db["r"].filter("User = 'Ann'").collect()[0]
    assert (ann["Balto"], ann["Heat"], ann["Net"]) == (2.0, 1.5, 0.5)
    heat = db["f"].filter("Title = 'Heat'").collect()[0]
    assert heat["Director"] == "Lee" and heat["RelY"] == 1995


def test_trips_have_signal(spark):
    t = synth_data.trips(spark, n=500).toPandas()
    assert len(t) == 500
    assert t["duration"].min() > 0
    assert t["trip_id"].is_unique


def test_stations_coords_stable(spark):
    a = synth_data.stations(spark).toPandas()
    b = synth_data.stations(spark).toPandas()
    assert np.allclose(a[["lat", "lon"]], b[["lat", "lon"]])


def test_publications_and_ranking_align(spark):
    pub = synth_data.publications(spark, n_authors=20, n_confs=4)
    assert pub.columns == ["author"] + [f"conf_{j}" for j in range(4)]

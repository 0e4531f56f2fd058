"""Array-database substrate (SciDB analogue) — correctness vs RMA and oracle."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.arraydb import array_add, array_select, to_array
from repro.core import ops
from repro.oracle import assert_equivalent


@pytest.fixture
def pair(spark):
    r = synth_data.matrix_relation(spark, n_rows=200, n_app=4, seed=1)
    s = synth_data.matrix_relation(spark, n_rows=200, n_app=4, key="id2", seed=2)
    return r, s


def test_to_array_cell_count(spark, pair):
    r, _ = pair
    cells = to_array(r, ["id"])
    assert cells.count() == 200 * 4
    assert cells.columns == ["i", "j", "v"]


def test_to_array_coordinates_follow_order_schema(spark):
    import pandas as pd

    r = spark.createDataFrame(pd.DataFrame({"k": ["b", "a"], "x": [2.0, 1.0], "y": [20.0, 10.0]}))
    cells = to_array(r, ["k"]).orderBy("i", "j").collect()
    # row 0 = key 'a' (sorted), columns x=0, y=1
    assert [(c["i"], c["j"], c["v"]) for c in cells] == [
        (0, 0, 1.0), (0, 1, 10.0), (1, 0, 2.0), (1, 1, 20.0),
    ]


def test_array_add_matches_rma_add(spark, pair):
    """Cell ``(i, j, v)`` of the array join holds row ``i``, column ``j`` of the RMA ``add``."""
    r, s = pair
    rma = ops.add(r, s, ["id"], ["id2"]).orderBy("id").toPandas()[[f"a{j}" for j in range(4)]].to_numpy()
    cells = array_add(to_array(r, ["id"]), to_array(s, ["id2"])).collect()
    got = np.full(rma.shape, np.nan)
    for c in cells:
        got[c["i"], c["j"]] = c["v"]
    assert len(cells) == rma.size
    assert np.allclose(got, rma)


def test_array_select(spark, pair):
    r, _ = pair
    cells = to_array(r, ["id"])
    kept = array_select(cells, "v > 5000")
    assert kept.count() == cells.filter(F.col("v") > 5000).count()
    assert kept.count() < cells.count()


def test_array_add_oracle(spark):
    """The array-join add agrees with a DuckDB SQL formulation."""
    r = synth_data.matrix_relation(spark, n_rows=50, n_app=2, seed=3)
    s = synth_data.matrix_relation(spark, n_rows=50, n_app=2, key="id2", seed=4)
    arr = array_add(to_array(r, ["id"]), to_array(s, ["id2"]))
    sql = """
        WITH ra AS (SELECT id - 1 AS i, 0 AS j, a0 AS v FROM r
                    UNION ALL SELECT id - 1, 1, a1 FROM r),
             sa AS (SELECT id2 - 1 AS i, 0 AS j, a0 AS v FROM s
                    UNION ALL SELECT id2 - 1, 1, a1 FROM s)
        SELECT ra.i AS i, ra.j AS j, ra.v + sa.v AS v
        FROM ra JOIN sa ON ra.i = sa.i AND ra.j = sa.j
    """
    assert_equivalent(arr, sql, r=r, s=s)

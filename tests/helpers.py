"""Shared helpers for RMA tests (importable as ``helpers``)."""
import itertools
from contextlib import contextmanager

import numpy as np
import pandas as pd

_JOB_GROUPS = itertools.count()


def make_rel(spark, n_rows, n_app, *, seed=0, key="id", prefix="a", square=False, spd=False):
    """Random matrix-relation; app names a00.. sort identically to their order."""
    g = np.random.default_rng(seed)
    if spd:
        assert square and n_rows == n_app
        b = g.random((n_rows, n_app))
        m = b @ b.T + n_app * np.eye(n_app)
    else:
        m = g.random((n_rows, n_app)) * 10 - 5
        if square:
            m += np.eye(n_rows, n_app) * n_app  # diagonally dominant: invertible
    pdf = pd.DataFrame(m, columns=[f"{prefix}{j:02d}" for j in range(n_app)])
    pdf.insert(0, key, [f"k{i:03d}" for i in range(n_rows)])
    return spark.createDataFrame(pdf), m


def sorted_matrix(df, by, app):
    """Collect ``df`` sorted by ``by`` and return the ``app`` columns as a matrix."""
    pdf = df.orderBy(*by).toPandas()
    return pdf[app].to_numpy(dtype=np.float64)


@contextmanager
def spark_jobs(spark):
    """Count the Spark jobs started inside the block.

    ``with spark_jobs(spark) as jobs: ...`` runs the block under a job group
    of its own; ``jobs()`` is the number of jobs of that group, read from
    ``statusTracker()`` once the listener bus has delivered every event.
    """
    sc = spark.sparkContext
    group = f"spark-jobs-{next(_JOB_GROUPS)}"
    outer = sc.getLocalProperty("spark.jobGroup.id")

    def jobs():
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        return len(sc.statusTracker().getJobIdsForGroup(group))

    sc.setLocalProperty("spark.jobGroup.id", group)
    try:
        yield jobs
    finally:
        sc.setLocalProperty("spark.jobGroup.id", outer)


#: Order-schema edge cases: (DDL schema, rows). Every order attribute is
#: named ``k…``; ``v`` is the application part and numbers the rows.
NAN = float("nan")
KEY_CASES = {
    "double": ("k double, v double", [(3.5, 1.0), (None, 2.0), (-0.0, 3.0), (NAN, 4.0), (-2.0, 5.0),
                                      (float("inf"), 6.0), (-1e300, 7.0), (float("-inf"), 8.0), (1.0, 9.0)]),
    "null_nan": ("k double, v double", [(NAN, 1.0), (None, 2.0)]),
    "nan_nan": ("k double, v double", [(NAN, 1.0), (NAN, 2.0)]),
    "zeros": ("k double, v double", [(0.0, 1.0), (-0.0, 2.0)]),
    "nulls": ("k double, v double", [(None, 1.0), (None, 2.0)]),
    "long_null": ("k long, v double", [(7, 1.0), (None, 2.0), (-3, 3.0)]),
    "big_long": ("k long, v double", [(2**53, 1.0), (2**53 + 1, 2.0), (None, 3.0)]),
    "strings": ("k string, v double", [("é", 1.0), ("a", 2.0), (None, 3.0), ("ä", 4.0), ("Z", 5.0)]),
    "two_attrs": ("k1 string, k2 int, v double", [("b", 2, 1.0), ("a", 3, 2.0), ("b", 1, 3.0),
                                                  ("a", None, 4.0), ("a", 1, 5.0)]),
    "empty": ("k double, v double", []),
    "single": ("k string, v double", [("x", 1.0)]),
}


def key_case(spark, name):
    """The relation of ``KEY_CASES[name]`` and its order schema."""
    schema, rows = KEY_CASES[name]
    r = spark.createDataFrame(rows, schema)
    return r, [c for c in r.columns if c.startswith("k")]

"""Synthetic datasets for the RMA evaluation (Section 8 of the paper).

Matrix-shaped relations (one key, k numeric application attributes,
uniform values 0..10000 per §8 "Data"), the Figure 5 ratings
micro-database, and synthetic stand-ins for the BIXI and DBLP datasets
used by the mixed workloads. Generators are deterministic
in ``seed`` so the DuckDB oracle and the R analogue see identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def matrix_relation(
    spark: SparkSession, *, n_rows: int, n_app: int, key: str = "id", seed: int = 0
) -> DataFrame:
    """Relation with key column ``key`` (1..n) and ``n_app`` columns ``a0``… uniform in [0, 10000)."""
    return spark.createDataFrame(matrix_relation_pdf(n_rows=n_rows, n_app=n_app, key=key, seed=seed))


def matrix_relation_pdf(*, n_rows: int, n_app: int, key: str = "id", seed: int = 0) -> pd.DataFrame:
    """pandas twin of :func:`matrix_relation` (for the R-analogue and oracle)."""
    m = _rng(seed).random((n_rows, n_app)) * 10_000.0
    pdf = pd.DataFrame(m, columns=[f"a{j}" for j in range(n_app)])
    pdf.insert(0, key, np.arange(1, n_rows + 1))
    return pdf


def ratings_db(spark: SparkSession) -> dict[str, DataFrame]:
    """The Figure 5 micro-database: users ``u``, films ``f``, ratings ``r``."""
    u = pd.DataFrame(
        {"User": ["Ann", "Tom", "Jan"], "State": ["CA", "FL", "CA"], "YoB": [1980, 1965, 1970]}
    )
    f = pd.DataFrame(
        {
            "Title": ["Heat", "Balto", "Net"],
            "RelY": [1995, 1995, 1995],
            "Director": ["Lee", "Lee", "Smith"],
        }
    )
    r = pd.DataFrame(
        {
            "User": ["Ann", "Tom", "Jan"],
            "Balto": [2.0, 0.0, 1.0],
            "Heat": [1.5, 0.0, 4.0],
            "Net": [0.5, 1.5, 1.0],
        }
    )
    return {
        "u": spark.createDataFrame(u),
        "f": spark.createDataFrame(f),
        "r": spark.createDataFrame(r),
    }


_N_STATIONS = 50  # trips() draws its station codes from stations()
_COORDS = (_rng(42).random((_N_STATIONS, 2)) * 100).round(4)  # the same for every call


def trips(spark: SparkSession, *, n: int = 10_000, seed: int = 7) -> DataFrame:
    """BIXI-like trips: stations, duration correlated with distance (§8.6).

    Duration is ``20·distance + noise`` so the OLS workload has a signal
    to recover; station coordinates live in :func:`stations`.
    """
    g = _rng(seed)
    start = g.integers(1, _N_STATIONS + 1, n)
    end = g.integers(1, _N_STATIONS + 1, n)
    dist = np.hypot(
        _COORDS[start - 1, 0] - _COORDS[end - 1, 0], _COORDS[start - 1, 1] - _COORDS[end - 1, 1]
    )
    duration = 20.0 * dist + g.normal(0, 5, n) + 120.0
    pdf = pd.DataFrame(
        {
            "trip_id": np.arange(1, n + 1),
            "start_station": start,
            "end_station": end,
            "duration": duration.round(2),
            "is_member": g.integers(0, 2, n),
        }
    )
    return spark.createDataFrame(pdf)


def stations(spark: SparkSession) -> DataFrame:
    """BIXI-like stations with coordinates."""
    pdf = pd.DataFrame(
        {
            "code": np.arange(1, _N_STATIONS + 1),
            "name": [f"station_{i}" for i in range(1, _N_STATIONS + 1)],
            "lat": _COORDS[:, 0],
            "lon": _COORDS[:, 1],
        }
    )
    return spark.createDataFrame(pdf)


def publications(
    spark: SparkSession, *, n_authors: int = 1000, n_confs: int = 20, seed: int = 11
) -> DataFrame:
    """DBLP-like pivoted publication counts: author × one column per conference."""
    g = _rng(seed)
    counts = g.poisson(1.0, (n_authors, n_confs)).astype("float64")
    pdf = pd.DataFrame(counts, columns=[f"conf_{j}" for j in range(n_confs)])
    pdf.insert(0, "author", [f"author_{i:06d}" for i in range(n_authors)])
    return spark.createDataFrame(pdf)


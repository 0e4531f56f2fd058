"""Synthetic datasets for the RMA evaluation (Section 8 of the paper).

Matrix-shaped relations (one key, k numeric application attributes,
uniform values 0..10000 per §8 "Data"), sparse variants (Table 5), the
Figure 5 ratings micro-database, and synthetic stand-ins for the BIXI and
DBLP datasets used by the mixed workloads. Generators are deterministic
in ``seed`` so the DuckDB oracle and the R analogue see identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def matrix_relation(
    spark: SparkSession,
    *,
    n_rows: int,
    n_app: int,
    zero_frac: float = 0.0,
    key: str = "id",
    prefix: str = "a",
    lo: float = 0.0,
    hi: float = 10_000.0,
    seed: int = 0,
) -> DataFrame:
    """Relation with key column ``key`` (1..n) and ``n_app`` uniform columns.

    ``zero_frac`` zeroes out that fraction of values at random positions
    (Table 5's sparse relations). Values are uniform in [lo, hi).
    """
    pdf = matrix_relation_pdf(
        n_rows=n_rows, n_app=n_app, zero_frac=zero_frac, key=key,
        prefix=prefix, lo=lo, hi=hi, seed=seed,
    )
    return spark.createDataFrame(pdf)


def matrix_relation_pdf(
    *,
    n_rows: int,
    n_app: int,
    zero_frac: float = 0.0,
    key: str = "id",
    prefix: str = "a",
    lo: float = 0.0,
    hi: float = 10_000.0,
    seed: int = 0,
) -> pd.DataFrame:
    """pandas twin of :func:`matrix_relation` (for the R-analogue and oracle)."""
    g = _rng(seed)
    m = g.random((n_rows, n_app)) * (hi - lo) + lo
    if zero_frac > 0.0:
        m[g.random((n_rows, n_app)) < zero_frac] = 0.0
    pdf = pd.DataFrame(m, columns=[f"{prefix}{j}" for j in range(n_app)])
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


def trips(spark: SparkSession, *, n: int = 10_000, n_stations: int = 50, seed: int = 7) -> DataFrame:
    """BIXI-like trips: stations, duration correlated with distance (§8.6).

    Duration is ``20·distance + noise`` so the OLS workload has a signal
    to recover; station coordinates live in :func:`stations`.
    """
    g = _rng(seed)
    start = g.integers(1, n_stations + 1, n)
    end = g.integers(1, n_stations + 1, n)
    coords = _station_coords(n_stations)
    dist = np.hypot(
        coords[start - 1, 0] - coords[end - 1, 0], coords[start - 1, 1] - coords[end - 1, 1]
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


def _station_coords(n_stations: int) -> np.ndarray:
    g = _rng(42)  # coords fixed across trips() calls
    return (g.random((n_stations, 2)) * 100).round(4)


def stations(spark: SparkSession, *, n_stations: int = 50) -> DataFrame:
    """BIXI-like stations with coordinates."""
    coords = _station_coords(n_stations)
    pdf = pd.DataFrame(
        {
            "code": np.arange(1, n_stations + 1),
            "name": [f"station_{i}" for i in range(1, n_stations + 1)],
            "lat": coords[:, 0],
            "lon": coords[:, 1],
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


def ranking(spark: SparkSession, *, n_confs: int = 20, seed: int = 12) -> DataFrame:
    """DBLP-like conference ranking (A++ … B)."""
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "conf": [f"conf_{j}" for j in range(n_confs)],
            "rating": g.choice(["A++", "A+", "A", "B"], n_confs),
        }
    )
    return spark.createDataFrame(pdf)

"""Binary relational matrix operations: schemas, values, origins (Table 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import matrix_ops as M
from repro.core import ops

from helpers import sorted_matrix, spark_jobs


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_linear_schema_and_values(rel_factory, op, n, k):
    r, m = rel_factory(n, k, seed=1)
    s, nn = rel_factory(n, k, seed=2, key="id2", prefix="b")
    out = getattr(ops, op)(r, s, ["id"], ["id2"])
    app = [f"a{j:02d}" for j in range(k)]
    assert out.columns == ["id", "id2"] + app  # U ∘ V ∘ Ū
    base = getattr(M, op)(m, nn)
    assert np.allclose(sorted_matrix(out, ["id"], app), base)
    # both order parts survive: the i-th sorted keys are paired
    pdf = out.orderBy("id").toPandas()
    assert pdf["id"].tolist() == [f"k{i:03d}" for i in range(n)]
    assert pdf["id2"].tolist() == [f"k{i:03d}" for i in range(n)]


def test_linear_pairs_by_sort_order_not_by_name(spark):
    """Row pairing follows the order schemas, even with disjoint key values."""
    r = spark.createDataFrame(pd.DataFrame({"t": ["a", "b"], "v": [1.0, 2.0]}))
    s = spark.createDataFrame(pd.DataFrame({"u": ["z", "y"], "w": [10.0, 20.0]}))
    out = ops.add(r, s, ["t"], ["u"]).orderBy("t").toPandas()
    # sorted r: a(1), b(2); sorted s: y(20), z(10) → pairs (a,y,21), (b,z,12)
    assert out["t"].tolist() == ["a", "b"]
    assert out["u"].tolist() == ["y", "z"]
    assert out["v"].tolist() == [21.0, 12.0]


def test_linear_overlapping_order_schemas_raise(rel_factory):
    r, _ = rel_factory(3, 2, seed=1)
    s, _ = rel_factory(3, 2, seed=2)  # same key name "id"
    with pytest.raises(ValueError, match="rename"):
        ops.add(r, s, ["id"], ["id"])


def test_linear_union_incompatible_raises(rel_factory):
    r, _ = rel_factory(3, 2, seed=1)
    s, _ = rel_factory(3, 3, seed=2, key="id2")
    with pytest.raises(ValueError, match="union compatible"):
        ops.add(r, s, ["id"], ["id2"])


@pytest.mark.parametrize("op,backend,k", [("add", "auto", 2), ("cpd", "local", 2), ("sol", "local", 1)],
                         ids=["add", "cpd", "sol"])
def test_linear_count_mismatch_raises(rel_factory, op, backend, k):
    """Inputs that share rows are checked up front, on every backend."""
    r, _ = rel_factory(3, 2, seed=1)
    s, _ = rel_factory(4, k, seed=2, key="id2")
    with pytest.raises(ValueError, match="same number of tuples"):
        ops.BINARY_OPS[op](r, s, ["id"], ["id2"], backend=backend)


def test_key_alignment_needs_equal_length_order_schemas(spark):
    """Checked up front, before any Spark job, with the operation named."""
    r = spark.createDataFrame(pd.DataFrame({"k": ["a", "b"], "v": [1.0, 2.0]}))
    s = spark.createDataFrame(pd.DataFrame({"k1": ["a", "b"], "k2": [1, 2], "w": [1.0, 2.0]}))
    with spark_jobs(spark) as jobs, pytest.raises(ValueError, match=r"add: key alignment"):
        ops.add(r, s, ["k"], ["k1", "k2"], align="keys")
    assert jobs() == 0


@pytest.mark.parametrize("n,k,j", [(4, 2, 3), (5, 3, 1)])
def test_mmu_schema_and_values(rel_factory, n, k, j):
    r, m = rel_factory(n, k, seed=3)
    s, nn = rel_factory(k, j, seed=4, key="id2", prefix="b")
    out = ops.mmu(r, s, ["id"], ["id2"])
    app_s = [f"b{i:02d}" for i in range(j)]
    assert out.columns == ["id"] + app_s  # U ∘ V̄
    assert np.allclose(sorted_matrix(out, ["id"], app_s), m @ nn)


def test_mmu_inner_mismatch_raises(rel_factory):
    r, _ = rel_factory(4, 2, seed=3)
    s, _ = rel_factory(3, 2, seed=4, key="id2", prefix="b")
    with pytest.raises(ValueError, match="inner dimensions"):
        ops.mmu(r, s, ["id"], ["id2"])


@pytest.mark.parametrize("n1,n2,k", [(3, 4, 2), (2, 2, 3)])
def test_opd_schema_and_values(rel_factory, n1, n2, k):
    r, m = rel_factory(n1, k, seed=5)
    s, nn = rel_factory(n2, k, seed=6, key="id2", prefix="b")
    out = ops.opd(r, s, ["id"], ["id2"])
    keys2 = [f"k{i:03d}" for i in range(n2)]
    assert out.columns == ["id"] + keys2  # U ∘ ∇V
    assert np.allclose(sorted_matrix(out, ["id"], keys2), m @ nn.T)


@pytest.mark.parametrize("n,k1,k2", [(5, 2, 3), (4, 3, 1)])
def test_cpd_schema_and_values(rel_factory, n, k1, k2):
    r, m = rel_factory(n, k1, seed=7)
    s, nn = rel_factory(n, k2, seed=8, key="id2", prefix="b")
    out = ops.cpd(r, s, ["id"], ["id2"])
    app_r = [f"a{j:02d}" for j in range(k1)]
    app_s = [f"b{j:02d}" for j in range(k2)]
    assert out.columns == ["C"] + app_s  # (C) ∘ V̄
    pdf = out.orderBy("C").toPandas()
    assert pdf["C"].tolist() == app_r  # C values = Ū
    assert np.allclose(pdf[app_s].to_numpy(), m.T @ nn)


def test_cpd_self_distributed_equals_local(rel_factory):
    r, m = rel_factory(50, 4, seed=9)
    auto = ops.cpd(r, r, ["id"], ["id"])  # auto → distributed self-Gram
    local = ops.cpd(r, r, ["id"], ["id"], backend="local")
    a = auto.orderBy("C").toPandas()
    b = local.orderBy("C").toPandas()
    assert a["C"].tolist() == b["C"].tolist()
    cols = [c for c in a.columns if c != "C"]
    assert np.allclose(a[cols].to_numpy(), b[cols].to_numpy(), atol=1e-8)
    assert np.allclose(a[cols].to_numpy(), m.T @ m, atol=1e-8)


@pytest.mark.parametrize("n,k", [(6, 2), (10, 3)])
def test_sol_schema_and_values(rel_factory, n, k):
    r, m = rel_factory(n, k, seed=10)
    s, b = rel_factory(n, 1, seed=11, key="id2", prefix="y")
    out = ops.sol(r, s, ["id"], ["id2"])
    assert out.columns == ["C", "y00"]  # (C) ∘ V̄
    pdf = out.orderBy("C").toPandas()
    assert pdf["C"].tolist() == [f"a{j:02d}" for j in range(k)]
    expect, *_ = np.linalg.lstsq(m, b, rcond=None)
    assert np.allclose(pdf[["y00"]].to_numpy(), expect, atol=1e-8)


def test_nested_operations_compose(rel_factory):
    """Closedness: RMA results feed RMA operations (mmu(inv(r), r) = I)."""
    r, m = rel_factory(3, 3, square=True, seed=12)
    inv_r = ops.inv(r, ["id"])
    out = ops.mmu(inv_r, r, ["id"], ["id"])
    app = [f"a{j:02d}" for j in range(3)]
    got = sorted_matrix(out, ["id"], app)
    assert np.allclose(got, np.eye(3), atol=1e-8)

"""Backend equivalence: local (LAPACK), spark (distributed), bat (columnwise).

The paper's point (§7.3, §8.5): the physical computation of the base
result is interchangeable. All backends must produce the same relation.
"""
import numpy as np
import pytest

from repro.core import ops

from helpers import sorted_matrix


def _cmp(a, b, by, cols, atol=1e-8):
    pa = a.orderBy(*by).toPandas()
    pb = b.orderBy(*by).toPandas()
    assert list(pa.columns) == list(pb.columns)
    assert np.allclose(pa[cols].to_numpy(dtype=float), pb[cols].to_numpy(dtype=float), atol=atol)


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
@pytest.mark.parametrize("align", ["position", "keys"])
def test_linear_spark_matches_local(rel_factory, op, align):
    r, _ = rel_factory(40, 3, seed=1)
    s, _ = rel_factory(40, 3, seed=2, key="id2", prefix="b")
    f = getattr(ops, op)
    spark_out = f(r, s, ["id"], ["id2"], backend="spark", align=align)
    local_out = f(r, s, ["id"], ["id2"], backend="local")
    _cmp(spark_out, local_out, ["id"], ["a00", "a01", "a02"])


@pytest.mark.parametrize("op", ["add", "sub", "emu"])
def test_linear_bat_matches_local(rel_factory, op):
    r, _ = rel_factory(10, 2, seed=3)
    s, _ = rel_factory(10, 2, seed=4, key="id2", prefix="b")
    f = getattr(ops, op)
    _cmp(
        f(r, s, ["id"], ["id2"], backend="bat"),
        f(r, s, ["id"], ["id2"], backend="local"),
        ["id"],
        ["a00", "a01"],
    )


@pytest.mark.parametrize("n,k", [(60, 4), (200, 7)])
def test_qqr_spark_matches_local(rel_factory, n, k):
    r, _ = rel_factory(n, k, seed=5)
    cols = [f"a{j:02d}" for j in range(k)]
    _cmp(
        ops.qqr(r, ["id"], backend="spark"),
        ops.qqr(r, ["id"], backend="local"),
        ["id"],
        cols,
        atol=1e-6,
    )


def test_qqr_bat_matches_local(rel_factory):
    r, _ = rel_factory(30, 4, seed=6)
    cols = [f"a{j:02d}" for j in range(4)]
    _cmp(ops.qqr(r, ["id"], backend="bat"), ops.qqr(r, ["id"], backend="local"), ["id"], cols, atol=1e-7)


@pytest.mark.parametrize("backend", ["spark", "bat"])
def test_rqr_backends_match_local(rel_factory, backend):
    r, _ = rel_factory(50, 4, seed=7)
    cols = [f"a{j:02d}" for j in range(4)]
    _cmp(
        ops.rqr(r, ["id"], backend=backend),
        ops.rqr(r, ["id"], backend="local"),
        ["C"],
        cols,
        atol=1e-6,
    )


def test_inv_bat_matches_local(rel_factory):
    r, _ = rel_factory(6, 6, square=True, seed=8)
    cols = [f"a{j:02d}" for j in range(6)]
    _cmp(ops.inv(r, ["id"], backend="bat"), ops.inv(r, ["id"], backend="local"), ["id"], cols, atol=1e-7)


def test_mmu_spark_matches_local(rel_factory):
    r, _ = rel_factory(80, 3, seed=9)
    s, _ = rel_factory(3, 2, seed=10, key="id2", prefix="b")
    _cmp(
        ops.mmu(r, s, ["id"], ["id2"], backend="spark"),
        ops.mmu(r, s, ["id"], ["id2"], backend="local"),
        ["id"],
        ["b00", "b01"],
    )


def test_cpd_binary_spark_matches_local(rel_factory):
    r, _ = rel_factory(70, 3, seed=11)
    s, _ = rel_factory(70, 2, seed=12, key="id2", prefix="b")
    _cmp(
        ops.cpd(r, s, ["id"], ["id2"], backend="spark"),
        ops.cpd(r, s, ["id"], ["id2"], backend="local"),
        ["C"],
        ["b00", "b01"],
        atol=1e-7,
    )


def test_sol_spark_matches_local(rel_factory):
    r, _ = rel_factory(50, 3, seed=13)
    s, _ = rel_factory(50, 1, seed=14, key="id2", prefix="y")
    _cmp(
        ops.sol(r, s, ["id"], ["id2"], backend="spark"),
        ops.sol(r, s, ["id"], ["id2"], backend="local"),
        ["C"],
        ["y00"],
        atol=1e-6,
    )


def test_gram_exact_across_partitions(spark, rel_factory):
    """Partial-Gram sums are exact regardless of partitioning."""
    from repro.core.distributed import gram

    r, m = rel_factory(500, 5, seed=15)
    r8 = r.repartition(8)
    g = gram(r8, [f"a{j:02d}" for j in range(5)])
    assert np.allclose(g, m.T @ m, atol=1e-6)


def test_unavailable_backend_raises(rel_factory):
    r, _ = rel_factory(4, 4, square=True)
    with pytest.raises(ValueError, match="backend"):
        ops.inv(r, ["id"], backend="spark")
    with pytest.raises(ValueError, match="BAT kernel"):
        ops.evc(r, ["id"], backend="bat")


def test_unknown_backend_and_align_raise(rel_factory):
    """A misspelt option names the operation and the allowed values."""
    r, _ = rel_factory(4, 2)
    s, _ = rel_factory(4, 2, key="id2", prefix="b")
    with pytest.raises(ValueError, match=r"qqr: .*'mkl'.*\['auto', 'local', 'spark', 'bat'\]"):
        ops.qqr(r, "id", backend="mkl")
    with pytest.raises(ValueError, match=r"add: .*'key'.*\['position', 'keys'\]"):
        ops.add(r, s, "id", "id2", align="key")


def test_spark_backend_never_sorts_globally(rel_factory):
    """qqr spark keeps each row's own context (no order column needed)."""
    r, _ = rel_factory(100, 3, seed=16)
    out = ops.qqr(r.repartition(7), ["id"], backend="spark")
    m = sorted_matrix(out, ["id"], ["a00", "a01", "a02"])
    assert np.allclose(m.T @ m, np.eye(3), atol=1e-8)


_DISTRIBUTED = ("zip_linear", "gram", "qqr_rows", "rqr_matrix", "mmu_rows")
_AUTO_CASES = [
    *[(op, "distributed.zip_linear") for op in ("add", "sub", "emu")],
    ("cpd(r, r)", "distributed.gram"),
    *[(op, f"matrix_ops.{op}") for op in ("cpd", "sol", "mmu", "opd")],
    *[(op, f"matrix_ops.{op}") for op in ops.UNARY_OPS],
]


@pytest.mark.parametrize("op,kernel", _AUTO_CASES, ids=[c[0] for c in _AUTO_CASES])
def test_auto_backend_policy(monkeypatch, rel_factory, op, kernel):
    """``backend="auto"``: linear ops and ``cpd(r, r)`` stay in the engine,
    everything else (``qqr``/``rqr``/``sol``/``mmu`` included) runs LAPACK.

    The spies replace kernels after import, so they also prove that ops
    looks kernels up when the call runs (the benchmark tracer relies on it).
    """
    from repro.core import distributed, matrix_ops

    ran = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in _DISTRIBUTED:
        monkeypatch.setattr(distributed, name, spy(f"distributed.{name}", getattr(distributed, name)))
    for table in (matrix_ops.UNARY, matrix_ops.BINARY):
        for name, fn in list(table.items()):
            monkeypatch.setitem(table, name, spy(f"matrix_ops.{name}", fn))

    r, _ = rel_factory(4, 4, square=True, spd=True, seed=17)
    s, _ = rel_factory(4, 1 if op == "sol" else 4, seed=18, key="id2", prefix="b")
    if op == "cpd(r, r)":
        ops.cpd(r, r, ["id"], ["id"], backend="auto")
    elif op in ops.BINARY_OPS:
        ops.BINARY_OPS[op](r, s, ["id"], ["id2"], backend="auto")
    else:
        ops.UNARY_OPS[op](r, ["id"], backend="auto")
    assert ran == [kernel]

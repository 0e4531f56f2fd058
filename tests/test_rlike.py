"""R-analogue substrate: transforms, timings, and the memory budget."""
import numpy as np
import pytest

from repro import synth_data
from repro.core import matrix_ops as M
from repro.rlike import MemoryBudgetExceeded, RFrame
from repro.rlike.rframe import r_qqr


@pytest.fixture
def frame():
    pdf = synth_data.matrix_relation_pdf(n_rows=100, n_app=4, seed=1)
    return RFrame(pdf)


def test_as_matrix_roundtrip(frame):
    cols = ["a0", "a1", "a2", "a3"]
    m = frame.as_matrix(cols)
    back = frame.from_matrix(m, cols)
    assert np.allclose(back.pdf.to_numpy(), frame.pdf[cols].to_numpy())


def test_transform_time_is_tracked(frame):
    frame.as_matrix(["a0", "a1"])
    assert frame.timings.transform_s > 0
    assert frame.timings.transform_share == 1.0  # no compute yet


def test_compute_time_is_tracked(frame):
    m = frame.as_matrix(["a0", "a1"])
    frame.matrix_op(np.linalg.qr, m)
    assert frame.timings.compute_s > 0
    assert 0 < frame.timings.transform_share < 1


def test_r_qqr_matches_rma_base(frame):
    cols = ["a0", "a1", "a2", "a3"]
    out = r_qqr(frame, cols)
    expect = M.qqr(frame.pdf[cols].to_numpy(dtype=float))
    assert np.allclose(out.pdf.to_numpy(), expect, atol=1e-8)


def test_memory_budget_exceeded_raises():
    pdf = synth_data.matrix_relation_pdf(n_rows=1000, n_app=10, seed=2)
    # 1000*10*8*4 = 320 KB needed; budget below that must fail
    frame = RFrame(pdf, mem_budget_bytes=100_000)
    with pytest.raises(MemoryBudgetExceeded):
        frame.as_matrix([f"a{j}" for j in range(10)])


def test_memory_budget_allows_small(frame):
    frame.mem_budget_bytes = 10 << 20
    assert frame.as_matrix(["a0"]).shape == (100, 1)


def test_timings_shared_across_derived_frames(frame):
    cols = ["a0", "a1"]
    out = r_qqr(frame, cols)
    # derived frame accumulates into the same RTimings object
    assert out.timings is frame.timings
    assert out.timings.transform_s > 0 and out.timings.compute_s > 0

import math

import mpmath
import numpy as np
import pytest

import diamondqi as dq
from diamondqi.states import Representation, Subsystem, _geometric_weights, _ln_tanh2
from test_invariants import lookup


def dense_partial_traces(state):
    dense = state.to_dense()
    dd = state.dave_dim
    alice = np.array([dense[:dd, :dd].trace(), dense[dd:, dd:].trace()])
    dave = dense[:dd, :dd].diagonal() + dense[dd:, dd:].diagonal()
    return alice, dave


# ---------------------------------------------------------------------------
# truncation policy
# ---------------------------------------------------------------------------

def test_auto_truncation_meets_tolerance():
    for r in (0.3, 1.0, 2.0):
        trunc = dq.FockTruncation.auto(r, tol=1e-12)
        assert trunc.tail_bound < 1e-12
        st = dq.build_rho_ad(r, trunc)
        assert abs(st.trace() - 1.0) <= 2e-12


def test_auto_truncation_cap_raises_downstream():
    trunc = dq.FockTruncation.auto(4.0, tol=1e-12)  # cap binds at r = 4
    assert trunc.n_max == 10_000 and trunc.tail_bound > 1e-12
    with pytest.raises(dq.TruncationTooSmall):
        dq.build_rho_ad(4.0, trunc)


def test_truncations_raise_domain_cap_past_the_series_cap():
    # cosh(400)^2 overflows; the cap is the one the full series use
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.auto(400.0)
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.fixed(10, 400.0)
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.fixed(10, 321.0)
    assert dq.FockTruncation.fixed(10, 320.0).n_max == 10


def test_fixed_truncation_never_raises():
    st = dq.build_rho_ad(4.0, dq.FockTruncation.fixed(80, 4.0))
    assert st.n_max == 80


def test_nan_r_is_rejected():
    for call in (dq.FockTruncation.auto, dq.build_rho_ad, dq.report_for):
        with pytest.raises(ValueError, match="r must be nonnegative"):
            call(float("nan"))


# ---------------------------------------------------------------------------
# squeezed-state coefficient series
# ---------------------------------------------------------------------------

def test_vacuum_coefficients_at_zero():
    amps = dq.unruh_vacuum_coefficients(0.0, dq.FockTruncation.auto(0.0))
    assert amps[0] == 1.0 and not amps[1:].any()


def test_vacuum_coefficients_values_and_norm():
    r = 0.5
    trunc = dq.FockTruncation.fixed(40, r)
    amps = dq.unruh_vacuum_coefficients(r, trunc)
    n = np.arange(41)
    expect = np.tanh(r) ** n / math.cosh(r)
    assert np.abs(amps - expect).max() < 1e-15
    assert abs((amps ** 2).sum() - 1.0) < 1e-12  # norm deficit below 1e-12


def test_one_particle_coefficients():
    r = 0.5
    trunc = dq.FockTruncation.fixed(40, r)
    amps = dq.unruh_one_particle_coefficients(r, trunc)
    n = np.arange(40)
    expect = np.tanh(r) ** n * np.sqrt(n + 1.0) / math.cosh(r) ** 2
    assert np.abs(amps - expect).max() < 1e-15
    assert abs((amps ** 2).sum() - 1.0) < 1e-12
    amps0 = dq.unruh_one_particle_coefficients(0.0, dq.FockTruncation.auto(0.0))
    assert amps0[0] == 1.0 and not amps0[1:].any()


def test_one_particle_monotone_decay_small_r():
    amps = dq.unruh_one_particle_coefficients(0.5, dq.FockTruncation.fixed(30, 0.5))
    assert all(abs(b) < abs(a) for a, b in zip(amps, amps[1:]))


# ---------------------------------------------------------------------------
# rho_AD assembly
# ---------------------------------------------------------------------------

def test_bell_projector_at_zero():
    st = dq.build_rho_ad(0.0)
    dense = st.to_dense()
    dd = st.dave_dim
    idx0, idx11 = 0, dd + 1  # |0,0> and |1,1>
    expect = np.zeros_like(dense)
    expect[idx0, idx0] = expect[idx11, idx11] = 0.5
    expect[idx0, idx11] = expect[idx11, idx0] = 0.5
    assert np.array_equal(dense, expect)
    # purity of the pure Bell projector
    assert abs(np.trace(dense @ dense) - 1.0) < 1e-15


def test_trace_and_psd(rng):
    for r in (0.0, 0.25, 0.5, 1.0, 2.0):
        st = dq.build_rho_ad(r)
        assert abs(st.trace() - 1.0) <= st.trunc.tail_bound + 1e-13
        assert np.linalg.eigvalsh(st.to_dense()).min() >= -1e-12


def test_psd_large_r_fixed_truncation():
    st = dq.build_rho_ad(4.0, dq.FockTruncation.fixed(400, 4.0))
    assert np.linalg.eigvalsh(st.to_dense()).min() >= -1e-12


def test_trace_deficit_at_r07_nmax120():
    st = dq.build_rho_ad(0.7, dq.FockTruncation.fixed(120, 0.7))
    assert abs(st.trace() - 1.0) < 1e-10


def test_block_structure_is_disjoint():
    st = dq.build_rho_ad(0.8)
    dense = st.to_dense()
    dd = st.dave_dim
    allowed = np.zeros_like(dense, dtype=bool)
    n = np.arange(st.n_max)
    allowed[n, n] = True
    allowed[dd + n + 1, dd + n + 1] = True
    allowed[n, dd + n + 1] = allowed[dd + n + 1, n] = True
    assert not dense[~allowed].any()


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_reduce_to_alice_is_half_half():
    for r in (0.0, 0.5, 1.3, 2.0):
        st = dq.build_rho_ad(r)
        alice = dq.reduce_to_alice(st)
        assert alice.kind is Subsystem.ALICE
        assert np.abs(alice.weights - 0.5).max() <= st.trunc.tail_bound + 1e-15
        oracle, _ = dense_partial_traces(st)
        assert np.abs(alice.weights - oracle).max() < 1e-14


def test_reduce_to_dave_matches_series_and_oracle():
    for r in (0.5, 1.0, 2.0):
        st = dq.build_rho_ad(r)
        dave = dq.reduce_to_dave(st)
        _, oracle = dense_partial_traces(st)
        assert np.abs(dave.weights - oracle[: st.n_max]).max() < 1e-12
        n = np.arange(st.n_max)
        series = (
            np.tanh(r) ** (2 * n) / (2 * math.cosh(r) ** 2) * (1.0 + n / math.sinh(r) ** 2)
        )
        assert np.abs(dave.weights - series).max() < 1e-12
        # Dave's tail carries the extra n/sinh^2 factor ~ 1/q relative to the trace tail
        assert abs(dave.weights.sum() - 1.0) <= st.trunc.tail_bound / math.tanh(r) ** 2 + 1e-13


def test_reduce_to_dave_r_to_zero_limit():
    # weight(1) = tanh^2 r / (2 cosh^2 r sinh^2 r) -> 1/2
    dave = dq.reduce_to_dave(dq.build_rho_ad(1e-4, dq.FockTruncation.fixed(6, 1e-4)))
    assert abs(dave.weights[0] - 0.5) < 1e-7
    assert abs(dave.weights[1] - 0.5) < 1e-7
    dave0 = dq.reduce_to_dave(dq.build_rho_ad(0.0))
    assert dave0.weights[0] == 0.5 and dave0.weights[1] == 0.5


def test_reductions_require_rho_ad_representation():
    pt = dq.partial_transpose(dq.build_rho_ad(0.5))
    with pytest.raises(ValueError):
        dq.reduce_to_dave(pt)
    with pytest.raises(ValueError):
        dq.reduce_to_alice(pt)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

test_partial_transpose_entrywise_matches_index_swap = lookup("partial-transpose-entrywise")


def test_partial_transpose_block_count_and_trace():
    st = dq.build_rho_ad(0.9, dq.FockTruncation.fixed(50, 0.9))
    pt = dq.partial_transpose(st)
    assert pt.representation is Representation.RHO_AD_PT
    assert len(pt.pt_coh) == st.n_max  # one 2x2 block per retained order
    # PT blocks carry the untruncated closed-form entries, so traces agree within the tail
    assert abs(pt.trace() - st.trace()) <= st.trunc.tail_bound + 1e-14


def test_partial_transpose_spectrum_at_r_zero():
    pt = dq.partial_transpose(dq.build_rho_ad(0.0))
    evs = np.sort(np.linalg.eigvalsh(pt.to_dense()))
    assert np.abs(evs[:1] - (-0.5)).max() < 1e-15
    assert np.abs(np.sort(evs)[-3:] - 0.5).max() < 1e-15


def test_geometric_weights_shape_and_values():
    w = _geometric_weights(0.7, 10)
    q = math.tanh(0.7) ** 2
    assert np.abs(w - q ** np.arange(10) / (2 * math.cosh(0.7) ** 2)).max() < 1e-16


def test_ln_tanh2_is_exact_to_rounding():
    # log(tanh(r)**2) loses ~cosh^2 r * eps: 1e-8 relative at r = 10, 2e-4 at r = 15
    with mpmath.workdps(40):
        for r in (0.1, 1.0, 5.0, 10.0, 15.0):
            exact = mpmath.log(mpmath.tanh(r) ** 2)
            assert abs((_ln_tanh2(r) - exact) / exact) < 1e-15

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import diamondqi as dq
from diamondqi.invariants import _check_state_integrity
from diamondqi.states import (
    _R_LIMIT,
    TRUNCATION_CAP,
    _block_eigvalsh,
    _blocks_for,
    _geometric_weights,
    _ln_tanh2,
    _scatter,
    _trace_tail,
)
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
    # the cap binds at r = 4; the truncation is refused where it is made
    with pytest.raises(dq.TruncationTooSmall, match="at n_max=10000$"):
        dq.FockTruncation.auto(4.0, tol=1e-12)
    with pytest.raises(dq.TruncationTooSmall, match="at n_max=10000$"):
        dq.build_rho_ad(4.0)


def test_truncations_raise_domain_cap_past_the_series_cap():
    # cosh(400)^2 overflows; the cap is the one the full series use
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.auto(400.0)
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.fixed(10, 400.0)
    with pytest.raises(dq.DomainCap):
        dq.FockTruncation.fixed(10, 321.0)
    assert dq.FockTruncation.fixed(10, 320.0).n_max == 10


def test_auto_is_the_smallest_block_count_that_meets_tol(rng):
    # four fixed-point steps stopped short at r ~ 3.4 and tol ~ 0.1, where
    # auto returned blocks whose tail exceeded tol
    for r, log_tol in zip(rng.uniform(0.0, 4.0, 300), rng.uniform(-15.0, -0.5, 300)):
        r, tol = float(r), 10.0 ** float(log_tol)
        if _blocks_for(r, tol) > TRUNCATION_CAP:
            with pytest.raises(dq.TruncationTooSmall):
                dq.FockTruncation.auto(r, tol)
            continue
        n = dq.FockTruncation.auto(r, tol).n_max
        assert n == _blocks_for(r, tol) or n == TRUNCATION_CAP
        if n < TRUNCATION_CAP:
            assert _trace_tail(r, n) <= tol
            assert n == 2 or _trace_tail(r, n - 1) > tol


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_auto_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # 0 and -1 failed in math.log, nan in int(), and inf overflowed
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        dq.FockTruncation.auto(0.5, tol)


def test_fixed_truncation_never_raises():
    st = dq.build_rho_ad(4.0, dq.FockTruncation.fixed(80, 4.0))
    assert st.n_max == 80


@pytest.mark.parametrize("n_max", [0, 2.5, True, TRUNCATION_CAP + 1])
def test_fixed_rejects_a_block_count_that_is_not_an_integer_up_to_the_cap(n_max):
    # 2.5 failed in to_dense with a bare TypeError, and True built one block
    with pytest.raises(ValueError, match="n_max must be an integer in"):
        dq.FockTruncation.fixed(n_max, 0.5)


# every consumer of an (r, trunc) pair
_CONSUMERS = (
    dq.build_rho_ad, dq.unruh_vacuum_coefficients, dq.unruh_one_particle_coefficients,
    dq.ppt_spectrum_closed_form, dq.ppt_spectrum_oracle, dq.report_for, dq.entropies,
)


def test_a_truncation_is_used_only_at_the_r_it_was_made_for():
    # its tail was checked at r = 0.1 only: at r = 3 build_rho_ad returned
    # trace 0.040 with tail_bound 4.7e-16, and report_for neg_log = -4.55
    trunc = dq.FockTruncation.fixed(8, 0.1, tol=1e-10)
    assert trunc.r == 0.1
    for consumer in _CONSUMERS:
        with pytest.raises(ValueError, match="made at r = 0.1 is used at r = 3.0"):
            consumer(3.0, trunc)


@pytest.mark.parametrize("r", [320.5, 400.0, 1e300, math.inf])
def test_a_foreign_truncation_past_the_cap_raises_a_typed_error(r):
    # at r = 400 build_rho_ad, unruh_vacuum_coefficients and
    # ppt_spectrum_closed_form raised a bare OverflowError
    trunc = dq.FockTruncation.fixed(8, 0.1)
    for consumer in _CONSUMERS:
        with pytest.raises((dq.DomainCap, ValueError)):
            consumer(r, trunc)


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


@pytest.mark.parametrize("r", [1e-80, 1e-310, 5e-324])
def test_states_below_the_floor_are_the_r_zero_state(r):
    # below ~1e-308 ln q overflowed to -inf, and w_0 = exp(0 * -inf) read NaN
    st, st0 = dq.build_rho_ad(r), dq.build_rho_ad(0.0)
    assert st.trunc.n_max == st0.trunc.n_max and st.trunc.tail_bound == st0.trunc.tail_bound
    assert np.array_equal(st.weights, st0.weights) and np.array_equal(st.gammas, st0.gammas)
    fixed, fixed0 = dq.FockTruncation.fixed(5, r), dq.FockTruncation.fixed(5, 0.0)
    for trunc, trunc0 in ((st.trunc, st0.trunc), (fixed, fixed0)):
        for amplitudes in (dq.unruh_vacuum_coefficients, dq.unruh_one_particle_coefficients):
            assert np.array_equal(amplitudes(r, trunc), amplitudes(0.0, trunc0))


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
        assert np.abs(alice - 0.5).max() <= st.trunc.tail_bound + 1e-15
        oracle, _ = dense_partial_traces(st)
        assert np.abs(alice - oracle).max() < 1e-14


def test_reduce_to_dave_matches_series_and_oracle():
    for r in (0.5, 1.0, 2.0):
        st = dq.build_rho_ad(r)
        dave = dq.reduce_to_dave(st)
        _, oracle = dense_partial_traces(st)
        assert np.abs(dave - oracle).max() < 1e-12
        n = np.arange(st.n_max)
        series = (
            np.tanh(r) ** (2 * n) / (2 * math.cosh(r) ** 2) * (1.0 + n / math.sinh(r) ** 2)
        )
        assert np.abs(dave[: st.n_max] - series).max() < 1e-12
        # level n_max holds |1, n_max>, so Dave's weights sum to the trace
        assert abs(dave.sum() - 1.0) <= st.trunc.tail_bound + 1e-13


def test_reduce_to_dave_r_to_zero_limit():
    # weight(1) = tanh^2 r / (2 cosh^2 r sinh^2 r) -> 1/2
    dave = dq.reduce_to_dave(dq.build_rho_ad(1e-4, dq.FockTruncation.fixed(6, 1e-4)))
    assert abs(dave[0] - 0.5) < 1e-7
    assert abs(dave[1] - 0.5) < 1e-7
    dave0 = dq.reduce_to_dave(dq.build_rho_ad(0.0))
    assert dave0[0] == 0.5 and dave0[1] == 0.5


def test_reductions_require_rho_ad_representation():
    # a partial transpose has no weights to reduce
    pt = dq.partial_transpose(dq.build_rho_ad(0.5))
    with pytest.raises(AttributeError):
        dq.reduce_to_dave(pt)
    with pytest.raises(AttributeError):
        dq.reduce_to_alice(pt)


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------

test_partial_transpose_entrywise_matches_index_swap = lookup("partial-transpose-entrywise")


def test_partial_transpose_block_count_and_trace():
    st = dq.build_rho_ad(0.9, dq.FockTruncation.fixed(50, 0.9))
    pt = dq.partial_transpose(st)
    assert isinstance(pt, dq.PartialTranspose)
    assert len(pt.pt_coh) == st.n_max  # one 2x2 block per retained order
    # the partial transpose keeps the diagonal, so the traces agree to rounding
    assert abs(pt.trace() - st.trace()) <= 1e-15


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


# ---------------------------------------------------------------------------
# the block eigensolver
# ---------------------------------------------------------------------------

def block_eigvalsh_of(m):
    """_block_eigvalsh on the nonzero entries of the matrix m."""
    i, j = np.nonzero(m)
    return _block_eigvalsh(i, j, m[i, j], len(m))


def assert_matches_eigvalsh(m):
    got, want = block_eigvalsh_of(m), np.linalg.eigvalsh(m)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def random_symmetric(rng, n, density):
    m = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    return np.triu(m) + np.triu(m, 1).T


def test_block_eigvalsh_matches_eigvalsh_on_random_sparse_matrices(rng):
    for _ in range(300):
        assert_matches_eigvalsh(random_symmetric(rng, int(rng.integers(1, 81)), 10 ** rng.uniform(-3, 0)))


def test_block_eigvalsh_matches_eigvalsh_on_edge_patterns(rng):
    chain = np.diag(rng.standard_normal(500)) + np.diag(np.ones(499), 1) + np.diag(np.ones(499), -1)
    # the same chain with shuffled indices, so labels do not fall along the path
    shuffle = rng.permutation(500)
    holes = random_symmetric(rng, 60, 0.2)
    holes[::7] = 0.0
    holes[:, ::7] = 0.0
    for m in (random_symmetric(rng, 300, 1.0), chain, chain[shuffle][:, shuffle], np.zeros((7, 7)),
              np.array([[-2.5]]), np.zeros((1, 1)), holes):
        assert_matches_eigvalsh(m)


def selftest_operators():
    """rho_AD and its partial transpose at every point the selftest diagonalizes."""
    truncs = [dq.FockTruncation.auto(r) for r in (0.0, 0.5, 1.0, 2.0)]
    truncs += [dq.FockTruncation.fixed(80, r) for r in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0)]
    truncs += [dq.FockTruncation.fixed(200, r) for r in (0.3, 1.0, 3.0)]
    for trunc in truncs:
        st = dq.build_rho_ad(trunc.r, trunc)
        yield st
        yield dq.partial_transpose(st)


@pytest.mark.parametrize("op", selftest_operators(),
                         ids=lambda op: f"{type(op).__name__}-{op.r}-{op.trunc.n_max}")
def test_block_eigvalsh_matches_eigvalsh_at_the_selftest_points(op):
    assert_matches_eigvalsh(op.to_dense())


def test_an_entry_that_couples_two_blocks_is_diagonalized_with_them():
    pt = dq.partial_transpose(dq.build_rho_ad(1.0, dq.FockTruncation.fixed(80, 1.0)))
    m = pt.to_dense()
    assert np.abs(block_eigvalsh_of(m) - np.sort(pt.all_values())).max() < 1e-15
    # |1,3> and |1,7> lie in the blocks n = 3 and n = 7
    dd = pt.trunc.n_max + 1
    m[dd + 3, dd + 7] = m[dd + 7, dd + 3] = 0.01
    assert_matches_eigvalsh(m)
    assert np.abs(block_eigvalsh_of(m) - np.sort(pt.all_values())).max() > 1e-4


def test_an_explicit_zero_entry_joins_no_blocks(monkeypatch):
    # a stored 0 between |0> and |1> leaves two 1x1 blocks, as the zero it
    # scatters to does in the assembled matrix's nonzero pattern
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rows, cols, values = np.array([0, 1, 0, 1]), np.array([0, 1, 1, 0]), np.array([2.0, 3.0, 0.0, 0.0])
    assert _block_eigvalsh(rows, cols, values, 2).tolist() == [2.0, 3.0]
    assert shapes == [(2, 1, 1)]


def test_duplicate_entries_add_up_as_in_the_scatter():
    # (0, 1) is given twice, 0.25 + 0.75: [[1, 1], [1, 1]] has eigenvalues 0 and 2
    rows, cols = np.array([0, 0, 0, 1, 1]), np.array([0, 1, 1, 0, 1])
    values = np.array([1.0, 0.25, 0.75, 1.0, 1.0])
    assert np.array_equal(_scatter(rows, cols, values, 3), [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert np.abs(_block_eigvalsh(rows, cols, values, 3) - [0.0, 0.0, 2.0]).max() < 1e-15


def written_out_assembly(op):
    """The dense assembly that to_dense() made before it scattered entries()."""
    dd = op.trunc.n_max + 1
    m = np.zeros((2 * dd, 2 * dd))
    n = np.arange(op.trunc.n_max)
    if isinstance(op, dq.BipartiteState):
        i, j = n, dd + n + 1  # (0, n), (1, n+1)
        m[i, i] += op.weights
        m[i, j] = m[j, i] = op.weights * op.gammas
        m[j, j] += op.weights * op.gammas ** 2
    else:
        m[0, 0] = op.lambda0
        m[-1, -1] = op.lambda_top  # (1, n_max)
        i, j = dd + n, n + 1  # (1, n), (0, n+1)
        m[i, i] += op.pt_diag1
        m[i, j] = m[j, i] = op.pt_coh
        m[j, j] += op.pt_diag2
    return m


def assembled_operators():
    """The selftest's operators: those it diagonalizes and those that
    partial-transpose-entrywise assembles."""
    yield from selftest_operators()
    for r, n_max in ((0.6, 60), (1.0, 10), (0.0, 1)):
        st = dq.build_rho_ad(r, dq.FockTruncation.fixed(n_max, r))
        yield st
        yield dq.partial_transpose(st)


@pytest.mark.parametrize("op", assembled_operators(),
                         ids=lambda op: f"{type(op).__name__}-{op.r}-{op.trunc.n_max}")
def test_to_dense_and_entries_are_the_written_out_assembly_bit_for_bit(op):
    dense = op.to_dense()
    assert dense.tobytes() == written_out_assembly(op).tobytes()
    assert _block_eigvalsh(*op.entries()).tobytes() == block_eigvalsh_of(dense).tobytes()


def test_the_oracle_reaches_auto_truncation_at_r_3():
    trunc = dq.FockTruncation.auto(3.0)
    assert trunc.n_max == 3068
    closed = np.sort(dq.ppt_spectrum_closed_form(3.0, trunc).all_values())
    oracle = dq.ppt_spectrum_oracle(3.0, trunc)
    assert oracle.shape == closed.shape
    assert np.abs(oracle - closed).max() <= 1e-13 * np.abs(closed).max()


def allocated_above_start(call):
    """Peak bytes that call() holds beyond what was allocated when it began.
    NumPy reports its buffers to tracemalloc."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_the_oracles_assemble_no_matrix_of_the_full_dimension(rng):
    # the dense r = 3 partial transpose (6138 x 6138) held ~300 MB, and the
    # dense r = 2 rho_AD in state-integrity ~5.5 MB
    trunc = dq.FockTruncation.auto(3.0)
    dq.ppt_spectrum_oracle(3.0, trunc)
    assert allocated_above_start(lambda: dq.ppt_spectrum_oracle(3.0, trunc)) < 16e6
    _check_state_integrity(rng, None)
    assert allocated_above_start(lambda: _check_state_integrity(rng, None)) < 2e6


# ---------------------------------------------------------------------------
# rho_AD from the two-mode squeeze operator
# ---------------------------------------------------------------------------

def squeezed_sector_column(r, s, size):
    """exp(r (a^dag b^dag - a b)) |s, 0> on the sector n_a - n_b = s, as the
    amplitudes of |n+s, n>, n = 0..size-1.  The generator G is real,
    antisymmetric and tridiagonal there, with G[n+1, n] = sqrt((n+1)(n+1+s)),
    so exp(r G) = V exp(-i r L) V^dag from eigh(i G) = (L, V)."""
    n = np.arange(size - 1)
    g = np.diag(np.sqrt((n + 1.0) * (n + 1.0 + s)), -1)
    lam, v = np.linalg.eigh(1j * (g - g.T))
    return (v @ (np.exp(-1j * r * lam) * v[0].conj())).real


@pytest.mark.parametrize("r,n_max,size", [
    (0.1, 20, 60), (0.5, 40, 80), (1.0, 60, 120), (2.0, 300, 800), (0.1 * _R_LIMIT, 5, 20),
])
def test_rho_ad_from_the_two_mode_squeeze_operator(r, n_max, size):
    # (|0>_A S|0,0> + |1>_A S|1,0>)/sqrt(2), traced over the exterior mode b,
    # where S|0,0> is the Unruh vacuum and S|1,0> its one-particle state;
    # nothing of the state's closed form enters.  Each sector is wide enough
    # that its edge amplitude, ~tanh^size r, lies below rounding: at (2, 300)
    # a sector of 500 left the amplitudes 2.5e-14 off, and rho_AD 2.7e-16
    trunc = dq.FockTruncation.fixed(n_max, r)
    vacuum = squeezed_sector_column(r, 0, size)
    one = squeezed_sector_column(r, 1, size)
    assert np.abs(vacuum[: n_max + 1] - dq.unruh_vacuum_coefficients(r, trunc)).max() < 2e-15
    assert np.abs(one[:n_max] - dq.unruh_one_particle_coefficients(r, trunc)).max() < 2e-15
    # amplitudes of |a, d> (rows) against the exterior level m (columns)
    dd = n_max + 1
    m = np.arange(n_max)
    psi = np.zeros((2 * dd, n_max))
    psi[m, m] = vacuum[:n_max] / math.sqrt(2.0)
    psi[dd + m + 1, m] = one[:n_max] / math.sqrt(2.0)
    assert np.abs(psi @ psi.T - dq.build_rho_ad(r, trunc).to_dense()).max() < 2e-15

import math

import mpmath
import numpy as np
import pytest

import diamondqi as dq
from diamondqi.entanglement import _GL_NODES, _GL_WEIGHTS, _HEAD
from mpmath_reference import grid_points, mpmath_measures, read_grid
from test_invariants import lookup

# past this r the direct sum would need more than _HEAD terms, and the
# series gets an Euler-Maclaurin tail (n_max_used = 0)
R_SWITCH = 1.93369


def textbook_form_pairs(r, n_max):
    """Literal textbook eigenvalue pairs, valid away from r = 0.  The last
    block of a truncation has no |0, n_max> entry, so it loses the q in T."""
    q = math.tanh(r) ** 2
    c2 = math.cosh(r) ** 2
    s2 = math.sinh(r) ** 2
    n = np.arange(n_max, dtype=float)
    T = n / s2 + q
    Z = T * T + 4.0 / c2
    T[-1] = n[-1] / s2
    Z[-1] = T[-1] ** 2 + 4.0 * n_max / c2
    base = np.exp(n * math.log(q)) / (4.0 * c2)
    return np.stack([base * (T + np.sqrt(Z)), base * (T - np.sqrt(Z))], axis=1)


# ---------------------------------------------------------------------------
# PPT spectrum
# ---------------------------------------------------------------------------

def test_closed_form_matches_literal_expression():
    for r in (0.3, 0.8, 1.5):
        spec = dq.ppt_spectrum_closed_form(r, dq.FockTruncation.fixed(60, r))
        expect = textbook_form_pairs(r, 60)
        assert np.abs(spec.pairs - expect).max() < 1e-14
        assert abs(spec.lambda0 - 1.0 / (2.0 * math.cosh(r) ** 2)) < 1e-16


def test_spectrum_r_to_zero_limit():
    spec = dq.ppt_spectrum_closed_form(0.0)
    vals = np.sort(spec.all_values())
    assert abs(vals[0] + 0.5) < 1e-15          # one -1/2
    assert np.abs(vals[-3:] - 0.5).max() < 1e-15  # three +1/2
    dense = np.sort(
        np.linalg.eigvalsh(dq.partial_transpose(dq.build_rho_ad(1e-5)).to_dense())
    )
    assert abs(dense[0] + 0.5) < 1e-9
    assert np.abs(dense[-3:] - 0.5).max() < 1e-9


def test_negative_eigenvalue_exists_for_every_block():
    for r in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
        spec = dq.ppt_spectrum_closed_form(r, dq.FockTruncation.fixed(60, r))
        assert (spec.pairs[:, 1] < 0).all()


def test_negative_eigenvalue_vanishes_asymptotically():
    spec = dq.ppt_spectrum_closed_form(8.0, dq.FockTruncation.fixed(20, 8.0))
    assert abs(spec.pairs[0, 1]) < 1e-3


def test_pair_sums_equal_block_traces():
    r = 0.9
    spec = dq.ppt_spectrum_closed_form(r, dq.FockTruncation.fixed(50, r))
    q = math.tanh(r) ** 2
    c2 = math.cosh(r) ** 2
    s2 = math.sinh(r) ** 2
    n = np.arange(50, dtype=float)
    expect = np.exp(n * math.log(q)) / (2.0 * c2) * (n / s2 + q)
    assert np.abs(spec.pairs.sum(axis=1) - expect).max() < 1e-15


test_oracle_equivalence_battery = lookup("ppt-closed-vs-oracle")


def test_oracle_trace_preserved_and_rho_psd():
    r = 0.6
    trunc = dq.FockTruncation.fixed(60, r)
    st = dq.build_rho_ad(r, trunc)
    oracle = dq.ppt_spectrum_oracle(r, trunc)
    assert abs(oracle.sum() - st.trace()) < 1e-12
    assert np.linalg.eigvalsh(st.to_dense()).min() >= -1e-12


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------

test_log_negativity_endpoints = lookup("endpoint-limits")


def test_log_negativity_literal_series_agreement():
    # log2(1/(2 cosh^2 r) + Sigma) with Sigma summed literally
    for r in (0.4, 1.1, 2.0):
        q = math.tanh(r) ** 2
        c2 = math.cosh(r) ** 2
        s2 = math.sinh(r) ** 2
        n = np.arange(200_000, dtype=float)
        Z = (n / s2 + q) ** 2 + 4.0 / c2
        sigma = (np.exp(n * math.log(q)) / (2.0 * c2) * np.sqrt(Z)).sum()
        literal = math.log2(1.0 / (2.0 * c2) + sigma)
        assert abs(dq.log_negativity(r) - literal) < 1e-12


def test_log_negativity_matches_oracle_trace_norm():
    for r in (0.3, 1.0, 3.0):
        trunc = dq.FockTruncation.fixed(150, r)
        tn = np.abs(dq.ppt_spectrum_oracle(r, trunc)).sum()
        assert abs(dq.log_negativity(r, trunc) - math.log2(tn)) < 1e-8


def test_log_negativity_identity_with_ordinary_negativity():
    for r in (0.0, 0.5, 1.5, 3.0):
        lhs = dq.log_negativity(r)
        rhs = math.log2(2.0 * dq.negativity(r) + 1.0)
        assert abs(lhs - rhs) < 1e-12


def test_negativity_at_zero():
    assert dq.negativity(0.0) == 0.5


# ---------------------------------------------------------------------------
# entropies and mutual information
# ---------------------------------------------------------------------------

def test_entropy_endpoints_at_zero():
    assert dq.entropies(0.0) == (1.0, 1.0, 0.0)
    assert dq.mutual_information(0.0) == 2.0


def test_s_alice_is_exactly_one():
    for r in (0.0, 0.7, 2.5):
        assert dq.entropies(r)[0] == 1.0


def test_s_dave_matches_reduced_state_recomputation():
    r = 0.8
    trunc = dq.FockTruncation.auto(r, tol=1e-14)
    w = dq.reduce_to_dave(dq.build_rho_ad(r, trunc))
    direct = float(-(w[w > 0] * np.log2(w[w > 0])).sum())
    assert abs(dq.entropies(r)[1] - direct) < 1e-10


def test_s_ad_matches_block_eigenvalues():
    r = 1.2
    trunc = dq.FockTruncation.auto(r, tol=1e-14)
    st = dq.build_rho_ad(r, trunc)
    evs = np.linalg.eigvalsh(st.to_dense())
    evs = evs[evs > 1e-18]
    direct = float(-(evs * np.log2(evs)).sum())
    assert abs(dq.entropies(r)[2] - direct) < 1e-9


test_mutual_information_recombination = lookup("entropy-recombination")


def test_mutual_information_bounds_and_distributed_identity():
    for r in (0.1, 0.5, 1.0, 2.0, 5.0):
        mi = dq.mutual_information(r)
        assert 1.0 <= mi <= 2.0
        s_a, s_d, s_ad = dq.entropies(r)
        # purity of the global state: I = 1 + S_D - S_{Dbar} with S_{Dbar} = S_AD
        assert abs(mi - (1.0 + s_d - s_ad)) < 1e-9


def test_mutual_information_large_r_limit():
    assert abs(dq.mutual_information(8.0) - 1.0) < 1e-3
    assert abs(dq.mutual_information(10.0) - 1.0) < 1e-3


def test_entropies_grow_with_r_but_difference_vanishes():
    # the joint and Dave entropies diverge together; only their gap closes
    _, s_d_small, s_ad_small = dq.entropies(1.0)
    _, s_d_big, s_ad_big = dq.entropies(6.0)
    assert s_d_big > s_d_small and s_ad_big > s_ad_small
    assert (s_d_big - s_ad_big) < (s_d_small - s_ad_small)


def test_entropies_follow_the_asymptote_up_to_the_domain_cap():
    # S_D, S_AD -> log2(2 cosh^2 r) + (2 - G)/(2 ln 2), G = e E_1(1); past
    # r ~ 19, where tanh^2 r rounds to 1, only an exact ln tanh^2 r gets there
    const = (2.0 - float(mpmath.e * mpmath.e1(1))) / (2.0 * math.log(2.0))
    for r in (19.0, 25.0, 100.0, 320.0):
        _, s_d, s_ad = dq.entropies(r)
        base = 1.0 + 2.0 * math.log(math.cosh(r)) / math.log(2.0) + const
        assert abs(s_d - base) < 1e-12 * base
        assert abs(s_ad - base) < 1e-12 * base
    with pytest.raises(dq.DomainCap):
        dq.report_for(321.0)


def test_negativity_matches_mpmath_at_large_r():
    # w (sqrt(T^2 + B) - T) cancels as B = 4/cosh^2 r -> 0; at r = 10 it
    # left neg_log only nine correct digits
    for r in (4.0, 6.0, 8.0, 10.0, 12.0):
        neg_log, neg = mpmath_measures(r)[:2]
        rep = dq.report_for(r)
        assert abs(rep.neg_log - neg_log) < 1e-13 * neg_log
        assert abs(rep.negativity - neg) < 1e-13 * neg


def test_em_tail_bound_is_honest_and_tight():
    # neg_log and negativity fall like 1/cosh^2 r, so the bound, one number
    # for all five measures, is held tight against the O(1) ones only
    for r in (4.0, 4.2, 5.0, 8.0, 10.0, 12.0, 25.0, 60.0):
        rep = dq.report_for(r)
        assert rep.n_max_used == 0
        ref = mpmath_measures(r)
        got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
        for value, exact in zip(got, ref):
            assert abs(value - exact) <= rep.tail_bound
        for exact in ref[2:]:
            assert rep.tail_bound <= 1e-12 * exact


def test_direct_tail_bound_is_honest():
    # the geometric tail alone read 9.2e-16 at r = 3.99, where S_D summed
    # over 27474 terms was 6.0e-14 off; only r = 0.5 is still summed
    # directly, the rest carry an Euler-Maclaurin tail
    for r in (0.5, 2.0, 3.5, 3.8, 3.99):
        rep = dq.report_for(r)
        assert (rep.n_max_used > 0) == (r < R_SWITCH)
        got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
        for value, exact in zip(got, mpmath_measures(r)):
            assert abs(value - exact) <= rep.tail_bound


@pytest.mark.parametrize("r", [1e-8, 1e-50, 1e-100, 1e-160, 1e-300])
def test_small_r_reports_are_finite_bounded_and_exact(r):
    # 1 - 0.5 ln q/ln 2 - sum cancelled two terms of size |ln q| and put I
    # above 2; below r ~ 1e-154 sinh^2 r underflowed and the sums read NaN
    rep = dq.report_for(r)
    got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
    assert all(math.isfinite(v) for v in got)
    assert 1.0 <= rep.mutual_info <= 2.0
    for value, exact in zip(got, mpmath_measures(r)):
        assert abs(value - exact) <= 1e-12
        assert abs(value - exact) <= rep.tail_bound


def test_measures_decrease_across_the_route_switch():
    # around the old direct/Euler-Maclaurin switch at r = 4, and around the
    # head switch, where the Euler-Maclaurin tail sets in
    for lo in (3.9, 1.83):
        reports = [dq.report_for(lo + 1e-3 * i) for i in range(201)]
        nl = [rep.neg_log for rep in reports]
        mi = [rep.mutual_info for rep in reports]
        assert all(b < a for a, b in zip(nl, nl[1:]))
        assert all(b < a for a, b in zip(mi, mi[1:]))
    # the last window: summed directly below the head switch, with a tail above
    direct = [rep.n_max_used > 0 for rep in reports]
    assert direct == [lo + 1e-3 * i < R_SWITCH for i in range(201)]


def test_measures_match_mpmath_where_the_routes_met():
    # the two routes of the old engine agreed to 1e-10 (entropies 1e-9)
    # here; the one engine matches mpmath at 1e-13 relative
    for r in (4.0, 4.6, 5.2):
        rep = dq.report_for(r)
        got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
        for value, exact in zip(got, mpmath_measures(r)):
            assert abs(value - exact) <= 1e-13 * abs(exact)


def test_measures_match_mpmath_on_a_fine_grid():
    # r = 1.5..12 in steps of 0.025, across the head switch at r ~ 1.934
    table = read_grid()
    assert list(table) == grid_points()
    for r, want in table.items():
        rep = dq.report_for(r)
        got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
        for value, exact in zip(got, want):
            assert abs(value - exact) <= 1e-14 * abs(exact)
            assert abs(value - exact) <= rep.tail_bound


def test_reference_grid_is_current():
    table = read_grid()
    for r in (grid_points()[0], grid_points()[200], grid_points()[-1]):
        for value, exact in zip(table[r], mpmath_measures(r)):
            assert abs(value - exact) <= 1e-15 * abs(exact)


def test_tail_rule_is_leggauss_bit_for_bit():
    # the literal rule keeps the Euler-Maclaurin tail, and so every report
    # and figure, bit-identical to the one leggauss built at import
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    assert _GL_NODES.tobytes() == nodes.tobytes()
    assert _GL_WEIGHTS.tobytes() == weights.tobytes()


def test_series_cost_is_bounded_by_the_head():
    grid = np.concatenate((np.logspace(-80, 0, 161), np.linspace(1.0, 320.0, 3191)))
    for r in grid:
        assert dq.report_for(r).n_max_used <= _HEAD


def test_direct_sums_take_the_truncation_block_count():
    # the series sized its own sum and took 71 terms at r = 0.05, where 70
    # are 64 past the blocks FockTruncation.auto keeps for the same tail
    for r in np.arange(0.01, R_SWITCH, 0.01):
        assert dq.report_for(r).n_max_used == dq.FockTruncation.auto(r, 1e-15).n_max + 64


@pytest.mark.parametrize("r", [0.0, 1e-8, 0.5, 2.0])
def test_truncated_report_matches_the_scalar_measures(r):
    for trunc in (dq.FockTruncation.auto(r), dq.FockTruncation.fixed(40, r)):
        rep = dq.report_for(r, trunc)
        assert rep.n_max_used == trunc.n_max
        assert (rep.s_a, rep.s_d, rep.s_ad) == dq.entropies(r, trunc)
        assert rep.mutual_info == dq.mutual_information(r, trunc)
        assert rep.neg_log == dq.log_negativity(r, trunc)
        assert rep.negativity == dq.negativity(r, trunc)


@pytest.mark.parametrize("n_max", [1, 2, 40])
def test_truncated_measures_at_zero_keep_level_n_max(n_max):
    # without the |1, n_max> entry, one block read log N = 0.585
    rep = dq.report_for(0.0, dq.FockTruncation.fixed(n_max, 0.0))
    assert (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info) == (1.0, 0.5, 1.0, 0.0, 2.0)


@pytest.mark.parametrize("r,n_max", [(0.3, 2), (1.0, 10), (2.0, 60)])
def test_truncated_entropies_match_the_dense_state(r, n_max):
    # Dave's level n_max holds |1, n_max> alone: 0.048 bits of S_D at (1.0, 10)
    trunc = dq.FockTruncation.fixed(n_max, r)
    dense = dq.build_rho_ad(r, trunc).to_dense()
    dd = n_max + 1
    dave = dense[:dd, :dd].diagonal() + dense[dd:, dd:].diagonal()
    evs = np.linalg.eigvalsh(dense)
    evs = evs[evs > 1e-300]
    _, s_d, s_ad = dq.entropies(r, trunc)
    assert abs(s_d + (dave * np.log2(dave)).sum()) < 1e-13 * s_d
    assert abs(s_ad + (evs * np.log2(evs)).sum()) < 1e-12 * s_ad


@pytest.mark.parametrize("r,n_max", [(0.5, None), (1.0, None), (1.5, None), (1.0, 40), (1.0, 80)])
def test_truncated_tail_bound_is_honest(r, n_max):
    # the truncated rows reported the dropped trace weight, 3.4e-13 at
    # r = 0.5, where S_D was 5.9e-11 off the full series
    trunc = dq.FockTruncation.auto(r) if n_max is None else dq.FockTruncation.fixed(n_max, r)
    rep = dq.report_for(r, trunc)
    got = (rep.neg_log, rep.negativity, rep.s_d, rep.s_ad, rep.mutual_info)
    for value, exact in zip(got, mpmath_measures(r)):
        assert abs(value - exact) <= rep.tail_bound


@pytest.mark.parametrize("r", [1e-8, 1e-100, 1e-200])
def test_truncated_measures_at_small_r(r):
    # the truncated I summed 1 - 0.5 ln q/ln 2 - sum: 2 + 1e-13 at r = 1e-8,
    # 2 + 7e-12 at 1e-100, and NaN at 1e-200, where S_AD read -0.0
    trunc = dq.FockTruncation.auto(r)
    s_a, s_d, s_ad = dq.entropies(r, trunc)
    mi = dq.mutual_information(r, trunc)
    rep = dq.report_for(r)
    assert not any(math.isnan(v) for v in (s_a, s_d, s_ad, mi))
    assert 1.0 <= mi <= 2.0
    assert math.copysign(1.0, s_ad) == 1.0
    for value, full in zip((s_a, s_d, s_ad, mi), (rep.s_a, rep.s_d, rep.s_ad, rep.mutual_info)):
        assert abs(value - full) <= 1e-12


@pytest.mark.parametrize("r", [1e-80, 1e-310, 5e-324])
def test_truncated_reports_below_the_floor_are_the_r_zero_reports(r):
    # below ~1e-308 ln q overflowed to -inf, and the truncated weights and
    # with them neg_log and tail_bound read NaN
    fields = ("neg_log", "negativity", "s_a", "s_d", "s_ad", "mutual_info", "n_max_used")
    for make in (dq.FockTruncation.auto, lambda x: dq.FockTruncation.fixed(5, x)):
        rep, rep0 = dq.report_for(r, make(r)), dq.report_for(0.0, make(0.0))
        assert all(getattr(rep, k) == getattr(rep0, k) for k in fields)
        assert math.isfinite(rep.tail_bound) and rep.tail_bound <= rep0.tail_bound + r


# ---------------------------------------------------------------------------
# sweeps and reports
# ---------------------------------------------------------------------------

def test_sweep_monotone_decreasing():
    reports, errors = dq.sweep(r_values=[0.5 * i for i in range(11)])
    assert not errors
    nl = [rep.neg_log for rep in reports]
    mi = [rep.mutual_info for rep in reports]
    assert all(b < a for a, b in zip(nl, nl[1:]))
    assert all(b < a for a, b in zip(mi, mi[1:]))


def test_sweep_lifetime_reparametrization():
    # lifetimes chosen to reproduce given r values must give identical reports
    omega = 1.0
    targets = [0.3, 0.8, 1.7]
    lifetimes = [-(4.0 / (math.pi * omega)) * math.log(math.tanh(r)) for r in targets]
    by_lifetime, err1 = dq.sweep(lifetimes=lifetimes, omega=omega)
    by_r, err2 = dq.sweep(r_values=[dq.r_from_lifetime(lt, omega) for lt in lifetimes])
    assert not err1 and not err2
    for a, b, r in zip(by_lifetime, by_r, targets):
        assert a == b
        assert abs(a.r - r) < 1e-12


def test_sweep_collects_per_point_errors():
    reports, errors = dq.sweep(r_values=[0.5, -1.0, 1.0])
    assert reports[0] is not None and reports[2] is not None
    assert reports[1] is None and 1 in errors


def test_a_lifetime_whose_squeezing_overflows_fails_at_its_point():
    # r = inf used to reach report_for, which read it as past the cap 320
    with pytest.raises(dq.DomainCap, match="the squeezing r overflows"):
        dq.r_from_lifetime(1e-300, 1e-10)
    assert math.isfinite(dq.r_from_lifetime(2e-300, 1e-8))  # omega_hat = 1e-308
    reports, errors = dq.sweep(lifetimes=[1e-300, 2.0, 0.0], omega=1e-10)
    assert reports[0] is None and reports[1] is not None and reports[2] is None
    assert errors == {
        0: "DomainCap: omega_hat = 5e-311: the squeezing r overflows",
        2: "ValueError: lifetime and omega must be positive (zero lifetime gives r = infinity)",
    }


def test_sweep_argument_validation():
    with pytest.raises(ValueError):
        dq.sweep()
    with pytest.raises(ValueError):
        dq.sweep(r_values=[1.0], lifetimes=[1.0])
    with pytest.raises(ValueError):
        dq.sweep(lifetimes=[1.0])
    with pytest.raises(ValueError):
        dq.sweep(lifetimes=[1.0], omega=0.0)
    with pytest.raises(ValueError):
        dq.sweep(r_values=[])


def test_report_fields_and_tail():
    rep = dq.report_for(1.0)
    assert rep.s_a == 1.0
    assert rep.n_max_used > 0
    assert rep.tail_bound < 1e-12
    assert 0.0 <= rep.neg_log <= 1.0


def test_figure_grid_shape():
    grid = dq.figure_grid()
    assert len(grid) == 101 and grid[0] == 0.0 and grid[-1] == 5.0


def test_r_from_lifetime_validation():
    with pytest.raises(ValueError):
        dq.r_from_lifetime(0.0, 1.0)
    with pytest.raises(ValueError):
        dq.r_from_lifetime(1.0, 0.0)

import functools
import math

import mpmath
import numpy as np
import pytest

import diamondqi as dq
from diamondqi.entanglement import _direct_measures, _em_measures


@functools.lru_cache(maxsize=None)
def mpmath_measures(r):
    """(neg_log, negativity, s_d, s_ad, mutual_info) at 30 digits, summed
    from the eigenvalues of the PT blocks, of the rho_AD blocks and of
    Dave's reduced state: term by term for r <= 2.3, where the summands
    decay too fast for Euler-Maclaurin, and with mpmath.sumem above."""
    with mpmath.workdps(30):
        r = mpmath.mpf(r)
        c2 = mpmath.cosh(r) ** 2
        s2 = mpmath.sinh(r) ** 2
        q = mpmath.tanh(r) ** 2

        def w(n):
            return q ** n / (2 * c2)

        def excess(n):
            # |lambda+| + |lambda-| - (lambda+ + lambda-) of the PT block
            a, c, g = w(n) * n / s2, w(n) * q, w(n) * mpmath.sqrt((n + 1) / c2)
            return mpmath.sqrt((a - c) ** 2 + 4 * g * g) - (a + c)

        def h(p):
            return -p * mpmath.log(p, 2)

        if r <= 2.3:
            # q^n below 1e-36 of the leading terms
            n_max = int(mpmath.ceil(-83 / mpmath.log(q))) + 2

            def total(f):
                return mpmath.fsum(f(n) for n in range(n_max))
        else:
            def total(f):
                return mpmath.sumem(f, [0, mpmath.inf])

        d = total(excess)
        s_d = total(lambda n: h(w(n) * (1 + n / s2)))
        s_ad = total(lambda n: h(w(n) * (1 + (n + 1) / c2)))
        values = (mpmath.log(1 + d, 2), d / 2, s_d, s_ad, 1 + s_d - s_ad)
        return tuple(float(v) for v in values)


def textbook_form_pairs(r, n_max):
    """Literal textbook eigenvalue pairs, valid away from r = 0."""
    q = math.tanh(r) ** 2
    c2 = math.cosh(r) ** 2
    s2 = math.sinh(r) ** 2
    n = np.arange(n_max, dtype=float)
    T = n / s2 + q
    Z = T * T + 4.0 / c2
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


def test_oracle_equivalence_battery():
    for r in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0):
        trunc = dq.FockTruncation.fixed(80, r)
        closed = np.sort(
            np.concatenate([dq.ppt_spectrum_closed_form(r, trunc).all_values(), [0.0]])
        )
        oracle = dq.ppt_spectrum_oracle(dq.partial_transpose(dq.build_rho_ad(r, trunc)))
        assert np.abs(closed - oracle).max() < 1e-8


def test_oracle_trace_preserved_and_rho_psd():
    r = 0.6
    trunc = dq.FockTruncation.fixed(60, r)
    st = dq.build_rho_ad(r, trunc)
    oracle = dq.ppt_spectrum_oracle(dq.partial_transpose(st))
    assert abs(oracle.sum() - st.trace()) < 1e-12
    assert np.linalg.eigvalsh(st.to_dense()).min() >= -1e-12


def test_oracle_requires_pt_representation():
    with pytest.raises(ValueError):
        dq.ppt_spectrum_oracle(dq.build_rho_ad(0.5))


# ---------------------------------------------------------------------------
# logarithmic negativity
# ---------------------------------------------------------------------------

def test_log_negativity_endpoints():
    assert dq.log_negativity(0.0) == 1.0
    assert dq.log_negativity(8.0) < 1e-3


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
        tn = np.abs(dq.ppt_spectrum_oracle(dq.partial_transpose(dq.build_rho_ad(r, trunc)))).sum()
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
    w = dq.reduce_to_dave(dq.build_rho_ad(r, trunc)).weights
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


def test_mutual_information_recombination():
    for r in (0.2, 0.9, 2.5):
        s_a, s_d, s_ad = dq.entropies(r)
        assert abs(dq.mutual_information(r) - (s_a + s_d - s_ad)) < 1e-9


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
    for r in (4.0, 4.2, 5.0, 8.0, 10.0, 12.0):
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
    # over 27474 terms is 6.0e-14 off
    for r in (0.5, 2.0, 3.5, 3.8, 3.99):
        rep = dq.report_for(r)
        assert rep.n_max_used > 0
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
    reports = [dq.report_for(3.9 + 1e-3 * i) for i in range(201)]
    assert reports[0].n_max_used > 0 and reports[-1].n_max_used == 0
    nl = [rep.neg_log for rep in reports]
    mi = [rep.mutual_info for rep in reports]
    assert all(b < a for a, b in zip(nl, nl[1:]))
    assert all(b < a for a, b in zip(mi, mi[1:]))


def test_direct_and_em_routes_agree_in_overlap():
    for r in (4.0, 4.6, 5.2):
        d = _direct_measures(r)
        e = _em_measures(r)
        assert abs(d["neg_log"] - e["neg_log"]) < 1e-10
        assert abs(d["mutual_info"] - e["mutual_info"]) < 1e-10
        assert abs(d["s_d"] - e["s_d"]) < 1e-9
        assert abs(d["s_ad"] - e["s_ad"]) < 1e-9


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


def test_sweep_argument_validation():
    with pytest.raises(ValueError):
        dq.sweep()
    with pytest.raises(ValueError):
        dq.sweep(r_values=[1.0], lifetimes=[1.0])
    with pytest.raises(ValueError):
        dq.sweep(lifetimes=[1.0])
    with pytest.raises(ValueError):
        dq.sweep(r_values=[])


def test_sweep_thread_env_does_not_change_results(monkeypatch):
    grid = [0.0, 0.7, 1.4, 2.8]
    base, _ = dq.sweep(r_values=grid)
    monkeypatch.setenv("DIAMOND_NUM_THREADS", "4")
    threaded, _ = dq.sweep(r_values=grid)
    assert base == threaded


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

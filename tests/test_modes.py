import math

import mpmath as mp
import numpy as np
import pytest

import diamondqi as dq
from diamondqi.modes import ModeRegion
from test_invariants import lookup


def test_minkowski_mode_value(chart):
    m = dq.ModeSpec(dq.Sigma.PLUS, 2.0, dq.Family.MINKOWSKI_F, chart)
    p = dq.EventCoords.diamond(0.3, 0.1)  # V = 0.4
    got = dq.eval_mode(m, p)
    assert abs(got - np.exp(-0.8j) / math.sqrt(8 * math.pi)) < 1e-15


def test_interior_mode_at_center(chart):
    m = dq.ModeSpec(dq.Sigma.PLUS, 1.5, dq.Family.DIAMOND_G_INT, chart)
    got = dq.eval_mode(m, dq.EventCoords.diamond(0.0, 0.0))
    assert got == 1.0 / math.sqrt(4 * math.pi * 1.5)


def test_interior_mode_phase_via_tanh(chart):
    # V = alpha*tanh(1) gives null diamond coordinate v = alpha, phase e^{-i omega alpha}
    omega = 1.5
    m = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.DIAMOND_G_INT, chart)
    V = math.tanh(1.0)
    p = dq.EventCoords.diamond(V / 2, V / 2)
    expect = np.exp(-1j * omega * 1.0) / math.sqrt(4 * math.pi * omega)
    assert abs(dq.eval_mode(m, p) - expect) < 1e-15


def test_interior_mode_unimodular_phase(chart, rng):
    omega = 0.7
    m = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.DIAMOND_G_INT, chart)
    norm = 1.0 / math.sqrt(4 * math.pi * omega)
    for V in rng.uniform(-0.999, 0.999, 200):
        val = dq.eval_mode(m, dq.EventCoords.diamond(V / 2, V / 2))
        assert abs(abs(val) - norm) < 1e-14


def test_mode_support_and_strict(chart):
    m_int = dq.ModeSpec(dq.Sigma.PLUS, 1.0, dq.Family.DIAMOND_G_INT, chart)
    m_ext = dq.ModeSpec(dq.Sigma.PLUS, 1.0, dq.Family.DIAMOND_G_EXT, chart)
    outside = dq.EventCoords.diamond(0.0, 3.0)
    inside = dq.EventCoords.diamond(0.0, 0.2)
    assert dq.eval_mode(m_int, outside) == 0
    assert dq.eval_mode(m_ext, inside) == 0
    with pytest.raises(dq.OutOfSupport):
        dq.eval_mode(m_int, outside, strict=True)
    with pytest.raises(dq.OutOfSupport):
        dq.eval_mode(m_ext, inside, strict=True)


def test_sigma_minus_uses_retarded_argument(chart):
    omega = 1.1
    mp_ = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.DIAMOND_G_INT, chart)
    mm = dq.ModeSpec(dq.Sigma.MINUS, omega, dq.Family.DIAMOND_G_INT, chart)
    # same numeric light-cone argument: V = 0.4 at (0.2, 0.2), U = 0.4 at (0.2, -0.2)
    vp = dq.eval_mode(mp_, dq.EventCoords.diamond(0.2, 0.2))
    vm = dq.eval_mode(mm, dq.EventCoords.diamond(0.2, -0.2))
    assert vp == vm


def test_unruh_modes_are_weighted_continuations(chart):
    omega = 1.5
    r = dq.squeezing_from_frequency(chart, omega).r
    gi = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.DIAMOND_G_INT, chart)
    ge = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.DIAMOND_G_EXT, chart)
    hi = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.UNRUH_H_INT, chart)
    he = dq.ModeSpec(dq.Sigma.PLUS, omega, dq.Family.UNRUH_H_EXT, chart)
    p_in = dq.EventCoords.diamond(0.1, 0.3)
    p_out = dq.EventCoords.diamond(0.0, 2.5)
    assert dq.eval_mode(hi, p_in) == math.cosh(r) * dq.eval_mode(gi, p_in)
    assert dq.eval_mode(hi, p_out) == math.sinh(r) * dq.eval_mode(ge, p_out).conjugate()
    assert dq.eval_mode(he, p_out) == math.cosh(r) * dq.eval_mode(ge, p_out)
    assert dq.eval_mode(he, p_in) == math.sinh(r) * dq.eval_mode(gi, p_in).conjugate()


def test_unruh_weights_normalization(chart):
    for omega in (0.2, 1.0, 5.0):
        r = dq.squeezing_from_frequency(chart, omega).r
        assert abs(math.cosh(r) ** 2 - math.sinh(r) ** 2 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# squeezing parameter and thermality
# ---------------------------------------------------------------------------

def test_squeezing_special_value(chart):
    omega = (2.0 / math.pi) * math.log(2.0)  # e^{-pi w/2} = 1/2
    sq = dq.squeezing_from_frequency(chart, omega)
    assert abs(sq.r - math.atanh(0.5)) < 1e-15


def test_squeezing_decreasing_and_vanishing(chart):
    rs = [dq.squeezing_from_frequency(chart, w).r for w in (0.1, 0.5, 1, 5, 20, 200)]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    assert rs[-1] < 1e-130


test_boltzmann_identity = lookup("thermality")


def test_thermal_occupation_identities(chart):
    for wh in (0.1, 0.7, 3.0, 20.0):
        n = dq.thermal_occupation(chart, wh)
        r = dq.squeezing_from_frequency(chart, wh).r
        assert abs(n - math.sinh(r) ** 2) <= 1e-12 * max(n, 1e-300)
        boltz = math.exp(-math.pi * wh)
        assert abs(n / (1.0 + n) - boltz) <= 1e-14 * boltz
    assert dq.thermal_occupation(chart, 300.0) == 0.0  # underflow limit, n -> 0


def test_squeezing_rejects_nonpositive(chart):
    with pytest.raises(ValueError):
        dq.squeezing_from_frequency(chart, 0.0)
    with pytest.raises(ValueError):
        dq.thermal_occupation(chart, -1.0)


# ---------------------------------------------------------------------------
# Bogoliubov coefficients
# ---------------------------------------------------------------------------

test_closed_form_vs_quadrature_grid = lookup("bogoliubov-closed-vs-quadrature")


def test_alpha_from_beta_by_frequency_flip(chart):
    # alpha equals beta with k -> -k inside the phase and M, sqrt(k) fixed
    from diamondqi.specfun import KummerParams, kummer_m

    w, k = 1.3, 2.1
    pref = (chart.alpha / 2.0) * math.sqrt(w * k) / math.sinh(math.pi * w / 2.0)
    flipped = pref * np.exp(-1j * k) * kummer_m(KummerParams(1 - 0.5j * w, 2.0, 2j * k))
    beta_at_minus_k = flipped  # beta's e^{+ik}M(...,-2ik) with k -> -k
    assert abs(dq.bogoliubov_closed_form(chart, w, k, "alpha") - beta_at_minus_k) < 1e-14


def test_coefficients_are_real(chart):
    # conjugation symmetry of the defining integral forces real values
    for (w, k) in ((0.5, 0.5), (2.0, 3.0), (4.0, 1.0)):
        for kind in ("alpha", "beta"):
            c = dq.bogoliubov_closed_form(chart, w, k, kind)
            q = dq.bogoliubov_quadrature(chart, w, k, kind)
            assert abs(c.imag) < 1e-10 * abs(c)
            assert abs(q.imag) < 1e-8 * abs(q)


def test_beta_envelope_decay(chart):
    # the Kummer factor wiggles, so decay is asymptotic: compare octaves
    vals = [abs(dq.bogoliubov_closed_form(chart, w, 2.0, "beta")) for w in (1.0, 4.0, 8.0, 12.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6 * vals[0]


def test_alpha_scaling_dimension():
    # the coefficient carries one factor of the diamond size
    a1 = dq.bogoliubov_closed_form(dq.DiamondChart(1.0), 1.0, 1.0, "alpha")
    a2 = dq.bogoliubov_closed_form(dq.DiamondChart(2.0), 1.0, 1.0, "alpha")
    assert abs(a2 - 2.0 * a1) < 1e-14


def test_no_closed_form_for_exterior(chart):
    with pytest.raises(dq.UnsupportedRegion):
        dq.bogoliubov_closed_form(chart, 1.0, 1.0, "alpha", ModeRegion.EXT)


test_exterior_positive_frequency_relations = lookup("bogoliubov-ext-positive-frequency")


def test_exterior_quadrature_matches_positive_frequency_identity(chart):
    # alpha_ext = -conj(beta_int)/tanh r and beta_ext = -tanh r conj(alpha_int),
    # with the interior coefficients from a 40-digit Kummer closed form
    def interior(w, k, sign):
        with mp.workdps(40):
            m = mp.hyp1f1(mp.mpc(1, -w / 2), 2, mp.mpc(0, 2 * sign * k))
            pref = mp.mpf(chart.alpha) / 2 * mp.sqrt(w * k) / mp.sinh(mp.pi * w / 2)
            return complex(pref * mp.expj(-sign * k) * m)

    rng = np.random.default_rng(77)
    for _ in range(8):
        w = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
        k = math.exp(rng.uniform(math.log(0.05), 0.0))
        tanh_r = math.exp(-math.pi * w / 2.0)
        want_alpha = -interior(w, k, -1).conjugate() / tanh_r
        want_beta = -tanh_r * interior(w, k, 1).conjugate()
        a_ext = dq.bogoliubov_quadrature(chart, w, k, "alpha", ModeRegion.EXT)
        b_ext = dq.bogoliubov_quadrature(chart, w, k, "beta", ModeRegion.EXT)
        assert abs(a_ext - want_alpha) < 1e-10 * abs(want_alpha)
        assert abs(b_ext - want_beta) < 1e-10 * abs(want_beta)


def test_bogoliubov_argument_validation(chart):
    with pytest.raises(ValueError):
        dq.bogoliubov_closed_form(chart, -1.0, 1.0, "alpha")
    with pytest.raises(ValueError):
        dq.bogoliubov_closed_form(chart, 1.0, 1.0, "gamma")


def test_domain_cap_propagates(chart):
    with pytest.raises(dq.DomainCap):
        dq.bogoliubov_closed_form(chart, 1.0, 150.0, "alpha")


def test_modespec_hatted_frequency():
    spec = dq.ModeSpec(dq.Sigma.PLUS, 2.0, dq.Family.DIAMOND_G_INT, dq.DiamondChart(1.5))
    assert spec.omega_hat == 3.0
    with pytest.raises(ValueError):
        dq.ModeSpec(dq.Sigma.PLUS, 0.0, dq.Family.DIAMOND_G_INT, dq.DiamondChart(1.5))

import math
import os
import subprocess
import sys

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
    r = dq.squeezing_from_frequency(chart, omega)
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


@pytest.mark.parametrize("family", [dq.Family.UNRUH_H_INT, dq.Family.UNRUH_H_EXT])
def test_unruh_modes_raise_where_the_squeezing_overflows(family):
    # below omega_hat ~ 7e-309, r = inf, and cosh r * g + sinh r * 0 read NaN
    chart = dq.DiamondChart(1.0)
    p = dq.EventCoords.diamond(0.1, 0.2)
    for omega in (5e-309, 5e-324):
        with pytest.raises(dq.DomainCap, match="the squeezing r overflows"):
            dq.eval_mode(dq.ModeSpec(dq.Sigma.PLUS, omega, family, chart), p)
    value = dq.eval_mode(dq.ModeSpec(dq.Sigma.PLUS, 1e-308, family, chart), p)
    assert math.isfinite(value.real) and math.isfinite(value.imag)


def test_unruh_weights_normalization(chart):
    for omega in (0.2, 1.0, 5.0):
        r = dq.squeezing_from_frequency(chart, omega)
        assert abs(math.cosh(r) ** 2 - math.sinh(r) ** 2 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# squeezing parameter and thermality
# ---------------------------------------------------------------------------

def test_squeezing_special_value(chart):
    omega = (2.0 / math.pi) * math.log(2.0)  # e^{-pi w/2} = 1/2
    r = dq.squeezing_from_frequency(chart, omega)
    assert abs(r - math.atanh(0.5)) < 1e-15


@pytest.mark.parametrize("omega_hat", [1e-12, 1e-8, 1e-4, 1.0, 20.0])
def test_squeezing_matches_mpmath(omega_hat):
    # atanh(exp(-x)) lost ~eps/x relative: 1.2e-6 at omega_hat = 1e-12,
    # 2.7e-11 at 1e-8, 2.2e-15 at 1e-4.  The reference takes the rounded
    # x = pi omega_hat/2, since r inherits x's own rounding x-fold as x grows
    with mp.workdps(40):
        exact = mp.atanh(mp.exp(-mp.mpf(math.pi * omega_hat / 2.0)))
    for r in (dq.squeezing_from_frequency(dq.DiamondChart(1.0), omega_hat),
              dq.r_from_lifetime(2.0, omega_hat)):
        assert abs(r - exact) <= 1e-15 * exact


def test_squeezing_decreasing_and_vanishing(chart):
    rs = [dq.squeezing_from_frequency(chart, w) for w in (0.1, 0.5, 1, 5, 20, 200)]
    assert all(b < a for a, b in zip(rs, rs[1:]))
    assert rs[-1] < 1e-130


test_boltzmann_identity = lookup("thermality")


def test_thermal_occupation_identities(chart):
    for wh in (0.1, 0.7, 3.0, 20.0):
        n = dq.thermal_occupation(chart, wh)
        r = dq.squeezing_from_frequency(chart, wh)
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


def _interior_closed_40(chart, w, k, sign):
    """Interior coefficient from the Kummer closed form at 40 digits:
    alpha for sign = +1, beta for sign = -1."""
    with mp.workdps(40):
        m = mp.hyp1f1(mp.mpc(1, -w / 2), 2, mp.mpc(0, 2 * sign * k))
        pref = mp.mpf(chart.alpha) / 2 * mp.sqrt(w * k) / mp.sinh(mp.pi * w / 2)
        return complex(pref * mp.expj(-sign * k) * m)


@pytest.mark.parametrize("w,k", [(0.5, 99.0), (0.5, 30.0), (2.0, 50.0)])
def test_exterior_quadrature_at_large_k(chart, w, k):
    # the identity of the test above, at k past its draws; the legs' lower
    # cutoff ignored k, and at (0.5, 99) alpha was 2.6e-10 off and beta 1.5e-10
    tanh_r = math.exp(-math.pi * w / 2.0)
    want_alpha = -_interior_closed_40(chart, w, k, -1).conjugate() / tanh_r
    want_beta = -tanh_r * _interior_closed_40(chart, w, k, 1).conjugate()
    a_ext = dq.bogoliubov_quadrature(chart, w, k, "alpha", ModeRegion.EXT)
    b_ext = dq.bogoliubov_quadrature(chart, w, k, "beta", ModeRegion.EXT)
    assert abs(a_ext - want_alpha) < 1e-10 * abs(want_alpha)
    assert abs(b_ext - want_beta) < 1e-10 * abs(want_beta)


@pytest.mark.parametrize("w,k", [(8.0, 50.0), (8.0, 8.0), (7.0, 19.1), (1.305, 16.28)])
def test_interior_beta_quadrature_does_not_cancel(chart, w, k):
    # fault Q: on the real line beta is a near-total cancellation, and these
    # came out 3.9e-8, 1.2e-8, 5.2e-9 and 3.7e-9 off
    want = _interior_closed_40(chart, w, k, -1)
    got = dq.bogoliubov_quadrature(chart, w, k, "beta")
    assert abs(got - want) < 1e-10 * abs(want)


def test_interior_beta_rounding_floor_raises_with_estimate(chart):
    # |beta| ~ e^{-25 pi} at omega_hat = 50, far below the rounding of the legs
    with pytest.raises(dq.NonConvergence) as err:
        dq.bogoliubov_quadrature(chart, 50.0, 1.0, "beta")
    assert err.value.best_estimate is not None
    assert err.value.error_bound is not None


# fault Q's interior alpha points and three more of the design domain; the
# first three came out 2.0e-9, 5.8e-10 and 2.5e-10 off on the tanh map
ALPHA_FIXED_POINTS = [(0.0101, 59.72), (0.0248, 62.89), (0.985, 24.14), (1.0, 99.0), (8.0, 1.0), (8.0, 50.0)]


def test_interior_alpha_quadrature_raises_or_meets_rel_tol(chart):
    # over the design domain, omega_hat log-uniform on [0.01, 8] and k_hat
    # uniform on [0.05, 99]: each call returns within rel_tol of the 40-digit
    # closed form or raises NonConvergence, and at most 1 % raise.  (0.0101,
    # 59.72) raises: its integral is ~1e-4 against int |f| = 2
    rng = np.random.default_rng(2718)
    points = ALPHA_FIXED_POINTS + [
        (math.exp(rng.uniform(math.log(0.01), math.log(8.0))), rng.uniform(0.05, 99.0)) for _ in range(100)
    ]
    raised = []
    for w, k in points:
        want = _interior_closed_40(chart, w, k, 1)
        try:
            got = dq.bogoliubov_quadrature(chart, w, k, "alpha")
        except dq.NonConvergence:
            raised.append((w, k))
            continue
        assert abs(got - want) < 1e-10 * abs(want), (w, k)
    assert len(raised) <= 0.01 * len(points), raised


@pytest.mark.parametrize("k", [1e5, 1e20, 1e100, 1e150, 1e200, 1e300])
@pytest.mark.parametrize("w", [1.0, 8.0])
def test_interior_beta_quadrature_at_huge_k(chart, w, k):
    # the legs' phase took log1p(4/y^2), and y*y underflowed past k ~ 1e150:
    # 16 passes of nan, a flood of RuntimeWarnings and NonConvergence
    want = _interior_closed_40(chart, w, k, -1)
    got = dq.bogoliubov_quadrature(chart, w, k, "beta")
    assert abs(got - want) < 1e-10 * abs(want)


def test_quadrature_memory_is_bounded():
    # alpha at (1, 1e5) evaluates two passes of ~9.8e5 points each before
    # its rounding check raises; at ~5.9e6 points a pass as one array
    # peaked at 435 MB
    code = (
        "import resource\n"
        "import diamondqi as dq\n"
        "try:\n"
        "    dq.bogoliubov_quadrature(dq.DiamondChart(1.0), 1.0, 1e5, 'alpha')\n"
        "except dq.NonConvergence:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    assert int(out) < 150 * 1024  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize("rel_tol", [0.0, -1e-10, 1.0, 1e3, math.nan])
@pytest.mark.parametrize("kind,region", [("alpha", ModeRegion.INT), ("beta", ModeRegion.INT),
                                         ("beta", ModeRegion.EXT)])
def test_quadrature_rejects_rel_tol_outside_unit_interval(chart, rel_tol, kind, region):
    # past rel_tol ~ e^{5 + w} the legs' upper cut took the log of a negative
    # number and raised a bare math domain error
    with pytest.raises(ValueError, match="rel_tol"):
        dq.bogoliubov_quadrature(chart, 0.01, 2.0, kind, region, rel_tol=rel_tol)


@pytest.mark.parametrize("arg", ["omega_hat", "k_hat"])
@pytest.mark.parametrize("kind,region", [("alpha", ModeRegion.INT), ("beta", ModeRegion.INT),
                                         ("alpha", ModeRegion.EXT), ("beta", ModeRegion.EXT)])
def test_bogoliubov_rejects_an_infinite_frequency(chart, arg, kind, region):
    # inf passed the positivity check: the quadrature raised NonConvergence or a
    # bare math domain error, and the closed form DomainCap |z| = inf
    args = {"omega_hat": 1.0, "k_hat": 0.5, arg: math.inf}
    routes = [dq.bogoliubov_quadrature]
    if region is ModeRegion.INT:
        routes.append(dq.bogoliubov_closed_form)
    for route in routes:
        with pytest.raises(ValueError, match=f"^{arg} must be finite"):
            route(chart, args["omega_hat"], args["k_hat"], kind, region)


@pytest.mark.parametrize("w,k,kind,region,most", [
    # on the tanh map the exterior sides took 15 490 points here
    (1.0, 0.5, "alpha", ModeRegion.EXT, 1000),
    (1.0, 0.5, "beta", ModeRegion.EXT, 1000),
    # at 12 points per wavelength interior alpha took 23 469
    (1.0, 99.0, "alpha", ModeRegion.INT, 5000),
])
def test_quadrature_node_count(chart, monkeypatch, w, k, kind, region, most):
    # the first spacings are sized to the integrand's strip of analyticity,
    # so the loop stops after three or four passes: 794 points for the two
    # exterior sides together and 3 913 for interior alpha at k = 99
    from diamondqi import specfun

    seen = [0]
    pass_sum = specfun._pass_sum

    def counted(g, a, h, n, rounding):
        seen[0] += n
        return pass_sum(g, a, h, n, rounding)

    monkeypatch.setattr(specfun, "_pass_sum", counted)
    dq.bogoliubov_quadrature(chart, w, k, kind, region)
    assert 0 < seen[0] <= most


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

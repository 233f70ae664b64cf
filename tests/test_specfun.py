import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from diamondqi.errors import DomainCap, NonConvergence
from diamondqi.specfun import (
    KummerParams,
    QuadratureSpec,
    kummer_m,
    oscillatory_integral,
    oscillatory_integral_with_error,
)
from test_invariants import lookup


def kummer_oracle(a, b, z, dps=50):
    """Term-by-term summation in arbitrary precision (independent route)."""
    with mp.workdps(dps):
        t = mp.mpc(1)
        s = mp.mpc(1)
        for n in range(200_000):
            t = t * (mp.mpc(a) + n) * mp.mpc(z) / ((mp.mpc(b) + n) * (n + 1))
            s += t
            if n > abs(z) and abs(t) < mp.mpf(10) ** (-(dps - 2)) * abs(s):
                break
        return complex(s)


test_kummer_at_zero_is_one = lookup("kummer-identities")
test_kummer_classical_identity = lookup("kummer-identities")


def test_kummer_against_high_precision_oracle():
    got = kummer_m(KummerParams(1 - 0.5j, 2.0, 2.6j))
    ref = kummer_oracle(1 - 0.5j, 2, 2.6j)
    assert abs(got - ref) / abs(ref) < 1e-13


@pytest.mark.parametrize("x", [0.5, 3.0, 11.5, 12.5, 20.0, 35.0, 44.5, 45.5, 70.0, 120.0, 199.0])
@pytest.mark.parametrize("w", [0.2, 1.0, 4.0, 16.0])
def test_kummer_all_branches_meet_tolerance(x, w):
    # oracle precision sized to the cancellation so it stays the stronger route
    a = 1 - 0.5j * w
    got = kummer_m(KummerParams(a, 2.0, 1j * x))
    ref = kummer_oracle(a, 2, 1j * x, dps=max(50, int(60 + 0.5 * x)))
    assert abs(got - ref) / abs(ref) < 1e-10


def series_condition(a, b, z):
    """sum |t_n| / |M| of the Maclaurin series: the cancellation it suffers."""
    with mp.workdps(30):
        t = total = mp.mpf(1)
        n = 0
        while n <= abs(z) or t > mp.mpf(10) ** -20 * total:
            t *= abs((mp.mpc(a) + n) * mp.mpc(z) / ((mp.mpc(b) + n) * (n + 1)))
            total += t
            n += 1
        return float(total / abs(mp.hyp1f1(a, b, z)))


@pytest.mark.parametrize("w, k", [(5.974, 5.7), (6.0, 5.95)])
def test_kummer_ill_conditioned_beta_points(w, k):
    # the complex128 series lost 7.8e-9 and 2.5e-10 here, at |z| < 12
    a, z = 1 - 0.5j * w, -2j * k
    ref = kummer_oracle(a, 2, z)
    assert abs(kummer_m(KummerParams(a, 2.0, z)) - ref) / abs(ref) < 1e-10


def test_kummer_ill_conditioned_scan():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 12:
        a = 1 - 0.5j * rng.uniform(2.0, 8.0)
        z = 1j * rng.choice([-1.0, 1.0]) * rng.uniform(6.0, 12.0)
        if series_condition(a, 2, z) <= 1e6:
            continue
        ref = kummer_oracle(a, 2, z)
        assert abs(kummer_m(KummerParams(a, 2.0, z)) - ref) / abs(ref) < 1e-10
        checked += 1


def test_kummer_ignores_global_mpmath_precision():
    points = [KummerParams(1 - 0.5j * w, 2.0, 1j * x) for w in (0.2, 6.0) for x in (-11.4, 3.0, 30.0, 150.0)]
    base = [kummer_m(p) for p in points]
    saved = mp.mp.dps
    try:
        for dps in (5, 50):
            mp.mp.dps = dps
            assert [kummer_m(p) for p in points] == base
    finally:
        mp.mp.dps = saved


def test_kummer_maps_mpmath_nonconvergence(monkeypatch):
    def stalled(*args, **kwargs):
        raise mp.libmp.NoConvergence("stalled")

    monkeypatch.setattr(mp, "hyp1f1", stalled)
    with pytest.raises(NonConvergence):
        kummer_m(KummerParams(1 - 0.5j, 2.0, 3j))


def test_package_import_leaves_mpmath_unloaded():
    # only kummer_m needs mpmath; map, figures, entanglement and state skip it
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = "import sys, diamondqi, diamondqi.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_kummer_domain_cap():
    with pytest.raises(DomainCap):
        kummer_m(KummerParams(1 - 0.5j, 2.0, 300j))
    # configurable cap
    with pytest.raises(DomainCap):
        kummer_m(KummerParams(1 - 0.5j, 2.0, 40j), z_cap=30.0)


def test_kummer_rejects_nonpositive_integer_b():
    with pytest.raises(ValueError):
        KummerParams(1.0, 0.0, 1j)
    with pytest.raises(ValueError):
        KummerParams(1.0, -3.0, 1j)


def test_kummer_contiguous_relation(rng):
    for _ in range(25):
        w = rng.uniform(0.2, 8.0)
        x = rng.uniform(0.2, 10.0)
        a, b, z = 1 - 0.5j * w, 2.0 + 0.0j, 1j * x
        res = (
            (b - a) * kummer_m(KummerParams(a - 1, b, z))
            + (2 * a - b + z) * kummer_m(KummerParams(a, b, z))
            - a * kummer_m(KummerParams(a + 1, b, z))
        )
        assert abs(res) < 1e-8


def test_kummer_conjugation_symmetry(rng):
    for _ in range(20):
        a = 1 - 0.5j * rng.uniform(0.2, 6.0)
        z = 1j * rng.uniform(0.2, 10.0)
        lhs = kummer_m(KummerParams(a, 2.0, z)).conjugate()
        rhs = kummer_m(KummerParams(a.conjugate(), 2.0, z.conjugate()))
        assert lhs == rhs  # conjugating inputs conjugates every float op


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

test_quadrature_plane_wave_closed_form = lookup("quadrature-closed-forms")
test_quadrature_zero_integrand = lookup("quadrature-closed-forms")


def test_quadrature_matches_bogoliubov_bracket():
    # int_{-1}^{1} ((1+u)/(1-u))^{-i w/2} e^{i k u} du against its Kummer value
    w, k = 1.0, 1.0
    f = lambda u: np.exp(-1j * (w / 2) * (np.log1p(u) - np.log1p(-u)) + 1j * k * u)
    got = oscillatory_integral(f, QuadratureSpec(-1.0, 1.0, rel_tol=1e-11, oscillation_hint=w + k))
    bracket = (
        math.pi * w / math.sinh(math.pi * w / 2)
        * np.exp(-1j * k)
        * kummer_m(KummerParams(1 - 0.5j * w, 2.0, 2j * k))
    )
    assert abs(got - bracket) / abs(bracket) < 1e-9


def test_quadrature_tolerance_halving_consistency():
    k = 7.0
    f = lambda u: np.exp(1j * k * u) / (1.0 + u * u)
    v1, e1 = oscillatory_integral_with_error(f, QuadratureSpec(-1.0, 1.0, 1e-8, oscillation_hint=k))
    v2, _ = oscillatory_integral_with_error(f, QuadratureSpec(-1.0, 1.0, 5e-9, oscillation_hint=k))
    assert abs(v1 - v2) <= max(e1, 1e-8 * abs(v1))


def test_quadrature_determinism():
    k = 5.0
    spec = QuadratureSpec(0.0, 2.0, 1e-10, oscillation_hint=k)
    f = lambda u: np.exp(1j * k * u) * np.cos(u)
    assert oscillatory_integral(f, spec) == oscillatory_integral(f, spec)


def test_quadrature_nonconvergence_carries_estimate():
    # absurdly tight tolerance with a tiny subdivision budget
    f = lambda u: np.exp(40j * u)
    with pytest.raises(NonConvergence) as err:
        oscillatory_integral(f, QuadratureSpec(0.0, 1.0, 1e-15, max_subdivisions=1, oscillation_hint=0.1))
    assert err.value.best_estimate is not None
    assert err.value.error_bound is not None


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(1.0, 0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(0.0, 1.0, rel_tol=0.0)

import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from diamondqi import specfun
from diamondqi.errors import DomainCap, NonConvergence
from diamondqi.specfun import KummerParams, _nested_trapezoid, kummer_m
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


def sech2_wave(w):
    """e^{i w s} sech^2 s, whose integral over the real line is
    pi w/sinh(pi w/2); past |s| = 18 it is below 1e-15."""
    return lambda s: np.exp(1j * w * s) / np.cosh(s) ** 2


def sech2_wave_integral(w):
    with mp.workdps(30):
        return complex(mp.pi * w / mp.sinh(mp.pi * w / 2))


def test_quadrature_matches_bogoliubov_bracket():
    # int_{-1}^{1} ((1+u)/(1-u))^{-i w/2} e^{i k u} du in s = atanh u,
    # int e^{i(k tanh s - w s)} sech^2 s ds, against its Kummer value
    w, k = 1.0, 1.0
    f = lambda s: np.exp(1j * (k * np.tanh(s) - w * s)) / np.cosh(s) ** 2
    got, _ = _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-11)
    bracket = (
        math.pi * w / math.sinh(math.pi * w / 2)
        * np.exp(-1j * k)
        * kummer_m(KummerParams(1 - 0.5j * w, 2.0, 2j * k))
    )
    assert abs(got - bracket) / abs(bracket) < 1e-9


def test_quadrature_tolerance_halving_consistency():
    f = sech2_wave(7.0)
    v1, e1 = _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-8)
    v2, _ = _nested_trapezoid(f, -18.0, 18.0, 0.5, 5e-9)
    assert abs(v1 - v2) <= max(e1, 1e-8 * abs(v1))


def test_quadrature_determinism():
    f = sech2_wave(5.0)
    assert _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-10) == _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-10)


def test_quadrature_nonconvergence_carries_estimate(monkeypatch):
    # an absurdly tight tolerance on a small node budget
    monkeypatch.setattr(specfun, "QUAD_NODE_BUDGET", 200)
    with pytest.raises(NonConvergence) as err:
        _nested_trapezoid(sech2_wave(40.0), -18.0, 18.0, 0.5, 1e-15)
    assert err.value.best_estimate is not None
    assert err.value.error_bound is not None


def test_quadrature_spec_validation():
    # the interval and the tolerance of a call
    f = sech2_wave(1.0)
    with pytest.raises(ValueError):
        _nested_trapezoid(f, 1.0, 0.0, 0.5, 1e-10)
    with pytest.raises(ValueError):
        _nested_trapezoid(f, 0.0, 1.0, 0.5, 0.0)


@pytest.mark.parametrize("lo,hi,rel_tol", [(0.0, 1.0, math.inf), (0.0, 1.0, math.nan),
                                           (-math.inf, 1.0, 1e-10), (0.0, math.inf, 1e-10)])
def test_quadrature_spec_rejects_non_finite_values(lo, hi, rel_tol):
    # a nan rel_tol would refine to the node budget, and an inf one returns
    # after the first halving
    with pytest.raises(ValueError):
        _nested_trapezoid(sech2_wave(1.0), lo, hi, 0.5, rel_tol)


def test_quadrature_chunks_keep_nodes_and_value(monkeypatch):
    # a pass longer than QUAD_CHUNK is evaluated chunk by chunk on the same
    # nodes; only the order of the sum changes
    g = sech2_wave(3.0)
    whole, _ = _nested_trapezoid(g, -18.0, 18.0, 0.5, 1e-12)
    seen = []

    def f(s):
        seen.append(s.size)
        return g(s)

    monkeypatch.setattr(specfun, "QUAD_CHUNK", 7)
    chunked, _ = _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-12)
    assert max(seen) == 7 and sum(seen) > 7
    assert abs(chunked - whole) < 1e-14 * abs(whole)
    assert abs(chunked - sech2_wave_integral(3.0)) < 1e-12 * abs(whole)


def test_quadrature_stops_at_the_node_budget(monkeypatch):
    # an unreachable tolerance stops at the budget with its estimate so far,
    # and a first pass larger than the budget is not started
    monkeypatch.setattr(specfun, "QUAD_NODE_BUDGET", 5000)
    seen = [0]

    def f(u):
        # not negligible at the end u = 1, which carries full weight: the
        # error falls only like the spacing
        seen[0] += u.size
        return u * u + 0j

    with pytest.raises(NonConvergence) as err:
        _nested_trapezoid(f, 0.0, 1.0, 0.5, 1e-12)
    assert 2500 < seen[0] <= 5000
    assert err.value.best_estimate is not None and err.value.error_bound is not None
    seen[0] = 0
    with pytest.raises(NonConvergence) as err:
        _nested_trapezoid(f, 0.0, 1.0, 1e-6, 1e-10)
    assert seen[0] == 0 and err.value.best_estimate is None


@pytest.mark.parametrize("rounding", [False, True])
def test_quadrature_raises_at_once_on_a_non_finite_pass(rounding):
    # a nan integrand refined until the subdivision cap, and without the cap
    # it would run on to the node budget
    seen = [0]

    def f(s):
        seen[0] += s.size
        vals = np.where(s > 1.0, np.nan, 1.0 / np.cosh(s) ** 2)
        return (vals, np.ones_like(s)) if rounding else vals

    with pytest.raises(NonConvergence, match="not finite"):
        _nested_trapezoid(f, -18.0, 18.0, 0.5, 1e-10, rounding=rounding)
    assert seen[0] == 73

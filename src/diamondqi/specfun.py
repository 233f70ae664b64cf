"""Confluent hypergeometric M(a, b, z) and an oscillatory-quadrature engine.

Only the parameter regime needed downstream is targeted: complex ``a``,
real ``b`` (= 2 in practice), and purely imaginary ``z`` up to the magnitude
cap ``Z_CAP``.  ``kummer_m`` has one route for every z: ``mpmath.hyp1f1`` at
53-bit working precision.  Its hypergeometric summation detects the
cancellation of the series (about 0.43*|z| digits for imaginary arguments)
and raises its internal precision to compensate, so the result is correct to
double precision; pinning the working precision keeps a caller's global
``mp.dps`` from changing it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainCap, NonConvergence

Z_CAP = 200.0
# integrand points one oscillatory integral may evaluate, 2.4 times the
# 3.5e6 of the largest call in the tests, the selftest and the seeded
# Bogoliubov benchmark grid: the interior beta coefficient at
# (omega_hat, k_hat) = (8, 50)
QUAD_NODE_BUDGET = 2 ** 23


@dataclass(frozen=True)
class KummerParams:
    """Arguments of M(a, b, z)."""

    a: complex
    b: complex
    z: complex

    def __post_init__(self):
        b = complex(self.b)
        if b.imag == 0.0 and b.real <= 0.0 and b.real == int(b.real):
            raise ValueError(f"b={self.b} is a nonpositive integer (pole of M)")


def kummer_m(params: KummerParams) -> complex:
    """M(a, b, z) with relative error <= 1e-10 for |z| <= Z_CAP.

    Raises DomainCap beyond the cap and NonConvergence if mpmath's summation
    does not converge.
    """
    a, b, z = complex(params.a), complex(params.b), complex(params.z)
    if z == 0:
        return 1.0 + 0.0j
    absz = abs(z)
    if absz > Z_CAP:
        raise DomainCap(f"|z| = {absz:.3g} exceeds the validated cap {Z_CAP:.3g}")
    # imported here, so that the modules that never call it skip mpmath's
    # import time
    import mpmath as mp
    from mpmath.libmp import NoConvergence as _MpNoConvergence

    try:
        with mp.workprec(53):
            return complex(mp.hyp1f1(a, b, z))
    except _MpNoConvergence as exc:
        raise NonConvergence(f"mpmath hyp1f1 did not converge: {exc}") from exc


# ---------------------------------------------------------------------------
# oscillatory quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureSpec:
    """Interval and tolerances for the oscillatory-integral engine.

    ``oscillation_hint`` is the dominant frequency of the integrand in its
    own variable; it only sets the initial node density, the refinement loop
    corrects underestimates.
    """

    lo: float
    hi: float
    rel_tol: float = 1e-10
    max_subdivisions: int = 12
    oscillation_hint: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("require finite lo < hi")
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise ValueError("require finite rel_tol > 0")


def oscillatory_integral_with_error(f, spec: QuadratureSpec):
    """Adaptive tanh-rule integral of a (vectorized) complex integrand.

    The interval is mapped through u = m + w*tanh(s), which turns the
    endpoint phases of unit-modulus type (1 -/+ u)^(+/- i w/2) into plain
    Fourier factors in s and gives the trapezoid rule geometric convergence.
    Nested halving supplies the error estimate.  Returns (value, estimate).
    Raises NonConvergence, with the best estimate so far, before a pass that
    would take the integrand points evaluated past QUAD_NODE_BUDGET.
    """
    w = 0.5 * (spec.hi - spec.lo)
    m = 0.5 * (spec.hi + spec.lo)
    S = 0.5 * np.log(40.0 / spec.rel_tol) + 2.0

    def g(s):
        sech2 = 1.0 / np.cosh(s) ** 2
        return np.asarray(f(m + w * np.tanh(s)), dtype=complex) * (w * sech2)

    nu = max(1.0, abs(spec.oscillation_hint) * max(w, 1.0))
    h = min(0.5, np.pi / (6.0 * nu))
    if not 2.0 * S / QUAD_NODE_BUDGET < h:
        raise NonConvergence(f"the first pass alone exceeds the budget of {QUAD_NODE_BUDGET} integrand points")
    npts = int(np.ceil(2.0 * S / h)) + 1
    nodes = npts
    h = 2.0 * S / (npts - 1)
    s = -S + h * np.arange(npts)
    total = g(s).sum()
    value = h * total
    prev = value
    est = np.inf
    good = 0
    for _ in range(spec.max_subdivisions):
        nodes += npts - 1
        if nodes > QUAD_NODE_BUDGET:
            break
        mid = -S + 0.5 * h + h * np.arange(npts - 1)
        total = total + g(mid).sum()
        h *= 0.5
        npts = 2 * npts - 1
        value = h * total
        est = abs(value - prev)
        scale = max(abs(value), 1e-300)
        if est <= spec.rel_tol * scale:
            good += 1
            if good >= 2:
                return complex(value), float(est)
        else:
            good = 0
        prev = value
    raise NonConvergence(
        "oscillatory integral failed to reach rel_tol within the subdivision and node budgets",
        best_estimate=complex(value),
        error_bound=float(est),
    )


def oscillatory_integral(f, spec: QuadratureSpec) -> complex:
    """Value-only wrapper around :func:`oscillatory_integral_with_error`."""
    value, _ = oscillatory_integral_with_error(f, spec)
    return value

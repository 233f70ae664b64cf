"""Confluent hypergeometric M(a, b, z) and an oscillatory-quadrature engine.

Only the parameter regime needed downstream is targeted: complex ``a``,
real ``b`` (= 2 in practice), and purely imaginary ``z`` up to the magnitude
cap ``Z_CAP``.  ``kummer_m`` has one route for every z: ``mpmath.hyp1f1`` at
53-bit working precision.  Its hypergeometric summation detects the
cancellation of the series (about 0.43*|z| digits for imaginary arguments)
and raises its internal precision to compensate, so the result is correct to
double precision; pinning the working precision keeps a caller's global
``mp.dps`` from changing it.

The quadrature engine is one nested-halving trapezoid loop,
``_nested_trapezoid``, which evaluates each pass in chunks of ``QUAD_CHUNK``
points and stops at ``QUAD_NODE_BUDGET``.  ``oscillatory_integral_with_error``
runs it on a tanh map of a finite interval; of the Bogoliubov coefficients
only interior alpha takes that route.  ``modes`` runs the loop directly, in
p = ln y, on the steepest-descent legs of interior beta, where it raises
once rounding alone misses the tolerance, and on each side of the exterior
contour.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainCap, NonConvergence

Z_CAP = 200.0
# integrand points one integral may evaluate.  The largest call that
# returns in the tests, the selftest and the seeded Bogoliubov benchmark
# grid takes 3 913: interior alpha at (omega_hat, k_hat) = (1, 99)
QUAD_NODE_BUDGET = 2 ** 23
# integrand points evaluated at once; a longer pass is summed chunk by
# chunk, which bounds a call's memory.  The largest pass of those calls,
# 1 956 points in the same one, fits in one chunk, so their sums keep the
# order of a single array's
QUAD_CHUNK = 2 ** 16
_EPS = np.finfo(float).eps


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


def _pass_sum(g, a, h, n, rounding):
    """Sums over the nodes a + h*j, j < n, evaluated QUAD_CHUNK at a time:
    of g, and with ``rounding`` set, of the bound g returns beside it."""
    total = bound = 0.0
    for start in range(0, n, QUAD_CHUNK):
        x = a + h * np.arange(start, min(start + QUAD_CHUNK, n))
        vals, err = g(x) if rounding else (g(x), None)
        # the first chunk's sum is taken as it is, so a pass of one chunk
        # sums exactly as one array does
        total = vals.sum() if start == 0 else total + vals.sum()
        if rounding:
            bound += err.sum()
    return total, bound


def _nested_trapezoid(g, lo, length, h, spec: QuadratureSpec, rounding=False):
    """Trapezoid sum of g over [lo, lo + length], refined by nested halving.

    g must be negligible at both ends, which therefore carry full weight.
    ``h`` is the first spacing, rounded down to divide ``length``.  The
    difference of consecutive passes is the error estimate; two consecutive
    passes within ``spec.rel_tol`` of |value| end the loop.  Returns (value,
    estimate).

    With ``rounding`` set, g returns a pair: the integrand and a bound on its
    rounding in units of eps.  A pass whose summed bound exceeds
    rel_tol*|value| raises NonConvergence with its estimate, since rounding
    alone then misses rel_tol.  Raises NonConvergence, with the best estimate
    so far, before a pass that would take the integrand points evaluated
    past QUAD_NODE_BUDGET.
    """
    if not length / QUAD_NODE_BUDGET < h:
        raise NonConvergence(f"the first pass alone exceeds the budget of {QUAD_NODE_BUDGET} integrand points")
    npts = int(np.ceil(length / h)) + 1
    nodes = npts
    h = length / (npts - 1)
    total, bound = _pass_sum(g, lo, h, npts, rounding)
    value = h * total
    prev = value
    est = np.inf
    good = 0
    for _ in range(spec.max_subdivisions):
        nodes += npts - 1
        if nodes > QUAD_NODE_BUDGET:
            break
        mid_total, mid_bound = _pass_sum(g, lo + 0.5 * h, h, npts - 1, rounding)
        total = total + mid_total
        bound += mid_bound
        h *= 0.5
        npts = 2 * npts - 1
        value = h * total
        est = abs(value - prev)
        scale = max(abs(value), 1e-300)
        floor = _EPS * h * bound
        if floor > spec.rel_tol * scale:
            raise NonConvergence(
                f"rounding of up to {floor:.3g} misses rel_tol at |value| = {abs(value):.3g}",
                best_estimate=complex(value),
                error_bound=float(max(est, floor)),
            )
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


def oscillatory_integral_with_error(f, spec: QuadratureSpec):
    """Adaptive tanh-rule integral of a (vectorized) complex integrand.

    The interval is mapped through u = m + w*tanh(s), which turns the
    endpoint phases of unit-modulus type (1 -/+ u)^(+/- i w/2) into plain
    Fourier factors in s and gives the trapezoid rule geometric convergence.
    Nested halving (:func:`_nested_trapezoid`) supplies the error estimate.
    Returns (value, estimate).  Raises NonConvergence, with the best estimate
    so far, before a pass that would take the integrand points evaluated past
    QUAD_NODE_BUDGET.
    """
    w = 0.5 * (spec.hi - spec.lo)
    m = 0.5 * (spec.hi + spec.lo)
    S = 0.5 * np.log(40.0 / spec.rel_tol) + 2.0

    def g(s):
        sech2 = 1.0 / np.cosh(s) ** 2
        return np.asarray(f(m + w * np.tanh(s)), dtype=complex) * (w * sech2)

    # In s a phase k*u becomes k*w*tanh(s), and nu bounds how fast g's phase
    # turns.  g is analytic for |Im s| < pi/2, and on the line Im s = a the
    # tanh term grows by up to e^{nu tan a}, not e^{nu a}.  A spacing
    # h = pi/(c nu) puts the first alias at 2c*nu, so the trapezoid error is
    # about exp(-nu max_a (2c a - tan a)), which falls with nu only for
    # c > 1/2.  The loop takes at least three passes, so the cheapest start
    # is the coarsest pass that already meets rel_tol.  c = 1 leaves the
    # first alias a full nu clear of g's band: its error is e^{-0.57 nu},
    # under 1e-10 once nu > 40, and each halving doubles c (e^{-2.46 nu} at
    # c = 2, e^{-7.0 nu} at c = 4).  A start at c = 2 takes about as many
    # points below nu ~ 40 and twice as many above.
    nu = max(1.0, abs(spec.oscillation_hint) * max(w, 1.0))
    h = min(0.5, np.pi / nu)
    return _nested_trapezoid(g, -S, 2.0 * S, h, spec)


def oscillatory_integral(f, spec: QuadratureSpec) -> complex:
    """Value-only wrapper around :func:`oscillatory_integral_with_error`."""
    value, _ = oscillatory_integral_with_error(f, spec)
    return value

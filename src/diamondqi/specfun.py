"""Confluent hypergeometric M(a, b, z) and the one quadrature loop.

Only the parameter regime needed downstream is targeted: complex ``a``,
real ``b`` (= 2 in practice), and purely imaginary ``z`` up to the magnitude
cap ``Z_CAP``.  ``kummer_m`` has one route for every z: ``mpmath.hyp1f1`` at
53-bit working precision.  Its hypergeometric summation detects the
cancellation of the series (about 0.43*|z| digits for imaginary arguments)
and raises its internal precision to compensate, so the result is correct to
double precision; pinning the working precision keeps a caller's global
``mp.dps`` from changing it.

Every quadrature is one nested-halving trapezoid loop, ``_nested_trapezoid``,
which evaluates each pass in chunks of ``QUAD_CHUNK`` points, raises once a
pass sum is not finite, and stops at ``QUAD_NODE_BUDGET``.  ``modes`` runs
it on each Bogoliubov integrand in that integrand's own variable: interior
alpha in s = atanh u, the steepest-descent legs of interior beta and each
side of the exterior contour in p = ln y.  Interior alpha and beta pass a
per-node rounding bound, so the loop raises once rounding alone misses the
tolerance.
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
# quadrature
# ---------------------------------------------------------------------------

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
    if not (np.isfinite(total) and np.isfinite(bound)):
        raise NonConvergence(f"the integrand is not finite on [{a:.6g}, {a + h * (n - 1):.6g}]")
    return total, bound


def _nested_trapezoid(g, lo, hi, h, rel_tol, rounding=False):
    """Trapezoid sum of g over [lo, hi], refined by nested halving.

    g must be negligible at both ends, which therefore carry full weight.
    ``h`` is the first spacing, rounded down to divide hi - lo.  The
    difference of consecutive passes is the error estimate; two consecutive
    passes within rel_tol of |value| end the loop.  Returns (value,
    estimate).  Raises ValueError unless lo < hi are finite and
    0 < rel_tol < 1.

    With ``rounding`` set, g returns a pair: the integrand and a bound on its
    rounding in units of eps.  A pass whose summed bound exceeds
    rel_tol*|value| raises NonConvergence with its estimate, since rounding
    alone then misses rel_tol.  Raises NonConvergence at once on a pass whose
    sum is not finite, and, with the best estimate so far, before a pass that
    would take the integrand points evaluated past QUAD_NODE_BUDGET.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("require finite lo < hi")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    length = hi - lo
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
    while nodes + npts - 1 <= QUAD_NODE_BUDGET:
        nodes += npts - 1
        mid_total, mid_bound = _pass_sum(g, lo + 0.5 * h, h, npts - 1, rounding)
        total = total + mid_total
        bound += mid_bound
        h *= 0.5
        npts = 2 * npts - 1
        value = h * total
        est = abs(value - prev)
        scale = max(abs(value), 1e-300)
        floor = _EPS * h * bound
        if floor > rel_tol * scale:
            raise NonConvergence(
                f"rounding of up to {floor:.3g} misses rel_tol at |value| = {abs(value):.3g}",
                best_estimate=complex(value),
                error_bound=float(max(est, floor)),
            )
        if est <= rel_tol * scale:
            good += 1
            if good >= 2:
                return complex(value), float(est)
        else:
            good = 0
        prev = value
    raise NonConvergence(
        f"the trapezoid sum failed to reach rel_tol within {QUAD_NODE_BUDGET} integrand points",
        best_estimate=complex(value),
        error_bound=float(est),
    )

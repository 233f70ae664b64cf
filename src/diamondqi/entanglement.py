"""Entanglement and correlation measures with closed-form series primaries.

The partial-transpose spectrum, logarithmic negativity, entropies, and
mutual information are all sums over the two-mode series of ``states``.  One
engine, ``_series``, sums them for every r >= states._R_LIMIT (below that
the r = 0 values stand in, to within r):

* the first K = 512 terms are summed directly, in one vectorized pass;
  where 64 past the blocks that leave a tail below 1e-15 fit in K (r up to
  ~1.934) the sum stops there;
* past that the weight spreads over ~cosh^2 r Fock levels, and the terms
  from t = K on are an Euler-Maclaurin tail: an integral over a 64-node
  Gauss-Legendre table built once at import, plus end corrections from
  stencils on the head.  Reports with a tail carry n_max_used = 0.

Every call costs at most K + 1 + 64 summands, and the measures match a
30-digit mpmath sum to ~3e-15 relative on r in [0.1, 12].  The measures
of an explicit Fock truncation are the same sums over the retained Dave
levels 0..n_max, with N and log N from the closed-form eigenvalues of its
``states.PartialTranspose``; ``ppt_spectrum_oracle`` assembles the same
operator's entries and diagonalizes it numerically, block by block over the
blocks of the entries' own nonzero pattern, without forming the full matrix.

A useful exact rearrangement: the block traces of the partial transpose
telescope to 1, so the trace norm is 1 + D with
D = sum_n w_n (sqrt(T_n^2 + B) - T_n) >= 0, T_n = n/sinh^2 r + q,
B = 4/cosh^2 r.  The log-negativity log2(1 + D) is then manifestly
nonnegative, and each summand is evaluated as w_n B/(sqrt(T_n^2 + B) + T_n),
which does not cancel when B << T_n^2 at large r.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .geometry import _squeezing_r
from .states import (
    FockTruncation,
    PartialTranspose,
    _as_r,
    _LN2,
    _R_LIMIT,
    _block_eigvalsh,
    _blocks_for,
    _ln_tanh2,
    _log_weights,
    _r_for,
    _trace_tail,
    build_rho_ad,
    partial_transpose,
)

_EPS = float(np.finfo(float).eps)
_SERIES_TOL = 1e-15
# terms summed directly; a series that needs more gets an Euler-Maclaurin
# tail from t = _HEAD, which puts the switch at r ~ 1.934
_HEAD = 512
# Gauss-Legendre panels on [0, 48] in x = (t - _HEAD)/cosh^2 r, each as
# wide as twice its distance to the integrand's nearest singularities, near
# x = -1; past x = 48 the tail is below e^-48
_TAIL_EDGES = np.array([0.0, 2.0, 8.0, 26.0, 48.0])
# the 16-point Gauss-Legendre rule on [-1, 1], bit for bit that of
# numpy.polynomial.legendre.leggauss(16), whose import would pull in
# numpy.polynomial
_GL_NODES = np.array([
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
])
_GL_WEIGHTS = np.array([
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
])
# phi'''(_HEAD)/720 from a 5-point backward stencil on t = _HEAD - 4.._HEAD
_D3 = np.array([3.0, -14.0, 24.0, -18.0, 5.0]) / 1440.0
# the report fields that a truncation moves away from the full series
_MEASURES = ("neg_log", "negativity", "s_d", "s_ad", "mutual_info")


def _tail_table():
    """Gauss-Legendre nodes and weights on the _TAIL_EDGES panels."""
    mid = 0.5 * (_TAIL_EDGES[:-1] + _TAIL_EDGES[1:])[:, None]
    half = 0.5 * np.diff(_TAIL_EDGES)[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


def _head_weights():
    """Weights on t = 0.._HEAD of the head sum plus the Euler-Maclaurin
    corrections phi(K)/2 - phi'(K)/12 + phi'''(K)/720, with phi' from a
    5-point backward stencil."""
    weights = np.ones(_HEAD + 1)
    weights[-1] = 0.5
    weights[-5:] += _D3 - np.array([3.0, -16.0, 36.0, -48.0, 25.0]) / 144.0
    return weights


# built once, at import; the tail nodes are in units of cosh^2 r past _HEAD
_HEAD_W = _head_weights()
_TAIL_X, _TAIL_W = _tail_table()


@dataclass(frozen=True)
class EntanglementReport:
    r: float
    neg_log: float
    negativity: float
    s_a: float
    s_d: float
    s_ad: float
    mutual_info: float
    n_max_used: int
    tail_bound: float


# ---------------------------------------------------------------------------
# closed-form PT spectrum and its numerical oracle
# ---------------------------------------------------------------------------

def ppt_spectrum_closed_form(r, trunc: Optional[FockTruncation] = None) -> PartialTranspose:
    """The partial transpose of rho_AD, whose pairs, all_values() and
    trace_norm() are its eigenvalues in closed form."""
    return partial_transpose(build_rho_ad(r, trunc))


def ppt_spectrum_oracle(r, trunc: Optional[FockTruncation] = None) -> np.ndarray:
    """Sorted eigenvalues of the same partial transpose, assembled as its
    entries and diagonalized numerically block by block, over the blocks of
    those entries' own nonzero pattern; nothing is read from its closed-form
    pairs, and no matrix of the full dimension is formed."""
    return _block_eigvalsh(*partial_transpose(build_rho_ad(r, trunc)).entries())


# ---------------------------------------------------------------------------
# full-series engine
# ---------------------------------------------------------------------------

def _summands(r: float, t: np.ndarray, c2: float, s2: float) -> np.ndarray:
    """Rows (D, S_AD, S_D, I-series) of the four summands at Fock index t.

    w = q^t/(2 c2) is evaluated once, and ln p is taken from ln w, never
    from a rounded or underflowed p.  The D summand w (sqrt(T^2 + B) - T) is
    written w B/(sqrt(T^2 + B) + T), which does not cancel as B = 4/c2 -> 0.
    """
    lw = _log_weights(r, t)
    w = np.exp(lw)
    e = t / s2
    c = (t + 1.0) / c2
    T = e + s2 / c2
    B = 4.0 / c2
    le = np.log1p(e)
    lc = np.log1p(c)
    return np.stack((
        w * B / (np.sqrt(T * T + B) + T),
        -w * (1.0 + c) * (lw + lc) / _LN2,
        -w * (1.0 + e) * (lw + le) / _LN2,
        w * ((1.0 + e) * le - (1.0 + c) * lc) / _LN2,
    ))


def _series(r: float, n_max: Optional[int] = None) -> dict:
    """All measures from the summands: over t < n_max when n_max is given
    (a Fock truncation: no tail, S_D adds Dave's level n_max, and
    I = 1 + S_D - S_AD of those sums), else the full series.

    The full series is summed directly over N = _blocks_for(r, _SERIES_TOL)
    + 64 terms, and tail_bound is the geometric tail past them plus the
    rounding of the sum, sqrt(N) eps S_D.  A series that needs more than
    _HEAD terms is summed directly over t < K = _HEAD, and the rest is Euler-Maclaurin:
    sum_{t >= K} phi ~ int_K phi + phi(K)/2 - phi'(K)/12 + phi'''(K)/720,
    with phi' and phi''' from stencils on the head.  The summands vary on
    the scale cosh^2 r there, so the neglected phi^(5)(K)/30240 and the
    stencil errors lie far below the last correction; tail_bound is that
    correction plus the rounding, and n_max_used is 0.

    Two terms are set from closed forms, because their summands cancel two
    terms of size |ln q| as r -> 0:
    * Dave's eigenvalues p_0 and p_1 are both 1/(2 c2), so S_D's t = 1 term
      is its t = 0 term;
    * I = 1 - 0.5 ln q/ln 2 - sum m_t is summed as 2 - delta.  The t = 1
      Dave part of m_1 is exactly -ln q/(2 c2 ln 2) and m_0 is
      -a_0 log2(2 - q), a_0 = (2 - q)(1 - q)/2.  Folded into the constants,
      they leave delta a sum of terms that all vanish with r, accurate
      relative to itself, so I stays below 2.
    Below _R_LIMIT the r = 0 values stand in, with tail_bound = r.
    """
    if r < _R_LIMIT:
        return {"neg_log": 1.0, "negativity": 0.5, "s_d": 1.0, "s_ad": 0.0,
                "mutual_info": 2.0, "n_max_used": 1, "tail_bound": r}
    c2 = math.cosh(r) ** 2
    s2 = math.sinh(r) ** 2
    lnq = _ln_tanh2(r)
    q = math.exp(lnq)
    n = _blocks_for(r, _SERIES_TOL) + 64 if n_max is None else n_max
    em = n > _HEAD and n_max is None
    t = np.arange(_HEAD + 1 if em else n, dtype=float)
    if em:
        t = np.concatenate((t, _HEAD + c2 * _TAIL_X))
    terms = _summands(r, t, c2, s2)
    terms[2, 1:2] = terms[2, 0]
    terms[3, :2] = 0.0
    if em:
        head = terms[:, :_HEAD + 1]
        sums = head @ _HEAD_W + c2 * (terms[:, _HEAD + 1:] @ _TAIL_W)
        n, tail, nodes = 0, float(np.abs(head[:, -5:] @ _D3).max()), t.size
    else:
        sums = terms.sum(axis=1)
        tail, nodes = _trace_tail(r, n), n
    d_sum, s_ad, s_d, m_sum = (float(x) for x in sums)
    if n_max is not None:
        # only |1, n_max> reaches Dave's level n_max: p = w_{n_max} n_max/s2
        lp = _log_weights(r, n_max) + math.log(n_max / s2)
        s_d -= math.exp(lp) * lp / _LN2
        mutual_info = 1.0 + s_d - s_ad
    else:
        a0 = 0.5 * (2.0 - q) * (1.0 - q)
        a1_lc1 = 0.5 * q / c2 * (1.0 + 2.0 / c2) * math.log1p(2.0 / c2)
        mutual_info = 2.0 - (
            0.5 * q * lnq / _LN2 + q * (1.5 - 0.5 * q) - a0 * math.log1p(-0.5 * q) / _LN2
            - a1_lc1 / _LN2 + m_sum
        )
    return {
        "neg_log": math.log1p(d_sum) / _LN2,
        "negativity": 0.5 * d_sum,
        "s_d": s_d,
        "s_ad": s_ad,
        "mutual_info": mutual_info,
        "n_max_used": n,
        "tail_bound": tail + math.sqrt(nodes) * _EPS * abs(s_d),
    }


def _measures_full(r: float) -> dict:
    """All measures from the untruncated series."""
    return _series(_as_r(r))


def _measures(r, trunc: Optional[FockTruncation]) -> dict:
    """Every measure at r: of the full series, or of the state a Fock
    truncation keeps.

    A truncated state's S_D, S_AD and I are the series over its blocks, and
    N and log N come from its PT spectrum.  Its tail_bound is their largest
    distance from the full series plus the full series' own tail_bound, so
    it bounds the distance from the true values as a full report's does.
    """
    if trunc is None:
        return _measures_full(r)
    r = _r_for(r, trunc)
    full = _measures_full(r)
    m = _series(r, trunc.n_max)
    norm = ppt_spectrum_closed_form(r, trunc).trace_norm()
    m.update(neg_log=math.log2(norm), negativity=0.5 * (norm - 1.0), n_max_used=trunc.n_max)
    m["tail_bound"] = full["tail_bound"] + max(abs(m[k] - full[k]) for k in _MEASURES)
    return m


# ---------------------------------------------------------------------------
# public measures; with an explicit truncation, those of the truncated state
# ---------------------------------------------------------------------------

def log_negativity(r, trunc: Optional[FockTruncation] = None) -> float:
    """log2 of the PT trace norm; 1 at r = 0, monotonically to 0 as r grows."""
    return _measures(r, trunc)["neg_log"]


def negativity(r, trunc: Optional[FockTruncation] = None) -> float:
    """Ordinary negativity N = (||rho^T||_1 - 1)/2; log-neg = log2(2N + 1)."""
    return _measures(r, trunc)["negativity"]


def entropies(r, trunc: Optional[FockTruncation] = None) -> Tuple[float, float, float]:
    """Base-2 von Neumann entropies (S_A, S_D, S_AD); S_A = 1 exactly."""
    m = _measures(r, trunc)
    return 1.0, m["s_d"], m["s_ad"]


def mutual_information(r, trunc: Optional[FockTruncation] = None) -> float:
    """I = S_A + S_D - S_AD via the explicit series; in [1, 2], 2 at r = 0."""
    return _measures(r, trunc)["mutual_info"]


def report_for(r, trunc: Optional[FockTruncation] = None) -> EntanglementReport:
    """Every measure at a single r, of the full series or of a truncation."""
    r = _as_r(r)
    return EntanglementReport(r=r, s_a=1.0, **_measures(r, trunc))


def r_from_lifetime(lifetime: float, omega: float) -> float:
    """Squeezing parameter of a diamond observer with the given lifetime."""
    if not (lifetime > 0 and omega > 0):
        raise ValueError("lifetime and omega must be positive (zero lifetime gives r = infinity)")
    return _squeezing_r(omega * lifetime / 2.0)


def sweep(
    r_values=None,
    lifetimes=None,
    omega: Optional[float] = None,
    n_max: Optional[int] = None,
    tol: Optional[float] = None,
) -> Tuple[List[Optional[EntanglementReport]], Dict[int, str]]:
    """Reports over a grid of r (or lifetimes at fixed omega): of the full
    series, or, given n_max, of FockTruncation.fixed(n_max, r, tol) at each r.

    Per-point failures are collected in the error dict (index -> message)
    instead of aborting the sweep; failed slots hold None.  Result order
    follows input order.
    """
    if (r_values is None) == (lifetimes is None):
        raise ValueError("provide exactly one of r_values or lifetimes")
    if lifetimes is not None:
        if omega is None:
            raise ValueError("lifetime grids need omega")
        grid = [r_from_lifetime(lt, omega) for lt in lifetimes]
    else:
        grid = [float(r) for r in r_values]
    if not grid:
        raise ValueError("empty grid")

    reports: List[Optional[EntanglementReport]] = []
    errors: Dict[int, str] = {}
    for idx, r in enumerate(grid):
        try:
            trunc = None if n_max is None else FockTruncation.fixed(n_max, r, tol)
            reports.append(report_for(r, trunc))
        except Exception as exc:  # noqa: BLE001 - per-point failures are data
            reports.append(None)
            errors[idx] = f"{type(exc).__name__}: {exc}"
    return reports, errors


def figure_grid(step: float = 0.05, r_max: float = 5.0) -> List[float]:
    """The r grid used for the degradation curves."""
    count = int(round(r_max / step)) + 1
    return [i * step for i in range(count)]

"""Truncated Fock-space realization of the Alice-Dave state.

Basis layout is Alice-occupation major, Dave-occupation minor: index
(a, d) -> a*(n_max + 1) + d with a in {0, 1} and d in 0..n_max.  The state
retains the two-mode series through index n_max - 1, i.e. blocks n couple
|0, n> with |1, n+1> for n = 0..n_max-1, so the highest retained Dave
occupation is n_max.

All series weights are geometric in q = tanh^2 r, so n_max is chosen from
the closed-form tail q^N (1 + N/(2 cosh^2 r)).
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainCap, TruncationTooSmall
from .modes import SqueezingParameter

TRUNCATION_CAP = 10_000
# Validated cap on r: the Euler-Maclaurin weights q^t / (2 cosh^2 r) of the
# full series stay normal floats out to t = 60 cosh^2 r only for r < ~324,
# and cosh^2 r overflows past r ~ 355.
_R_MAX = 320.0


class Representation(enum.Enum):
    RHO_AD = "rho_AD"
    RHO_AD_PT = "rho_AD_partial_transpose"


class Subsystem(enum.Enum):
    ALICE = "Alice"
    DAVE = "Dave"


def _as_r(r) -> float:
    if isinstance(r, SqueezingParameter):
        return r.r
    r = float(r)
    if not r >= 0:
        raise ValueError("r must be nonnegative")
    return r


def _ln_tanh2(r: float) -> float:
    """ln q = ln tanh^2 r for r > 0, exact to rounding at every r.

    tanh^2 r = 1 - 1/cosh^2 r rounds to a point whose logarithm carries a
    relative error of ~cosh^2 r * eps, and the series weights q^n with
    n ~ cosh^2 r inherit it whole; -2 log1p(2/expm1(2r)) has no cancellation.
    """
    return -2.0 * math.log1p(2.0 / math.expm1(2.0 * r))


def _check_r_cap(r: float) -> float:
    if r > _R_MAX:
        raise DomainCap(f"r = {r:.6g} exceeds the validated cap {_R_MAX:g} of the series")
    return r


def _trace_tail(r: float, n_max: int) -> float:
    """Weight of the dropped blocks: sum_{n >= n_max} w_n (1 + (n+1)/c2)."""
    if r == 0.0:
        return 0.0
    return math.exp(n_max * _ln_tanh2(r)) * (1.0 + n_max / (2.0 * math.cosh(r) ** 2))


@dataclass(frozen=True)
class FockTruncation:
    """Retained block count and the geometric tail it leaves behind."""

    n_max: int
    tail_bound: float
    tol: Optional[float] = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @classmethod
    def auto(cls, r, tol: float = 1e-12, cap: int = TRUNCATION_CAP) -> "FockTruncation":
        """Smallest n_max with tail below tol, capped; the cap may leave a
        larger tail, which the assembly operations then reject."""
        r = _check_r_cap(_as_r(r))
        if r == 0.0:
            return cls(2, 0.0, tol)
        lnq = _ln_tanh2(r)
        c2 = math.cosh(r) ** 2
        n = max(2, int(math.ceil(math.log(tol) / lnq)))
        for _ in range(4):
            n = max(2, int(math.ceil((math.log(tol) - math.log1p(n / (2.0 * c2))) / lnq)))
        n = min(n, cap)
        return cls(n, _trace_tail(r, n), tol)

    @classmethod
    def fixed(cls, n_max: int, r, tol: Optional[float] = None) -> "FockTruncation":
        """Exactly n_max blocks; check() rejects them only if tol is given."""
        r = _check_r_cap(_as_r(r))
        return cls(n_max, _trace_tail(r, n_max), tol)

    def check(self):
        if self.tol is not None and self.tail_bound > self.tol:
            raise TruncationTooSmall(
                f"tail {self.tail_bound:.3e} exceeds tolerance {self.tol:.3e} at n_max={self.n_max}"
            )


@dataclass(frozen=True)
class SingleSystemState:
    kind: Subsystem
    weights: np.ndarray


@dataclass(frozen=True)
class BipartiteState:
    """Block-structured rho_AD or its partial transpose.

    rho_AD blocks (n = 0..n_max-1) act on {|0,n>, |1,n+1>} as
    weights[n] * [[1, g], [g, g^2]] with g = gammas[n] = sqrt(n+1)/cosh r.
    The partial transpose carries the standalone |0,0> weight lambda0 and
    2x2 blocks on {|1,n>, |0,n+1>} with diagonal (pt_diag1[n], pt_diag2[n])
    and coherence pt_coh[n].
    """

    r: float
    trunc: FockTruncation
    representation: Representation
    weights: np.ndarray
    gammas: np.ndarray
    lambda0: Optional[float] = None
    pt_diag1: Optional[np.ndarray] = None
    pt_diag2: Optional[np.ndarray] = None
    pt_coh: Optional[np.ndarray] = None

    @property
    def n_max(self) -> int:
        return self.trunc.n_max

    @property
    def dave_dim(self) -> int:
        return self.n_max + 1

    def to_dense(self) -> np.ndarray:
        """Assemble the full 2*(n_max+1) matrix in the (a, d) basis."""
        dd = self.dave_dim
        m = np.zeros((2 * dd, 2 * dd))
        n = np.arange(self.n_max)
        if self.representation is Representation.RHO_AD:
            i = n            # (0, n)
            j = dd + n + 1   # (1, n+1)
            m[i, i] += self.weights
            m[i, j] = m[j, i] = self.weights * self.gammas
            m[j, j] += self.weights * self.gammas ** 2
        else:
            m[0, 0] = self.lambda0
            i = dd + n       # (1, n)
            j = n + 1        # (0, n+1)
            m[i, i] += self.pt_diag1
            m[i, j] = m[j, i] = self.pt_coh
            m[j, j] += self.pt_diag2
        return m

    def trace(self) -> float:
        if self.representation is Representation.RHO_AD:
            return float((self.weights * (1.0 + self.gammas ** 2)).sum())
        return float(self.lambda0 + self.pt_diag1.sum() + self.pt_diag2.sum())


def _geometric_weights(r: float, n_max: int) -> np.ndarray:
    """w_n = tanh^{2n} r / (2 cosh^2 r), n = 0..n_max-1."""
    n = np.arange(n_max, dtype=float)
    c2 = math.cosh(r) ** 2
    if r == 0.0:
        w = np.zeros(n_max)
        w[0] = 0.5
        return w
    return np.exp(n * _ln_tanh2(r)) / (2.0 * c2)


def unruh_vacuum_coefficients(r, trunc: FockTruncation) -> np.ndarray:
    """Amplitudes tanh^n r / cosh r of |n, n> in the squeezed vacuum, n = 0..n_max."""
    r = _as_r(r)
    trunc.check()
    n = np.arange(trunc.n_max + 1, dtype=float)
    if r == 0.0:
        amps = np.zeros(trunc.n_max + 1)
        amps[0] = 1.0
        return amps
    return np.exp(n * (0.5 * _ln_tanh2(r))) / math.cosh(r)


def unruh_one_particle_coefficients(r, trunc: FockTruncation) -> np.ndarray:
    """Amplitudes tanh^n r sqrt(n+1) / cosh^2 r of |n+1, n>, n = 0..n_max-1."""
    r = _as_r(r)
    trunc.check()
    n = np.arange(trunc.n_max, dtype=float)
    c2 = math.cosh(r) ** 2
    if r == 0.0:
        amps = np.zeros(trunc.n_max)
        amps[0] = 1.0
        return amps
    return np.exp(n * (0.5 * _ln_tanh2(r))) * np.sqrt(n + 1.0) / c2


def build_rho_ad(r, trunc: Optional[FockTruncation] = None) -> BipartiteState:
    """Assemble the Alice-Dave reduced state in block form."""
    r = _as_r(r)
    if trunc is None:
        trunc = FockTruncation.auto(r)
    trunc.check()
    w = _geometric_weights(r, trunc.n_max)
    n = np.arange(trunc.n_max, dtype=float)
    gam = np.sqrt(n + 1.0) / math.cosh(r)
    return BipartiteState(r, trunc, Representation.RHO_AD, w, gam)


def partial_transpose(state: BipartiteState) -> BipartiteState:
    """Exchange Alice indices; blocks regroup onto {|1,n>, |0,n+1>}.

    The |1,n> diagonal w_{n-1} gamma_{n-1}^2 equals the textbook n/sinh^2 r
    form but stays finite through r -> 0 and matches the index-swapped dense
    matrix bit for bit.
    """
    if state.representation is not Representation.RHO_AD:
        raise ValueError("partial_transpose expects the rho_AD representation")
    q = math.tanh(state.r) ** 2
    diag1 = np.concatenate(([0.0], state.weights[:-1] * state.gammas[:-1] ** 2))
    diag2 = state.weights * q
    coh = state.weights * state.gammas
    return BipartiteState(
        state.r, state.trunc, Representation.RHO_AD_PT, state.weights, state.gammas,
        lambda0=float(state.weights[0]), pt_diag1=diag1, pt_diag2=diag2, pt_coh=coh,
    )


def reduce_to_dave(state: BipartiteState) -> SingleSystemState:
    """Trace out Alice: weights w_n (1 + n/sinh^2 r) for n = 0..n_max-1.

    Evaluated as w_n + w_{n-1} gamma_{n-1}^2, exact through r -> 0, and
    identical to the numerical partial trace of the assembled blocks on the
    retained indices.
    """
    if state.representation is not Representation.RHO_AD:
        raise ValueError("reduce_to_dave expects the rho_AD representation")
    lifted = np.concatenate(([0.0], state.weights[:-1] * state.gammas[:-1] ** 2))
    return SingleSystemState(Subsystem.DAVE, state.weights + lifted)


def reduce_to_alice(state: BipartiteState) -> SingleSystemState:
    """Trace out Dave: diag(1/2, 1/2) up to the truncation tail, for any r."""
    if state.representation is not Representation.RHO_AD:
        raise ValueError("reduce_to_alice expects the rho_AD representation")
    w0 = float(state.weights.sum())
    w1 = float((state.weights * state.gammas ** 2).sum())
    return SingleSystemState(Subsystem.ALICE, np.array([w0, w1]))

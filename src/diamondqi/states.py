"""Truncated Fock-space realization of the Alice-Dave state.

Two operators, one type each: ``BipartiteState`` holds rho_AD, and
``PartialTranspose`` its partial transpose over Alice together with that
operator's closed-form eigenvalues.  The reductions to Alice and to Dave
return their diagonal weights as plain arrays.  Each operator is assembled
once, as the coordinate entries that ``entries()`` returns; ``to_dense()``
scatters them into a matrix, and ``_block_eigvalsh`` diagonalizes them
numerically, block by block, for the oracles that check the closed forms,
without forming the matrix.

Basis layout is Alice-occupation major, Dave-occupation minor: index
(a, d) -> a*(n_max + 1) + d with a in {0, 1} and d in 0..n_max.  The state
retains the two-mode series through index n_max - 1, i.e. blocks n couple
|0, n> with |1, n+1> for n = 0..n_max-1, so the highest retained Dave
occupation is n_max.

The two-mode series w_n = q^n / (2 cosh^2 r), q = tanh^2 r, is defined here
once for every state and measure: ``_log_weights``, the block count
``_blocks_for``, and the floor ``_R_LIMIT`` below which q = 0, as at r = 0.

A ``FockTruncation`` is made at one r and checked against its tolerance
there, once.  Every function that takes an (r, trunc) pair validates r in
``_r_for``: a negative or NaN r raises ValueError, an r past the cap
``_R_MAX`` DomainCap, and an r other than the truncation's own ValueError.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainCap, TruncationTooSmall

TRUNCATION_CAP = 10_000
# Validated cap on r: the Euler-Maclaurin weights q^t / (2 cosh^2 r) of the
# full series stay normal floats out to t = 60 cosh^2 r only for r < ~324,
# and cosh^2 r overflows past r ~ 355.
_R_MAX = 320.0
# below _R_LIMIT the r = 0 state is exact to rounding, every measure is within
# 4 r^2 (1 + 2 ln(1/r)) < r of its r = 0 value, and the summands overflow
_R_LIMIT = 1e-75
_LN2 = math.log(2.0)


def _as_r(r) -> float:
    r = float(r)
    if not r >= 0:
        raise ValueError("r must be nonnegative")
    if r > _R_MAX:
        raise DomainCap(f"r = {r:.6g} exceeds the validated cap {_R_MAX:g} of the series")
    return r


def _r_for(r, trunc: "FockTruncation") -> float:
    """r as a float, once it is the r that trunc was made for."""
    r = _as_r(r)
    if r != trunc.r:
        raise ValueError(f"a truncation made at r = {trunc.r!r} is used at r = {r!r}")
    return r


def _ln_tanh2(r: float) -> float:
    """ln q = ln tanh^2 r, exact to rounding at every r >= _R_LIMIT; -inf,
    the q = 0 of r = 0, below it.

    tanh^2 r = 1 - 1/cosh^2 r rounds to a point whose logarithm carries a
    relative error of ~cosh^2 r * eps, and the series weights q^n with
    n ~ cosh^2 r inherit it whole; -2 log1p(2/expm1(2r)) has no cancellation.
    """
    if r < _R_LIMIT:
        return -math.inf
    return -2.0 * math.log1p(2.0 / math.expm1(2.0 * r))


def _log_weights(r: float, t):
    """ln w_t = t ln q - ln(2 cosh^2 r) of the two-mode series at Fock index
    t; below _R_LIMIT those of r = 0: ln(1/2) at t = 0 and -inf past it."""
    if r < _R_LIMIT:
        return np.where(t == 0, -_LN2, -np.inf)
    return t * _ln_tanh2(r) - math.log(2.0 * math.cosh(r) ** 2)


def _trace_tail(r: float, n_max: int) -> float:
    """Weight of the dropped blocks: sum_{n >= n_max} w_n (1 + (n+1)/c2)."""
    return math.exp(n_max * _ln_tanh2(r)) * (1.0 + n_max / (2.0 * math.cosh(r) ** 2))


def _blocks_for(r: float, tol: float) -> int:
    """Smallest n >= 2 with _trace_tail(r, n) <= tol, i.e. n >= f(n) =
    (ln tol - log1p(n/(2 c2)))/ln q; f rises with n, so n -> max(2, ceil f(n))
    climbs from n = 2 to that n and stops there, or once past TRUNCATION_CAP."""
    lnq = _ln_tanh2(r)
    c2 = math.cosh(r) ** 2
    n, prev = 2, 0
    while n != prev and n <= TRUNCATION_CAP:
        n, prev = max(2, int(math.ceil((math.log(tol) - math.log1p(n / (2.0 * c2))) / lnq))), n
    return n


@dataclass(frozen=True)
class FockTruncation:
    """The block count n_max retained at squeezing r, and the geometric tail
    it leaves there.  auto and fixed check the tail against tol once, when
    they make it; every state and measure takes it at its own r only."""

    r: float
    n_max: int
    tail_bound: float

    @classmethod
    def auto(cls, r, tol: float = 1e-12) -> "FockTruncation":
        """_blocks_for(r, tol) blocks; TruncationTooSmall where that passes
        TRUNCATION_CAP, whose blocks leave a larger tail."""
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {tol!r}")
        r = _as_r(r)
        return cls.fixed(min(_blocks_for(r, tol), TRUNCATION_CAP), r, tol)

    @classmethod
    def fixed(cls, n_max: int, r, tol: Optional[float] = None) -> "FockTruncation":
        """Exactly n_max blocks; TruncationTooSmall if tol is given and their
        tail exceeds it."""
        if type(n_max) is not int or not 1 <= n_max <= TRUNCATION_CAP:
            raise ValueError(f"n_max must be an integer in [1, {TRUNCATION_CAP}], got {n_max!r}")
        r = _as_r(r)
        tail = _trace_tail(r, n_max)
        if tol is not None and tail > tol:
            raise TruncationTooSmall(f"tail {tail:.3e} exceeds tolerance {tol:.3e} at n_max={n_max}")
        return cls(r, n_max, tail)


@dataclass(frozen=True)
class BipartiteState:
    """Block-structured rho_AD: blocks n = 0..n_max-1 act on {|0,n>, |1,n+1>}
    as weights[n] * [[1, g], [g, g^2]] with g = gammas[n] = sqrt(n+1)/cosh r."""

    r: float
    trunc: FockTruncation
    weights: np.ndarray
    gammas: np.ndarray

    @property
    def n_max(self) -> int:
        return self.trunc.n_max

    @property
    def dave_dim(self) -> int:
        return self.n_max + 1

    def entries(self):
        """(rows, cols, values, dim): the operator's 4 n_max entries in the
        (a, d) basis of dimension dim = 2*(n_max+1), each block's
        [[w, w g], [w g, w g^2]] on {|0,n>, |1,n+1>}."""
        dd = self.dave_dim
        i = np.arange(self.n_max)  # (0, n)
        j = dd + i + 1             # (1, n+1)
        coh = self.weights * self.gammas
        return (np.concatenate((i, i, j, j)), np.concatenate((i, j, i, j)),
                np.concatenate((self.weights, coh, coh, self.weights * self.gammas ** 2)), 2 * dd)

    def to_dense(self) -> np.ndarray:
        """The full 2*(n_max+1) matrix in the (a, d) basis: entries()
        scattered into zeros."""
        return _scatter(*self.entries())

    def trace(self) -> float:
        return float((self.weights * (1.0 + self.gammas ** 2)).sum())


@dataclass(frozen=True)
class PartialTranspose:
    """The partial transpose of rho_AD: the standalone |0,0> weight lambda0,
    the standalone |1,n_max> weight lambda_top, and 2x2 blocks on
    {|1,n>, |0,n+1>} with diagonal (pt_diag1[n], pt_diag2[n]) and coherence
    pt_coh[n].  Its eigenvalues are lambda0, lambda_top and one pair per block.
    """

    r: float
    trunc: FockTruncation
    lambda0: float
    lambda_top: float
    pt_diag1: np.ndarray
    pt_diag2: np.ndarray
    pt_coh: np.ndarray

    @property
    def pairs(self) -> np.ndarray:
        """(lambda+, lambda-) of each 2x2 block, shape (n_max, 2).

        Below the last block they equal lambda_+/-^(n) = tanh^{2n} r /
        (4 cosh^2 r) * (n/sinh^2 r + tanh^2 r +/- sqrt(Z_n)), evaluated in a
        form that stays finite through r -> 0; the last block has no
        |0,n_max> entry.
        """
        a, c, g = self.pt_diag1, self.pt_diag2, self.pt_coh
        mean = 0.5 * (a + c)
        disc = np.sqrt((0.5 * (a - c)) ** 2 + g ** 2)
        return np.stack([mean + disc, mean - disc], axis=1)

    def all_values(self) -> np.ndarray:
        return np.concatenate(([self.lambda0], self.pairs.ravel(), [self.lambda_top]))

    def trace_norm(self) -> float:
        return float(np.abs(self.all_values()).sum())

    def entries(self):
        """(rows, cols, values, dim): the operator's 4 n_max + 2 entries in
        the (a, d) basis of dimension dim = 2*(n_max+1): lambda0 on |0,0>,
        lambda_top on |1,n_max>, and each block on {|1,n>, |0,n+1>}."""
        dd = self.trunc.n_max + 1
        n = np.arange(self.trunc.n_max)
        i = dd + n  # (1, n)
        j = n + 1   # (0, n+1)
        ends = np.array([0, 2 * dd - 1])
        return (np.concatenate((ends, i, i, j, j)), np.concatenate((ends, i, j, i, j)),
                np.concatenate(([self.lambda0, self.lambda_top], self.pt_diag1, self.pt_coh,
                                self.pt_coh, self.pt_diag2)), 2 * dd)

    def to_dense(self) -> np.ndarray:
        """The full 2*(n_max+1) matrix in the (a, d) basis: entries()
        scattered into zeros."""
        return _scatter(*self.entries())

    def trace(self) -> float:
        return float(self.lambda0 + self.lambda_top + self.pt_diag1.sum() + self.pt_diag2.sum())


def _scatter(rows, cols, values, dim) -> np.ndarray:
    """The dim x dim matrix of the entries; duplicate entries add up."""
    m = np.zeros((dim, dim))
    np.add.at(m, (rows, cols), values)
    return m


def _block_eigvalsh(rows, cols, values, dim) -> np.ndarray:
    """Ascending eigenvalues of the real symmetric matrix _scatter(rows,
    cols, values, dim), the values np.linalg.eigvalsh returns for it,
    diagonalized block by block without assembling that matrix.

    The blocks are the connected components of the pattern of the nonzero
    entries, in which an entry joins its row and column whether or not its
    mirror is given; exact zeros join nothing.  They are found by min-label
    hooking with full shortcutting.  A round costs O(entries) and hooks each
    tree onto the least label next to it, if that is below its own; a tree
    that does not hook has every neighbour hooked at or below its label, so
    every tree merges within two rounds: at most 2 log2(dim) + 1 rounds.  The
    entries of the blocks of each size are scattered into one stacked array,
    each block in ascending index order and duplicates adding up as in
    _scatter, so a block holds the entries that the assembled matrix holds
    there; each size takes one eigvalsh call.  A matrix that no permutation
    makes block diagonal is one block.
    """
    keep = values != 0
    rows, cols, values = rows[keep], cols[keep], values[keep]
    i, j = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    label = np.arange(dim)
    while True:
        # every root takes the least label next to its tree, and every index
        # then follows its pointers to its new root
        root = label.copy()
        np.minimum.at(root, label[i], label[j])
        while (root[root] != root).any():
            root = root[root]
        if (root == label).all():
            break
        label = root
    order = np.argsort(label, kind="stable")
    first = np.flatnonzero(np.diff(label[order], prepend=-1))
    sizes = np.diff(first, append=dim)
    # each index's block, and its place in that block's ascending index order
    block, place = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
    block[order] = np.repeat(np.arange(len(first)), sizes)
    place[order] = np.arange(dim) - np.repeat(first, sizes)
    entry_block = block[rows]
    spectra = []
    for size in np.flatnonzero(np.bincount(sizes)):
        of_size = sizes == size
        rank = np.cumsum(of_size) - 1  # a block's place among those of its size
        sel = of_size[entry_block]
        stack = np.zeros((int(of_size.sum()), size, size))
        np.add.at(stack, (rank[entry_block[sel]], place[rows[sel]], place[cols[sel]]), values[sel])
        spectra.append(np.linalg.eigvalsh(stack).ravel())
    return np.sort(np.concatenate(spectra))


def _geometric_weights(r: float, n_max: int) -> np.ndarray:
    """w_n = tanh^{2n} r / (2 cosh^2 r), n = 0..n_max-1."""
    return np.exp(_log_weights(r, np.arange(n_max, dtype=float)))


def unruh_vacuum_coefficients(r, trunc: FockTruncation) -> np.ndarray:
    """Amplitudes tanh^n r / cosh r = sqrt(2 w_n) of |n, n>, n = 0..n_max."""
    r = _r_for(r, trunc)
    return np.exp(0.5 * (_log_weights(r, np.arange(trunc.n_max + 1, dtype=float)) + _LN2))


def unruh_one_particle_coefficients(r, trunc: FockTruncation) -> np.ndarray:
    """Amplitudes sqrt(2 w_n (n+1)) / cosh r of |n+1, n>, n = 0..n_max-1."""
    r = _r_for(r, trunc)
    n = np.arange(trunc.n_max, dtype=float)
    return np.exp(0.5 * (_log_weights(r, n) + _LN2)) * np.sqrt(n + 1.0) / math.cosh(r)


def build_rho_ad(r, trunc: Optional[FockTruncation] = None) -> BipartiteState:
    """Assemble the Alice-Dave reduced state in block form."""
    if trunc is None:
        trunc = FockTruncation.auto(r)
    r = _r_for(r, trunc)
    w = _geometric_weights(r, trunc.n_max)
    n = np.arange(trunc.n_max, dtype=float)
    gam = np.sqrt(n + 1.0) / math.cosh(r)
    return BipartiteState(r, trunc, w, gam)


def partial_transpose(state: BipartiteState) -> PartialTranspose:
    """Exchange Alice indices; blocks regroup onto {|1,n>, |0,n+1>}.

    The |1,n> diagonal w_{n-1} gamma_{n-1}^2 equals the textbook n/sinh^2 r
    form but stays finite through r -> 0.  The |0,n+1> diagonal is
    w_n q = w_{n+1}; |0,n_max> lies outside the retained blocks, so the last
    block's is 0, and |1,n_max> stands alone as lambda_top.  Every entry
    equals the index-swapped dense matrix's.
    """
    lifted = state.weights * state.gammas ** 2
    diag1 = np.concatenate(([0.0], lifted[:-1]))
    diag2 = np.concatenate((state.weights[1:], [0.0]))
    coh = state.weights * state.gammas
    return PartialTranspose(
        state.r, state.trunc, float(state.weights[0]), float(lifted[-1]), diag1, diag2, coh
    )


def reduce_to_dave(state: BipartiteState) -> np.ndarray:
    """Trace out Alice: weights w_n (1 + n/sinh^2 r) for n = 0..n_max-1, and
    w_{n_max-1} gamma_{n_max-1}^2 on level n_max, which only |1,n_max> reaches.

    Evaluated as w_n + w_{n-1} gamma_{n-1}^2, exact through r -> 0, and
    identical to the numerical partial trace of the assembled blocks.
    """
    lifted = state.weights * state.gammas ** 2
    return np.append(state.weights, 0.0) + np.insert(lifted, 0, 0.0)


def reduce_to_alice(state: BipartiteState) -> np.ndarray:
    """Trace out Dave: diag(1/2, 1/2) up to the truncation tail, for any r."""
    w0 = float(state.weights.sum())
    w1 = float((state.weights * state.gammas ** 2).sum())
    return np.array([w0, w1])

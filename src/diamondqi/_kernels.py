"""Kummer-series kernels, JIT-compiled by numba when it is available.

Each kernel is a scalar loop decorated with ``@njit``: compiled when the
numba backend is active, plain Python otherwise.  The entanglement series
need no kernel here: ``entanglement`` sums them in vectorized NumPy passes.
"""

import math

import numpy as np

from ._backend import njit

_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


# ---------------------------------------------------------------------------
# double-double building blocks (error-free transforms)
# ---------------------------------------------------------------------------

@njit(cache=True)
def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


@njit(cache=True)
def _quick_two_sum(a, b):
    s = a + b
    err = b - (s - a)
    return s, err


@njit(cache=True)
def _two_prod(a, b):
    p = a * b
    ca = _SPLIT * a
    ahi = ca - (ca - a)
    alo = a - ahi
    cb = _SPLIT * b
    bhi = cb - (cb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


@njit(cache=True)
def _dd_add(ahi, alo, bhi, blo):
    s, e = _two_sum(ahi, bhi)
    e += alo + blo
    return _quick_two_sum(s, e)


@njit(cache=True)
def _dd_mul(ahi, alo, bhi, blo):
    p, e = _two_prod(ahi, bhi)
    e += ahi * blo + alo * bhi
    return _quick_two_sum(p, e)


@njit(cache=True)
def _dd_div_d(ahi, alo, d):
    q1 = ahi / d
    p, e = _two_prod(q1, d)
    rhi, rlo = _dd_add(ahi, alo, -p, -e)
    q2 = (rhi + rlo) / d
    return _quick_two_sum(q1, q2)


# ---------------------------------------------------------------------------
# Kummer M(a, b, z) Maclaurin series
# ---------------------------------------------------------------------------

@njit(cache=True)
def kummer_series_c128(a, b, z, max_terms):
    """Series in complex128 with pairwise final summation.

    Returns (value, n_terms, converged).  Valid only where cancellation is
    mild; the caller enforces the |z| routing.
    """
    terms = np.empty(max_terms + 1, dtype=np.complex128)
    terms[0] = 1.0 + 0.0j
    t = 1.0 + 0.0j
    absz = abs(z)
    run = 0
    n = 0
    while n < max_terms:
        t = t * (a + n) * z / ((b + n) * (n + 1.0))
        terms[n + 1] = t
        n += 1
        if n > absz and abs(t) < 1e-18:
            run += 1
            if run >= 3:
                break
        else:
            run = 0
    converged = run >= 3
    m = n + 1
    # pairwise reduction in place
    while m > 1:
        half = m // 2
        for i in range(half):
            terms[i] = terms[2 * i] + terms[2 * i + 1]
        if m % 2 == 1:
            terms[half] = terms[m - 1]
            m = half + 1
        else:
            m = half
    return terms[0], n, converged


@njit(cache=True)
def kummer_series_dd(a_re, a_im, b_real, z_re, z_im, max_terms):
    """Series with the full term recurrence carried in double-double.

    Requires real b whose pochhammer products stay exactly representable
    (true for b = 2 at the term counts involved).  Returns
    (re, im, n_terms, converged).
    """
    # term t as complex dd: (re_hi, re_lo, im_hi, im_lo)
    t_rh, t_rl, t_ih, t_il = 1.0, 0.0, 0.0, 0.0
    s_rh, s_rl, s_ih, s_il = 1.0, 0.0, 0.0, 0.0
    absz = math.sqrt(z_re * z_re + z_im * z_im)
    run = 0
    n = 0
    while n < max_terms:
        # t *= (a + n)   [double-complex factor, components exact]
        f_re = a_re + n
        f_im = a_im
        rh, rl = _dd_mul(t_rh, t_rl, f_re, 0.0)
        ih, il = _dd_mul(t_ih, t_il, f_im, 0.0)
        nrh, nrl = _dd_add(rh, rl, -ih, -il)
        rh, rl = _dd_mul(t_rh, t_rl, f_im, 0.0)
        ih, il = _dd_mul(t_ih, t_il, f_re, 0.0)
        nih, nil = _dd_add(rh, rl, ih, il)
        # t *= z
        rh, rl = _dd_mul(nrh, nrl, z_re, 0.0)
        ih, il = _dd_mul(nih, nil, z_im, 0.0)
        trh, trl = _dd_add(rh, rl, -ih, -il)
        rh, rl = _dd_mul(nrh, nrl, z_im, 0.0)
        ih, il = _dd_mul(nih, nil, z_re, 0.0)
        tih, til = _dd_add(rh, rl, ih, il)
        # t /= (b + n)(n + 1)   [exact double for moderate n, real]
        den = (b_real + n) * (n + 1.0)
        t_rh, t_rl = _dd_div_d(trh, trl, den)
        t_ih, t_il = _dd_div_d(tih, til, den)
        # s += t
        s_rh, s_rl = _dd_add(s_rh, s_rl, t_rh, t_rl)
        s_ih, s_il = _dd_add(s_ih, s_il, t_ih, t_il)
        n += 1
        tmag = math.sqrt(t_rh * t_rh + t_ih * t_ih)
        if n > absz and tmag < 1e-34:
            run += 1
            if run >= 3:
                break
        else:
            run = 0
    return s_rh + s_rl, s_ih + s_il, n, run >= 3

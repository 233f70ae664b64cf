"""mpmath values of the entanglement measures, for the tests.

Run as a script to rewrite the reference table that the fine-grid test
reads:

    PYTHONPATH=src python3 tests/mpmath_reference.py
"""

import functools
import math
import os

import mpmath

GRID_CSV = os.path.join(os.path.dirname(__file__), "data", "mpmath_measures_grid.csv")
GRID_COLUMNS = ("r", "neg_log", "negativity", "s_d", "s_ad", "mutual_info")


def grid_points():
    """r = 1.5, 1.525, ..., 12: both sides of the head switch and far past it."""
    return [1.5 + 0.025 * i for i in range(421)]


@functools.lru_cache(maxsize=None)
def mpmath_measures(r):
    """(neg_log, negativity, s_d, s_ad, mutual_info) to 30 digits, summed
    from the eigenvalues of the PT blocks, of the rho_AD blocks and of
    Dave's reduced state: term by term for r <= 2.3, where the summands
    decay too fast for Euler-Maclaurin, and with mpmath.sumem above.

    1 - tanh^2 r = 1/cosh^2 r cancels ~0.87 r of the working digits
    (2 r log10 e), so the summands are evaluated at 30 + ceil(0.87 r) digits.
    """
    dps = 30 + math.ceil(0.87 * r)
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        c2 = mpmath.cosh(r) ** 2
        s2 = mpmath.sinh(r) ** 2
        q = mpmath.tanh(r) ** 2

        def w(n):
            return q ** n / (2 * c2)

        def excess(n):
            # |lambda+| + |lambda-| - (lambda+ + lambda-) of the PT block
            a, c, g = w(n) * n / s2, w(n) * q, w(n) * mpmath.sqrt((n + 1) / c2)
            return mpmath.sqrt((a - c) ** 2 + 4 * g * g) - (a + c)

        def h(p):
            return -p * mpmath.log(p, 2)

        if r <= 2.3:
            # q^n below 1e-36 of the leading terms
            n_max = int(mpmath.ceil(-83 / mpmath.log(q))) + 2

            def total(f):
                return mpmath.fsum(f(n) for n in range(n_max))
        else:
            def total(f):
                # the summands vary on the scale cosh^2 r, and sumem's own
                # integral of them was 5e-12 off at r = 40; it is taken in
                # x = n/cosh^2 r, relative to f(0), to 30 digits
                f0 = f(0)

                def scaled(x):
                    with mpmath.workdps(dps):
                        return f(c2 * x) / f0

                with mpmath.workdps(30):
                    integral = mpmath.quad(scaled, [0, mpmath.inf])
                return mpmath.sumem(f, [0, mpmath.inf], integral=c2 * f0 * integral)

        d = total(excess)
        s_d = total(lambda n: h(w(n) * (1 + n / s2)))
        s_ad = total(lambda n: h(w(n) * (1 + (n + 1) / c2)))
        values = (mpmath.log(1 + d, 2), d / 2, s_d, s_ad, 1 + s_d - s_ad)
        return tuple(float(v) for v in values)


def read_grid():
    """{r: measures} from the reference table."""
    with open(GRID_CSV) as fh:
        header, *rows = fh.read().split()
    assert tuple(header.split(",")) == GRID_COLUMNS
    table = {}
    for row in rows:
        r, *values = (float(v) for v in row.split(","))
        table[r] = tuple(values)
    return table


def write_grid():
    with open(GRID_CSV, "w") as fh:
        fh.write(",".join(GRID_COLUMNS) + "\n")
        for r in grid_points():
            fh.write(",".join(repr(v) for v in (r, *mpmath_measures(r))) + "\n")


if __name__ == "__main__":
    write_grid()

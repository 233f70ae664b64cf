"""High-precision references, computed with mpmath apart from the program.

Nothing here imports diamondqi.  Every value is taken from the defining
formulas of the paper's quantities, not from the program's rearranged series:

* entanglement measures from the eigenvalues of the Alice-Dave state, its
  partial transpose and Dave's reduced state, summed over the Fock index n
  directly for small r and with ``mpmath.sumem`` beyond that;
* Kummer's M from ``mpmath.hyp1f1``;
* the interior Bogoliubov coefficients from their Kummer closed form, and the
  exterior ones from the positive-frequency identity
  alpha_ext = -conj(beta_int)/tanh r, beta_ext = -tanh r conj(alpha_int).
"""

import math

import mpmath as mp

MEASURES = ("neg_log", "negativity", "s_a", "s_d", "s_ad", "mutual_info")
# past this r the direct sum needs more terms than sumem costs
R_DIRECT = 2.3
_DPS = 30


def _series(r):
    """Summands of trace-norm excess D, S_AD and S_D as functions of n."""
    c = mp.cosh(r)
    c2 = c * c
    s2 = mp.sinh(r) ** 2
    q = mp.tanh(r) ** 2
    ln2 = mp.log(2)

    def w(n):
        return q ** n / (2 * c2)

    def d_term(n):
        # partial-transpose block on {|1,n>, |0,n+1>}: [[a, g], [g, c]], det < 0
        wn = w(n)
        a = wn * n / s2
        cc = wn * q
        g = wn * mp.sqrt(n + 1) / c
        return mp.sqrt((a - cc) ** 2 + 4 * g * g) - (a + cc)

    def h(p):
        return -p * mp.log(p) / ln2

    def sad_term(n):
        # nonzero eigenvalue of the rho_AD block w_n [[1, g], [g, g^2]]
        return h(w(n) * (1 + (n + 1) / c2))

    def sd_term(n):
        # Dave's diagonal w_n + w_{n-1} g_{n-1}^2
        return h(w(n) * (1 + n / s2))

    return d_term, sad_term, sd_term


def _direct_sum(f, tol):
    total = mp.mpf(0)
    n = 0
    small = 0
    while small < 3:
        t = f(n)
        total += t
        small = small + 1 if abs(t) <= tol * abs(total) else 0
        n += 1
    return total


def entanglement_reference(r):
    """The six EntanglementReport measures at r, as 30-digit mpf values.

    S_A = 1 and I = S_A + S_D - S_AD by definition; the trace norm of the
    partial transpose is 1 + D.
    """
    with mp.workdps(_DPS):
        r = mp.mpf(r)
        if r == 0:
            values = (1, mp.mpf(1) / 2, 1, 1, 0, 2)
            return dict(zip(MEASURES, (mp.mpf(v) for v in values)))
        terms = _series(r)
        if r <= R_DIRECT:
            tol = mp.mpf(10) ** (-_DPS)
            d, s_ad, s_d = (_direct_sum(f, tol) for f in terms)
        else:
            d, s_ad, s_d = (mp.sumem(f, [0, mp.inf]) for f in terms)
        return {
            "neg_log": mp.log(1 + d) / mp.log(2),
            "negativity": d / 2,
            "s_a": mp.mpf(1),
            "s_d": s_d,
            "s_ad": s_ad,
            "mutual_info": 1 + s_d - s_ad,
        }


def entropy_constant():
    """C = (2 - G)/(2 ln 2), with G = e E_1(1) the Euler-Gompertz constant."""
    with mp.workdps(_DPS):
        return float((2 - mp.e * mp.e1(1)) / (2 * mp.log(2)))


def entropy_asymptote(r):
    """log2(2 cosh^2 r) + C: S_D and S_AD approach it to O(1/cosh^2 r)."""
    with mp.workdps(_DPS):
        return float(mp.log(2 * mp.cosh(r) ** 2, 2) + entropy_constant())


def kummer_reference(a, b, z):
    """M(a, b, z) from mpmath.hyp1f1 at 40 digits."""
    with mp.workdps(40):
        return complex(mp.hyp1f1(mp.mpc(a), mp.mpc(b), mp.mpc(z)))


def kummer_condition(a, b, z):
    """sum |t_n| / |M| of the Maclaurin series: the relative error a
    float64 summation can reach is about this times the unit roundoff."""
    with mp.workdps(40):
        ma, mb, mz = mp.mpc(a), mp.mpc(b), mp.mpc(z)
        t = mp.mpf(1)
        total = mp.mpf(1)
        n = 0
        while n <= abs(z) or abs(t) > mp.mpf(10) ** -20 * total:
            t = t * abs((ma + n) * mz / ((mb + n) * (n + 1)))
            total += t
            n += 1
        return float(total / abs(mp.hyp1f1(ma, mb, mz)))


def bogoliubov_interior(omega_hat, k_hat, kind, alpha=1.0):
    """Kummer closed form of the interior coefficient, at 40 digits.

    alpha: (alpha/2) sqrt(w k)/sinh(pi w/2) e^{-ik} M(1 - iw/2, 2, 2ik);
    beta: the same with k -> -k in the phase and in M.
    """
    sign = 1 if kind == "alpha" else -1
    with mp.workdps(40):
        w, k = mp.mpf(omega_hat), mp.mpf(k_hat)
        m = mp.hyp1f1(mp.mpc(1, -w / 2), 2, mp.mpc(0, 2 * sign * k))
        pref = mp.mpf(alpha) / 2 * mp.sqrt(w * k) / mp.sinh(mp.pi * w / 2)
        return complex(pref * mp.expj(-sign * k) * m)


def bogoliubov_exterior(omega_hat, k_hat, kind, alpha=1.0):
    """Exterior coefficient from the positive-frequency identity."""
    tanh_r = math.exp(-math.pi * omega_hat / 2.0)
    if kind == "alpha":
        return -bogoliubov_interior(omega_hat, k_hat, "beta", alpha).conjugate() / tanh_r
    return -tanh_r * bogoliubov_interior(omega_hat, k_hat, "alpha", alpha).conjugate()


def fock_block(r, n):
    """(w_n, w_n g_n, w_n g_n^2) of the rho_AD block n as floats."""
    with mp.workdps(_DPS):
        r = mp.mpf(r)
        w = mp.tanh(r) ** (2 * n) / (2 * mp.cosh(r) ** 2)
        g = mp.sqrt(n + 1) / mp.cosh(r)
        return float(w), float(w * g), float(w * g * g)


def rel_err(value, ref):
    """|value - ref| / |ref|, with 0 for an exact match of a zero reference."""
    ref = complex(ref) if isinstance(ref, (complex, mp.mpc)) else float(ref)
    diff = abs(value - ref)
    if ref == 0:
        return 0.0 if diff == 0 else math.inf
    return float(diff / abs(ref))

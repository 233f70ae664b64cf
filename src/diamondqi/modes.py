"""Field modes, squeezing parameter, and Bogoliubov coefficients.

Frequencies are carried hatted internally (omega_hat = omega * alpha,
k_hat = k * alpha); the interior/exterior mode phases are evaluated through
atanh, which is exactly the unit-modulus power form restated for |arg| < 1
or > 1.

Normalization note: the closed forms below carry the prefactor alpha/2, the
value of the defining Fourier transform of the interior mode over its
theta-function support (-alpha, alpha).  That transform fixes the
normalization unambiguously; the quadrature route evaluates the same
transform directly and the two agree to the quadrature tolerance.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfSupport, UnsupportedRegion
from .geometry import DiamondChart, EventCoords, Frame, convert
from .specfun import KummerParams, QuadratureSpec, kummer_m, oscillatory_integral


class Sigma(enum.Enum):
    PLUS = "plus"    # left mover, argument V
    MINUS = "minus"  # right mover, argument U


class Family(enum.Enum):
    MINKOWSKI_F = "minkowski"
    DIAMOND_G_INT = "diamond-int"
    DIAMOND_G_EXT = "diamond-ext"
    UNRUH_H_INT = "unruh-int"
    UNRUH_H_EXT = "unruh-ext"


class ModeRegion(enum.Enum):
    INT = "int"
    EXT = "ext"


@dataclass(frozen=True)
class ModeSpec:
    """A field-mode label: direction, frequency (raw units), family, chart."""

    sigma: Sigma
    freq: float
    family: Family
    chart: DiamondChart

    def __post_init__(self):
        if not self.freq > 0:
            raise ValueError("freq must be positive")

    @property
    def omega_hat(self) -> float:
        return self.freq * self.chart.alpha


@dataclass(frozen=True)
class SqueezingParameter:
    """Interior/exterior mixing strength r; optionally tied to omega_hat."""

    r: float
    omega_hat: Optional[float] = None

    def __post_init__(self):
        if not self.r >= 0:
            raise ValueError("r must be nonnegative")


def squeezing_from_frequency(chart: DiamondChart, omega: float) -> SqueezingParameter:
    """r = atanh(exp(-pi*omega*alpha/2)); decreasing in omega and alpha."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    omega_hat = omega * chart.alpha
    return SqueezingParameter(math.atanh(math.exp(-math.pi * omega_hat / 2.0)), omega_hat)


def thermal_occupation(chart: DiamondChart, omega: float) -> float:
    """Mean interior occupation n = 1/(e^{pi*alpha*omega} - 1) = sinh^2 r.

    Computed algebraically from the squeezing parametrization rather than by
    regularizing the continuum |beta|^2 integral.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    x2 = math.exp(-math.pi * omega * chart.alpha)
    return x2 / -math.expm1(-math.pi * omega * chart.alpha)


def _g_int_phase(uh, omega_hat):
    """Phase of the interior mode, ((1+u)/(1-u))^(-i w/2) = exp(-i w atanh u)."""
    return np.exp(-1j * omega_hat * np.arctanh(uh))


def _g_ext_phase(uh, omega_hat):
    """Phase of the exterior mode, ((u+1)/(u-1))^(+i w/2) = exp(+i w atanh(1/u))."""
    return np.exp(1j * omega_hat * np.arctanh(1.0 / uh))


def eval_mode(m: ModeSpec, p: EventCoords, strict: bool = False) -> complex:
    """Value of the mode at a point; diamond families vanish off-support.

    With ``strict`` set, evaluating a diamond family outside its support
    raises OutOfSupport instead of returning 0.
    """
    q = p if p.frame is Frame.DIAMOND else convert(m.chart, p, Frame.DIAMOND)
    V, U = q.lightcone()
    arg = V if m.sigma is Sigma.PLUS else U
    uh = arg / m.chart.alpha
    norm = 1.0 / math.sqrt(4.0 * math.pi * m.freq)
    wh = m.omega_hat

    if m.family is Family.MINKOWSKI_F:
        return norm * complex(np.exp(-1j * m.freq * arg))

    inside = abs(uh) < 1.0

    def g_int():
        if inside:
            return norm * complex(_g_int_phase(uh, wh))
        if strict and m.family is Family.DIAMOND_G_INT:
            raise OutOfSupport(f"|U_sigma| = {abs(arg):.3g} >= alpha: outside D")
        return 0.0 + 0.0j

    def g_ext():
        if not inside and uh != 0:
            return norm * complex(_g_ext_phase(uh, wh))
        if strict and m.family is Family.DIAMOND_G_EXT:
            raise OutOfSupport(f"|U_sigma| = {abs(arg):.3g} <= alpha: outside DBar")
        return 0.0 + 0.0j

    if m.family is Family.DIAMOND_G_INT:
        return g_int()
    if m.family is Family.DIAMOND_G_EXT:
        return g_ext()

    r = squeezing_from_frequency(m.chart, m.freq).r
    if m.family is Family.UNRUH_H_INT:
        return math.cosh(r) * g_int() + math.sinh(r) * g_ext().conjugate()
    return math.cosh(r) * g_ext() + math.sinh(r) * g_int().conjugate()


# ---------------------------------------------------------------------------
# Bogoliubov coefficients between Minkowski and interior/exterior modes
# ---------------------------------------------------------------------------

def _check_bog_args(omega_hat, k_hat, kind):
    if not (omega_hat > 0 and k_hat > 0):
        raise ValueError("omega_hat and k_hat must be positive")
    if kind not in ("alpha", "beta"):
        raise ValueError("kind must be 'alpha' or 'beta'")


def bogoliubov_closed_form(
    chart: DiamondChart,
    omega_hat: float,
    k_hat: float,
    kind: str,
    region: ModeRegion = ModeRegion.INT,
) -> complex:
    """Interior-mode coefficient via the Kummer closed form.

    alpha: (alpha/2) sqrt(wk)/sinh(pi w/2) e^{-ik} M(1 - iw/2, 2, +2ik)
    beta:  the same with k -> -k inside the phase and M (sqrt(k) fixed).
    Both brackets are real.  No closed form is implemented for the exterior
    region; use the quadrature route there.
    """
    _check_bog_args(omega_hat, k_hat, kind)
    if region is not ModeRegion.INT:
        raise UnsupportedRegion("closed form available for the interior region only")
    sign = 1.0 if kind == "alpha" else -1.0
    m = kummer_m(KummerParams(1.0 - 0.5j * omega_hat, 2.0, sign * 2j * k_hat))
    pref = (chart.alpha / 2.0) * math.sqrt(omega_hat * k_hat) / math.sinh(math.pi * omega_hat / 2.0)
    return pref * complex(np.exp(-sign * 1j * k_hat)) * m


def bogoliubov_quadrature(
    chart: DiamondChart,
    omega_hat: float,
    k_hat: float,
    kind: str,
    region: ModeRegion = ModeRegion.INT,
    rel_tol: float = 1e-10,
) -> complex:
    """Coefficient as the Fourier transform sqrt(4 pi k)/(2 pi) int g e^{+/-ikU} dU.

    Interior: direct quadrature over the support (-alpha, alpha).  Exterior:
    the support is unbounded and the transform exists as an Abel limit; it is
    evaluated by rotating each side onto the vertical contour through
    U = +/-alpha, where e^{+/-ikU} decays and the integrand is smooth.
    """
    _check_bog_args(omega_hat, k_hat, kind)
    sign = 1.0 if kind == "alpha" else -1.0
    pref = chart.alpha / (2.0 * math.pi) * math.sqrt(k_hat / omega_hat)
    if region is ModeRegion.INT:
        def f(u):
            return _g_int_phase(u, omega_hat) * np.exp(sign * 1j * k_hat * u)

        spec = QuadratureSpec(
            -1.0, 1.0, rel_tol=rel_tol, max_subdivisions=16,
            oscillation_hint=omega_hat + k_hat,
        )
        return pref * oscillatory_integral(f, spec)

    rot = sign * 1j

    def F(tau):
        return np.exp(0.5j * omega_hat * np.log((tau + 1.0) / (tau - 1.0)) + sign * 1j * k_hat * tau)

    # substitute y = e^p on each vertical leg; limits sized to the decay
    # e^{-k y} and the bounded modulus factor e^{pi w/4} of the power.  In p
    # the only phase is (w/2) p; the decay is not oscillation, so the grid
    # density follows w alone.
    p_lo = math.log(rel_tol) - 5.0 - 0.4 * omega_hat
    p_hi = math.log((math.log(1.0 / rel_tol) + omega_hat + 5.0) / k_hat) + 0.5
    hint = 1.0 + omega_hat
    spec = QuadratureSpec(p_lo, p_hi, rel_tol=rel_tol, max_subdivisions=16, oscillation_hint=hint)

    def side(b):
        def f(p):
            y = np.exp(p)
            return F(b + rot * y) * y

        return oscillatory_integral(f, spec)

    return pref * complex(rot * (side(1.0) - side(-1.0)))


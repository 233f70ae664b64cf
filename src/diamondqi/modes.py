"""Field modes, squeezing parameter, and Bogoliubov coefficients.

Frequencies are carried hatted internally (omega_hat = omega * alpha,
k_hat = k * alpha); the interior/exterior mode phases are evaluated through
atanh, which is exactly the unit-modulus power form restated for |arg| < 1
or > 1.

Normalization note: the closed forms below carry the prefactor alpha/2, the
value of the defining Fourier transform of the interior mode over its
theta-function support (-alpha, alpha).  That transform fixes the
normalization unambiguously; the quadrature route evaluates the same
transform without the Kummer function, and the two agree to the quadrature
tolerance.  Every route runs the one trapezoid loop of ``specfun`` on its
integrand in its own variable.  Interior alpha is integrated over the
support itself, in s = atanh(U/alpha), where the mode's phase is e^{-iws}.
Interior beta runs along the steepest-descent legs U = +/-alpha - i*alpha*y,
in p = ln y, where e^{-ikU} decays and the two legs do not cancel the way
the real-line integral does.  Both methods take the exterior coefficients
from their own interior ones through the positive-frequency identity.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainCap, OutOfSupport
from .geometry import DiamondChart, EventCoords, Frame, _squeezing_r, convert
from .specfun import KummerParams, _nested_trapezoid, kummer_m

_LN4 = math.log(4.0)


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


def squeezing_from_frequency(chart: DiamondChart, omega: float) -> float:
    """r = atanh(exp(-pi*omega*alpha/2)); decreasing in omega and alpha.

    Raises DomainCap below omega_hat ~ 7e-309, where r overflows to inf, and
    cosh r * g + sinh r * 0 would read NaN.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    return _squeezing_r(omega * chart.alpha)


def thermal_occupation(chart: DiamondChart, omega: float) -> float:
    """Mean interior occupation n = 1/(e^{pi*alpha*omega} - 1) = sinh^2 r.

    Computed algebraically from the squeezing parametrization rather than by
    regularizing the continuum |beta|^2 integral.  Raises DomainCap below
    omega_hat ~ 1.8e-309, where n ~ 1/(pi omega_hat) overflows to inf.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    x2 = math.exp(-math.pi * omega * chart.alpha)
    n = x2 / -math.expm1(-math.pi * omega * chart.alpha)
    if not math.isfinite(n):
        raise DomainCap(f"omega_hat = {omega * chart.alpha:.6g}: the thermal occupation overflows")
    return n


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

    r = squeezing_from_frequency(m.chart, m.freq)
    if m.family is Family.UNRUH_H_INT:
        return math.cosh(r) * g_int() + math.sinh(r) * g_ext().conjugate()
    return math.cosh(r) * g_ext() + math.sinh(r) * g_int().conjugate()


# ---------------------------------------------------------------------------
# Bogoliubov coefficients between Minkowski and interior/exterior modes
# ---------------------------------------------------------------------------

def _check_bog_args(omega_hat, k_hat, kind):
    for name, value in (("omega_hat", omega_hat), ("k_hat", k_hat)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if kind not in ("alpha", "beta"):
        raise ValueError("kind must be 'alpha' or 'beta'")


def _exterior(method, chart, omega_hat, k_hat, kind, **options):
    """Exterior coefficient from the interior one of the other kind that
    ``method`` returns, by the positive-frequency identity of h_int and h_ext:
    alpha_ext = -conj(beta_int)/tanh r and beta_ext = -tanh r conj(alpha_int),
    with tanh r = e^{-pi w/2}.  It meets the interior's tolerance or raises
    as the interior does."""
    tanh_r = math.exp(-0.5 * math.pi * omega_hat)
    if kind == "alpha":
        return -method(chart, omega_hat, k_hat, "beta", **options).conjugate() / tanh_r
    return -tanh_r * method(chart, omega_hat, k_hat, "alpha", **options).conjugate()


def bogoliubov_closed_form(
    chart: DiamondChart,
    omega_hat: float,
    k_hat: float,
    kind: str,
    region: ModeRegion = ModeRegion.INT,
) -> complex:
    """Coefficient via the Kummer closed form.

    Interior alpha: (alpha/2) sqrt(wk)/sinh(pi w/2) e^{-ik} M(1 - iw/2, 2, +2ik)
    Interior beta:  the same with k -> -k inside the phase and M (sqrt(k) fixed).
    Both brackets are real.  The exterior coefficients are the interior ones
    of the other kind through the positive-frequency identity.  Raises
    DomainCap where sinh(pi w/2) overflows, past w ~ 452.
    """
    _check_bog_args(omega_hat, k_hat, kind)
    if region is ModeRegion.EXT:
        return _exterior(bogoliubov_closed_form, chart, omega_hat, k_hat, kind)
    try:
        pref = (chart.alpha / 2.0) * math.sqrt(omega_hat * k_hat) / math.sinh(math.pi * omega_hat / 2.0)
    except OverflowError:
        raise DomainCap(f"omega_hat = {omega_hat:.6g}: sinh(pi omega_hat/2) overflows") from None
    sign = 1.0 if kind == "alpha" else -1.0
    m = kummer_m(KummerParams(1.0 - 0.5j * omega_hat, 2.0, sign * 2j * k_hat))
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

    Interior alpha: direct quadrature over the support (-alpha, alpha), in
    s = atanh(U/alpha), cut where the tails left out are below a tenth of
    rel_tol*|value|; it raises NonConvergence where rounding alone misses
    rel_tol, and otherwise meets it.  On
    legs into the upper half-plane, where e^{+ikU} decays, the power factor
    of g would reach e^{pi w/2}.  Interior beta: e^{-ikU} decays in the lower
    half-plane, where the power factor is at most 1, so the support closes
    onto the vertical legs U = +/-alpha - i*alpha*y and the integral is
    rot*(L(-alpha) - L(+alpha)) with rot = -i.  Both legs are summed in one
    plain nested trapezoid in p = ln y, which raises NonConvergence where
    rounding alone misses rel_tol.  Exterior: the interior quadrature of the
    other kind through the positive-frequency identity, so it too meets
    rel_tol or raises.  Raises ValueError unless 0 < rel_tol < 1.
    """
    _check_bog_args(omega_hat, k_hat, kind)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if region is ModeRegion.EXT:
        return _exterior(bogoliubov_quadrature, chart, omega_hat, k_hat, kind, rel_tol=rel_tol)
    pref = chart.alpha / (2.0 * math.pi) * math.sqrt(k_hat / omega_hat)
    if kind == "alpha":
        # u = tanh s turns the power ((1+u)/(1-u))^(-iw/2) into e^{-iws}, so
        # the integrand is e^{i theta} sech^2 s with theta = k tanh s - w s,
        # and its phase is exact at every s.  Written as 4e/(1+e)^2 with
        # e = e^{-2|s|}, sech^2 s is exact to a few eps at any s; a node is
        # rounded by at most sech^2 s (|theta| + 4) eps, and the part beyond
        # +/-S is at most 4e^{-2S}.  In s the integrand is analytic for
        # |Im s| < pi/2, where the tanh term grows by up to e^{nu tan a} on
        # the line Im s = a, nu = w + k.  A first spacing h = pi/nu puts the first
        # alias a full nu clear of that band: its error is about e^{-0.57 nu},
        # and each halving doubles the margin
        S = 0.5 * math.log(40.0 / rel_tol) + 2.0
        h = min(0.5, math.pi / max(1.0, omega_hat + k_hat))

        def f(s):
            e = np.exp(-2.0 * np.abs(s))
            sech2 = 4.0 * e / (1.0 + e) ** 2
            theta = k_hat * np.tanh(s) - omega_hat * s
            return np.exp(1j * theta) * sech2, sech2 * (np.abs(theta) + 4.0)

        # a value that the rounding check lets through is at least
        # 8 eps/rel_tol, so S grows by a few steps at most
        while True:
            value, _ = _nested_trapezoid(f, -S, S, h, rel_tol, rounding=True)
            if 4.0 * math.exp(-2.0 * S) <= 0.1 * rel_tol * abs(value):
                return pref * value
            S += 2.0

    # substitute y = e^p on the vertical legs; p_hi is sized to the decay
    # e^{-k y}, and p_lo falls with k, as the legs' summed modulus does
    p_hi = math.log((math.log(1.0 / rel_tol) + omega_hat + 5.0) / k_hat) + 0.5
    ln_k = math.log(max(1.0, k_hat))
    # On every leg the integrand in p is analytic for |Im p| < pi/2 (the
    # power's branch point sits at y = +/-2i, p = ln 2 +/- i pi/2), where the
    # power grows by up to e^{pi w/2} and e^{-ky} still decays: the trapezoid
    # error exp(-pi^2/h) of a first spacing of this size is already near
    # rel_tol
    h = math.pi ** 2 / (math.log(1.0 / rel_tol) + 5.0 + 0.5 * math.pi * omega_hat)

    # On the legs u = -/+1 - iy the two integrands of beta share the
    # modulus m = e^{-pi w/4} e^{-(w/2) atan(y/2) - ky} and carry the
    # conjugate phases e^{-/+i(psi - k)}, psi = -(w/4) ln(1 + 4/y^2), so
    # rot*(L(-1) - L(+1)) = -2 int m y sin(psi - k) dp.  The sine is
    # expanded so that k enters only through sin k and cos k.  A term
    # v is then rounded by a few eps times m y |psi| (psi is known to
    # eps |psi|), m y |sin k| and |v|; the stop test weighs the sum of
    # these bounds against rel_tol |value|.  Near y = 0 the terms fall
    # like y, so the part cut off below y = e^{p_lo}, eps e^{-5}/max(1, k),
    # stays below eps times the summed bounds.  In the code m carries the
    # factor y and leaves e^{-pi w/4} to the prefactor.
    p_lo = math.log(np.finfo(float).eps) - ln_k - 5.0
    cos_k, sin_k = math.cos(k_hat), math.sin(k_hat)

    def legs(p):
        y = np.exp(p)
        m = y * np.exp(-0.5 * omega_hat * np.arctan(0.5 * y) - k_hat * y)
        psi = -0.25 * omega_hat * np.logaddexp(0.0, _LN4 - 2.0 * p)
        v = m * (np.sin(psi) * cos_k - np.cos(psi) * sin_k)
        return v, m * (np.abs(psi) + abs(sin_k)) + np.abs(v)

    value, _ = _nested_trapezoid(legs, p_lo, p_hi, h, rel_tol, rounding=True)
    return complex(-2.0 * pref * math.exp(-0.25 * math.pi * omega_hat) * value.real)

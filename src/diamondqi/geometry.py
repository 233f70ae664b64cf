"""Conformal diamond geometry: charts, coordinate maps, region atlas.

Conventions
-----------
A diamond of half-lifetime ``alpha`` is centered at the origin of the
(t, x) plane: D = {|t| + |x| < alpha}.  Three coordinate systems appear:

* ``DIAMOND``  - Minkowski coordinates (t, x) of the diamond spacetime,
* ``RINDLER``  - Minkowski coordinates (t~, x~) of the Rindler spacetime,
* ``ETA_XI``   - Rindler-type diamond coordinates (eta, xi) with a patch
  sign epsilon (+1 interior D, -1 exterior DBar).

The composite conformal map between DIAMOND and RINDLER depends on the
dilatation scale ``lam`` only through alpha~ = 2*alpha/lam; the map
(t, x) -> (eta, xi) is lam-independent.  All formulas are evaluated in
hatted (alpha-normalized) variables internally.
"""

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import OnHorizon, SingularPoint, UnsupportedRegion

SINGULAR_TOL = 1e-10  # hatted units, i.e. relative to alpha


class Frame(enum.Enum):
    DIAMOND = "diamond"
    RINDLER = "rindler"
    ETA_XI = "eta-xi"


class Region(enum.Enum):
    D = "D"
    DBAR = "DBar"
    DBARBAR_FUTURE_IMAGE = "DBarBar-F"
    DBARBAR_PAST_IMAGE = "DBarBar-P"
    BOUNDARY = "Boundary"


class Wedge(enum.Enum):
    R = "R"
    L = "L"
    F = "F"
    P = "P"


@dataclass(frozen=True)
class DiamondChart:
    """Diamond parameter bundle: half-lifetime alpha and dilatation lam.

    Derived quantities follow the scaling constraints kappa*lam = 4 and
    accel*alpha = 2 that fix the physical dimensions of the chart.
    """

    alpha: float
    lam: float = 2.0

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lam must be positive and finite")

    @property
    def alpha_tilde(self) -> float:
        return 2.0 * self.alpha / self.lam

    @property
    def kappa(self) -> float:
        return 4.0 / self.lam

    @property
    def accel(self) -> float:
        return 2.0 / self.alpha

    @property
    def lifetime(self) -> float:
        return 2.0 * self.alpha

    @property
    def temperature(self) -> float:
        return 2.0 / (math.pi * self.lifetime)


def _squeezing_r(omega_hat: float) -> float:
    """r = atanh(e^{-x}), x = pi*omega_hat/2 = omega/(2 T) at the chart's
    temperature T, as (1/2) log1p(2 e^{-x}/(-expm1(-x))).

    The one owner of r(omega_hat), for ``modes`` and ``entanglement`` alike.
    atanh of the rounded e^{-x} loses ~eps/x relative as x -> 0; this form
    has no cancellation at any x.
    """
    x = math.pi * omega_hat / 2.0
    return 0.5 * math.log1p(2.0 * math.exp(-x) / -math.expm1(-x))


@dataclass(frozen=True)
class EventCoords:
    """A spacetime point in one of the three frames.

    ``region`` and ``epsilon`` are populated by the classification and
    (eta, xi) operations; for ETA_XI points epsilon selects the patch.
    """

    frame: Frame
    c1: float
    c2: float
    region: Optional[Region] = None
    epsilon: Optional[int] = None

    @classmethod
    def diamond(cls, t: float, x: float) -> "EventCoords":
        return cls(Frame.DIAMOND, t, x)

    @classmethod
    def rindler(cls, t: float, x: float) -> "EventCoords":
        return cls(Frame.RINDLER, t, x)

    @classmethod
    def eta_xi(cls, eta: float, xi: float, epsilon: int = 1) -> "EventCoords":
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        return cls(Frame.ETA_XI, eta, xi, epsilon=epsilon)

    def lightcone(self) -> Tuple[float, float]:
        """Advanced/retarded pair: (V, U) or (V~, U~) or (v, u) = eps*(eta +/- xi)."""
        if self.frame is Frame.ETA_XI:
            eps = self.epsilon if self.epsilon is not None else 1
            return eps * (self.c1 + self.c2), eps * (self.c1 - self.c2)
        return self.c1 + self.c2, self.c1 - self.c2


# hatted map kernels: work for scalars and numpy arrays alike

def _f_plus(th, xh):
    return (xh + 1.0) ** 2 - th ** 2


def _f_minus(th, xh):
    return (xh - 1.0) ** 2 - th ** 2


def _n_func(th, xh):
    return 1.0 - xh ** 2 + th ** 2


def _r2d_hat(tth, txh):
    """Rindler (hatted by alpha~) -> diamond (hatted by alpha)."""
    fp = _f_plus(tth, txh)
    return 2.0 * tth / fp, -_n_func(tth, txh) / fp


def _d2r_hat(th, xh):
    """Diamond (hatted by alpha) -> Rindler (hatted by alpha~)."""
    fm = _f_minus(th, xh)
    return 2.0 * th / fm, _n_func(th, xh) / fm


def rindler_to_diamond(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """Composite conformal image of a Rindler-spacetime point in (t, x)."""
    if p.frame is not Frame.RINDLER:
        raise ValueError("rindler_to_diamond expects a RINDLER-frame point")
    at = chart.alpha_tilde
    tth, txh = p.c1 / at, p.c2 / at
    fp = _f_plus(tth, txh)
    if abs(fp) < SINGULAR_TOL:
        raise SingularPoint(f"F+ = {fp:.3e}: image lies at infinity")
    th, xh = _r2d_hat(tth, txh)
    return EventCoords(Frame.DIAMOND, th * chart.alpha, xh * chart.alpha)


def diamond_to_rindler(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """Inverse conformal map, (t, x) -> (t~, x~)."""
    if p.frame is not Frame.DIAMOND:
        raise ValueError("diamond_to_rindler expects a DIAMOND-frame point")
    a = chart.alpha
    th, xh = p.c1 / a, p.c2 / a
    fm = _f_minus(th, xh)
    if abs(fm) < SINGULAR_TOL:
        raise SingularPoint(f"F- = {fm:.3e}: image lies at infinity")
    tth, txh = _d2r_hat(th, xh)
    at = chart.alpha_tilde
    return EventCoords(Frame.RINDLER, tth * at, txh * at)


def lightcone_map(chart: DiamondChart, V: float, U: float) -> Tuple[float, float]:
    """Map diamond null coordinates (V, U) to Rindler null (V~, U~).

    Valid in all wedges; the lines V = alpha and U = -alpha map to infinity.
    """
    a, at = chart.alpha, chart.alpha_tilde
    vh, uh = V / a, U / a
    if abs(1.0 - vh) < SINGULAR_TOL or abs(1.0 + uh) < SINGULAR_TOL:
        raise SingularPoint("V = alpha or U = -alpha maps to null infinity")
    vt = at * (1.0 + vh) / (1.0 - vh)
    ut = -at * (1.0 - uh) / (1.0 + uh)
    return vt, ut


def classify_region(chart: DiamondChart, p: EventCoords) -> Tuple[Region, Optional[Wedge]]:
    """Atlas location of a DIAMOND-frame point and the Rindler wedge it images.

    Classification uses only |V|, |U| against alpha (sign table of the
    light-cone map), which is exact up to rounding.
    """
    if p.frame is not Frame.DIAMOND:
        raise ValueError("classify_region expects a DIAMOND-frame point")
    V, U = p.lightcone()
    vh, uh = abs(V / chart.alpha), abs(U / chart.alpha)
    if abs(vh - 1.0) < SINGULAR_TOL or abs(uh - 1.0) < SINGULAR_TOL:
        return Region.BOUNDARY, None
    v_in, u_in = vh < 1.0, uh < 1.0
    if v_in and u_in:
        return Region.D, Wedge.R
    if not v_in and not u_in:
        return Region.DBAR, Wedge.L
    if v_in:  # |V| < alpha < |U|
        return Region.DBARBAR_FUTURE_IMAGE, Wedge.F
    return Region.DBARBAR_PAST_IMAGE, Wedge.P


def diamond_coords(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """(t, x) -> (eta, xi) with the patch label; lam-independent.

    Defined on the interior D (epsilon = +1) and the exterior DBar
    (epsilon = -1); the F/P images are classified but carry reversed
    time/space roles and are not exposed here.
    """
    if p.frame is not Frame.DIAMOND:
        raise ValueError("diamond_coords expects a DIAMOND-frame point")
    region, _ = classify_region(chart, p)
    if region is Region.BOUNDARY:
        raise OnHorizon("point lies on a horizon line t = +/-(x +/- alpha)")
    a = chart.alpha
    V, U = p.lightcone()
    vh, uh = V / a, U / a
    if region is Region.D:
        v = a * math.atanh(vh)
        u = a * math.atanh(uh)
        eta, xi = 0.5 * (v + u), 0.5 * (v - u)
        return EventCoords(Frame.ETA_XI, eta, xi, region=region, epsilon=1)
    if region is Region.DBAR:
        vbar = a * math.atanh(-1.0 / vh)
        ubar = a * math.atanh(-1.0 / uh)
        eta, xi = -0.5 * (vbar + ubar), -0.5 * (vbar - ubar)
        return EventCoords(Frame.ETA_XI, eta, xi, region=region, epsilon=-1)
    raise UnsupportedRegion(
        f"(eta, xi) not exposed for {region.value}: time/space roles are reversed there"
    )


def eta_xi_to_diamond(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """Inverse of diamond_coords on the D and DBar patches."""
    if p.frame is not Frame.ETA_XI:
        raise ValueError("eta_xi_to_diamond expects an ETA_XI-frame point")
    a = chart.alpha
    v, u = p.lightcone()
    eps = p.epsilon if p.epsilon is not None else 1
    if eps == 1:
        vh, uh = math.tanh(v / a), math.tanh(u / a)
    else:
        if abs(v) < SINGULAR_TOL * a or abs(u) < SINGULAR_TOL * a:
            raise SingularPoint("eta = +/-xi maps to infinity on the exterior patch")
        vh, uh = -1.0 / math.tanh(v / a), -1.0 / math.tanh(u / a)
    t = 0.5 * a * (vh + uh)
    x = 0.5 * a * (vh - uh)
    region = Region.D if eps == 1 else Region.DBAR
    return EventCoords(Frame.DIAMOND, t, x, region=region, epsilon=eps)


def eta_xi_to_rindler(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """Rindler chart of the R/L wedges: (eta, xi) -> (t~, x~)."""
    if p.frame is not Frame.ETA_XI:
        raise ValueError("eta_xi_to_rindler expects an ETA_XI-frame point")
    a, at = chart.alpha, chart.alpha_tilde
    eps = p.epsilon if p.epsilon is not None else 1
    eta, xi = p.c1, p.c2
    pref = eps * at * math.exp(2.0 * xi / a)
    return EventCoords(Frame.RINDLER, pref * math.sinh(2.0 * eta / a), pref * math.cosh(2.0 * eta / a))


def rindler_to_eta_xi(chart: DiamondChart, p: EventCoords) -> EventCoords:
    """Invert the Rindler chart on the R (eps=+1) and L (eps=-1) wedges."""
    if p.frame is not Frame.RINDLER:
        raise ValueError("rindler_to_eta_xi expects a RINDLER-frame point")
    a, at = chart.alpha, chart.alpha_tilde
    tth, txh = p.c1 / at, p.c2 / at
    if abs(txh) - abs(tth) < SINGULAR_TOL:
        raise UnsupportedRegion("point not in the R or L Rindler wedge")
    eps = 1 if txh > 0 else -1
    eta = 0.5 * a * math.atanh(tth / txh)
    xi = 0.25 * a * math.log(txh ** 2 - tth ** 2)
    return EventCoords(Frame.ETA_XI, eta, xi, epsilon=eps)


def conformal_factor(chart: DiamondChart, p: EventCoords) -> float:
    """Conformal scaling Omega = F+(t~/alpha~, x~/alpha~) of the metric map.

    Satisfies ds^2 = (lam*kappa/Omega)^2 * e^{2*accel*xi} (-deta^2 + dxi^2)
    with lam*kappa = 4; Omega = 4 at the diamond center.
    """
    if p.frame is not Frame.RINDLER:
        raise ValueError("conformal_factor expects a RINDLER-frame point")
    at = chart.alpha_tilde
    fp = _f_plus(p.c1 / at, p.c2 / at)
    if abs(fp) < SINGULAR_TOL:
        raise SingularPoint("F+ vanishes: conformal factor singular here")
    return fp


def convert(chart: DiamondChart, p: EventCoords, to: Frame) -> EventCoords:
    """Convert a point between any two of the three frames."""
    if p.frame is to:
        return p
    if p.frame is Frame.ETA_XI:
        q = eta_xi_to_diamond(chart, p)
        return q if to is Frame.DIAMOND else diamond_to_rindler(chart, q)
    if p.frame is Frame.RINDLER:
        q = rindler_to_diamond(chart, p)
        return q if to is Frame.DIAMOND else diamond_coords(chart, q)
    return diamond_to_rindler(chart, p) if to is Frame.RINDLER else diamond_coords(chart, p)

"""The invariant registry: each closed form tied to an independent oracle.

``CHECKS`` maps each invariant's name to its check, in the order
``diamondqi selftest`` prints them.  A check is called as
``check(seed, perturb)`` with a nonnegative integer seed and returns
``(ok, detail)``.  A check that samples draws its points from the standard
library's ``random.Random(seed)``, so the same seed gives the same points
and no caller builds a generator.  ``run_selftest`` runs every entry; the
test suite runs every entry at two seeds, so each invariant is written down
once.

``PERTURBATIONS`` maps each negative control to the one check it must trip:
``perturb="bogoliubov-closed"`` scales the Bogoliubov closed form,
``perturb="ppt-closed"`` the PPT spectrum, ``perturb="squeezing"`` the
squeezing r(omega_hat), and ``perturb="ext-identity"`` the exterior
coefficients that both methods take from the positive-frequency identity,
by 1.001.
"""

import math
import numbers
import random
import sys
import time

import numpy as np

from .entanglement import (
    entropies,
    figure_grid,
    log_negativity,
    mutual_information,
    negativity,
    ppt_spectrum_closed_form,
    ppt_spectrum_oracle,
    sweep,
)
from .geometry import (
    DiamondChart,
    EventCoords,
    Region,
    Wedge,
    _d2r_hat,
    _r2d_hat,
    classify_region,
    conformal_factor,
    diamond_coords,
    eta_xi_to_rindler,
    rindler_to_diamond,
)
from .modes import (
    ModeRegion,
    bogoliubov_closed_form,
    bogoliubov_quadrature,
    squeezing_from_frequency,
    thermal_occupation,
)
from .specfun import KummerParams, _nested_trapezoid, kummer_m
from .states import (
    FockTruncation,
    _block_eigvalsh,
    build_rho_ad,
    partial_transpose,
    reduce_to_alice,
    reduce_to_dave,
    unruh_one_particle_coefficients,
    unruh_vacuum_coefficients,
)

PERTURBATIONS = {
    "bogoliubov-closed": "bogoliubov-closed-vs-quadrature",
    "ppt-closed": "ppt-closed-vs-oracle",
    "squeezing": "thermality",
    "ext-identity": "bogoliubov-ext-positive-frequency",
}


def _worst(*errors):
    """The largest error, or NaN when any is NaN, so that a NaN fails its bound."""
    return math.nan if any(math.isnan(e) for e in errors) else max(errors)


def _uniform(rng, lo, hi, n):
    """n floats uniform on [lo, hi) from a ``random.Random``: 53 random bits each."""
    u = (np.frombuffer(rng.randbytes(8 * n), "<u8") >> 11) * 2.0 ** -53
    return lo + (hi - lo) * u


def _wedge_samples(rng, n, wedge):
    """Hatted Rindler-spacetime points strictly inside one wedge."""
    a = _uniform(rng, -3.0, 3.0, n)
    b = np.abs(a) + _uniform(rng, 0.05, 4.0, n)
    if wedge == "R":
        return a, b
    if wedge == "L":
        return a, -b
    if wedge == "F":
        return b, a
    return -b, a


def _check_roundtrip(seed, _):
    rng = random.Random(seed)
    worst = 0.0
    for wedge in ("R", "L", "F", "P"):
        tth, txh = _wedge_samples(rng, 10_000, wedge)
        fp = (txh + 1.0) ** 2 - tth ** 2
        th, xh = _r2d_hat(tth, txh)
        fm = (xh - 1.0) ** 2 - th ** 2
        keep = (np.abs(fm) > 1e-2) & (np.abs(fp) > 1e-2)
        bt, bx = _d2r_hat(th[keep], xh[keep])
        scale = np.maximum(1.0, np.maximum(np.abs(tth[keep]), np.abs(txh[keep])))
        worst = _worst(worst, float(np.max(np.hypot(bt - tth[keep], bx - txh[keep]) / scale)))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def _interior_samples(rng, n):
    """Up to n diamond points drawn in |t|, |x| < 0.9 with |t| + |x| <= 0.97."""
    for _ in range(n):
        t, x = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        if abs(t) + abs(x) <= 0.97:
            yield t, x


def _check_lambda_independence(seed, _):
    rng = random.Random(seed)
    charts = [DiamondChart(1.0, lam) for lam in (0.5, 1.0, 2.0, 5.0)]
    worst = 0.0
    for t, x in _interior_samples(rng, 200):
        arr = np.array(
            [(e.c1, e.c2) for e in (diamond_coords(ch, EventCoords.diamond(t, x)) for ch in charts)]
        )
        worst = _worst(worst, float(np.ptp(arr[:, 0])), float(np.ptp(arr[:, 1])))
    return worst < 1e-12, f"worst spread {worst:.2e}"


def _check_boundary_lines(seed, _):
    rng = random.Random(seed)
    chart = DiamondChart(1.0, 2.0)
    worst = 0.0
    for s in _uniform(rng, 0.05, 5.0, 50):
        for tt, tx in ((s, s), (s, -s), (-s, s), (-s, -s)):
            p = rindler_to_diamond(chart, EventCoords.rindler(tt * chart.alpha_tilde, tx * chart.alpha_tilde))
            V, U = p.lightcone()
            worst = _worst(worst, min(abs(abs(V) - 1.0), abs(abs(U) - 1.0)))
    return worst < 1e-12, f"worst off-line {worst:.2e}"


def _check_horizon_worldline(seed, _):
    chart = DiamondChart(1.0, 2.0)
    ts = []
    for eta in np.linspace(0.0, 6.0, 25):
        p = rindler_to_diamond(chart, eta_xi_to_rindler(chart, EventCoords.eta_xi(eta, 0.0, 1)))
        if abs(p.c1) + abs(p.c2) >= 1.0:
            return False, f"left D at eta={eta}"
        ts.append(p.c1)
    monotone = all(b > a for a, b in zip(ts, ts[1:]))
    near_top = abs(ts[-1] - 1.0) < 1e-4 and abs(p.c2) < 1e-4
    return monotone and near_top, f"t(6) = {ts[-1]:.6f}"


def _check_tanh_relation(seed, _):
    rng = random.Random(seed)
    chart = DiamondChart(1.0, 2.0)
    worst = 0.0
    for t, x in _interior_samples(rng, 300):
        e = diamond_coords(chart, EventCoords.diamond(t, x))
        v, u = e.lightcone()
        V, U = t + x, t - x
        worst = _worst(worst, abs(V - math.tanh(v)), abs(U - math.tanh(u)))
    return worst < 1e-12, f"worst {worst:.2e}"


# the interior, and every exterior region/wedge correspondence
REGION_BATTERY = [
    ((0.0, 0.0), Region.D, Wedge.R),
    ((0.0, 2.0), Region.DBAR, Wedge.L),
    ((0.0, -2.0), Region.DBAR, Wedge.L),
    ((2.0, 0.0), Region.DBAR, Wedge.L),
    ((-2.0, 0.0), Region.DBAR, Wedge.L),
    ((0.5, -1.2), Region.DBARBAR_FUTURE_IMAGE, Wedge.F),
    ((-0.5, 1.2), Region.DBARBAR_FUTURE_IMAGE, Wedge.F),
    ((0.5, 1.2), Region.DBARBAR_PAST_IMAGE, Wedge.P),
    ((-0.5, -1.2), Region.DBARBAR_PAST_IMAGE, Wedge.P),
    ((2.5, 0.0), Region.DBAR, Wedge.L),
    ((-2.5, 0.0), Region.DBAR, Wedge.L),
]


def _check_region_battery(seed, _):
    chart = DiamondChart(1.0, 2.0)
    for (t, x), region, wedge in REGION_BATTERY:
        got = classify_region(chart, EventCoords.diamond(t, x))
        if got != (region, wedge):
            return False, f"({t},{x}) -> {got}, want {(region, wedge)}"
    return True, f"{len(REGION_BATTERY)} points"


def _check_metric(seed, _):
    rng = random.Random(seed)
    worst = 0.0
    for alpha in (1.0, 1.3):
        chart = DiamondChart(alpha, 2.0)

        def comp(eta, xi):
            q = rindler_to_diamond(chart, eta_xi_to_rindler(chart, EventCoords.eta_xi(eta, xi, 1)))
            return np.array([q.c1, q.c2])

        h = 1e-6 * chart.alpha
        for _ in range(20):
            eta, xi = _uniform(rng, -0.5, 0.5, 2) * chart.alpha
            J = np.empty((2, 2))
            J[:, 0] = (comp(eta + h, xi) - comp(eta - h, xi)) / (2 * h)
            J[:, 1] = (comp(eta, xi + h) - comp(eta, xi - h)) / (2 * h)
            G = J.T @ np.diag([-1.0, 1.0]) @ J
            om = conformal_factor(chart, eta_xi_to_rindler(chart, EventCoords.eta_xi(eta, xi, 1)))
            pref = (4.0 / om) ** 2 * math.exp(4.0 * xi / chart.alpha)
            worst = _worst(worst, float(np.max(np.abs(G - pref * np.diag([-1.0, 1.0]))) / pref))
    return worst < 1e-6, f"worst rel {worst:.2e}"


def _check_kummer(seed, _):
    for a in (1 - 0.5j, 1 - 0.7j):
        if kummer_m(KummerParams(a, 2.0, 0.0)) != 1.0:
            return False, f"M({a},2,0) != 1"
    z = 2j
    ident = abs(kummer_m(KummerParams(1.0, 2.0, z)) - (np.exp(z) - 1.0) / z)
    if not ident < 1e-15:
        return False, f"M(1,2,z) identity off by {ident:.2e}"
    worst = 0.0
    for w in (0.5, 2.0, 7.0):
        for x in (0.5, 3.0, 9.0):
            a, b, zz = 1 - 0.5j * w, 2.0 + 0.0j, 1j * x
            m = kummer_m(KummerParams(a, b, zz))
            res = (
                (b - a) * kummer_m(KummerParams(a - 1, b, zz))
                + (2 * a - b + zz) * m
                - a * kummer_m(KummerParams(a + 1, b, zz))
            )
            conj_gap = abs(m.conjugate() - kummer_m(KummerParams(a.conjugate(), b, -zz)))
            worst = _worst(worst, abs(res), conj_gap)
    return worst < 1e-8, f"worst residual {worst:.2e}"


def _check_quadrature(seed, _):
    # int e^{i w s} sech^2 s ds = pi w/sinh(pi w/2); past |s| = 18 the
    # integrand is below 1e-15
    w = 3.0
    got, _ = _nested_trapezoid(lambda s: np.exp(1j * w * s) / np.cosh(s) ** 2, -18.0, 18.0, 0.5, 1e-12)
    err = abs(got - math.pi * w / math.sinh(math.pi * w / 2.0))
    zero = all(
        _nested_trapezoid(lambda s: np.zeros_like(s, dtype=complex), lo, 1.0, 0.5, 1e-10)[0] == 0
        for lo in (0.0, -1.0)
    )
    return err < 1e-12 and zero, f"closed-form err {err:.2e}"


_BOG_GRID = [0.5, 1.0, 2.0, 4.0, 8.0]


def _check_bogoliubov_grid(seed, perturb):
    chart = DiamondChart(1.0)
    factor = 1.001 if perturb == "bogoliubov-closed" else 1.0
    worst_rel = worst_abs = 0.0
    for w in _BOG_GRID:
        for k in _BOG_GRID:
            for kind in ("alpha", "beta"):
                c = factor * bogoliubov_closed_form(chart, w, k, kind)
                q = bogoliubov_quadrature(chart, w, k, kind)
                worst_rel = _worst(worst_rel, abs(c - q) / abs(c))
                worst_abs = _worst(worst_abs, abs(c - q))
    ok = worst_rel < 1e-6 and worst_abs < 1e-8
    return ok, f"worst rel deviation {worst_rel:.2e}, abs {worst_abs:.2e}"


def _check_bogoliubov_symmetries(seed, _):
    chart = DiamondChart(1.0)
    worst_imag = 0.0
    for (w, k) in ((0.7, 1.3), (2.0, 4.0)):
        for kind in ("alpha", "beta"):
            c = bogoliubov_closed_form(chart, w, k, kind)
            worst_imag = _worst(worst_imag, abs(c.imag) / abs(c))
    decays = abs(bogoliubov_closed_form(chart, 8.0, 2.0, "beta")) < abs(
        bogoliubov_closed_form(chart, 4.0, 2.0, "beta")
    )
    return worst_imag < 1e-9 and decays, f"residual imag {worst_imag:.2e}"


def _contour_exterior(w, k, kind):
    """Exterior coefficient at alpha = 1 as the Abel limit of its own Fourier
    transform, sqrt(k/w)/(2 pi) int_{|u|>1} ((u+1)/(u-1))^{iw/2} e^{+/-iku} du.
    Each half of the support turns onto the side u = b + rot*y, b = +/-1,
    where e^{+/-iku} decays (rot = +i for alpha, -i for beta); the two sides
    are summed node by node in p = ln y, so the loop's tolerance holds for
    their difference."""
    rot = 1j if kind == "alpha" else -1j

    def f(p):
        y = np.exp(p)
        total = 0.0
        for b in (1.0, -1.0):
            tau = b + rot * y
            total = total + b * np.exp(0.5j * w * np.log((tau + 1.0) / (tau - 1.0)) + rot * k * b)
        return total * np.exp(-k * y) * y

    value, _ = _nested_trapezoid(f, -40.0, math.log(60.0 / k), 0.25, 1e-13)
    return rot * value * math.sqrt(k / w) / (2.0 * math.pi)


def _check_ext_positive_frequency(seed, perturb):
    # both methods take the exterior from the interior through the
    # positive-frequency identity; the oracle integrates the exterior mode
    factor = 1.001 if perturb == "ext-identity" else 1.0
    chart = DiamondChart(1.0)
    worst = 0.0
    for (w, k) in ((1.0, 1.0), (2.0, 1.5), (0.5, 3.0)):
        for kind in ("alpha", "beta"):
            want = _contour_exterior(w, k, kind)
            for method in (bogoliubov_closed_form, bogoliubov_quadrature):
                got = factor * method(chart, w, k, kind, ModeRegion.EXT)
                worst = _worst(worst, abs(got - want) / abs(want))
    return worst < 1e-8, f"worst rel deviation {worst:.2e}"


def _check_thermality(seed, perturb):
    factor = 1.001 if perturb == "squeezing" else 1.0
    chart = DiamondChart(1.0)
    worst = 0.0
    for wh in np.linspace(0.1, 20.0, 400):
        r = squeezing_from_frequency(chart, wh) * factor
        boltz = math.exp(-math.pi * wh)
        n = thermal_occupation(chart, wh)
        worst = _worst(
            worst,
            abs(math.tanh(r) ** 2 - boltz) / boltz,
            abs(n / (1.0 + n) - boltz) / boltz,
            abs(n - math.sinh(r) ** 2) / max(n, 1e-300),
        )
    return worst <= 1e-15, f"worst rel {worst:.2e}"


def _check_squeezed_state_norms(seed, _):
    chart = DiamondChart(1.0)
    worst = 0.0
    for wh in (0.3, 1.0, 4.0):
        r = squeezing_from_frequency(chart, wh)
        worst = _worst(worst, abs(math.cosh(r) ** 2 - math.sinh(r) ** 2 - 1.0))
    trunc = FockTruncation.fixed(40, 0.5)
    vac = unruh_vacuum_coefficients(0.5, trunc)
    one = unruh_one_particle_coefficients(0.5, trunc)
    worst = _worst(worst, abs((vac ** 2).sum() - 1.0), abs((one ** 2).sum() - 1.0))
    return worst < 1e-12, f"worst deficit {worst:.2e}"


def _check_state_integrity(seed, _):
    worst_tr = worst_eig = worst_alice = worst_dave = 0.0
    for r in (0.0, 0.5, 1.0, 2.0):
        st = build_rho_ad(r)
        rows, cols, values, _ = entries = st.entries()
        worst_tr = _worst(worst_tr, abs(st.trace() - 1.0) - st.trunc.tail_bound)
        worst_eig = _worst(worst_eig, -float(_block_eigvalsh(*entries)[0]))
        alice = reduce_to_alice(st)
        worst_alice = _worst(worst_alice, float(np.abs(alice - 0.5).max()) - st.trunc.tail_bound)
        dave = reduce_to_dave(st)
        # the partial trace over Alice: diagonal entry (a, d) adds to level d
        diag = rows == cols
        oracle = np.bincount(rows[diag] % st.dave_dim, values[diag], minlength=st.dave_dim)
        worst_dave = _worst(worst_dave, float(np.abs(dave - oracle).max()))
    ok = worst_tr <= 1e-13 and worst_eig <= 1e-12 and worst_alice <= 1e-13 and worst_dave <= 1e-12
    return ok, f"trace {worst_tr:.1e} eig {worst_eig:.1e} alice {worst_alice:.1e} dave {worst_dave:.1e}"


def _check_partial_transpose(seed, _):
    # at (0.6, 60) the last retained level carries ~1e-32; at (1.0, 10) and
    # (0, 1) it carries 6.6e-3 and 0.5
    diff, blocks_ok = 0.0, True
    for r, n_max in ((0.6, 60), (1.0, 10), (0.0, 1)):
        st = build_rho_ad(r, FockTruncation.fixed(n_max, r))
        pt = partial_transpose(st)
        dense = st.to_dense()
        dd = st.dave_dim
        swapped = dense.copy()
        swapped[:dd, dd:] = dense[dd:, :dd]
        swapped[dd:, :dd] = dense[:dd, dd:]
        diff = _worst(diff, float(np.abs(pt.to_dense() - swapped).max()))
        blocks_ok = blocks_ok and pt.pt_diag1.shape == (n_max,)
    return diff == 0.0 and blocks_ok, f"entrywise {diff:.2e}"


def _check_ppt_oracle(seed, perturb):
    factor = 1.001 if perturb == "ppt-closed" else 1.0
    worst = 0.0
    for r in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0):
        trunc = FockTruncation.fixed(80, r)
        spec = ppt_spectrum_closed_form(r, trunc)
        if not (spec.pairs[:, 1] < 0).all():
            return False, f"nonnegative lambda- at r={r}"
        closed = np.sort(spec.all_values() * factor)
        oracle = ppt_spectrum_oracle(r, trunc)
        worst = _worst(worst, float(np.abs(closed - oracle).max()))
    return worst < 1e-8, f"worst abs {worst:.2e}"


def _check_negativity_identities(seed, _):
    worst = 0.0
    for r in (0.3, 1.0, 3.0):
        trunc = FockTruncation.fixed(200, r)
        tn = float(np.abs(ppt_spectrum_oracle(r, trunc)).sum())
        worst = _worst(worst, abs(log_negativity(r, trunc) - math.log2(tn)))
        worst = _worst(worst, abs(log_negativity(r) - math.log2(2.0 * negativity(r) + 1.0)))
    return worst < 1e-8, f"worst {worst:.2e}"


def _check_endpoint_limits(seed, _):
    ok = (
        log_negativity(0.0) == 1.0
        and mutual_information(0.0) == 2.0
        and log_negativity(8.0) < 1e-3
        and abs(mutual_information(8.0) - 1.0) < 1e-3
    )
    return ok, f"N(8) = {log_negativity(8.0):.2e}, I(8)-1 = {mutual_information(8.0)-1.0:.2e}"


def _check_monotonicity(seed, _):
    grid = [0.1 * i for i in range(51)]
    reports, errors = sweep(r_values=grid)
    if errors:
        return False, f"sweep errors {errors}"
    nl = [rep.neg_log for rep in reports]
    mi = [rep.mutual_info for rep in reports]
    ok = all(b < a for a, b in zip(nl, nl[1:])) and all(b < a for a, b in zip(mi, mi[1:]))
    return ok, "strictly decreasing on [0,5] step 0.1"


def _check_figure_endpoints(seed, _):
    reports, errors = sweep(r_values=figure_grid())
    if errors:
        return False, f"sweep errors {errors}"
    first, last = reports[0], reports[-1]
    ok = (
        first.r == 0.0
        and first.neg_log == 1.0
        and first.mutual_info == 2.0
        and last.neg_log < 0.01
        and 1.0 < last.mutual_info < 1.05
    )
    return ok, f"N(5) = {last.neg_log:.3e}, I(5) = {last.mutual_info:.6f}"


def _check_recombination(seed, _):
    worst = 0.0
    for r in (0.2, 0.9, 2.5):
        s_a, s_d, s_ad = entropies(r)
        worst = _worst(worst, abs(s_a + s_d - s_ad - mutual_information(r)))
    return worst < 1e-9, f"worst {worst:.2e}"


def _check_determinism(seed, _):
    # r = 2.8 takes the Euler-Maclaurin tail, the others the direct sum; the
    # repr of a float round-trips, so equal reprs mean bit-identical reports
    grid = [0.0, 0.5, 1.0, 2.8]
    runs = [repr(sweep(r_values=grid)) for _ in range(2)]
    return runs[0] == runs[1], "bit-identical reports"


CHECKS = {
    "geometry-round-trip": _check_roundtrip,
    "geometry-lambda-independence": _check_lambda_independence,
    "geometry-boundary-lines": _check_boundary_lines,
    "geometry-horizon-worldline": _check_horizon_worldline,
    "geometry-tanh-relation": _check_tanh_relation,
    "geometry-region-battery": _check_region_battery,
    "geometry-metric-pullback": _check_metric,
    "kummer-identities": _check_kummer,
    "quadrature-closed-forms": _check_quadrature,
    "bogoliubov-closed-vs-quadrature": _check_bogoliubov_grid,
    "bogoliubov-symmetries": _check_bogoliubov_symmetries,
    "bogoliubov-ext-positive-frequency": _check_ext_positive_frequency,
    "thermality": _check_thermality,
    "squeezed-state-norms": _check_squeezed_state_norms,
    "state-integrity": _check_state_integrity,
    "partial-transpose-entrywise": _check_partial_transpose,
    "ppt-closed-vs-oracle": _check_ppt_oracle,
    "negativity-identities": _check_negativity_identities,
    "endpoint-limits": _check_endpoint_limits,
    "monotonicity": _check_monotonicity,
    "figure-endpoints": _check_figure_endpoints,
    "entropy-recombination": _check_recombination,
    "output-determinism": _check_determinism,
}


def run_selftest(seed: int = 0, perturb: str = None, stream=None) -> int:
    """Run every registry entry at this seed and print one PASS/FAIL line
    each; returns the number of failures."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if perturb is not None and perturb not in PERTURBATIONS:
        raise ValueError(f"unknown perturbation {perturb!r}; choose from {sorted(PERTURBATIONS)}")
    stream = stream or sys.stdout
    t0 = time.perf_counter()
    failures = 0
    for name, check in CHECKS.items():
        try:
            ok, detail = check(seed, perturb)
        except Exception as exc:  # noqa: BLE001 - reported as a failing check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        stream.write(f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n")
    elapsed = time.perf_counter() - t0
    stream.write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed in {elapsed:.2f}s\n")
    return failures

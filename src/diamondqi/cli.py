"""Command-line front end: reproducible runs of the maps, coefficients,
states, entanglement sweeps, figure data, and the embedded selftest.

Exit codes: 0 success, 1 numeric failure (JSON error record on stderr),
2 usage error.  Output is byte-deterministic for a fixed invocation.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .entanglement import (
    EntanglementReport,
    figure_grid,
    log_negativity,
    mutual_information,
    negativity as neg_measure,
    entropies,
    ppt_spectrum_closed_form,
    ppt_spectrum_oracle,
    r_from_lifetime,
    report_for,
    sweep,
)
from .errors import DiamondError
from .geometry import (
    DiamondChart,
    EventCoords,
    Frame,
    classify_region,
    conformal_factor,
    convert,
    diamond_coords,
    eta_xi_to_rindler,
    rindler_to_diamond,
)
from .geometry import _d2r_hat, _r2d_hat  # vectorized hatted kernels for batteries
from .modes import (
    Family,
    ModeRegion,
    ModeSpec,
    Sigma,
    bogoliubov_closed_form,
    bogoliubov_quadrature,
    eval_mode,
    squeezing_from_frequency,
    thermal_occupation,
)
from .specfun import KummerParams, QuadratureSpec, kummer_m, oscillatory_integral
from .states import (
    FockTruncation,
    build_rho_ad,
    partial_transpose,
    reduce_to_alice,
    reduce_to_dave,
    unruh_one_particle_coefficients,
    unruh_vacuum_coefficients,
)

_FRAMES = {"diamond": Frame.DIAMOND, "rindler": Frame.RINDLER, "eta-xi": Frame.ETA_XI}
_FAMILIES = {f.value: f for f in Family}


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _point(s: str):
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("point must be 't,x'")
    return float(parts[0]), float(parts[1])


def _grid(s: str):
    parts = s.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be 'lo:hi:step'")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("grid needs step > 0 and hi >= lo")
    count = int(math.floor((hi - lo) / step + 0.5)) + 1
    return [lo + i * step for i in range(count)]


def _emit(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point_json(p: EventCoords):
    d = {"frame": p.frame.value, "point": [p.c1, p.c2]}
    if p.epsilon is not None:
        d["epsilon"] = p.epsilon
    return d


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_map(args) -> int:
    chart = DiamondChart(args.alpha, args.lam)
    frame = _FRAMES[getattr(args, "from")]
    t, x = args.point
    p = (
        EventCoords.eta_xi(t, x, args.epsilon)
        if frame is Frame.ETA_XI
        else EventCoords(frame, t, x)
    )
    out = convert(chart, p, _FRAMES[args.to])
    diamond_pt = convert(chart, p, Frame.DIAMOND)
    region, wedge = classify_region(chart, diamond_pt)
    try:
        rindler_pt = convert(chart, p, Frame.RINDLER)
        omega = conformal_factor(chart, rindler_pt)
    except DiamondError:
        omega = None
    record = {
        "input": _point_json(p),
        "output": _point_json(out),
        "region": region.value,
        "wedge": wedge.wedge.value if wedge else None,
        "conformal_factor": omega,
    }
    print(json.dumps(record))
    return 0


def cmd_modes(args) -> int:
    chart = DiamondChart(args.alpha)
    spec = ModeSpec(Sigma(args.sigma), args.omega, _FAMILIES[args.family], chart)
    t, x = args.point
    p = EventCoords.diamond(t, x)
    value = eval_mode(spec, p, strict=args.strict)
    record = {
        "family": args.family,
        "sigma": args.sigma,
        "omega": args.omega,
        "alpha": args.alpha,
        "omega_hat": spec.omega_hat,
        "point": [t, x],
        "value": {"re": value.real, "im": value.imag},
        "abs": abs(value),
    }
    print(json.dumps(record))
    return 0


def cmd_bogoliubov(args) -> int:
    chart = DiamondChart(args.alpha)
    region = ModeRegion(args.region)
    record = {
        "alpha": args.alpha,
        "omega_hat": args.omega_hat,
        "k_hat": args.k_hat,
        "kind": args.kind,
        "region": args.region,
    }
    closed = quad = None
    if args.method in ("closed", "both"):
        closed = bogoliubov_closed_form(chart, args.omega_hat, args.k_hat, args.kind, region)
        record["closed"] = {"re": closed.real, "im": closed.imag}
    if args.method in ("quadrature", "both"):
        quad = bogoliubov_quadrature(
            chart, args.omega_hat, args.k_hat, args.kind, region, rel_tol=args.rel_tol
        )
        record["quadrature"] = {"re": quad.real, "im": quad.imag}
    if args.method == "both":
        record["deviation"] = abs(closed - quad) / max(abs(closed), 1e-300)
    print(json.dumps(record))
    return 0


def _resolve_r(args):
    if args.r is not None:
        return float(args.r), None
    if args.omega_hat is None:
        raise DiamondError("provide --r or both --alpha and --omega-hat")
    chart = DiamondChart(args.alpha)
    sq = squeezing_from_frequency(chart, args.omega_hat / chart.alpha)
    return sq.r, sq.omega_hat


def _trunc_for(r, nmax: str, tol: float):
    if nmax == "auto":
        return FockTruncation.auto(r, tol=tol)
    return FockTruncation.fixed(int(nmax), r)


def cmd_state(args) -> int:
    r, omega_hat = _resolve_r(args)
    trunc = _trunc_for(r, args.nmax, args.tol)
    state = build_rho_ad(r, trunc)
    if args.dump == "dense":
        dense = state.to_dense()
        rows = "\n".join(",".join(_fmt(v) for v in row) for row in dense)
        _emit(rows + "\n", args.out)
        return 0
    record = {
        "r": r,
        "omega_hat": omega_hat,
        "n_max": state.n_max,
        "tail_bound": state.trunc.tail_bound,
        "representation": state.representation.value,
        "trace": state.trace(),
        "blocks": [
            {"n": i, "weight": float(w), "gamma": float(g)}
            for i, (w, g) in enumerate(zip(state.weights, state.gammas))
        ],
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


_CSV_HEADER = "r,neg_log,negativity,s_a,s_d,s_ad,mutual_info,n_max_used,tail_bound"


def _report_row(rep: EntanglementReport) -> str:
    return ",".join(
        [
            _fmt(rep.r),
            _fmt(rep.neg_log),
            _fmt(rep.negativity),
            _fmt(rep.s_a),
            _fmt(rep.s_d),
            _fmt(rep.s_ad),
            _fmt(rep.mutual_info),
            str(rep.n_max_used),
            _fmt(rep.tail_bound),
        ]
    )


def _fixed_nmax_report(r: float, n_max: int, tol: float) -> EntanglementReport:
    trunc = FockTruncation.fixed(n_max, r, tol)
    s_a, s_d, s_ad = entropies(r, trunc)
    return EntanglementReport(
        r=r,
        neg_log=log_negativity(r, trunc),
        negativity=neg_measure(r, trunc),
        s_a=s_a,
        s_d=s_d,
        s_ad=s_ad,
        mutual_info=mutual_information(r, trunc),
        n_max_used=n_max,
        tail_bound=trunc.tail_bound,
    )


def cmd_entanglement(args) -> int:
    if (args.r_grid is None) == (args.lifetime_grid is None):
        raise DiamondError("provide exactly one of --r-grid or --lifetime-grid")
    if args.r_grid is not None:
        r_values = args.r_grid
    else:
        if args.omega is None:
            raise DiamondError("--lifetime-grid requires --omega")
        scale = 1.0 if args.alpha_mode == "lifetime" else 2.0
        r_values = [r_from_lifetime(scale * g, args.omega) for g in args.lifetime_grid]

    errors = {}
    if args.nmax == "auto":
        reports, errors = sweep(r_values=r_values)
    else:
        n_max = int(args.nmax)
        reports = []
        for idx, r in enumerate(r_values):
            try:
                reports.append(_fixed_nmax_report(r, n_max, args.tol))
            except Exception as exc:  # noqa: BLE001 - collected per point
                reports.append(None)
                errors[idx] = f"{type(exc).__name__}: {exc}"

    good = [rep for rep in reports if rep is not None]
    if args.format == "csv":
        body = "\n".join([_CSV_HEADER] + [_report_row(rep) for rep in good]) + "\n"
    else:
        body = json.dumps([rep.__dict__ for rep in good], indent=2) + "\n"
    _emit(body, args.out)
    if errors:
        sys.stderr.write(json.dumps({"error": {"type": "SweepPointFailures", "points": errors}}) + "\n")
        return 1
    return 0


def cmd_figures(args) -> int:
    grid = figure_grid()
    reports, errors = sweep(r_values=grid)
    if errors:
        raise DiamondError(f"figure sweep failed at {sorted(errors)}")
    fig3 = "\n".join(["r,neg_log"] + [f"{_fmt(rep.r)},{_fmt(rep.neg_log)}" for rep in reports]) + "\n"
    fig4 = "\n".join(["r,mutual_info"] + [f"{_fmt(rep.r)},{_fmt(rep.mutual_info)}" for rep in reports]) + "\n"
    os.makedirs(args.out_dir, exist_ok=True)
    for name, text in (("fig3.csv", fig3), ("fig4.csv", fig4)):
        with open(os.path.join(args.out_dir, name), "w") as fh:
            fh.write(text)
    print(json.dumps({"written": ["fig3.csv", "fig4.csv"], "out_dir": args.out_dir, "rows": len(reports)}))
    return 0


# ---------------------------------------------------------------------------
# selftest battery
# ---------------------------------------------------------------------------

def _wedge_samples(rng, n, wedge):
    """Hatted Rindler-spacetime points strictly inside one wedge."""
    a = rng.uniform(-3.0, 3.0, n)
    b = np.abs(a) + rng.uniform(0.05, 4.0, n)
    if wedge == "R":
        return a, b
    if wedge == "L":
        return a, -b
    if wedge == "F":
        return b, a
    return -b, a


def _check_roundtrip(rng, _):
    worst = 0.0
    for wedge in ("R", "L", "F", "P"):
        tth, txh = _wedge_samples(rng, 10_000, wedge)
        fp = (txh + 1.0) ** 2 - tth ** 2
        th, xh = _r2d_hat(tth, txh)
        fm = (xh - 1.0) ** 2 - th ** 2
        keep = (np.abs(fm) > 1e-2) & (np.abs(fp) > 1e-2)
        bt, bx = _d2r_hat(th[keep], xh[keep])
        scale = np.maximum(1.0, np.maximum(np.abs(tth[keep]), np.abs(txh[keep])))
        worst = max(worst, float(np.max(np.hypot(bt - tth[keep], bx - txh[keep]) / scale)))
    return worst < 1e-12, f"worst rel {worst:.2e}"


def _check_lambda_independence(rng, _):
    charts = [DiamondChart(1.0, lam) for lam in (0.5, 1.0, 2.0, 5.0)]
    worst = 0.0
    for _ in range(100):
        t, x = rng.uniform(-0.7, 0.7, 2)
        if abs(t) + abs(x) > 0.95:
            continue
        arr = np.array(
            [(e.c1, e.c2) for e in (diamond_coords(ch, EventCoords.diamond(t, x)) for ch in charts)]
        )
        worst = max(worst, float(np.ptp(arr[:, 0])), float(np.ptp(arr[:, 1])))
    return worst < 1e-12, f"worst spread {worst:.2e}"


def _check_boundary_lines(rng, _):
    chart = DiamondChart(1.0, 2.0)
    worst = 0.0
    for s in rng.uniform(0.05, 5.0, 50):
        for tt, tx in ((s, s), (s, -s), (-s, s), (-s, -s)):
            p = rindler_to_diamond(chart, EventCoords.rindler(tt * chart.alpha_tilde, tx * chart.alpha_tilde))
            V, U = p.lightcone()
            worst = max(worst, min(abs(abs(V) - 1.0), abs(abs(U) - 1.0)))
    return worst < 1e-12, f"worst off-line {worst:.2e}"


def _check_horizon_worldline(rng, _):
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


def _check_tanh_relation(rng, _):
    chart = DiamondChart(1.0, 2.0)
    worst = 0.0
    for _ in range(200):
        t, x = rng.uniform(-0.7, 0.7, 2)
        if abs(t) + abs(x) > 0.95:
            continue
        e = diamond_coords(chart, EventCoords.diamond(t, x))
        v, u = e.lightcone()
        V, U = t + x, t - x
        worst = max(worst, abs(V - math.tanh(v)), abs(U - math.tanh(u)))
    return worst < 1e-12, f"worst {worst:.2e}"


_REGION_BATTERY = [
    ((0.0, 0.0), "D", "R"),
    ((0.0, 2.0), "DBar", "L"),
    ((0.0, -2.0), "DBar", "L"),
    ((2.5, 0.0), "DBar", "L"),
    ((-2.5, 0.0), "DBar", "L"),
    ((0.5, -1.2), "DBarBar-F", "F"),
    ((-0.5, 1.2), "DBarBar-F", "F"),
    ((0.5, 1.2), "DBarBar-P", "P"),
    ((-0.5, -1.2), "DBarBar-P", "P"),
]


def _check_region_battery(rng, _):
    chart = DiamondChart(1.0, 2.0)
    for (t, x), region, wedge in _REGION_BATTERY:
        reg, tag = classify_region(chart, EventCoords.diamond(t, x))
        if reg.value != region or tag.wedge.value != wedge:
            return False, f"({t},{x}) -> {reg.value},{tag.wedge.value}, want {region},{wedge}"
    return True, f"{len(_REGION_BATTERY)} points"


def _check_metric(rng, _):
    chart = DiamondChart(1.3, 2.0)

    def comp(eta, xi):
        q = rindler_to_diamond(chart, eta_xi_to_rindler(chart, EventCoords.eta_xi(eta, xi, 1)))
        return np.array([q.c1, q.c2])

    h = 1e-6 * chart.alpha
    worst = 0.0
    for _ in range(20):
        eta, xi = rng.uniform(-0.5, 0.5, 2) * chart.alpha
        J = np.empty((2, 2))
        J[:, 0] = (comp(eta + h, xi) - comp(eta - h, xi)) / (2 * h)
        J[:, 1] = (comp(eta, xi + h) - comp(eta, xi - h)) / (2 * h)
        G = J.T @ np.diag([-1.0, 1.0]) @ J
        om = conformal_factor(chart, eta_xi_to_rindler(chart, EventCoords.eta_xi(eta, xi, 1)))
        pref = (4.0 / om) ** 2 * math.exp(4.0 * xi / chart.alpha)
        worst = max(worst, float(np.max(np.abs(G - pref * np.diag([-1.0, 1.0]))) / pref))
    return worst < 1e-6, f"worst rel {worst:.2e}"


def _check_kummer(rng, _):
    if abs(kummer_m(KummerParams(1 - 0.5j, 2.0, 0.0)) - 1.0) > 0:
        return False, "M(a,b,0) != 1"
    z = 2j
    ident = abs(kummer_m(KummerParams(1.0, 2.0, z)) - (np.exp(z) - 1.0) / z)
    if ident > 1e-14:
        return False, f"M(1,2,z) identity off by {ident:.2e}"
    worst = 0.0
    for w in (0.5, 2.0, 7.0):
        for x in (0.5, 3.0, 9.0):
            a, b, zz = 1 - 0.5j * w, 2.0 + 0.0j, 1j * x
            res = (
                (b - a) * kummer_m(KummerParams(a - 1, b, zz))
                + (2 * a - b + zz) * kummer_m(KummerParams(a, b, zz))
                - a * kummer_m(KummerParams(a + 1, b, zz))
            )
            worst = max(worst, abs(res))
            conj_gap = abs(
                kummer_m(KummerParams(a, b, zz)).conjugate()
                - kummer_m(KummerParams(a.conjugate(), b, -zz))
            )
            worst = max(worst, conj_gap)
    return worst < 1e-8, f"worst residual {worst:.2e}"


def _check_quadrature(rng, _):
    k = 3.0
    got = oscillatory_integral(
        lambda u: np.exp(1j * k * u), QuadratureSpec(0.0, 1.0, 1e-12, oscillation_hint=k)
    )
    err = abs(got - (np.exp(1j * k) - 1.0) / (1j * k))
    zero = oscillatory_integral(lambda u: np.zeros_like(u, dtype=complex), QuadratureSpec(0.0, 1.0))
    return err < 1e-12 and zero == 0, f"closed-form err {err:.2e}"


_BOG_GRID = [0.5, 1.0, 2.0, 4.0, 8.0]


def _check_bogoliubov_grid(rng, perturb):
    chart = DiamondChart(1.0)
    factor = 1.001 if perturb == "bogoliubov-closed" else 1.0
    worst = 0.0
    for w in _BOG_GRID:
        for k in _BOG_GRID:
            for kind in ("alpha", "beta"):
                c = factor * bogoliubov_closed_form(chart, w, k, kind)
                q = bogoliubov_quadrature(chart, w, k, kind)
                worst = max(worst, abs(c - q) / abs(c))
    return worst < 1e-6, f"worst rel deviation {worst:.2e}"


def _check_bogoliubov_symmetries(rng, _):
    chart = DiamondChart(1.0)
    worst_imag = 0.0
    for (w, k) in ((0.7, 1.3), (2.0, 4.0)):
        for kind in ("alpha", "beta"):
            c = bogoliubov_closed_form(chart, w, k, kind)
            worst_imag = max(worst_imag, abs(c.imag) / abs(c))
    decays = abs(bogoliubov_closed_form(chart, 8.0, 2.0, "beta")) < abs(
        bogoliubov_closed_form(chart, 4.0, 2.0, "beta")
    )
    return worst_imag < 1e-9 and decays, f"residual imag {worst_imag:.2e}"


def _check_ext_positive_frequency(rng, _):
    chart = DiamondChart(1.0)
    worst = 0.0
    for (w, k) in ((1.0, 1.0), (2.0, 1.5)):
        r = squeezing_from_frequency(chart, w).r
        b_int = bogoliubov_quadrature(chart, w, k, "beta", ModeRegion.INT)
        a_ext = bogoliubov_quadrature(chart, w, k, "alpha", ModeRegion.EXT)
        a_int = bogoliubov_quadrature(chart, w, k, "alpha", ModeRegion.INT)
        b_ext = bogoliubov_quadrature(chart, w, k, "beta", ModeRegion.EXT)
        h_int = abs(math.cosh(r) * b_int + math.sinh(r) * a_ext.conjugate()) / abs(b_int)
        h_ext = abs(math.cosh(r) * b_ext + math.sinh(r) * a_int.conjugate()) / abs(a_int)
        worst = max(worst, h_int, h_ext)
    return worst < 1e-8, f"worst residual {worst:.2e}"


def _check_thermality(rng, _):
    chart = DiamondChart(1.0)
    worst = 0.0
    for wh in np.linspace(0.1, 20.0, 200):
        sq = squeezing_from_frequency(chart, wh)
        boltz = math.exp(-math.pi * wh)
        worst = max(worst, abs(math.tanh(sq.r) ** 2 - boltz) / boltz)
        n = thermal_occupation(chart, wh)
        worst = max(worst, abs(n / (1.0 + n) - boltz) / boltz)
        worst = max(worst, abs(n - math.sinh(sq.r) ** 2) / max(n, 1e-300))
    return worst < 1e-14, f"worst rel {worst:.2e}"


def _check_squeezed_state_norms(rng, _):
    chart = DiamondChart(1.0)
    worst = 0.0
    for wh in (0.3, 1.0, 4.0):
        r = squeezing_from_frequency(chart, wh).r
        worst = max(worst, abs(math.cosh(r) ** 2 - math.sinh(r) ** 2 - 1.0))
    trunc = FockTruncation.fixed(40, 0.5)
    vac = unruh_vacuum_coefficients(0.5, trunc)
    one = unruh_one_particle_coefficients(0.5, trunc)
    worst = max(worst, abs((vac ** 2).sum() - 1.0), abs((one ** 2).sum() - 1.0))
    return worst < 1e-12, f"worst deficit {worst:.2e}"


def _check_state_integrity(rng, _):
    worst_tr = worst_eig = worst_alice = worst_dave = 0.0
    for r in (0.0, 0.5, 1.0, 2.0):
        st = build_rho_ad(r)
        dense = st.to_dense()
        worst_tr = max(worst_tr, abs(st.trace() - 1.0) - st.trunc.tail_bound)
        worst_eig = max(worst_eig, -float(np.linalg.eigvalsh(dense).min()))
        alice = reduce_to_alice(st).weights
        worst_alice = max(worst_alice, float(np.abs(alice - 0.5).max()) - st.trunc.tail_bound)
        dave = reduce_to_dave(st).weights
        dd = st.dave_dim
        oracle = dense[:dd, :dd].diagonal() + dense[dd:, dd:].diagonal()
        worst_dave = max(worst_dave, float(np.abs(dave - oracle[: st.n_max]).max()))
    ok = worst_tr < 1e-10 and worst_eig < 1e-12 and worst_alice < 1e-12 and worst_dave < 1e-12
    return ok, f"trace {worst_tr:.1e} eig {worst_eig:.1e} alice {worst_alice:.1e} dave {worst_dave:.1e}"


def _check_partial_transpose(rng, _):
    st = build_rho_ad(0.6, FockTruncation.fixed(60, 0.6))
    pt = partial_transpose(st)
    dense = st.to_dense()
    dd = st.dave_dim
    swapped = dense.copy()
    swapped[:dd, dd:] = dense[dd:, :dd]
    swapped[dd:, :dd] = dense[:dd, dd:]
    diff = float(np.abs(pt.to_dense() - swapped).max())
    blocks_ok = pt.pt_diag1.shape == (60,)
    return diff < 1e-15 and blocks_ok, f"entrywise {diff:.2e}"


def _check_ppt_oracle(rng, perturb):
    factor = 1.001 if perturb == "ppt-closed" else 1.0
    worst = 0.0
    for r in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0):
        trunc = FockTruncation.fixed(80, r)
        spec = ppt_spectrum_closed_form(r, trunc)
        if not (spec.pairs[:, 1] < 0).all():
            return False, f"nonnegative lambda- at r={r}"
        closed = np.sort(np.concatenate([spec.all_values() * factor, [0.0]]))
        oracle = ppt_spectrum_oracle(partial_transpose(build_rho_ad(r, trunc)))
        worst = max(worst, float(np.abs(closed - oracle).max()))
    return worst < 1e-8, f"worst abs {worst:.2e}"


def _check_negativity_identities(rng, _):
    worst = 0.0
    for r in (0.3, 1.0, 3.0):
        trunc = FockTruncation.fixed(200, r)
        tn = float(np.abs(ppt_spectrum_oracle(partial_transpose(build_rho_ad(r, trunc)))).sum())
        worst = max(worst, abs(log_negativity(r, trunc) - math.log2(tn)))
        worst = max(worst, abs(log_negativity(r) - math.log2(2.0 * neg_measure(r) + 1.0)))
    return worst < 1e-8, f"worst {worst:.2e}"


def _check_endpoint_limits(rng, _):
    ok = (
        log_negativity(0.0) == 1.0
        and mutual_information(0.0) == 2.0
        and log_negativity(8.0) < 1e-3
        and abs(mutual_information(8.0) - 1.0) < 1e-3
    )
    return ok, f"N(8) = {log_negativity(8.0):.2e}, I(8)-1 = {mutual_information(8.0)-1.0:.2e}"


def _check_monotonicity(rng, _):
    grid = [0.1 * i for i in range(51)]
    reports, errors = sweep(r_values=grid)
    if errors:
        return False, f"sweep errors {errors}"
    nl = [rep.neg_log for rep in reports]
    mi = [rep.mutual_info for rep in reports]
    ok = all(b < a for a, b in zip(nl, nl[1:])) and all(b < a for a, b in zip(mi, mi[1:]))
    return ok, "strictly decreasing on [0,5] step 0.1"


def _check_figure_endpoints(rng, _):
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


def _check_recombination(rng, _):
    worst = 0.0
    for r in (0.2, 0.9, 2.5):
        s_a, s_d, s_ad = entropies(r)
        worst = max(worst, abs(s_a + s_d - s_ad - mutual_information(r)))
    return worst < 1e-9, f"worst {worst:.2e}"


def _check_determinism(rng, _):
    reports, _ = sweep(r_values=[0.0, 0.5, 1.0])
    a = "\n".join(_report_row(rep) for rep in reports)
    reports, _ = sweep(r_values=[0.0, 0.5, 1.0])
    b = "\n".join(_report_row(rep) for rep in reports)
    return a == b, "byte-identical rows"


_CHECKS = [
    ("geometry-round-trip", _check_roundtrip),
    ("geometry-lambda-independence", _check_lambda_independence),
    ("geometry-boundary-lines", _check_boundary_lines),
    ("geometry-horizon-worldline", _check_horizon_worldline),
    ("geometry-tanh-relation", _check_tanh_relation),
    ("geometry-region-battery", _check_region_battery),
    ("geometry-metric-pullback", _check_metric),
    ("kummer-identities", _check_kummer),
    ("quadrature-closed-forms", _check_quadrature),
    ("bogoliubov-closed-vs-quadrature", _check_bogoliubov_grid),
    ("bogoliubov-symmetries", _check_bogoliubov_symmetries),
    ("bogoliubov-ext-positive-frequency", _check_ext_positive_frequency),
    ("thermality", _check_thermality),
    ("squeezed-state-norms", _check_squeezed_state_norms),
    ("state-integrity", _check_state_integrity),
    ("partial-transpose-entrywise", _check_partial_transpose),
    ("ppt-closed-vs-oracle", _check_ppt_oracle),
    ("negativity-identities", _check_negativity_identities),
    ("endpoint-limits", _check_endpoint_limits),
    ("monotonicity", _check_monotonicity),
    ("figure-endpoints", _check_figure_endpoints),
    ("entropy-recombination", _check_recombination),
    ("output-determinism", _check_determinism),
]


def run_selftest(seed: int = 0, perturb: str = None, stream=None) -> int:
    """Run the embedded invariant suite; returns the number of failures."""
    stream = stream or sys.stdout
    perturb = perturb or os.environ.get("DIAMOND_SELFTEST_PERTURB") or None
    t0 = time.perf_counter()
    failures = 0
    for name, check in _CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = check(rng, perturb)
        except Exception as exc:  # noqa: BLE001 - reported as a failing check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            failures += 1
        stream.write(f"{'PASS' if ok else 'FAIL'} {name} ({detail})\n")
    elapsed = time.perf_counter() - t0
    stream.write(
        f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed in {elapsed:.2f}s\n"
    )
    return failures


def cmd_selftest(args) -> int:
    return 1 if run_selftest(seed=args.seed, perturb=args.perturb) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diamondqi", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="convert a point between coordinate frames")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=2.0)
    p.add_argument("--from", choices=sorted(_FRAMES), required=True)
    p.add_argument("--to", choices=sorted(_FRAMES), required=True)
    p.add_argument("--point", type=_point, required=True, metavar="T,X")
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("modes", help="evaluate a field mode at a point")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--sigma", choices=("plus", "minus"), default="plus")
    p.add_argument("--omega", type=float, required=True, help="raw frequency (k for minkowski)")
    p.add_argument("--point", type=_point, required=True, metavar="T,X")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("bogoliubov", help="Bogoliubov coefficients, closed form and/or quadrature")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--omega-hat", type=float, required=True)
    p.add_argument("--k-hat", type=float, required=True)
    p.add_argument("--kind", choices=("alpha", "beta"), required=True)
    p.add_argument("--region", choices=("int", "ext"), default="int")
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="both")
    p.add_argument("--rel-tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_bogoliubov)

    p = sub.add_parser("state", help="dump the Alice-Dave reduced state")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--omega-hat", type=float, default=None)
    p.add_argument("--nmax", default="auto")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--dump", choices=("blocks", "dense"), default="blocks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("entanglement", help="entanglement measures over a grid")
    p.add_argument("--r-grid", type=_grid, default=None, metavar="LO:HI:STEP")
    p.add_argument("--lifetime-grid", type=_grid, default=None, metavar="LO:HI:STEP")
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--alpha-mode", choices=("lifetime", "half-lifetime"), default="lifetime",
                   help="interpret lifetime-grid values as full lifetimes or as alpha")
    p.add_argument("--nmax", default="auto")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entanglement)

    p = sub.add_parser("figures", help="write fig3.csv and fig4.csv degradation curves")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", default=None,
                   help="debug hook: perturb a closed form (bogoliubov-closed, ppt-closed)")
    p.set_defaults(func=cmd_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DiamondError, ValueError, FloatingPointError) as exc:
        sys.stderr.write(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

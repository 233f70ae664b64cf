"""Command-line front end: reproducible runs of the maps, coefficients,
states, entanglement sweeps and figure data.  ``selftest`` runs every check
of the invariant registry in ``diamondqi.invariants``; ``--perturb`` picks
one of its negative controls.

Exit codes: 0 success, 1 numeric failure (JSON error record on stderr),
2 usage error.  Output is byte-deterministic for a fixed invocation.
"""

import argparse
import json
import math
import os
import sys

# only the NumPy-free modules load here; each subcommand imports the rest
from . import __version__
from .errors import DiamondError
from .geometry import DiamondChart, EventCoords, Frame, classify_region, conformal_factor, convert

_FRAMES = {"diamond": Frame.DIAMOND, "rindler": Frame.RINDLER, "eta-xi": Frame.ETA_XI}


def _fmt(x) -> str:
    return "%.17g" % float(x)


_MAX_GRID_POINTS = 10**6


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _nonnegative(text: str) -> float:
    value = _finite(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative number")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _rel_tol(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a tolerance in (0, 1)")
    return value


def _nmax(text: str):
    if text == "auto":
        return None
    from .states import TRUNCATION_CAP

    if not (text.isdecimal() and 1 <= int(text) <= TRUNCATION_CAP):
        raise argparse.ArgumentTypeError(f"{text!r} is neither 'auto' nor an integer in [1, {TRUNCATION_CAP}]")
    return int(text)


def _family(text: str):
    from .modes import Family

    try:
        return Family(text)
    except ValueError:
        choices = ", ".join(sorted(f.value for f in Family))
        raise argparse.ArgumentTypeError(f"{text!r} is not a mode family ({choices})") from None


def _perturbation(text: str) -> str:
    from .invariants import PERTURBATIONS

    if text not in PERTURBATIONS:
        raise argparse.ArgumentTypeError(f"{text!r} is not a perturbation ({', '.join(PERTURBATIONS)})")
    return text


def _point(s: str):
    parts = s.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("point must be 't,x'")
    return _finite(parts[0]), _finite(parts[1])


def _grid(s: str):
    parts = s.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be 'lo:hi:step'")
    lo, hi, step = (_finite(p) for p in parts)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError("grid needs step > 0 and hi >= lo")
    span = (hi - lo) / step  # inf when the quotient overflows
    if not span + 0.5 < _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid has more than {_MAX_GRID_POINTS} points")
    count = int(math.floor(span + 0.5)) + 1
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
        "wedge": wedge.value if wedge else None,
        "conformal_factor": omega,
    }
    print(json.dumps(record))
    return 0


def cmd_modes(args) -> int:
    from .modes import ModeSpec, Sigma, eval_mode

    chart = DiamondChart(args.alpha)
    spec = ModeSpec(Sigma(args.sigma), args.omega, args.family, chart)
    t, x = args.point
    p = EventCoords.diamond(t, x)
    value = eval_mode(spec, p, strict=args.strict)
    record = {
        "family": args.family.value,
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
    from .modes import ModeRegion, bogoliubov_closed_form, bogoliubov_quadrature

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
    from .modes import squeezing_from_frequency

    chart = DiamondChart(args.alpha)
    omega = args.omega_hat / chart.alpha
    return squeezing_from_frequency(chart, omega), omega * chart.alpha


def cmd_state(args) -> int:
    from .states import FockTruncation, build_rho_ad

    r, omega_hat = _resolve_r(args)
    if args.nmax is None:
        state = build_rho_ad(r, FockTruncation.auto(r, args.tol))
    else:
        state = build_rho_ad(r, FockTruncation.fixed(args.nmax, r, args.tol))
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
        "representation": "rho_AD",
        "trace": state.trace(),
        "blocks": [
            {"n": i, "weight": float(w), "gamma": float(g)}
            for i, (w, g) in enumerate(zip(state.weights, state.gammas))
        ],
    }
    _emit(json.dumps(record, indent=2) + "\n", args.out)
    return 0


_CSV_HEADER = "r,neg_log,negativity,s_a,s_d,s_ad,mutual_info,n_max_used,tail_bound"


def _report_row(rep) -> str:
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


def cmd_entanglement(args) -> int:
    from .entanglement import sweep

    scale = 1.0 if args.alpha_mode == "lifetime" else 2.0
    lifetimes = None if args.lifetime_grid is None else [scale * g for g in args.lifetime_grid]
    reports, errors = sweep(args.r_grid, lifetimes, args.omega, n_max=args.nmax, tol=args.tol)
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
    from .entanglement import figure_grid, sweep

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


def cmd_selftest(args) -> int:
    from .invariants import run_selftest

    return 1 if run_selftest(seed=args.seed, perturb=args.perturb) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="diamondqi", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="convert a point between coordinate frames")
    p.add_argument("--alpha", type=_positive, required=True)
    p.add_argument("--lambda", dest="lam", type=_positive, default=2.0)
    p.add_argument("--from", choices=sorted(_FRAMES), required=True)
    p.add_argument("--to", choices=sorted(_FRAMES), required=True)
    p.add_argument("--point", type=_point, required=True, metavar="T,X")
    p.add_argument("--epsilon", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("modes", help="evaluate a field mode at a point")
    p.add_argument("--alpha", type=_positive, required=True)
    p.add_argument("--family", type=_family, required=True)
    p.add_argument("--sigma", choices=("plus", "minus"), default="plus")
    p.add_argument("--omega", type=_positive, required=True, help="raw frequency (k for minkowski)")
    p.add_argument("--point", type=_point, required=True, metavar="T,X")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("bogoliubov", help="Bogoliubov coefficients, closed form and/or quadrature")
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--omega-hat", type=_positive, required=True)
    p.add_argument("--k-hat", type=_positive, required=True)
    p.add_argument("--kind", choices=("alpha", "beta"), required=True)
    p.add_argument("--region", choices=("int", "ext"), default="int")
    p.add_argument("--method", choices=("closed", "quadrature", "both"), default="both")
    p.add_argument("--rel-tol", type=_rel_tol, default=1e-10)
    p.set_defaults(func=cmd_bogoliubov)

    p = sub.add_parser("state", help="dump the Alice-Dave reduced state")
    p.add_argument("--r", type=_nonnegative, default=None)
    p.add_argument("--alpha", type=_positive, default=1.0)
    p.add_argument("--omega-hat", type=_positive, default=None)
    p.add_argument("--nmax", type=_nmax, default="auto")
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--dump", choices=("blocks", "dense"), default="blocks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("entanglement", help="entanglement measures over a grid")
    p.add_argument("--r-grid", type=_grid, default=None, metavar="LO:HI:STEP")
    p.add_argument("--lifetime-grid", type=_grid, default=None, metavar="LO:HI:STEP")
    p.add_argument("--omega", type=_positive, default=None)
    p.add_argument("--alpha-mode", choices=("lifetime", "half-lifetime"), default="lifetime",
                   help="interpret lifetime-grid values as full lifetimes or as alpha")
    p.add_argument("--nmax", type=_nmax, default="auto")
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entanglement)

    p = sub.add_parser("figures", help="write fig3.csv and fig4.csv degradation curves")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("selftest", help="run the embedded invariant suite")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--perturb", type=_perturbation, default=None,
                   help="negative control: scale one closed form by 1.001 so its check fails")
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

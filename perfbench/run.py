#!/usr/bin/env python3
"""diamondqi benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
With ``--trace 0`` the run measures set-up time in fresh interpreters, then
repeats the workload's operations in whole rounds for S seconds, checks every
output after each round and prints the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics and the tracing overhead instead.  The last line of
stdout is the result object; a detailed record goes to perfbench/results/.
Exits 2 without a result when the checkout has no diamondqi sources.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 5
MIN_ROUNDS = 3

PER_LAYER = {
    # metric: (span name, field)
    "entanglement.direct.calls": ("entanglement.direct", "calls"),
    "entanglement.direct.terms": ("entanglement.direct", "terms"),
    "entanglement.direct.self_s": ("entanglement.direct", "self_s"),
    "entanglement.em.calls": ("entanglement.em", "calls"),
    "entanglement.em.self_s": ("entanglement.em", "self_s"),
    "entanglement.truncated.calls": ("entanglement.truncated", "calls"),
    "entanglement.truncated.self_s": ("entanglement.truncated", "self_s"),
    "entanglement.ppt_oracle.calls": ("entanglement.ppt_oracle", "calls"),
    "entanglement.ppt_oracle.self_s": ("entanglement.ppt_oracle", "self_s"),
    "states.calls": ("states", "calls"),
    "states.self_s": ("states", "self_s"),
    "geometry.calls": ("geometry", "calls"),
    "geometry.self_s": ("geometry", "self_s"),
    "specfun.kummer_c128.calls": ("specfun.kummer_c128", "calls"),
    "specfun.kummer_c128.self_s": ("specfun.kummer_c128", "self_s"),
    "specfun.kummer_dd.calls": ("specfun.kummer_dd", "calls"),
    "specfun.kummer_dd.self_s": ("specfun.kummer_dd", "self_s"),
    "specfun.kummer_mp.calls": ("specfun.kummer_mp", "calls"),
    "specfun.kummer_mp.self_s": ("specfun.kummer_mp", "self_s"),
    "specfun.quad.calls": ("specfun.quad", "calls"),
    "specfun.quad.nodes": ("specfun.quad", "nodes"),
    "specfun.quad.self_s": ("specfun.quad", "self_s"),
    "modes.closed.calls": ("modes.closed", "calls"),
    "modes.closed.self_s": ("modes.closed", "self_s"),
    "modes.quad_int.calls": ("modes.quad_int", "calls"),
    "modes.quad_int.self_s": ("modes.quad_int", "self_s"),
    "modes.quad_ext.calls": ("modes.quad_ext", "calls"),
    "modes.quad_ext.self_s": ("modes.quad_ext", "self_s"),
    "cli.self_s": ("cli", "self_s"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup_time(workload_name):
    """import + warm-up in a fresh interpreter, in seconds."""
    import workloads

    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload_name],
        env=workloads.child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().split("\n")[-1])


def run_round(ops, order):
    """Call every operation once, in the given order; returns (outputs,
    latencies, wall) indexed like ops.  An operation that raises has the
    exception as its output, and the checks count it as failed."""
    perf = time.perf_counter
    outputs, latencies = [None] * len(ops), [0.0] * len(ops)
    start = perf()
    for i in order:
        t0 = perf()
        try:
            outputs[i] = ops[i].call()
        except Exception as exc:  # noqa: BLE001 - a failed operation is data
            outputs[i] = exc
        latencies[i] = perf() - t0
    return outputs, latencies, perf() - start


def peak_rss_mb(children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment(threads):
    import mpmath

    try:
        from diamondqi._backend import backend_name

        backend = backend_name()
    except ImportError:  # a package with one backend has no selector
        backend = None
    return {
        "backend": backend,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "DIAMOND_NUM_THREADS": threads,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "diamondqi" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no diamondqi sources under {SRC}\n")
        return 2
    threads = os.environ.pop("DIAMOND_NUM_THREADS", None)
    os.environ.pop("DIAMOND_SELFTEST_PERTURB", None)
    sys.path.insert(0, str(SRC))
    import diamondqi

    if Path(diamondqi.__file__).resolve().parent != (SRC / "diamondqi").resolve():
        sys.stderr.write(f"perfbench: diamondqi imported from {diamondqi.__file__}, not {SRC}\n")
        return 2

    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    cls = workloads.WORKLOADS[args.workload]
    in_process = cls is not workloads.CliSession

    # set-up samples are spread over the run, one between rounds, so that
    # they do not all fall into one phase of the host's load
    setup = [] if args.trace else [setup_time(args.workload)]
    wl = cls(args.seed, workloads.Program() if in_process else None)
    wl.prepare()
    wl.warm_up()
    ops = wl.ops()
    # a fixed shuffled order spreads each operation's calls over the round
    order = [int(i) for i in np.random.default_rng(args.seed).permutation(len(ops))]
    faults = {op.fault for op in ops if op.fault}

    tracer = Tracer()
    timed_wall = 0.0
    untraced = {"latencies": [], "walls": []}
    traced_walls, traced_rounds, cli_import = [], 0, []
    attempted = failed = 0
    unexpected = []
    fault_counts = {name: {"what": workloads.FAULTS[name][0], "attempted": 0, "failed": 0} for name in sorted(faults)}
    try:
        while timed_wall < args.seconds or len(untraced["walls"]) < MIN_ROUNDS:
            for traced in ((False, True) if args.trace else (False,)):
                if traced and in_process:
                    tracer.install()
                wl.tracer = tracer if traced and not in_process else None
                try:
                    outputs, latencies, wall = run_round(ops, order)
                finally:
                    tracer.uninstall()
                timed_wall += wall
                if traced:
                    traced_walls.append(wall)
                    traced_rounds += 1
                    if not in_process:
                        spans, imports = wl.collect_spans()
                        tracer.spans += spans
                        cli_import += imports
                else:
                    untraced["latencies"].append(latencies)
                    untraced["walls"].append(wall)
                    if not args.trace and len(setup) < SETUP_PROBES:
                        setup.append(setup_time(args.workload))
                for op, bad in zip(ops, wl.check(outputs)):
                    attempted += 1
                    if op.fault:
                        fault_counts[op.fault]["attempted"] += 1
                    if not bad:
                        continue
                    failed += 1
                    if op.fault and set(bad) <= workloads.FAULTS[op.fault][1]:
                        fault_counts[op.fault]["failed"] += 1
                    else:
                        unexpected.append({"op": op.label, "failed": bad})
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_time(args.workload))
    finally:
        wl.close()

    if args.trace:
        totals = tracer.totals()
        metrics = {}
        for metric, (span, field) in PER_LAYER.items():
            value = totals.get(span, {}).get(field, 0)
            unit = "s" if field == "self_s" else "count"
            metrics[metric] = {"value": value / traced_rounds, "unit": unit}
        metrics["cli.import_s"] = {"value": sum(cli_import) / traced_rounds, "unit": "s"}
        overhead = statistics.median(traced_walls) / statistics.median(untraced["walls"]) - 1.0
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        # the host's speed swings by up to 2x within seconds; each
        # operation's median call across the rounds averages over those
        # swings, where its fastest call depends on catching a quiet moment
        typical = [statistics.median(calls) for calls in zip(*untraced["latencies"])]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(children=not in_process), "unit": "MB"},
            "ops_per_s": {"value": len(ops) / sum(typical), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * float(np.percentile(typical, 50)), "unit": "ms"},
            "op_p99_ms": {"value": 1e3 * float(np.percentile(typical, 99)), "unit": "ms"},
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads),
        "rounds": len(untraced["walls"]) + traced_rounds,
        "ops_per_round": len(ops),
        "round_walls_s": untraced["walls"],
        "ops_per_s_mean": len(ops) * len(untraced["walls"]) / sum(untraced["walls"]),
        "setup_samples_s": setup,
        "faults": fault_counts,
        "unexpected_failures": unexpected[:20],
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(results / f"spans-{stem}.jsonl", workload=args.workload, seed=args.seed,
                    traced_rounds=traced_rounds)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(results / f"{stem}.json", "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

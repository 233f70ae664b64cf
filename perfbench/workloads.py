"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload turns its seed into a fixed list of operations.  A run repeats
that list in whole rounds, so every round attempts the same operations and
the failed share of a run does not depend on its length.  Outputs are checked
after each round, outside the timed region, against the mpmath references of
``reference.py`` or against properties the method must have.

A few operations are kept although they fail on every run: each sits on a
fixed input, not a seeded one, and names the fault it shows (``Op.fault``).
Seeded inputs stay where the program meets its stated tolerance with a wide
margin; the README lists where it does not, and why those inputs are left
out.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Faults kept in the workloads, with the checks each is allowed to fail.
FAULTS = {
    "N": ("log-negativity cancellation in sqrt(T*T + B) - T", {"ref:neg_log", "ref:negativity"}),
    "K": ("kummer_m routes by |z| alone; the complex128 branch misses 1e-10", {"ref"}),
    "Q": ("quadrature stopping test scaled by |value| misses rel_tol", {"ref"}),
}

SWEEP_TOL = 1e-12
BOGOLIUBOV_TOL = 1e-10
# Seeded Bogoliubov inputs are kept where a float64 evaluation can meet
# BOGOLIUBOV_TOL with a wide margin (README, "Seeded domains").
KAPPA_SERIES_MAX = 1e5
KAPPA_QUAD_MAX = 1e2


class Op:
    """One timed call: a label, a zero-argument callable and, for the kept
    failures, the fault it shows."""

    __slots__ = ("label", "call", "fault")

    def __init__(self, label, call, fault=None):
        self.label = label
        self.call = call
        self.fault = fault


class Program:
    """The library calls the in-process workloads time.

    Each call looks the function up at call time, so the tracer's wrappers
    are seen; the negative control in the tests subclasses it.
    """

    def __init__(self):
        from diamondqi import entanglement, geometry, modes

        self.entanglement = entanglement
        self.modes = modes
        self.chart = geometry.DiamondChart(1.0)

    def report_for(self, r):
        return self.entanglement.report_for(r)

    def closed(self, omega_hat, k_hat, kind):
        return self.modes.bogoliubov_closed_form(self.chart, omega_hat, k_hat, kind)

    def quadrature(self, omega_hat, k_hat, kind, region):
        region = self.modes.ModeRegion(region)
        return self.modes.bogoliubov_quadrature(self.chart, omega_hat, k_hat, kind, region)


class Workload:
    name = ""

    def __init__(self, seed, program=None):
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.program = program
        self.tracer = None  # set by the runner for traced rounds of a CLI workload

    def prepare(self):
        """Compute the references; not timed."""

    def warm_up(self):
        """Calls made before the first timed operation."""

    def close(self):
        """Remove what the run left behind."""

    def ops(self):
        raise NotImplementedError

    def check(self, outputs):
        """Failing check names, one list per operation of a round.  An
        output that is an exception fails as "raised:<type>"."""
        raise NotImplementedError


def _raised(output):
    return [f"raised:{type(output).__name__}"] if isinstance(output, Exception) else None


# ---------------------------------------------------------------------------
# degradation-sweep
# ---------------------------------------------------------------------------

class DegradationSweep(Workload):
    """report_for at 1001 seed-jittered points on r in [0, 10].

    Grid point i sits at 0.01 i, jittered by at most a quarter step so the
    points stay ordered; r = 0, 8, 9 and 10 are not jittered.  References:
    eight stratified points on the direct route (r <= 5.5), three on the
    Euler-Maclaurin route (r in [5.8, 10), entropies and I only, see fault
    N), and the fixed points r = 8, 9, 10, all seven measures.
    """

    name = "degradation-sweep"
    POINTS = 1001
    STEP = 0.01
    FIXED = {0: 0.0, 800: 8.0, 900: 9.0, 1000: 10.0}
    FAULT_N = (800, 900, 1000)
    DIRECT_EDGES = np.linspace(0.0, 5.5, 9)
    EM_EDGES = np.linspace(5.8, 9.95, 4)
    EM_MEASURES = ("s_a", "s_d", "s_ad", "mutual_info")

    def __init__(self, seed, program=None):
        super().__init__(seed, program)
        h = self.STEP
        r = np.arange(self.POINTS) * h + self.rng.uniform(-h / 4, h / 4, self.POINTS)
        for i, value in self.FIXED.items():
            r[i] = value
        self.r = [float(x) for x in r]
        self.checked = {i: ref.MEASURES for i in self.FAULT_N}
        for edges, measures in ((self.DIRECT_EDGES, ref.MEASURES), (self.EM_EDGES, self.EM_MEASURES)):
            for lo, hi in zip(edges[:-1], edges[1:]):
                i = int(self.rng.integers(math.ceil(lo / h) + 1, math.floor(hi / h)))
                while i in self.checked:
                    i += 1
                self.checked[i] = measures
        self.references = {}
        self.asymptote_c = None

    def prepare(self):
        self.references = {i: ref.entanglement_reference(self.r[i]) for i in self.checked}
        self.asymptote_c = ref.entropy_constant()

    def warm_up(self):
        for r in (1.0, 5.0, 8.0):
            self.program.report_for(r)

    def ops(self):
        report_for = self.program.report_for
        return [
            Op(f"report_for r={r!r}", (lambda r=r: report_for(r)), "N" if i in self.FAULT_N else None)
            for i, r in enumerate(self.r)
        ]

    def check(self, outputs):
        failures = []
        prev = None
        for i, (r, rep) in enumerate(zip(self.r, outputs)):
            if _raised(rep):
                failures.append(_raised(rep))
                continue
            bad = []
            if rep.r != r:
                bad.append("r")
            if r == 0.0:
                exact = (rep.neg_log, rep.negativity, rep.s_a, rep.s_d, rep.s_ad, rep.mutual_info)
                if exact != (1.0, 0.5, 1.0, 1.0, 0.0, 2.0):
                    bad.append("exact_r0")
            if rep.s_a != 1.0:
                bad.append("s_a")
            if not 0.0 < rep.neg_log <= 1.0:
                bad.append("neg_log_range")
            if not 1.0 < rep.mutual_info <= 2.0:
                bad.append("mi_range")
            if prev is not None and not (rep.neg_log < prev.neg_log and rep.mutual_info < prev.mutual_info):
                bad.append("decreasing")
            if abs(rep.s_a + rep.s_d - rep.s_ad - rep.mutual_info) > 1e-9:
                bad.append("recombination")
            if r >= 8.0:
                base = math.log2(2.0 * math.cosh(r) ** 2) + self.asymptote_c
                bound = 2.0 / math.cosh(r) ** 2
                if not (abs(rep.s_d - base) < bound and abs(rep.s_ad - base) < bound):
                    bad.append("asymptote")
            if i in self.checked:
                want = self.references[i]
                for m in self.checked[i]:
                    if not ref.rel_err(getattr(rep, m), want[m]) <= SWEEP_TOL:
                        bad.append("ref:" + m)
            failures.append(bad)
            prev = rep
        return failures


# ---------------------------------------------------------------------------
# bogoliubov-grid
# ---------------------------------------------------------------------------

OMEGA_RANGE = (0.01, 2.0)
Z_BRANCHES = ((0.0, 12.0), (12.0, 45.0), (45.0, 198.0))
PAIRS_PER_BRANCH = 12
EXT_PAIRS = 6
EXT_OMEGA = (0.01, 2.0)
EXT_K = (0.05, 1.0)
# |z| = 2 k at the top of each kummer_m branch, at a fixed omega_hat
BRANCH_TOPS = ((1.0, 6.0), (1.0, 22.5), (1.0, 99.0))


def _kappa_series(omega_hat, k_hat, kind):
    sign = 1.0 if kind == "alpha" else -1.0
    return ref.kummer_condition(complex(1.0, -0.5 * omega_hat), 2.0, complex(0.0, 2.0 * sign * k_hat))


def _kappa_quad(omega_hat, k_hat, coef):
    """int |f| / |int f| of the interior transform: |f| = 1 on (-1, 1)."""
    pref = math.sqrt(k_hat / omega_hat) / (2.0 * math.pi)
    return 2.0 * pref / abs(coef)


def _well_conditioned(omega_hat, k_hat, refs, series):
    if any(_kappa_quad(omega_hat, k_hat, v) > KAPPA_QUAD_MAX for v in refs.values()):
        return False
    return not series or all(_kappa_series(omega_hat, k_hat, kind) <= KAPPA_SERIES_MAX for kind in refs)


def _interior_refs(omega_hat, k_hat):
    return {kind: ref.bogoliubov_interior(omega_hat, k_hat, kind) for kind in ("alpha", "beta")}


def bogoliubov_pairs(rng):
    """Seeded (omega_hat, k_hat) pairs and their interior references.

    PAIRS_PER_BRANCH pairs per kummer_m branch, Latin-hypercube stratified:
    omega_hat log-uniform on OMEGA_RANGE, |z| = 2 k_hat within a quarter
    stratum of the stratum's centre.  A draw is redrawn while either
    coefficient is ill-conditioned: the quadrature condition number above
    KAPPA_QUAD_MAX, or, on the complex128 branch, the Maclaurin series
    condition number above KAPPA_SERIES_MAX.  EXT_PAIRS more pairs come from
    the exterior domain EXT_OMEGA x EXT_K and also get the exterior
    quadrature.  Returns [(omega_hat, k_hat, {kind: interior ref}, exterior)].
    """
    lw0, lw1 = (math.log(x) for x in OMEGA_RANGE)
    pairs = []
    for b, (z0, z1) in enumerate(Z_BRANCHES):
        n = PAIRS_PER_BRANCH
        w_strata = rng.permutation(n)
        for j in range(n):
            for attempt in range(1000):
                # an ill-conditioned corner of the strata falls back to any omega_hat
                u = (w_strata[j] + rng.uniform()) / n if attempt < 100 else rng.uniform()
                omega_hat = math.exp(lw0 + u * (lw1 - lw0))
                k_hat = 0.5 * (z0 + (j + 0.5 + rng.uniform(-0.25, 0.25)) / n * (z1 - z0))
                refs = _interior_refs(omega_hat, k_hat)
                if _well_conditioned(omega_hat, k_hat, refs, series=b == 0):
                    break
            else:
                raise RuntimeError(f"no well-conditioned draw in stratum {j} of branch {b}")
            pairs.append((omega_hat, k_hat, refs, False))
    for _ in range(EXT_PAIRS):
        while True:
            omega_hat = math.exp(rng.uniform(*(math.log(x) for x in EXT_OMEGA)))
            k_hat = math.exp(rng.uniform(*(math.log(x) for x in EXT_K)))
            refs = _interior_refs(omega_hat, k_hat)
            if _well_conditioned(omega_hat, k_hat, refs, series=True):
                break
        pairs.append((omega_hat, k_hat, refs, True))
    return pairs


class BogoliubovGrid(Workload):
    """Every seeded pair gets the closed form and the interior quadrature of
    alpha and beta; the exterior-domain pairs also get the exterior
    quadrature.  Fixed operations: the three branch tops (closed form and
    interior quadrature), fault K on the closed form and fault Q on both
    quadratures.  Every coefficient is compared with its reference at
    BOGOLIUBOV_TOL.
    """

    name = "bogoliubov-grid"
    # fault K: kummer_m(1 - 2.987i, 2, -11.4i) and kummer_m(1 - 3i, 2, -11.9i)
    FAULT_K = ((5.974, 5.7, "beta"), (6.0, 5.95, "beta"))
    # fault Q: interior beta at (7.0, 19.1), (8, 8), (8, 50); exterior beta at (8, 0.25)
    FAULT_Q = ((7.0, 19.1, "beta", "int"), (8.0, 8.0, "beta", "int"),
               (8.0, 50.0, "beta", "int"), (8.0, 0.25, "beta", "ext"))

    def __init__(self, seed, program=None):
        super().__init__(seed, program)
        self.cases = []  # (method, (omega_hat, k_hat, kind, region), fault, reference)

    def prepare(self):
        cases = []
        for w, k, refs, exterior in bogoliubov_pairs(self.rng):
            cases += [("closed", (w, k, kind, "int"), None, refs[kind]) for kind in refs]
            cases += [("quadrature", (w, k, kind, "int"), None, refs[kind]) for kind in refs]
            if exterior:
                cases += [("quadrature", (w, k, kind, "ext"), None, ref.bogoliubov_exterior(w, k, kind))
                          for kind in refs]
        for w, k in BRANCH_TOPS:
            for kind, value in _interior_refs(w, k).items():
                cases += [(method, (w, k, kind, "int"), None, value) for method in ("closed", "quadrature")]
        cases += [("closed", (w, k, kind, "int"), "K", ref.bogoliubov_interior(w, k, kind))
                  for w, k, kind in self.FAULT_K]
        for w, k, kind, region in self.FAULT_Q:
            value = (ref.bogoliubov_interior if region == "int" else ref.bogoliubov_exterior)(w, k, kind)
            cases.append(("quadrature", (w, k, kind, region), "Q", value))
        self.cases = cases

    def warm_up(self):
        for k_hat in (1.0, 10.0, 30.0):
            self.program.closed(1.0, k_hat, "alpha")
        self.program.quadrature(1.0, 1.0, "alpha", "int")
        self.program.quadrature(1.0, 0.5, "alpha", "ext")

    def ops(self):
        ops = []
        for method, (w, k, kind, region), fault, _ in self.cases:
            if method == "closed":
                call = (lambda a=(w, k, kind): self.program.closed(*a))
            else:
                call = (lambda a=(w, k, kind, region): self.program.quadrature(*a))
            ops.append(Op(f"{method} {region} {kind} w={w!r} k={k!r}", call, fault))
        return ops

    def check(self, outputs):
        return [
            _raised(value) or ([] if ref.rel_err(value, case[3]) <= BOGOLIUBOV_TOL else ["ref"])
            for case, value in zip(self.cases, outputs)
        ]


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

def child_env():
    """The environment of CLI children: the checkout's sources, no threads."""
    env = {k: v for k, v in os.environ.items() if k not in ("DIAMOND_NUM_THREADS", "DIAMOND_SELFTEST_PERTURB")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _tail(r, n_max):
    """Weight q^N (1 + N/(2 cosh^2 r)) of the Fock blocks past n_max."""
    if r == 0.0:
        return 0.0
    lnq = -2.0 * math.log1p(2.0 / math.expm1(2.0 * r))
    return math.exp(n_max * lnq) * (1.0 + n_max / (2.0 * math.cosh(r) ** 2))


class CliSession(Workload):
    """One fixed script of ``python -m diamondqi.cli`` children per round.

    map three times (cold start; the three stdouts must agree byte for
    byte), figures, selftest, entanglement on an r grid with an explicit
    --nmax whose truncation tail is <= 1e-15, state --dump dense at a seeded
    r <= 1, and bogoliubov --method both twice at a seeded point with
    |z| <= 6.
    """

    name = "cli-session"
    WARM_UP_ARGS = ["map", "--alpha", "1", "--from", "diamond", "--to", "rindler", "--point", "0.1,-0.2"]
    MAP_RUNS = 3
    FIG_FILES = ("fig3.csv", "fig4.csv")
    FIG_ROWS = 101
    FIG_CHECKED = 3
    GRID_STEP = 0.25
    SELFTEST_LINE = re.compile(r"^23/23 checks passed")

    def __init__(self, seed, program=None):
        super().__init__(seed, program)
        rng = self.rng
        self.workdir = RESULTS / f"cli-{os.getpid()}"
        t, x = (float(v) for v in rng.uniform(-0.4, 0.4, 2))
        self.map_args = ["map", "--alpha", "1", "--lambda", "2", "--from", "diamond", "--to", "rindler",
                         f"--point={t!r},{x!r}"]
        self.fig_rows = sorted(int(i) for i in rng.choice(np.arange(1, self.FIG_ROWS), self.FIG_CHECKED,
                                                          replace=False))
        self.grid_hi = float(rng.choice([1.0, 1.25, 1.5, 1.75, 2.0]))
        n_max = 2
        while _tail(self.grid_hi, n_max) > 1e-15:
            n_max += 1
        self.grid_nmax = n_max
        self.state_r = float(rng.uniform(0.05, 1.0))
        while True:
            w = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
            k = float(rng.uniform(0.2, 3.0))
            kind = str(rng.choice(["alpha", "beta"]))
            value = ref.bogoliubov_interior(w, k, kind)
            if _kappa_quad(w, k, value) <= KAPPA_QUAD_MAX and _kappa_series(w, k, kind) <= KAPPA_SERIES_MAX:
                break
        self.commands = (
            [self.map_args] * self.MAP_RUNS
            + [["figures", "--out-dir", str(self.workdir)], ["selftest"],
               ["entanglement", "--r-grid", f"0:{self.grid_hi!r}:{self.GRID_STEP!r}", "--nmax", str(n_max)],
               ["state", "--r", repr(self.state_r), "--dump", "dense"]]
            + [["bogoliubov", "--omega-hat", repr(w), "--k-hat", repr(k), "--kind", kind, "--method", "both"]] * 2
        )
        self.references = {}
        self.bog_ref = value
        self._span_files = []

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.references["fig"] = {i: ref.entanglement_reference(self._fig_r(i)) for i in self.fig_rows}
        count = int(math.floor(self.grid_hi / self.GRID_STEP + 0.5)) + 1
        self.references["grid"] = [ref.entanglement_reference(i * self.GRID_STEP) for i in range(count)]

    @staticmethod
    def _fig_r(i):
        return i * 0.05  # the figure grid, as entanglement.figure_grid builds it

    def warm_up(self):
        self._run(self.WARM_UP_ARGS)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, args):
        if self.tracer is not None:
            span_file = self.workdir / f"spans-{len(self._span_files)}.json"
            self._span_files.append(span_file)
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(span_file)] + args
        else:
            cmd = [sys.executable, "-m", "diamondqi.cli"] + args
        if args[0] == "figures":
            for name in self.FIG_FILES:
                (self.workdir / name).unlink(missing_ok=True)
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
        files = {}
        if args[0] == "figures" and proc.returncode == 0:
            files = {name: (self.workdir / name).read_text() for name in self.FIG_FILES}
        return proc.returncode, proc.stdout, files

    def collect_spans(self):
        """Spans and import times the traced children wrote since the last call."""
        spans, import_s = [], []
        for path in self._span_files:
            with open(path) as fh:
                head = json.loads(fh.readline())
                import_s.append(head["import_s"])
                spans += [json.loads(line) for line in fh]
            path.unlink()
        self._span_files = []
        return spans, import_s

    def ops(self):
        return [Op(args[0], (lambda a=args: self._run(a))) for args in self.commands]

    def check(self, outputs):
        outputs = [(-1, b"", {}) if _raised(out) else out for out in outputs]
        failures = [[] if rc == 0 else ["exit"] for rc, _, _ in outputs]
        checks = {"map": self._check_map, "figures": self._check_figures, "selftest": self._check_selftest,
                  "entanglement": self._check_grid, "state": self._check_state,
                  "bogoliubov": self._check_bogoliubov}
        first_stdout = {}
        for i, (args, (rc, stdout, files)) in enumerate(zip(self.commands, outputs)):
            if rc != 0:
                continue
            key = tuple(args)
            if first_stdout.setdefault(key, stdout) != stdout:
                failures[i].append("identical")
            try:
                ok = checks[args[0]](stdout.decode(), files)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                ok = False
                failures[i].append(f"parse:{type(exc).__name__}")
            if not ok:
                failures[i].append(args[0])
        return failures

    def _check_map(self, stdout, files):
        record = json.loads(stdout)
        return record["region"] == "D" and record["output"]["frame"] == "rindler"

    def _check_figures(self, stdout, files):
        for name, column, r0 in (("fig3.csv", "neg_log", "0,1"), ("fig4.csv", "mutual_info", "0,2")):
            header, rows = _csv_rows(files[name])
            if header != ["r", column] or len(rows) != self.FIG_ROWS or ",".join(rows[0]) != r0:
                return False
            for i in self.fig_rows:
                want = self.references["fig"][i][column]
                if float(rows[i][0]) != self._fig_r(i) or not ref.rel_err(float(rows[i][1]), want) <= SWEEP_TOL:
                    return False
        return True

    def _check_selftest(self, stdout, files):
        return bool(self.SELFTEST_LINE.match(stdout.strip().split("\n")[-1]))

    def _check_grid(self, stdout, files):
        header, rows = _csv_rows(stdout)
        if len(rows) != len(self.references["grid"]):
            return False
        for row, want in zip(rows, self.references["grid"]):
            values = dict(zip(header, row))
            if int(values["n_max_used"]) != self.grid_nmax:
                return False
            if any(not ref.rel_err(float(values[m]), want[m]) <= SWEEP_TOL for m in ref.MEASURES):
                return False
        return True

    def _check_state(self, stdout, files):
        m = np.array([[float(v) for v in line.split(",")] for line in stdout.strip().split("\n")])
        dim = m.shape[0]
        dd = dim // 2
        if m.shape != (dim, dim) or dim % 2:
            return False
        if np.abs(m - m.T).max() > 1e-12 or np.linalg.eigvalsh(m).min() < -1e-12:
            return False
        expect = np.zeros_like(m)
        for n in range(dd - 1):
            w, wg, wg2 = ref.fock_block(self.state_r, n)
            expect[n, n] = w
            expect[n, dd + n + 1] = expect[dd + n + 1, n] = wg
            expect[dd + n + 1, dd + n + 1] = wg2
        scale = np.where(expect != 0.0, np.abs(expect), 1.0)
        return bool((np.abs(m - expect) <= 1e-12 * scale).all())

    def _check_bogoliubov(self, stdout, files):
        record = json.loads(stdout)
        return all(
            ref.rel_err(complex(record[key]["re"], record[key]["im"]), self.bog_ref) <= BOGOLIUBOV_TOL
            for key in ("closed", "quadrature")
        )


WORKLOADS = {cls.name: cls for cls in (DegradationSweep, BogoliubovGrid, CliSession)}

"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 9 checks the entropy endpoints.  At r = 0 the triple
(S_A, S_D, S_AD) is (1, 1, 0).  As r -> infinity, S_A = 1 exactly, while
Dave's weights p_n = tanh^{2n} r (1 + n/sinh^2 r) / (2 cosh^2 r) spread over
~cosh^2 r Fock levels, so S_D and S_AD both grow without bound as

    log2(2 cosh^2 r) + C + O(1/cosh^2 r),   C = (2 - G) / (2 ln 2),

with G = e E_1(1) the Euler-Gompertz constant (C ~ 1.0125), and
0 < S_D - S_AD = O(1/cosh^2 r).  The criterion asserts that form at
r = 10 and 12 to within the O(1/cosh^2 r) remainder.
"""

import io
import math
import time

import mpmath

import diamondqi as dq
from diamondqi.invariants import CHECKS, run_selftest


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num}: {detail}")
    return ok


def _entries(*names):
    """Run invariant registry entries at the selftest's seed: whether all
    pass, their joined details, and the seconds taken."""
    t0 = time.perf_counter()
    results = [CHECKS[name](0, None) for name in names]
    elapsed = time.perf_counter() - t0
    detail = "; ".join(f"{name} {d}" for name, (_, d) in zip(names, results))
    return all(ok for ok, _ in results), detail, elapsed


def test_criterion_1_fig3_reproduction():
    t0 = time.perf_counter()
    reports, errors = dq.sweep(r_values=dq.figure_grid(0.05))
    elapsed = time.perf_counter() - t0
    nl = [rep.neg_log for rep in reports]
    ok = (
        not errors
        and nl[0] == 1.0
        and all(b <= a for a, b in zip(nl, nl[1:]))
        and nl[-1] < 0.01
        and elapsed < 10.0
    )
    assert _report(1, ok, f"N(0)={nl[0]}, N(5)={nl[-1]:.3e}, monotone, {elapsed:.2f}s")


def test_criterion_2_fig4_reproduction():
    t0 = time.perf_counter()
    reports, errors = dq.sweep(r_values=dq.figure_grid(0.05))
    elapsed = time.perf_counter() - t0
    mi = [rep.mutual_info for rep in reports]
    ok = (
        not errors
        and mi[0] == 2.0
        and all(b <= a for a, b in zip(mi, mi[1:]))
        and 1.0 < mi[-1] < 1.05
        and elapsed < 10.0
    )
    assert _report(2, ok, f"I(0)={mi[0]}, I(5)={mi[-1]:.6f}, monotone, {elapsed:.2f}s")


def test_criterion_3_ppt_oracle_equivalence():
    ok, detail, elapsed = _entries("ppt-closed-vs-oracle")
    assert _report(3, ok and elapsed < 30.0, f"{detail}, {elapsed:.2f}s")


def test_criterion_4_negative_eigenvalue_existence():
    ok = True
    for r in (0.1, 0.3, 0.6, 1.0, 2.0, 4.0, 8.0):
        spec = dq.ppt_spectrum_closed_form(r, dq.FockTruncation.fixed(80, r))
        ok = ok and bool((spec.pairs[:, 1] < 0).all())
    assert _report(4, ok, "lambda-_n < 0 for all n <= n_max at every finite r tested")


def test_criterion_5_bogoliubov_dual_route():
    ok, detail, elapsed = _entries("bogoliubov-closed-vs-quadrature")
    assert _report(5, ok and elapsed < 30.0, f"{detail} on 5x5 grid, {elapsed:.2f}s")


def test_criterion_6_thermality():
    ok, detail, _ = _entries("thermality")
    assert _report(6, ok, f"tanh^2 r, n/(1+n) vs Boltzmann and n vs sinh^2 r: {detail}")


def test_criterion_7_geometry_suite():
    ok, detail, _ = _entries(
        "geometry-round-trip", "geometry-lambda-independence",
        "geometry-region-battery", "geometry-metric-pullback",
    )
    assert _report(7, ok, detail)


def test_criterion_8_state_integrity():
    ok, detail, _ = _entries("state-integrity")
    assert _report(8, ok, detail)


def test_criterion_9_entropy_endpoints():
    s0 = dq.entropies(0.0)
    ok_zero = s0 == (1.0, 1.0, 0.0)

    worst_rec = 0.0
    for r in (0.2, 0.9, 2.5):
        s_a, s_d, s_ad = dq.entropies(r)
        worst_rec = max(worst_rec, abs(s_a + s_d - s_ad - dq.mutual_information(r)))
    ok_rec = worst_rec < 1e-9

    # r -> infinity: S_D, S_AD -> log2(2 cosh^2 r) + C up to O(1/cosh^2 r)
    gompertz = float(mpmath.e * mpmath.e1(1))
    const = (2.0 - gompertz) / (2.0 * math.log(2.0))
    ok_inf = True
    large = []
    for r in (10.0, 12.0):
        s_a, s_d, s_ad = dq.entropies(r)
        c2 = math.cosh(r) ** 2
        base = math.log2(2.0 * c2) + const
        ok_inf = (
            ok_inf
            and s_a == 1.0
            and abs(s_d - base) < 2.0 / c2
            and abs(s_ad - base) < 2.0 / c2
            and 0.0 < s_d - s_ad < 1.0 / c2
        )
        large.append(
            f"r={r:g}: S_A={s_a}, (S_D, S_AD) - base = "
            f"({s_d - base:.2e}, {s_ad - base:.2e}), S_D - S_AD = {s_d - s_ad:.2e}"
        )

    ok = ok_zero and ok_rec and ok_inf
    _report(9, ok, f"r=0 -> {s0}; recombination {worst_rec:.1e}; " + "; ".join(large))
    assert ok_zero, "r = 0 endpoint failed"
    assert ok_rec, "mutual-information recombination failed"
    assert ok_inf, (
        "large-r endpoint failed: S_D and S_AD must match log2(2 cosh^2 r) + C "
        "to 2/cosh^2 r, with 0 < S_D - S_AD < 1/cosh^2 r (" + "; ".join(large) + ")"
    )


def test_criterion_10_selftest_runtime_and_determinism():
    buf1, buf2 = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    failures = run_selftest(seed=0, stream=buf1)
    elapsed = time.perf_counter() - t0
    run_selftest(seed=0, stream=buf2)
    lines1 = [ln for ln in buf1.getvalue().splitlines() if not ln.endswith("s")]
    lines2 = [ln for ln in buf2.getvalue().splitlines() if not ln.endswith("s")]
    ok = failures == 0 and elapsed < 60.0 and lines1 == lines2 and len(lines1) == 23
    assert _report(10, ok, f"{23 - failures}/23 checks, {elapsed:.2f}s, deterministic output")

"""Tests of the benchmark itself: its references and its checks.

    python3 -m pytest perfbench -q
"""

import dataclasses
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SCALE = 1.0 + 1e-9


@pytest.mark.parametrize("y", [0.5, 11.9, -30.0, 150.0])
def test_kummer_reference_matches_the_elementary_case(y):
    # M(1, 2, iy) = (e^{iy} - 1)/(iy), with e^{iy} - 1 = -2 sin^2(y/2) + i sin y
    expm1 = complex(-2.0 * math.sin(0.5 * y) ** 2, math.sin(y))
    assert ref.rel_err(ref.kummer_reference(1.0, 2.0, 1j * y), expm1 / (1j * y)) < 1e-14


def test_entanglement_reference_at_r0_is_exact():
    values = ref.entanglement_reference(0.0)
    assert [float(values[m]) for m in ref.MEASURES] == [1.0, 0.5, 1.0, 1.0, 0.0, 2.0]


def test_entanglement_reference_follows_the_large_r_asymptote():
    r = 10.0
    values = ref.entanglement_reference(r)
    bound = 2.0 / math.cosh(r) ** 2
    base = ref.entropy_asymptote(r)
    assert abs(float(values["s_d"]) - base) < bound
    assert abs(float(values["s_ad"]) - base) < bound
    assert 0 < float(values["s_d"] - values["s_ad"]) < 1.0 / math.cosh(r) ** 2
    assert 1.0 < float(values["mutual_info"]) < 1.0 + bound


def test_direct_sum_and_sumem_agree_at_the_switch(monkeypatch):
    r = ref.R_DIRECT
    direct = ref.entanglement_reference(r)
    monkeypatch.setattr(ref, "R_DIRECT", 0.0)
    sumem = ref.entanglement_reference(r)
    for m in ref.MEASURES:
        assert ref.rel_err(float(direct[m]), sumem[m]) < 1e-15


def test_exterior_reference_satisfies_positive_frequency():
    w, k = 1.3, 0.7
    tanh_r = math.exp(-math.pi * w / 2.0)
    cosh_r = 1.0 / math.sqrt(1.0 - tanh_r ** 2)
    sinh_r = tanh_r * cosh_r
    b_int = ref.bogoliubov_interior(w, k, "beta")
    a_ext = ref.bogoliubov_exterior(w, k, "alpha")
    assert abs(cosh_r * b_int + sinh_r * a_ext.conjugate()) < 1e-15 * abs(b_int)


class ScaledProgram(workloads.Program):
    """report_for and the closed form with every output scaled by SCALE."""

    def report_for(self, r):
        rep = super().report_for(r)
        return dataclasses.replace(rep, **{m: getattr(rep, m) * SCALE for m in ref.MEASURES})

    def closed(self, omega_hat, k_hat, kind):
        return super().closed(omega_hat, k_hat, kind) * SCALE


def _unexpected(wl, outputs):
    """Operations whose failures are not those of their kept fault."""
    return [
        op.label
        for op, bad in zip(wl.ops(), wl.check(outputs))
        if bad and not (op.fault and set(bad) <= workloads.FAULTS[op.fault][1])
    ]


def _round(wl):
    return [op.call() for op in wl.ops()]


def test_bogoliubov_grid_passes_and_flags_a_scaled_closed_form():
    wl = workloads.BogoliubovGrid(3, workloads.Program())
    wl.prepare()
    outputs = _round(wl)
    assert _unexpected(wl, outputs) == []
    outputs[0] = ArithmeticError("stand-in for a raising call")
    assert wl.check(outputs)[0] == ["raised:ArithmeticError"]
    scaled = workloads.BogoliubovGrid(3, ScaledProgram())
    scaled.prepare()
    flagged = _unexpected(scaled, _round(scaled))
    assert flagged == [op.label for op in scaled.ops() if op.label.startswith("closed") and not op.fault]


def test_sweep_flags_a_scaled_report_for():
    wl = workloads.DegradationSweep(3, ScaledProgram())
    wl.prepare()
    outputs = _round(wl)
    flagged = set(_unexpected(wl, outputs))
    labels = [op.label for op in wl.ops()]
    # S_A = 1 is exact, so every point is flagged; the reference points are
    # flagged by the 1e-12 comparison as well
    assert flagged == set(labels)
    checks = wl.check(outputs)
    for i in wl.checked:
        assert any(name.startswith("ref:") for name in checks[i])


def test_sweep_inputs_are_ordered_and_seeded():
    a, b = workloads.DegradationSweep(5), workloads.DegradationSweep(5)
    assert a.r == b.r and a.checked == b.checked
    assert a.r != workloads.DegradationSweep(6).r
    assert all(y - x >= 0.005 for x, y in zip(a.r, a.r[1:]))
    assert [a.r[i] for i in (0, 800, 900, 1000)] == [0.0, 8.0, 9.0, 10.0]


def test_tracer_reads_the_route_and_restores_the_program():
    from diamondqi import entanglement, modes

    original = entanglement._measures_full, modes.bogoliubov_closed_form
    program = workloads.Program()
    tracer = Tracer()
    tracer.install()
    try:
        direct = program.report_for(1.0)
        program.report_for(8.0)
        program.closed(1.0, 30.0, "alpha")
    finally:
        tracer.uninstall()
    assert (entanglement._measures_full, modes.bogoliubov_closed_form) == original
    totals = tracer.totals()
    assert totals["entanglement.direct"]["calls"] == 1
    assert totals["entanglement.direct"]["terms"] == direct.n_max_used
    assert totals["entanglement.em"]["calls"] == 1
    assert totals["specfun.kummer_mp"]["calls"] == 1
    closed = next(s for s in tracer.spans if s[0] == "modes.closed")
    assert 0.0 <= closed[4] <= closed[2] - closed[1]

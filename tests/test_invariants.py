"""Every entry of the invariant registry, at the seed ``diamondqi selftest``
uses and at the seed of the ``rng`` fixture."""

import io

import pytest

from diamondqi.invariants import CHECKS, run_selftest


@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize("name", list(CHECKS))
def test_invariant(name, seed):
    ok, detail = CHECKS[name](seed, None)
    assert ok, f"{name} at seed {seed}: {detail}"


@pytest.mark.parametrize("seed", [0, 7])
def test_a_seed_gives_the_same_report(seed):
    reports = []
    for _ in range(2):
        out = io.StringIO()
        assert run_selftest(seed=seed, stream=out) == 0
        *lines, summary = out.getvalue().splitlines()
        assert summary.startswith(f"{len(CHECKS)}/{len(CHECKS)} checks passed in ")
        reports.append(lines)
    assert reports[0] == reports[1] and len(reports[0]) == len(CHECKS)


def lookup(name):
    """A test that runs one registry entry at the ``rng`` fixture's seed, for
    a module that names it: ``test_round_trip = lookup("geometry-round-trip")``."""

    def test():
        ok, detail = CHECKS[name](12345, None)
        assert ok, f"{name}: {detail}"

    return test

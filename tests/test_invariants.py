"""Every entry of the invariant registry, at the seed ``diamondqi selftest``
uses and at the seed of the ``rng`` fixture."""

import numpy as np
import pytest

from diamondqi.invariants import CHECKS


@pytest.mark.parametrize("seed", [0, 12345])
@pytest.mark.parametrize("name", list(CHECKS))
def test_invariant(name, seed):
    ok, detail = CHECKS[name](np.random.default_rng(seed), None)
    assert ok, f"{name} at seed {seed}: {detail}"


def lookup(name):
    """A test that runs one registry entry at the ``rng`` fixture's seed, for
    a module that names it: ``test_round_trip = lookup("geometry-round-trip")``."""

    def test():
        ok, detail = CHECKS[name](np.random.default_rng(12345), None)
        assert ok, f"{name}: {detail}"

    return test

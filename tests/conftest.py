import numpy as np
import pytest

import diamondqi as dq
from diamondqi.specfun import KummerParams, kummer_m


@pytest.fixture(scope="session", autouse=True)
def warm_up():
    """First calls of kummer_m and report_for, which load mpmath's
    hypergeometric code, so the timed acceptance tests measure steady state."""
    kummer_m(KummerParams(1 - 0.5j, 2.0, 2j))
    kummer_m(KummerParams(1 - 0.5j, 2.0, 30j))
    dq.report_for(1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def chart():
    return dq.DiamondChart(1.0, 2.0)

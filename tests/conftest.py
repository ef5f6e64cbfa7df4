import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flexmarket import (ChanceConstrainedClearing, MechanismConfig, RhoSchedule, load_bundled,
                        run, solve_centralized)

# One tuned configuration for all bundled runs: slow-decay inertia, the
# default capacity-price step, and a tight exit so limit-based checks see a
# genuinely settled state.
BUNDLED_RUN_CONFIG = MechanismConfig(max_rounds=5000, tol=1e-9, beta=0.1,
                                     rho=RhoSchedule(1.0, 1.0, 0.6))


class PassThroughEngine:
    """The default engine behind the bare `ClearingEngine` contract: having no
    array method, it makes `run` take the terms-of-trade round."""

    def __init__(self, net):
        self.inner = ChanceConstrainedClearing(net)

    def clear_area(self, area_id, terms):
        return self.inner.clear_area(area_id, terms)


@pytest.fixture(scope="session")
def toy2():
    return load_bundled("toy2")


@pytest.fixture(scope="session")
def toy2_congested():
    return load_bundled("toy2-congested")


@pytest.fixture(scope="session")
def tri3():
    return load_bundled("tri3")


def _timed_run(net):
    start = time.perf_counter()
    result = run(net, BUNDLED_RUN_CONFIG)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def toy2_run(toy2):
    return _timed_run(toy2)


@pytest.fixture(scope="session")
def toy2_congested_run(toy2_congested):
    return _timed_run(toy2_congested)


@pytest.fixture(scope="session")
def tri3_run(tri3):
    return _timed_run(tri3)


@pytest.fixture(scope="session")
def toy2_central(toy2):
    return solve_centralized(toy2)


@pytest.fixture(scope="session")
def toy2_congested_central(toy2_congested):
    return solve_centralized(toy2_congested)


@pytest.fixture(scope="session")
def tri3_central(tri3):
    return solve_centralized(tri3)

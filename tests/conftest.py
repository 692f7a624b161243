import functools
import warnings

import pytest
from hypothesis import settings

from edgeadmit.config import (
    default_penalty_table,
    default_running_table,
)
from edgeadmit.model import ChainTables, CostModel, CostTableWarning, ModelParams, ResourceDist
from edgeadmit.scenarios import rate_segments, trajectory

# every property test draws the same examples on every run (derandomize
# also turns off the example database), so that the suite's outcome and wall
# time do not depend on which examples are drawn; each test keeps its own
# strategies and max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def canonical_params() -> ModelParams:
    return ModelParams(
        buffer_capacity=20,
        cpu_levels=20,
        cores=2,
        service_rate=3.0,
        discount_beta=0.95,
    )


@pytest.fixture(scope="session")
def canonical_costs() -> CostModel:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CostTableWarning)
        return CostModel(
            holding=0.12,
            running=default_running_table(),
            penalty=default_penalty_table(),
        )


@pytest.fixture(scope="session")
def canonical_resources() -> ResourceDist:
    return ResourceDist(pmf=[0.6, 0.4])


@pytest.fixture(scope="session")
def canonical_chain(canonical_params, canonical_costs, canonical_resources) -> ChainTables:
    return ChainTables(canonical_params, canonical_costs, canonical_resources)


@pytest.fixture(scope="session")
def segments():
    """``segments(scenario, horizon, seed)``: the rate segments ``cli.train`` passes a trainer."""

    def build(scenario, horizon, seed):
        return rate_segments(trajectory(scenario, horizon, seed), horizon)

    return build


@pytest.fixture
def step_builds(monkeypatch) -> list[ChainTables]:
    """The chains whose ``step`` is built while the test runs, once per build."""
    built = []
    build = ChainTables.__dict__["step"].func

    def counting_build(self):
        built.append(self)
        return build(self)

    step = functools.cached_property(counting_build)
    step.__set_name__(ChainTables, "step")
    monkeypatch.setattr(ChainTables, "step", step)
    return built


@pytest.fixture(autouse=True)
def _silence_cost_table_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CostTableWarning)
        yield

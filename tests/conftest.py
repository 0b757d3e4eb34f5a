import os
import tempfile

import numpy as np
import pytest

from eqreinvest import AversionDistribution, solve_g
from eqreinvest.presets import baseline_model

# The first solve builds the C g2 loop into $XDG_CACHE_HOME/eqreinvest: a
# directory of this session (removed at exit), which subprocesses inherit,
# so a test run builds the loop once and never writes to the user's cache
_CACHE = tempfile.TemporaryDirectory(prefix="eqreinvest-test-cache-")
os.environ["XDG_CACHE_HOME"] = _CACHE.name


@pytest.fixture(scope="session")
def model_case1():
    return baseline_model("caseI", T=10.0, M=10000)


@pytest.fixture(scope="session")
def model_case2():
    return baseline_model("caseII", T=10.0, M=10000)


@pytest.fixture(scope="session")
def gsol_case1(model_case1):
    return solve_g(model_case1)


@pytest.fixture(scope="session")
def gsol_case2(model_case2):
    return solve_g(model_case2)


@pytest.fixture(scope="session")
def model_single():
    return baseline_model(AversionDistribution.single(1.0), T=10.0, M=10000)


@pytest.fixture(scope="session")
def gsol_single(model_single):
    return solve_g(model_single)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

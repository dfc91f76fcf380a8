import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cutproject import Box, CutProjectScheme, Lattice, Window

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("det")

TAU = (1.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture(scope="session")
def fib() -> CutProjectScheme:
    """Golden-ratio scheme: d = m = 1, basis columns (1, 1) and (tau, 1 - tau)."""
    return CutProjectScheme(lat=Lattice([[1.0, TAU], [1.0, 1.0 - TAU]]), d=1)


@pytest.fixture(scope="session")
def fib_window() -> Window:
    return Window(Box([0.0], [1.0]))


@pytest.fixture(scope="session")
def cps2d() -> CutProjectScheme:
    """A fixed well-conditioned 2+2 scheme used by the higher-dimensional tests."""
    rng = np.random.default_rng(20240817)
    while True:
        basis = rng.uniform(-2.0, 2.0, size=(4, 4))
        if abs(np.linalg.det(basis)) > 0.5:
            return CutProjectScheme(lat=Lattice(basis), d=2)

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cutlab.config import scenario
from cutlab.stability import Resolution, run_case


class TimedCase:
    def __init__(self, name, res, keep_atlas=False):
        cfg = scenario(name)
        self.res = res
        self.backend = cfg.build_backend()
        self.N = cfg.build_submanifold(self.backend)
        t0 = time.perf_counter()
        self.result = run_case(self.backend, self.N, res,
                               keep_atlas=keep_atlas)
        self.runtime = time.perf_counter() - t0


@pytest.fixture(scope="session")
def flat_line():
    return TimedCase("flat-torus-line", Resolution(m=256, dt=1e-3, t_max=1.2),
                     keep_atlas=True)


@pytest.fixture(scope="session")
def flat_point():
    return TimedCase("flat-torus-point",
                     Resolution(m=256, dt=1e-3, t_max=1.2))


@pytest.fixture(scope="session")
def sphere_eq():
    return TimedCase("sphere-equator", Resolution(m=256, dt=1e-3, t_max=3.4),
                     keep_atlas=True)


@pytest.fixture(scope="session")
def warped_line():
    return TimedCase("warped-torus-line",
                     Resolution(m=256, dt=1e-3, t_max=1.4))


@pytest.fixture(scope="session")
def flat_backend():
    return scenario("flat-torus-line").build_backend()


@pytest.fixture(scope="session")
def warped_backend():
    return scenario("warped-torus-line").build_backend()


@pytest.fixture(scope="session")
def sphere_backend():
    return scenario("sphere-equator").build_backend()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture(scope="session")
def sphere_psi_backend():
    from cutlab.geometry import ImplicitSurface, ambient_scalar_field, \
        level_surface
    return ImplicitSurface(level_surface("sphere", radius=1.0),
                           psi=ambient_scalar_field("linear-z", amplitude=0.3))

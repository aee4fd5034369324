import contextlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from holisde import (
    QWienerSpec,
    build_grid,
    eig_gamma0,
    project_to_element_modes,
)
from holisde import dynamics


@pytest.fixture(scope="session")
def grid8():
    """Default desk grid: L = 2 pi, 8 elements, 16 intervals per half."""
    return build_grid(2.0 * np.pi, 8, 16)


@pytest.fixture(scope="session")
def grid_h1():
    """Unit spacing grid (h = 1) for closed-form spectra."""
    return build_grid(4.0, 4, 32)


@pytest.fixture(scope="session")
def qspec():
    return QWienerSpec.from_decay(17, 3.0)


@pytest.fixture(scope="session")
def eig0_8(grid8):
    return eig_gamma0(grid8, 6)


@pytest.fixture(scope="session")
def proj8(qspec, eig0_8, grid8):
    return project_to_element_modes(qspec, eig0_8, grid8)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def solver_pool(monkeypatch):
    """solver_pool(workers): a context that runs the solver blocks on a pool of
    `workers` threads (None: the default pool), switching threads every
    microsecond."""

    @contextlib.contextmanager
    def use(workers):
        if workers is not None:
            pool = ThreadPoolExecutor(workers)
            monkeypatch.setattr(dynamics, "_pool", lambda: pool)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)
            if workers is not None:
                pool.shutdown(wait=True)

    return use

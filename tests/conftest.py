import os

import numpy as np
import pytest
from hypothesis import settings

from mortboost import FeatureSpace, MortalityTable, WorkingData
from mortboost.leecarter import PoissonCells, poisson_surface_deviance


# the damaged-input property of the CLI: MORTBOOST_LONG_DAMAGE=1 runs it
# with 10 times its examples, 1,500 runs of the CLI
settings.register_profile("damage", max_examples=150, deadline=None)
settings.register_profile("damage-long", settings.get_profile("damage"), max_examples=1500)
DAMAGE_SETTINGS = settings.get_profile(
    "damage-long" if os.environ.get("MORTBOOST_LONG_DAMAGE") == "1" else "damage"
)


def dyadic_rates(log_rates: np.ndarray, bits: int = 40) -> np.ndarray:
    """Round rates to dyadic values so that q * 2**bits is an exact integer."""
    scale = float(2**bits)
    return np.round(np.exp(log_rates) * scale) / scale


def noise_free_table(space: FeatureSpace, log_rates: np.ndarray, bits: int = 40) -> tuple:
    """Exactly noise-free death counts: E = 2**bits, D = q * E with q dyadic.

    Returns (table, q) where q is the dyadic rate grid actually used; the
    products q * E are integers computed without rounding error.
    """
    q = dyadic_rates(log_rates, bits)
    E = np.full(space.shape, float(2**bits))
    D = q * E  # exact: (m / 2**bits) * 2**bits == m
    assert np.all(D == np.rint(D))
    return MortalityTable(space, E, D.astype(np.int64)), q


def surface_deviance(deaths, exposure, log_rate) -> float:
    """Poisson deviance of a log-rate grid against a (deaths, exposure) grid."""
    cells = PoissonCells(deaths, exposure)
    return poisson_surface_deviance(cells, cells.fitted_means(log_rate))


def random_working_data(rng: np.random.Generator, n_ordered: int = 2,
                        with_cause: bool = False, max_points: int = 8,
                        max_levels: int = 4) -> WorkingData:
    """Small random datasets for oracle comparisons: integer feature values,
    dyadic volumes, Poisson responses."""
    n = int(rng.integers(2, max_points + 1))
    ordered = rng.integers(0, 12, size=(n, n_ordered)).astype(np.float64)
    volume = rng.integers(1, 7, size=n) / 2.0  # dyadic 0.5 .. 3.0
    deaths = rng.poisson(1.5 * volume).astype(np.float64)
    cause = None
    labels = None
    if with_cause:
        k = int(rng.integers(2, max_levels + 1))
        cause = rng.integers(0, k, size=n)
        labels = tuple(f"cause {i + 1}" for i in range(k))
    names = tuple(f"f{j}" for j in range(n_ordered))
    return WorkingData(names, ordered, volume, deaths, cause=cause, cause_labels=labels)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

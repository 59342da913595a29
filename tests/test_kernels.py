import numpy as np
import pytest

from mortboost import kernels


def test_python_scan_basics():
    values = np.array([1.0, 2.0])
    deaths = np.array([0.0, 2.0])
    vols = np.array([1.0, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        slogs = np.where(deaths > 0, deaths * np.log(deaths / vols), 0.0)
    cut, red = kernels.best_cut(values, slogs, deaths, vols, 1)
    assert cut == 0
    assert red == pytest.approx(2 * (2 * np.log(2) - 1) + 2, abs=1e-12)
    # no admissible cut cases
    assert kernels.best_cut(values[:1], slogs[:1], deaths[:1], vols[:1], 1) == (-1, 0.0)
    assert kernels.best_cut(values, slogs, deaths, vols, 2) == (-1, 0.0)
    same = np.array([3.0, 3.0])
    assert kernels.best_cut(same, slogs, deaths, vols, 1) == (-1, 0.0)

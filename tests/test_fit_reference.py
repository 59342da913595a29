"""The fit loop matches tests/reference_fit.py bit for bit: every parameter
vector, the deviance trace, the iteration count and the flags, for
Lee-Carter and for Renshaw-Haberman from a cold and from a warm start; and
so do the deviance, the Fisher system and the joint step on their own."""

import numpy as np
import pytest

import reference_fit
from mortboost import FeatureSpace, MortalityTable, RateSurface, SimSpec, fit_lc, fit_rh, sample_deaths
from mortboost.leecarter import FitConfig, PoissonCells, poisson_surface_deviance
from mortboost.renshawhaberman import _fisher_system, _joint_step, _Workspace

SPACE = FeatureSpace(0, 24, 1990, 2007)


def readme_like_table():
    """A small simulation with the README walkthrough's rates and exposure."""
    base = np.broadcast_to(5e-5 * np.exp(0.09 * SPACE.ages())[:, None], SPACE.shape[1:])
    q = RateSurface(SPACE, np.stack([base, base * 1.4]))
    return sample_deaths(SimSpec(q=q, exposure=np.full(SPACE.shape, 50000.0), seed=7))


def with_holes(table):
    """The simulation with an age row without exposure, an exposed age
    without deaths and the oldest cohort's single cell unexposed."""
    E = table.exposure.copy()
    D = table.deaths.copy()
    E[:, 3] = 0.0
    D[:, 3] = 0
    D[:, 6] = 0
    E[:, -1, 0] = 0.0
    D[:, -1, 0] = 0
    return MortalityTable(SPACE, E, D)


TABLES = {"simulation": readme_like_table, "holes": lambda: with_holes(readme_like_table())}


def assert_same_fit(got, want):
    assert type(got) is type(want)
    for kind in want.kinds():
        assert np.array_equal(getattr(got, kind), getattr(want, kind)), kind
    assert np.array_equal(got.deviance_trace, want.deviance_trace)
    assert got.n_iterations == want.n_iterations
    assert got.converged == want.converged
    assert got.flags == want.flags


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("gender", ["female", "male"])
def test_lc_fit_matches_the_reference(name, gender):
    table = TABLES[name]()
    cfg = FitConfig()
    assert_same_fit(fit_lc(table, gender, cfg), reference_fit.fit_lc(table, gender, cfg))


@pytest.mark.parametrize("name", TABLES)
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_rh_fit_matches_the_reference(name, warm):
    table = TABLES[name]()
    cfg = FitConfig(max_iterations=150, deviance_tol=1e-8)
    # the CLI's warm start: a Lee-Carter fit at its own, tighter tolerance
    lc = fit_lc(table, "female") if warm else None
    got = fit_rh(table, "female", cfg, warm_start=lc)
    assert_same_fit(got, reference_fit.fit_rh(table, "female", cfg, warm_start=lc))
    assert got.n_iterations > 20  # the joint step ran many times
    if name == "holes":
        assert any("no positive exposure" in flag for flag in got.flags)


@pytest.mark.parametrize("unexposed", [False, True])
def test_deviance_matches_the_reference(rng, unexposed):
    D = rng.poisson(2.0, (6, 7)).astype(np.float64)  # some cells without deaths
    E = rng.uniform(1.0, 10.0, (6, 7))
    log_rate = np.log(rng.uniform(0.05, 1.0, (6, 7)))
    log_rate[1, 2] = -800.0  # exp underflows: a fitted mean of 0 stands in as 1
    if unexposed:
        E[0] = D[0] = 0.0
        E[3, 4] = 0.0
    cells = PoissonCells(D, E)
    got = poisson_surface_deviance(cells, cells.fitted_means(log_rate))
    assert got == reference_fit.poisson_surface_deviance(D, E, log_rate)
    without_zero = np.where(log_rate < -700, -1.0, log_rate)
    got = poisson_surface_deviance(cells, cells.fitted_means(without_zero))
    assert got == reference_fit.poisson_surface_deviance(D, E, without_zero)


def assert_same_bytes(got, want):
    """Equal arrays down to the sign of each zero."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("unexposed", [False, True])
def test_fisher_system_and_joint_step_match_the_reference(rng, unexposed):
    # weights of 0 on cells without exposure times negative coefficients
    # make products of -0.0, which the reference's bincounts sum to 0.0
    space = FeatureSpace(30, 35, 2000, 2008)
    A, T, C = space.n_ages, space.n_years, space.n_cohorts
    b1, k, b2, g = rng.normal(size=A), rng.normal(size=T), rng.normal(size=A), rng.normal(size=C)
    W = rng.uniform(0.5, 50.0, (A, T))
    R = rng.normal(0.0, 3.0, (A, T))
    W[2, 4] = R[2, 4] = 0.0
    if unexposed:
        W[3] = R[3] = 0.0
        W[-1, 0] = R[-1, 0] = 0.0
    ci = space.cohort_grid() - space.cohort_min
    work = _Workspace(ci, C)
    system = _fisher_system(work, W, R, b1, b2, k, g[ci])
    want = reference_fit._fisher_system(ci, C, W, R, b1, b2, k, g)
    assert_same_bytes(system, want)
    for lam in (1e-3, 10.0):
        assert_same_bytes(_joint_step(system, lam, work), reference_fit._joint_step(want, lam))

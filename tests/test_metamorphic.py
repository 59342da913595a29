"""Metamorphic properties: the program against itself under a transformation
whose effect is known exactly, bit for bit.

- Swapping the genders, or shifting every year by 100, changes no fitted
  vector, deviance or iteration count of a Lee-Carter or Renshaw-Haberman
  fit: the labels enter only the parameters' indices.
- Doubling deaths and exposures under the same fitted surface gives a
  back-test tree with the same rules, leaves and mu, and exactly doubled
  deaths, volumes and deviances (a power of two scales without rounding).
"""

import numpy as np
import pytest

from mortboost import FeatureSpace, MortalityTable, RateSurface, SimSpec, TreeConfig, backtest, sample_deaths
from mortboost.leecarter import FitConfig, fit_lc
from mortboost.renshawhaberman import fit_rh

SPACE = FeatureSpace(0, 24, 1950, 1967)  # 25 ages x 18 years


@pytest.fixture(scope="module")
def table():
    """README-like rates with a sin(year) ripple, sampled at seed 3: the LC
    fits take tens of iterations, and some cells have no deaths."""
    ages, years = SPACE.ages()[:, None], SPACE.years()[None, :]
    log_q = np.log(5e-5) + 0.09 * ages + 0.1 * np.sin(years)
    q = np.exp(np.stack([log_q, log_q + np.log(1.4)]))
    return sample_deaths(SimSpec(RateSurface(SPACE, q), np.full(SPACE.shape, 5e4), seed=3))


FITS = {
    "lc": lambda table, gender: fit_lc(table, gender),
    "rh": lambda table, gender: fit_rh(table, gender, FitConfig(max_iterations=60, deviance_tol=1e-8)),
}


def bits(fit) -> tuple:
    """Everything a fit computes, as bytes, and the labels it does not."""
    return (
        [getattr(fit, kind).tobytes() for kind in fit.kinds()],
        fit.deviance_trace.tobytes(),
        fit.n_iterations,
        fit.converged,
    )


@pytest.mark.parametrize("model", sorted(FITS))
def test_gender_swap_gives_the_same_fit(table, model):
    swapped = MortalityTable(SPACE, table.exposure[::-1], table.deaths[::-1])
    for gender, other in (("female", "male"), ("male", "female")):
        fit, twin = FITS[model](table, gender), FITS[model](swapped, other)
        assert bits(twin) == bits(fit)
        assert twin.flags == fit.flags


@pytest.mark.parametrize("model", sorted(FITS))
def test_year_shift_gives_the_same_fit(table, model):
    later = FeatureSpace(SPACE.age_min, SPACE.age_max, SPACE.year_min + 100, SPACE.year_max + 100)
    shifted = MortalityTable(later, table.exposure, table.deaths)
    fit, twin = FITS[model](table, "female"), FITS[model](shifted, "female")
    assert bits(twin) == bits(fit)
    assert (twin.year_min, twin.cohort_min) == (fit.year_min + 100, fit.cohort_min + 100)


def test_doubled_data_gives_the_same_tree_with_doubled_deviances(table):
    fits = {g: fit_lc(table, g) for g in ("female", "male")}
    q = RateSurface(SPACE, np.stack([fits[g].rates() for g in ("female", "male")]))
    doubled = MortalityTable(SPACE, 2.0 * table.exposure, 2 * table.deaths)
    cfg = TreeConfig(cp=1e-3)
    tree, twin = backtest(q, table, cfg).tree, backtest(q, doubled, cfg).tree
    assert tree.n_splits > 20
    assert twin.root_deviance == 2.0 * tree.root_deviance
    nodes, twins = list(tree.nodes()), list(twin.nodes())
    assert len(twins) == len(nodes)
    for node, other in zip(nodes, twins):
        assert (other.rule, other.n_obs, other.mu) == (node.rule, node.n_obs, node.mu)
        assert (other.sum_deaths, other.sum_volume) == (2.0 * node.sum_deaths, 2.0 * node.sum_volume)
        assert (other.deviance, other.reduction) == (2.0 * node.deviance, 2.0 * node.reduction)

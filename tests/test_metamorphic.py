"""Metamorphic properties: the program against itself under a transformation
whose effect is known exactly, bit for bit.

- Swapping the genders, or shifting every year by 100, changes no fitted
  vector, deviance or iteration count of a Lee-Carter or Renshaw-Haberman
  fit: the labels enter only the parameters' indices.
- Doubling deaths and exposures under the same fitted surface gives a
  back-test tree with the same rules, leaves and mu, and exactly doubled
  deaths, volumes and deviances (a power of two scales without rounding).
- Permuting the data rows of both HMD files leaves the params.csv and
  qfit.csv of `fit lc` and `fit rh` byte-identical: a row is placed by its
  year and age.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortboost import FeatureSpace, MortalityTable, RateSurface, SimSpec, TreeConfig, backtest, sample_deaths
from mortboost.cli import main
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


HMD_HEAD = 3  # title, blank line, column header
CLI_SPEC = "ages = 0:7\nyears = 2000:2007\nseed = 21\nexposure = 40000\nbase_rate = 2e-3\nage_slope = 0.12\n"


def fit_outputs(data: Path, out: Path) -> dict:
    """Exit code, params.csv and qfit.csv of `fit lc` and `fit rh` on data's
    HMD files; RH stops after 60 iterations (exit 4) on a ridge of this input."""
    files = {}
    for model in ("lc", "rh"):
        argv = ["fit", model, "--deaths", str(data / "deaths.txt"), "--exposures", str(data / "exposures.txt"),
                "--ages", "0:7", "--years", "2000:2007", "--max-iter", "60", "--out", str(out / model)]
        files[f"{model} exit"] = main(argv)
        files.update({f"{model}/{name}": (out / model / name).read_bytes() for name in ("params.csv", "qfit.csv")})
    return files


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    """A simulated 8 x 8 input, its HMD lines and the fits' output bytes."""
    root = tmp_path_factory.mktemp("permute")
    (root / "sim.cfg").write_text(CLI_SPEC)
    assert main(["simulate", "--spec", str(root / "sim.cfg"), "--out", str(root / "data")]) == 0
    lines = {kind: (root / "data" / f"{kind}.txt").read_text().splitlines(keepends=True)
             for kind in ("deaths", "exposures")}
    outputs = fit_outputs(root / "data", root / "fits")
    assert (outputs["lc exit"], outputs["rh exit"]) == (0, 4)
    return lines, outputs


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_permuting_hmd_rows_gives_the_same_fit_files(cli_data, data):
    lines, expected = cli_data
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for kind, text in lines.items():
            order = data.draw(st.permutations(range(HMD_HEAD, len(text))), label=kind)
            (root / f"{kind}.txt").write_text("".join(text[:HMD_HEAD] + [text[i] for i in order]))
        assert fit_outputs(root, root) == expected

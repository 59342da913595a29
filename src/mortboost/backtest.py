"""One-step Poisson-tree boosting back-test of an initial mortality surface.

The working data puts the initial model's expected deaths q_init * E into the
offset, so a fitted factor mu != 1 flags regions where the initial model
misses; q_tree = mu * q_init are the boosted rates and delta = mu - 1 the
relative changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import GENDERS, FeatureSpace, MortalityTable, RateSurface, float_fields, grid_csv
from .tree import PoissonTree, TreeConfig, WorkingData, grow_tree

BACKTEST_FEATURES = ("gender", "age", "year", "cohort")


def grid_features(space: FeatureSpace) -> np.ndarray:
    """(size, 4) matrix of (gender, age, year, cohort) rows in storage order."""
    g, a, t = np.indices(space.shape, dtype=np.float64).reshape(3, -1)
    a += space.age_min
    t += space.year_min
    return np.column_stack([g, a, t, t - a])


def make_working_data(
    q_init: RateSurface, table: MortalityTable
) -> tuple[WorkingData, list[tuple[str, int, int]]]:
    """One working point per grid cell with volume q_init * E and response D.

    Cells with zero volume and zero deaths are dropped (and returned).
    Observed deaths over a volume so small that their quotient, which the
    tree reads, is not finite are an error: zero volume, or a positive one.
    """
    space = table.space
    if q_init.space != space:
        raise ValueError("rate surface and table are on different feature spaces")
    volume = q_init.rate * table.exposure
    deaths = table.deaths.astype(np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bad = np.argwhere((deaths > 0) & ~(deaths / volume < np.inf))
    if bad.size:
        v = float(volume[tuple(bad[0])])
        what = f"over initial expected deaths {v!r} overflow" if v else "with zero initial expected deaths"
        raise ValueError("observed deaths {} at ({}, {}, {})".format(what, *space.cell(*bad[0])))
    keep = volume > 0
    dropped = [space.cell(*i) for i in np.argwhere(~keep)]
    data = WorkingData(
        ordered_names=BACKTEST_FEATURES,
        ordered=grid_features(space)[keep.ravel()],
        volume=volume[keep],
        deaths=deaths[keep],
    )
    return data, dropped


@dataclass(frozen=True)
class BacktestResult:
    space: FeatureSpace
    initial_model_tag: str
    q_init: RateSurface
    q_tree: RateSurface
    mu_hat: np.ndarray  # (2, A, T)
    delta: np.ndarray  # (2, A, T), mu_hat - 1
    tree: PoissonTree
    dropped: tuple[tuple[str, int, int], ...]


def backtest(
    q_init: RateSurface,
    table: MortalityTable,
    cfg: TreeConfig = TreeConfig(),
    initial_model_tag: str = "external",
) -> BacktestResult:
    """Grow one tree on the working data and assemble the boosted surface."""
    data, dropped = make_working_data(q_init, table)
    tree = grow_tree(data, cfg)
    space = table.space
    mu = tree.predict(grid_features(space)).reshape(space.shape)
    q_tree = np.minimum(1.0, mu * q_init.rate)
    return BacktestResult(
        space=space,
        initial_model_tag=initial_model_tag,
        q_init=q_init,
        q_tree=RateSurface(space, q_tree),
        mu_hat=mu,
        delta=mu - 1.0,
        tree=tree,
        dropped=tuple(dropped),
    )


def delta_to_csv(result: BacktestResult) -> str:
    """Full-grid relative changes, columns gender,age,year,cohort,delta."""
    space = result.space
    cohorts = list(map(str, np.broadcast_to(space.cohort_grid(), space.shape).ravel().tolist()))
    # a tree has few leaves, so delta repeats few values
    deltas = float_fields(result.delta)
    return grid_csv("gender,age,year,cohort,delta", (GENDERS, space.ages(), space.years()), cohorts, deltas)


def export_delta_heatmap(
    result: BacktestResult,
    out_dir,
    white_band: float = 0.05,
    svg: bool = False,
) -> list[Path]:
    """Write delta.csv (always) and per-gender SVG heatmaps (when svg=True)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / "delta.csv"]
    written[0].write_text(delta_to_csv(result))
    if svg:
        from . import svgplot

        space = result.space
        for gi, g in enumerate(GENDERS):
            path = out_dir / f"delta_{g}.svg"
            path.write_text(
                svgplot.heatmap_svg(
                    result.delta[gi],
                    row_values=space.ages(),
                    col_values=space.years(),
                    white_band=white_band,
                    title=f"relative rate changes, {g} ({result.initial_model_tag})",
                )
            )
            written.append(path)
    return written

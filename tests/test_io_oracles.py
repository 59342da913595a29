"""The array writers, smoothing, SVG panels and heatmap against their per-row
references in reference_io.py: byte-identical text, bit-identical smoothing."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

import reference_io as ref
from mortboost import svgplot
from mortboost.backtest import delta_to_csv
from mortboost.codboost import ResidualGrid, ThetaSurface, residuals_to_csv, smooth_series, theta_to_csv
from mortboost.grids import FeatureSpace, RateSurface, grid_csv, rate_surface_to_csv
from mortboost.hmd import CauseDeathTable, HmdGrid, write_cod_csv, write_hmd_1x1

EDGE = [np.nan, -0.0, 0.0, 1e-300, 5e-324, 1.0, 0.1, 1 / 3]


def with_edges(values: np.ndarray, edges=EDGE) -> np.ndarray:
    out = values.copy()
    flat = out.reshape(-1)
    flat[: len(edges)] = edges
    return out


def bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def cause_table(rng, shape=(2, 3, 5, 4), year_min=1990):
    missing = rng.random(shape) < 0.2
    counts = np.where(missing, 0, rng.integers(0, 10**7, shape))
    return CauseDeathTable(
        causes=tuple(f"cause {k + 1}" for k in range(shape[3])),
        n_buckets=shape[1],
        year_min=year_min,
        year_max=year_min + shape[2] - 1,
        counts=counts,
        missing=missing,
    )


class TestSmoothing:
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_per_element_loop(self, window, n):
        rng = np.random.default_rng(100 * window + n)
        y = with_edges(rng.random(n), [-0.0, 1e-300, 0.7][:n])
        assert np.array_equal(bits(smooth_series(y, window)), bits(ref.smooth_series(y, window)))

    @pytest.mark.parametrize("window", [1, 3, 5, 7, 9, 15, 21])
    def test_over_a_grid_axis_matches_each_series(self, window):
        # the theta layout (2, I, T, K), smoothed over years; windows past 8
        # points take numpy's pairwise summation path
        values = np.random.default_rng(window).random((2, 3, 17, 4))
        got = np.moveaxis(smooth_series(np.moveaxis(values, 2, -1), window), -1, 2)
        for g, b, k in np.ndindex(2, 3, 4):
            want = ref.smooth_series(values[g, b, :, k], window)
            assert np.array_equal(bits(got[g, b, :, k]), bits(want))


class TestCodWriters:
    def test_write_cod_csv(self):
        table = cause_table(np.random.default_rng(1))
        assert table.missing.any() and not table.missing.all()
        assert write_cod_csv(table) == ref.write_cod_csv(table)

    @pytest.mark.parametrize("window", [None, 1, 3, 5, 7])
    def test_theta_to_csv(self, window):
        rng = np.random.default_rng(2)
        table = cause_table(rng)
        raw = ThetaSurface(with_edges(rng.integers(0, 6, table.counts.shape) / 7))
        norm = ThetaSurface(with_edges(rng.random(table.counts.shape), EDGE[::-1]))
        assert theta_to_csv(table, raw, norm, window) == ref.theta_to_csv(table, raw, norm, window)

    def test_residuals_to_csv(self):
        rng = np.random.default_rng(3)
        table = cause_table(rng, shape=(2, 2, 3, 3))
        residuals = ResidualGrid(with_edges(rng.normal(size=table.counts.shape), EDGE[1:]))
        assert residuals_to_csv(table, residuals) == ref.residuals_to_csv(table, residuals)

    def test_column_length_must_match_the_table(self):
        table = cause_table(np.random.default_rng(4))
        with pytest.raises(ValueError, match="fields for"):
            grid_csv("h", table.axes(), ["1"])


class TestHmdWriter:
    @pytest.mark.parametrize("open_age", [None, 110])
    def test_write_hmd_1x1(self, open_age):
        rng = np.random.default_rng(5)
        ages = np.array([0, 1, 2, 97, 110])
        years = np.arange(1998, 2003)
        female, male = (with_edges(rng.uniform(0, 5e4, (5, 5)), e) for e in (EDGE, EDGE[::-1]))
        grid = HmdGrid("deaths", ages, years, female, male, female + male, open_age)
        assert write_hmd_1x1(grid) == ref.write_hmd_1x1(grid)


class TestGridWriters:
    # rates lie in [0, 1]; 1 - 2**-53 is the largest double below 1
    # a RateSurface holds no NaN: it is not a rate in [0, 1]
    RATE_EDGES = [0.0, 1.0, 5e-324, 1 - 2**-53, 1e-300, 0.1, 1 / 3]

    @pytest.mark.parametrize("space", [FeatureSpace(0, 4, 1990, 1995), FeatureSpace(97, 97, 2014, 2014)])
    def test_rate_surface_to_csv(self, space):
        rng = np.random.default_rng(7)
        q = RateSurface(space, with_edges(rng.random(space.shape), self.RATE_EDGES[: space.size]))
        assert rate_surface_to_csv(q) == ref.rate_surface_to_csv(q)

    def test_delta_to_csv(self):
        # a tree's leaf factors repeat a few values; delta = mu - 1 >= -1
        space = FeatureSpace(0, 5, 1990, 1998)
        rng = np.random.default_rng(8)
        leaves = np.array([-1.0, -0.0, 0.0, 5e-324, 1 - 2**-53, 0.25, -1 / 3, np.nan])
        delta = with_edges(leaves[rng.integers(0, leaves.size, space.shape)], leaves.tolist())
        result = SimpleNamespace(space=space, delta=delta)
        assert delta_to_csv(result) == ref.delta_to_csv(result)


def panel_dicts(titles, x, lines, dots, y_log):
    """A figure as the oracle's per-panel dicts: unlabelled series, zipped dots."""
    return [{"title": title, "x": x, "series": [(None, ys) for ys in ls], "dots": list(zip(*d)),
             "y_log": y_log} for title, ls, d in zip(titles, lines, dots)]


def assert_like_oracle(*figure):
    assert svgplot.panels_svg(*figure) == ref.panels_svg(panel_dicts(*figure))


class TestPanels:
    def figures(self, rng):
        years = np.arange(1990, 2010)
        ages = np.arange(0, 30)
        theta = np.stack([with_edges(rng.integers(0, 5, years.size) / 9, EDGE[b:]) for b in range(4)])
        residuals = (np.tile(years, 3), with_edges(rng.normal(size=3 * years.size)))
        rates = with_edges(1e-4 * np.exp(0.1 * ages), [np.nan, 0.0, -0.0, 1e-300, np.inf])
        crude = with_edges(rates * rng.uniform(0.5, 1.5, ages.size), [0.0, -1.0, np.nan])
        no_dots = (np.empty(0), np.empty(0))
        return [
            (["theta <&>", "residuals", "flat"], years,
             [theta, np.empty((0, years.size)), np.zeros((1, years.size))],
             [no_dots, residuals, no_dots], False),
            (["rates", "no finite values"], ages,
             [np.stack([rates, rates * 1.1]), np.full((1, ages.size), np.nan)],
             [(ages, crude), no_dots], True),
            (["one x"], np.array([2000]), [np.array([[-0.0]])], [(np.array([2000]), np.array([0.0]))],
             False),
        ]

    def test_panels_svg(self):
        for figure in self.figures(np.random.default_rng(6)):
            assert_like_oracle(*figure)

    def test_negative_zero_minimum(self):
        # the axis label shows the first of equal extremes: 0 before -0
        dots = [(np.array([1]), np.array([-0.0]))]
        assert_like_oracle(["t"], np.arange(1, 4), np.array([[[0.0, -0.0, 1.0]]]), dots, False)
        assert_like_oracle(["t"], np.arange(1, 4), np.array([[[-0.0, 0.0, 1.0]]]), dots, False)

    def test_series_beyond_the_palette_are_told_apart(self):
        # a cod theta panel draws one series per age bucket: 21 five-year buckets
        x = np.arange(10)
        figure = (["theta"], x, [np.arange(21.0)[:, None] + np.zeros(x.size)], [(np.empty(0), np.empty(0))],
                  False)
        assert_like_oracle(*figure)
        styles = re.findall(r'<polyline [^>]* stroke="([^"]+)" stroke-width="1"(?: stroke-dasharray="([^"]+)")?/>',
                            svgplot.panels_svg(*figure))
        assert len(styles) == len(set(styles)) == 21


class TestHeatmap:
    @pytest.mark.parametrize("white_band", [0.0, 0.05, 0.6, -0.1])
    def test_heatmap_svg(self, white_band):
        rng = np.random.default_rng(8)
        # a tree's delta: few distinct values, plus the edge values
        values = with_edges(rng.choice([-0.3, -0.05, 0.0, 0.02, 0.5, 2.0], size=(7, 11)))
        values[3, 4:] = [np.inf, -np.inf, np.nan, -0.0, 0.05, -0.05, 0.55]
        rows, cols = np.arange(7), np.arange(1990, 2001)
        assert svgplot.heatmap_svg(values, rows, cols, white_band, "delta <&>") == ref.heatmap_svg(
            values, rows, cols, white_band, "delta <&>"
        )
        continuous = rng.normal(0.0, 0.3, size=(4, 5))
        assert svgplot.heatmap_svg(continuous, rows, cols, white_band, "t") == (
            ref.heatmap_svg(continuous, rows, cols, white_band, "t")
        )

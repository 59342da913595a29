import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mortboost import FeatureSpace, MortalityTable, RateSurface, SimSpec, TreeConfig, backtest, make_working_data, sample_deaths
from mortboost.backtest import delta_to_csv, export_delta_heatmap, grid_features


def flat_surface(space, q):
    return RateSurface(space, np.full(space.shape, q))


class TestMakeWorkingData:
    def test_volume_is_rate_times_exposure(self):
        space = FeatureSpace(0, 0, 2000, 2000)
        table = MortalityTable(space, np.full(space.shape, 1000.0), np.full(space.shape, 12))
        data, dropped = make_working_data(flat_surface(space, 0.01), table)
        assert np.all(data.volume == 10.0)
        assert np.all(data.deaths == 12.0)
        assert dropped == []

    def test_empty_cells_dropped(self):
        space = FeatureSpace(0, 1, 2000, 2001)
        E = np.full(space.shape, 100.0)
        D = np.full(space.shape, 2)
        E[0, 0, 0] = E[1, 1, 1] = 0.0
        D[0, 0, 0] = D[1, 1, 1] = 0
        data, dropped = make_working_data(flat_surface(space, 0.05), MortalityTable(space, E, D))
        assert data.n == space.size - 2
        assert dropped == [("female", 0, 2000), ("male", 1, 2001)]
        assert all(list(map(type, cell)) == [str, int, int] for cell in dropped)

    def test_zero_volume_with_deaths_is_an_error(self):
        space = FeatureSpace(0, 1, 2000, 2001)
        E = np.full(space.shape, 100.0)
        D = np.full(space.shape, 2)
        q = np.full(space.shape, 0.05)
        q[1, 1, 0] = 0.0
        message = r"^observed deaths with zero initial expected deaths at \(male, 1, 2000\)$"
        with pytest.raises(ValueError, match=message):
            make_working_data(RateSurface(space, q), MortalityTable(space, E, D))

    def test_deaths_over_a_volume_that_overflows_are_an_error(self):
        # 3 deaths over 1e-308 overflow; a cell without deaths may have any volume
        space = FeatureSpace(0, 1, 2000, 2001)
        E = np.full(space.shape, 100.0)
        D = np.full(space.shape, 3)
        E[0, 0, 1] = 1e-300
        D[0, 0, 0] = 0
        q = np.full(space.shape, 0.05)
        q[0, 0, 0] = 1e-308
        data, dropped = make_working_data(RateSurface(space, q), MortalityTable(space, E, D))
        assert (data.n, dropped) == (space.size, [])
        q[0, 0, 1] = 1e-8
        message = r"^observed deaths over initial expected deaths 1e-308 overflow at \(female, 0, 2001\)$"
        with pytest.raises(ValueError, match=message):
            make_working_data(RateSurface(space, q), MortalityTable(space, E, D))

    def test_swiss_grid_point_count(self):
        space = FeatureSpace(0, 97, 1876, 2014)
        E = np.full(space.shape, 10.0)
        D = np.zeros(space.shape, dtype=np.int64)
        D[:, :, 0] = 1
        data, dropped = make_working_data(flat_surface(space, 0.01), MortalityTable(space, E, D))
        assert data.n == 27244
        assert data.ordered_names == ("gender", "age", "year", "cohort")
        # cohort column consistent with year - age
        assert np.all(data.ordered[:, 3] == data.ordered[:, 2] - data.ordered[:, 1])


class TestBacktest:
    def test_perfect_initial_model_noise_free(self):
        # q_init equals crude rates with D = q*E exactly: root-only, mu = 1
        space = FeatureSpace(0, 4, 2000, 2009)
        E = np.full(space.shape, 1e5)
        q = np.full(space.shape, 0.02)
        table = MortalityTable(space, E, (q * E).astype(np.int64))
        result = backtest(RateSurface(space, q), table, TreeConfig())
        assert result.tree.n_splits == 0
        assert np.all(result.mu_hat == 1.0)
        assert np.all(result.delta == 0.0)
        assert np.array_equal(result.q_tree.rate, q)

    def test_invariants_and_calibration(self, rng):
        space = FeatureSpace(0, 9, 2000, 2009)
        E = np.full(space.shape, 1e5)
        q_true = np.clip(0.01 * np.exp(0.05 * space.ages()), 0, 1)[None, :, None]
        q_init = flat_surface(space, 0.015)
        spec = SimSpec(
            q=RateSurface(space, np.broadcast_to(q_true, space.shape).copy()),
            exposure=E, seed=5,
        )
        table = sample_deaths(spec)
        result = backtest(q_init, table, TreeConfig(cp=1e-3, min_bucket=5))
        assert np.array_equal(result.delta, result.mu_hat - 1.0)
        assert np.array_equal(result.q_tree.rate, np.minimum(1.0, result.mu_hat * q_init.rate))
        # global calibration over non-dropped cells
        data, _ = make_working_data(q_init, table)
        mu = result.tree.predict(data.ordered)
        assert (mu * data.volume).sum() == pytest.approx(float(table.deaths.sum()), rel=1e-9)

    def test_shock_band_detected(self):
        space = FeatureSpace(0, 19, 2000, 2019)
        E = np.full(space.shape, 1e6)
        q_base = np.full(space.shape, 0.01)
        q_true = q_base.copy()
        band = (space.years() >= 2008) & (space.years() <= 2010)
        q_true[:, :, band] *= 2.0
        table = sample_deaths(SimSpec(q=RateSurface(space, q_true), exposure=E, seed=21))
        result = backtest(RateSurface(space, q_base), table, TreeConfig(cp=2e-3))
        root_rule = result.tree.root.rule
        assert root_rule.feature == "year"
        assert root_rule.threshold in (2007.5, 2010.5)
        assert np.all(result.mu_hat[:, :, band] > 1.85)
        assert np.all(result.mu_hat[:, :, band] < 2.15)

    def test_boosted_rates_clamp_at_one(self):
        # initial rates near 1 with far higher observed deaths: mu * q > 1
        space = FeatureSpace(0, 3, 2000, 2003)
        E = np.full(space.shape, 1000.0)
        D = np.full(space.shape, 1500)
        table = MortalityTable(space, E, D)
        result = backtest(flat_surface(space, 0.7), table, TreeConfig(cp=1.0))
        assert result.mu_hat[0, 0, 0] == pytest.approx(1500 / 700)
        assert np.all(result.q_tree.rate == 1.0)

    def test_fixed_point_of_one_step_boost(self, rng):
        space = FeatureSpace(0, 7, 2000, 2011)
        E = np.full(space.shape, 1e5)
        q_true = RateSurface(space, rng.uniform(0.005, 0.03, space.shape))
        table = sample_deaths(SimSpec(q=q_true, exposure=E, seed=9))
        q_init = flat_surface(space, 0.015)
        cfg = TreeConfig(cp=5e-3, min_bucket=5)
        first = backtest(q_init, table, cfg)
        assert first.tree.n_splits > 0
        second = backtest(first.q_tree, table, cfg)
        assert second.tree.root_deviance == pytest.approx(
            first.tree.total_leaf_deviance, rel=1e-9
        )


class TestExports:
    def make_result(self):
        space = FeatureSpace(0, 3, 2000, 2004)
        E = np.full(space.shape, 1e4)
        q = np.full(space.shape, 0.02)
        table = MortalityTable(space, E, (q * E).astype(np.int64))
        return backtest(RateSurface(space, q), table, TreeConfig())

    def test_delta_csv_schema(self):
        result = self.make_result()
        lines = delta_to_csv(result).splitlines()
        assert lines[0] == "gender,age,year,cohort,delta"
        assert len(lines) == 1 + result.space.size
        g, a, t, c, d = lines[1].split(",")
        assert (g, a, t) == ("female", "0", "2000")
        assert int(c) == int(t) - int(a)

    def test_zero_delta_heatmap_is_all_white(self, tmp_path):
        result = self.make_result()
        written = export_delta_heatmap(result, tmp_path, white_band=0.05, svg=True)
        svg = (tmp_path / "delta_female.svg").read_text()
        tree = ET.fromstring(svg)  # well-formed XML
        fills = [r.get("fill") for r in tree.iter() if r.tag.endswith("rect")]
        assert fills and all(f == "#ffffff" for f in fills)
        assert {p.name for p in written} == {"delta.csv", "delta_female.svg", "delta_male.svg"}

    def test_saturated_band_colored(self, tmp_path):
        result = self.make_result()
        delta = result.delta.copy()
        delta[:, :, 2] = 0.2
        object.__setattr__(result, "delta", delta)
        export_delta_heatmap(result, tmp_path, white_band=0.05, svg=True)
        svg = (tmp_path / "delta_male.svg").read_text()
        assert "#ff" in svg  # red cells present

    def test_zero_white_band(self, tmp_path):
        result = self.make_result()
        delta = result.delta.copy()
        delta[:] = 1e-9  # nonzero but inside any positive band
        object.__setattr__(result, "delta", delta)
        export_delta_heatmap(result, tmp_path, white_band=0.0, svg=True)
        svg = (tmp_path / "delta_female.svg").read_text()
        tree = ET.fromstring(svg)
        fills = [r.get("fill") for r in tree.iter() if r.tag.endswith("rect")]
        assert all(f != "#ffffff" for f in fills)


def test_grid_features_order_matches_storage():
    space = FeatureSpace(1, 2, 2000, 2001)
    X = grid_features(space)
    flat = [(g, a, t) for g in (0, 1) for a in (1, 2) for t in (2000, 2001)]
    assert np.array_equal(X[:, 0], [g for g, _, _ in flat])
    assert np.array_equal(X[:, 1], [a for _, a, _ in flat])
    assert np.array_equal(X[:, 2], [t for _, _, t in flat])

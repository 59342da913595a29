import numpy as np
import pytest

from mortboost import (
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    ParseError,
    RateSurface,
    SimSpec,
    ThetaSurface,
)
from mortboost.grids import aggregate_rates
from mortboost.simulate import _draw_poisson, load_sim_spec, sample_cause_deaths, sample_deaths


def per_cell_draw(seed, domain, index, mean):
    """Reference: a fresh Philox stream and Generator for every cell."""
    key = (seed & ((1 << 64) - 1)) | (domain << 64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=index << 128))
    return int(gen.poisson(mean))


def spread_means(rng, size):
    """Means covering 0, inversion (< 10), PTRS (>= 10) and 1e6."""
    means = 10 ** rng.uniform(-2, 4, size)
    means[rng.random(size) < 0.05] = 0.0
    means[rng.random(size) < 0.05] = 1e6
    return means


def flat_spec(q=0.01, exposure=1e4, seed=42, n_ages=5, n_years=4):
    space = FeatureSpace(0, n_ages - 1, 2000, 2000 + n_years - 1)
    return SimSpec(
        q=RateSurface(space, np.full(space.shape, q)),
        exposure=np.full(space.shape, exposure),
        seed=seed,
    )


class TestSampleDeaths:
    def test_zero_rates_give_zero_deaths(self):
        spec = flat_spec(q=0.0)
        assert sample_deaths(spec).total_deaths == 0

    def test_same_seed_is_bit_identical(self):
        a = sample_deaths(flat_spec())
        b = sample_deaths(flat_spec())
        assert np.array_equal(a.deaths, b.deaths)

    def test_different_seeds_differ(self):
        a = sample_deaths(flat_spec(seed=1))
        b = sample_deaths(flat_spec(seed=2))
        assert not np.array_equal(a.deaths, b.deaths)

    def test_draws_are_order_independent(self):
        rng = np.random.default_rng(4)
        space = FeatureSpace(0, 4, 2000, 2003)
        spec = SimSpec(
            q=RateSurface(space, rng.uniform(0, 0.02, space.shape)),
            exposure=np.full(space.shape, 1e4),
            seed=42,
        )
        deaths = sample_deaths(spec).deaths.ravel()
        means = (spec.q.rate * spec.exposure).ravel()
        one_by_one = [
            _draw_poisson(spec.seed, 0, [i], [means[i]])[0] for i in reversed(range(means.size))
        ][::-1]
        assert np.array_equal(np.array(one_by_one), deaths)
        order = rng.permutation(means.size)
        shuffled = _draw_poisson(spec.seed, 0, order.tolist(), means[order].tolist())
        assert np.array_equal(shuffled, deaths[order])

    def test_matches_per_cell_streams(self):
        # 2,000 cells; each draw equals the draw of a fresh per-cell stream
        space = FeatureSpace(0, 49, 2000, 2019)
        means = spread_means(np.random.default_rng(9), space.size).reshape(space.shape)
        exposure = np.full(space.shape, 1e7)
        spec = SimSpec(q=RateSurface(space, means / exposure), exposure=exposure, seed=2**63 + 5)
        flat = (spec.q.rate * spec.exposure).ravel()
        assert (flat == 0).any() and ((flat > 0) & (flat < 10)).any()
        assert ((flat >= 10) & (flat < 1e6)).any() and (flat >= 1e6).any()
        expected = [per_cell_draw(spec.seed, 0, i, m) for i, m in enumerate(flat)]
        assert np.array_equal(sample_deaths(spec).deaths.ravel(), expected)

    def test_large_mean_concentration(self):
        # q=0.01, E=1e8: all draws within 5 sigma, mean within 0.1%
        space = FeatureSpace(0, 49, 2000, 2000)
        spec = SimSpec(
            q=RateSurface(space, np.full(space.shape, 0.01)),
            exposure=np.full(space.shape, 1e8),
            seed=7,
        )
        table = sample_deaths(spec)
        mean = 1e6
        sigma = np.sqrt(mean)
        assert np.all(np.abs(table.deaths - mean) < 5 * sigma)
        assert abs(table.deaths.mean() - mean) < 1e-3 * mean

    def test_moments_over_replicates(self):
        # one cell, 10000 replicate seeds: mean/variance within 5/sqrt(R) relative
        space = FeatureSpace(0, 0, 2000, 2000)
        mean = 37.5
        R = 10000
        draws = np.array([_draw_poisson(seed, 0, [0], [mean])[0] for seed in range(R)])
        rel = 5.0 / np.sqrt(R)
        assert abs(draws.mean() - mean) <= rel * mean
        assert abs(draws.var() - mean) <= 3 * rel * mean


class TestSampleCauseDeaths:
    def cause_spec(self, theta_row, seed=11):
        space = FeatureSpace(0, 3, 2000, 2004)
        bucketing = AgeBucketing.from_spec("0-1;2-3", 0, 3)
        K = len(theta_row)
        theta = np.broadcast_to(
            np.asarray(theta_row), (2, bucketing.n_buckets, space.n_years, K)
        ).copy()
        return SimSpec(
            q=RateSurface(space, np.full(space.shape, 0.02)),
            exposure=np.full(space.shape, 5e5),
            seed=seed,
            theta=ThetaSurface(theta),
            bucketing=bucketing,
        )

    def test_matches_per_cell_streams(self):
        # 2 x 10 x 25 cells x 4 causes; cause k of cell c draws from block c * K + k
        space = FeatureSpace(0, 9, 2000, 2024)
        rng = np.random.default_rng(10)
        bucketing = AgeBucketing.single_ages(0, 9)
        exposure = np.full(space.shape, 1e7)
        cell_means = spread_means(rng, space.size).reshape(space.shape) * 1.5
        theta = rng.dirichlet(np.ones(4), size=space.shape)
        theta[..., 0] = 0.0
        theta /= theta.sum(axis=-1, keepdims=True)
        spec = SimSpec(
            q=RateSurface(space, cell_means / exposure),
            exposure=exposure,
            seed=123,
            theta=ThetaSurface(theta),
            bucketing=bucketing,
        )
        zero = MortalityTable(space, exposure, np.zeros(space.shape, dtype=np.int64))
        condensed = aggregate_rates(spec.q, zero, bucketing)
        flat = (theta * (condensed.rate * condensed.exposure)[..., None]).ravel()
        assert (flat == 0).any() and ((flat > 0) & (flat < 10)).any()
        assert ((flat >= 10) & (flat < 1e6)).any() and (flat >= 1e6).any()
        expected = [per_cell_draw(spec.seed, 1, i, m) for i, m in enumerate(flat)]
        table, all_cause = sample_cause_deaths(spec)
        assert np.array_equal(table.counts.ravel(), expected)
        assert np.array_equal(all_cause, table.counts.sum(axis=3))

    def test_zero_probability_cause_never_draws(self):
        spec = self.cause_spec([0.5, 0.5, 0.0])
        table, _ = sample_cause_deaths(spec)
        assert np.all(table.counts[..., 2] == 0)

    def test_percause_means(self):
        # K=2 even split: per-cause means within 1% of half the cell mean
        space = FeatureSpace(0, 0, 2000, 2000 + 4999)
        bucketing = AgeBucketing.single_ages(0, 0)
        theta = np.full((2, 1, space.n_years, 2), 0.5)
        spec = SimSpec(
            q=RateSurface(space, np.full(space.shape, 0.002)),
            exposure=np.full(space.shape, 1e5),
            seed=3,
            theta=ThetaSurface(theta),
            bucketing=bucketing,
        )
        table, all_cause = sample_cause_deaths(spec)
        # 2*5000 cells of mean 100 per cause
        for k in range(2):
            assert abs(table.counts[..., k].mean() - 100.0) < 1.0
        assert np.array_equal(all_cause, table.counts.sum(axis=3))

    def test_cause_sum_variance_matches_total(self):
        # thinning: variance of the cause-sum over replicates ~ q*E
        space = FeatureSpace(0, 0, 2000, 2000)
        bucketing = AgeBucketing.single_ages(0, 0)
        totals = []
        for seed in range(10000):
            spec = SimSpec(
                q=RateSurface(space, np.full(space.shape, 0.002)),
                exposure=np.full(space.shape, 1e5),
                seed=seed,
                theta=ThetaSurface(np.full((2, 1, 1, 2), 0.5)),
                bucketing=bucketing,
            )
            table, all_cause = sample_cause_deaths(spec)
            totals.append(all_cause[0, 0, 0])
        totals = np.array(totals)
        mean = 200.0
        assert abs(totals.mean() - mean) < 0.05 * mean
        assert abs(totals.var() - mean) < 0.1 * mean

    def test_theta_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            self.cause_spec([0.5, 0.4, 0.0])


class TestLoadSimSpec:
    def test_parse_and_build(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            """
# synthetic surface
ages = 0:9
years = 2000:2004
seed = 99
exposure = 50000
base_rate = 1e-4
age_slope = 0.1
year_drift = -0.02
male_factor = 1.5
causes = 4
buckets = 0-4;5-9
"""
        )
        spec = load_sim_spec(cfg)
        assert spec.seed == 99
        assert spec.q.space == FeatureSpace(0, 9, 2000, 2004)
        assert spec.q.rate[1, 0, 0] == pytest.approx(1.5e-4)
        assert spec.q.rate[0, 1, 0] == pytest.approx(1e-4 * np.exp(0.1))
        assert spec.theta.n_causes == 4
        assert np.all(spec.theta.values == 0.25)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\n")

    def test_malformed_values_name_their_line(self):
        with pytest.raises(ParseError, match=r"^line 2: ages expects LO:HI, got '0-5'$"):
            load_sim_spec("# ages as a range\nages = 0-5\nyears = 2000:2001\nseed = 1\n")
        with pytest.raises(ParseError, match=r"^line 3: duplicate key 'ages'$"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\nages = 0:6\nseed = 1\n")

    def test_unknown_key_names_its_line(self):
        with pytest.raises(ParseError, match=r"^line 4: unknown key 'age_slop'$"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\nseed = 1\nage_slop = 0.5\n")

    def test_str_is_text_and_path_is_read(self, tmp_path):
        # a str naming no file, or an existing one, is still parsed as text
        with pytest.raises(ParseError, match=r"^line 1: expected key = value, got 'sim.cfg'$"):
            load_sim_spec("sim.cfg")
        path = tmp_path / "sim.cfg"
        path.write_text("ages = 0:5\nyears = 2000:2001\nseed = 3\n")
        assert load_sim_spec(path).seed == 3
        with pytest.raises(ParseError, match=r"^line 1: expected key = value"):
            load_sim_spec(str(path))

    def test_causes_need_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\nseed = 1\ncauses = 3\n")

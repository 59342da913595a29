import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sampler
from mortboost import (
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    ParseError,
    RateSurface,
    SimSpec,
    ThetaSurface,
    simulate,
)
from mortboost.grids import aggregate_rates
from mortboost.simulate import (
    POISSON_LAM_MAX,
    _draw_poisson,
    load_sim_spec,
    sample_cause_deaths,
    sample_deaths,
)


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


def sampler_cases(rng, size):
    """Means in every branch and edge of the sampler: means from 10 up,
    where PTRS can draw k <= 5 (log Gamma's small-argument loop), means of
    1e15 up to numpy's limit, and shuffled, repeated and 64-bit indices."""
    means = np.concatenate([
        spread_means(rng, size),
        [0.0, 5e-324, 1e-310, 9.999999999999998, 10.0, 10.000000000000002, POISSON_LAM_MAX],
        rng.uniform(10.0, 11.0, size // 4),
        10 ** rng.uniform(15, np.log10(POISSON_LAM_MAX), size // 20),
    ])
    indices = rng.integers(0, 2**64 - 1, means.size, dtype=np.uint64, endpoint=True)
    indices[: size // 4] = rng.permutation(size // 4)
    indices[size // 4 : size // 2] = indices[: size // 4]
    return indices, means


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


_SEEDS = st.integers(0, 2**63 - 1) | st.integers(2**63, 2**64 - 1) | st.integers(2**64, 2**70)
# small indices repeat within a call; the others reach 2**64 - 1
_INDICES = st.integers(0, 20) | st.integers(2**63, 2**64 - 1) | st.integers(0, 2**64 - 1)
_MEANS = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
    st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
    st.just(10.0),
    st.floats(10.0, 1e6),
    st.floats(1e15, 9.22e18),  # up to numpy's limit, 9.223372006484771e18
)


class TestSampler:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=_SEEDS,
        domain=st.sampled_from([0, 1]),
        cells=st.lists(st.tuples(_INDICES, _MEANS), min_size=1, max_size=30),
    )
    def test_matches_the_per_cell_reference(self, seed, domain, cells):
        indices, means = (list(column) for column in zip(*cells))
        want = reference_sampler.draw_poisson(seed, domain, indices, means)
        assert np.array_equal(_draw_poisson(seed, domain, indices, means), want)

    def test_libm_for_every_comparison_gives_the_same_draws(self, monkeypatch):
        indices, means = sampler_cases(np.random.default_rng(21), 4000)
        want = reference_sampler.draw_poisson(77, 1, indices.tolist(), means.tolist())
        monkeypatch.setattr(simulate, "_LIBM_MARGIN", np.inf)
        assert np.array_equal(_draw_poisson(77, 1, indices, means), want)

    def test_log_and_exp_off_by_a_few_ulps_give_the_same_draws(self, monkeypatch):
        indices, means = sampler_cases(np.random.default_rng(22), 4000)
        want = reference_sampler.draw_poisson(78, 0, indices.tolist(), means.tolist())
        rng = np.random.default_rng(23)

        def off_by_ulps(f):
            def perturbed(x):
                y = f(x)
                with np.errstate(invalid="ignore"):
                    off = y + np.spacing(y) * rng.integers(-4, 5, np.shape(y))
                return np.where(np.isfinite(y), off, y)
            return perturbed

        monkeypatch.setattr(np, "log", off_by_ulps(np.log))
        monkeypatch.setattr(np, "exp", off_by_ulps(np.exp))
        assert np.array_equal(_draw_poisson(78, 0, indices, means), want)
        # the perturbation is large enough to change draws without the libm rule
        monkeypatch.setattr(simulate, "_LIBM_MARGIN", 0.0)
        assert not np.array_equal(_draw_poisson(78, 0, indices, means), want)

    def test_multiplication_near_ties_are_decided_as_in_c(self, monkeypatch):
        # means whose exp(-mean) lands on or a few ulps from the cell's first
        # double, so the first product ties with exp(-mean) or nearly does
        rng = np.random.default_rng(24)
        indices = np.arange(3000)
        first = np.array([
            np.random.Philox(key=31, counter=int(i) << 128).random_raw(1)[0] >> 11 for i in indices
        ]) * 2.0**-53
        means = -np.log(first) + rng.integers(-3, 4, first.size) * np.spacing(-np.log(first))
        keep = (means > 0) & (means < 10)
        indices, means = indices[keep], means[keep]
        want = reference_sampler.draw_poisson(31, 0, indices.tolist(), means.tolist())
        assert np.array_equal(_draw_poisson(31, 0, indices, means), want)
        real_exp = np.exp
        monkeypatch.setattr(np, "exp", lambda x: real_exp(x) * (1 + 4 * np.spacing(1.0)))
        assert np.array_equal(_draw_poisson(31, 0, indices, means), want)

    def test_rejected_means_raise_numpys_errors(self):
        # the first rejected mean decides the message, as in a per-cell loop
        too_large = "^lam value too large$"
        for means, message in [
            ([1.0, np.nan, 1e300], "^lam < 0 or lam is NaN$"),
            ([1.0, 1e300, np.nan], too_large),
            ([-1e-300], "^lam < 0 or lam is NaN$"),
            ([np.inf], too_large),
            ([np.nextafter(POISSON_LAM_MAX, np.inf)], too_large),
        ]:
            for draw in (_draw_poisson, reference_sampler.draw_poisson):
                with pytest.raises(ValueError, match=message):
                    draw(5, 0, list(range(len(means))), means)


class TestDrawBlocks:
    """_draw_poisson draws _DRAW_CELLS cells at a time; a cell's draw depends
    on its own counter blocks only, so the blocks change no draw."""

    def test_cells_on_both_sides_of_every_block_edge_match_the_reference(self):
        block = simulate._DRAW_CELLS
        rng = np.random.default_rng(25)
        indices = rng.integers(0, 2**64 - 1, 3 * block + 5, dtype=np.uint64, endpoint=True)
        means = spread_means(rng, indices.size)
        edges = np.array([0, block - 1, block, 2 * block - 1, 2 * block, 3 * block - 1, 3 * block,
                          indices.size - 1])
        # each side of an edge in each sampler: multiplication, PTRS, and 0
        means[edges] = [3.5, 40.0, 0.5, 10.0, 9.999999999999998, 0.0, 1e6, 7.0]
        want = reference_sampler.draw_poisson(29, 1, indices[edges].tolist(), means[edges].tolist())
        assert np.array_equal(_draw_poisson(29, 1, indices, means)[edges], want)

    @pytest.mark.parametrize("cells", range(1, 8))
    def test_blocks_of_1_to_7_cells_give_the_same_draws(self, cells, monkeypatch):
        space = FeatureSpace(0, 3, 2000, 2004)
        rng = np.random.default_rng(26)
        spec = SimSpec(
            q=RateSurface(space, rng.uniform(1e-4, 1e-2, space.shape)),
            exposure=np.full(space.shape, 5e3),
            seed=17,
            theta=ThetaSurface(rng.dirichlet(np.ones(3), size=(2, 2, space.n_years))),
            bucketing=AgeBucketing.from_spec("0-1;2-3", 0, 3),
        )
        draws = {
            0: ((spec.q.rate * spec.exposure).ravel(), lambda s: sample_deaths(s).deaths),
            1: (spec.cause_means().ravel(), lambda s: sample_cause_deaths(s)[0].counts),
        }
        monkeypatch.setattr(simulate, "_DRAW_CELLS", cells)
        for domain, (means, sample) in draws.items():
            assert (means < 10).any() and (means >= 10).any()
            want = reference_sampler.draw_poisson(spec.seed, domain, range(means.size), means.tolist())
            assert np.array_equal(sample(spec).ravel(), want)


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


class TestSimSpec:
    def test_exposure_must_be_finite(self):
        space = FeatureSpace(0, 1, 2000, 2000)
        q = RateSurface(space, np.full(space.shape, 0.5))
        for bad in (np.nan, np.inf):
            exposure = np.full(space.shape, 1e3)
            exposure[1, 1, 0] = bad
            with pytest.raises(ValueError, match="^exposure must be finite$"):
                SimSpec(q=q, exposure=exposure, seed=1)

    def test_means_above_numpys_poisson_limit_rejected(self):
        space = FeatureSpace(0, 1, 2000, 2000)
        q = RateSurface(space, np.full(space.shape, 0.5))
        exposure = np.full(space.shape, 2 * POISSON_LAM_MAX)
        SimSpec(q=q, exposure=exposure, seed=1)  # means of exactly the limit
        exposure[1, 0, 0] = np.nextafter(2 * POISSON_LAM_MAX, np.inf)
        with pytest.raises(ValueError, match=(
            r"^mean q \* exposure 9\.223372006484772e\+18 at \(male, 0, 2000\) "
            r"is above numpy's Poisson limit 9\.223372006484771e\+18$"
        )):
            SimSpec(q=q, exposure=exposure, seed=1)

    def test_cause_means_above_numpys_poisson_limit_rejected(self):
        # every cell mean is 0.8 of the limit; a bucket sums two cells, and
        # its second cause takes 0.7 of that
        space = FeatureSpace(0, 3, 2000, 2000)
        q = RateSurface(space, np.full(space.shape, 0.5))
        exposure = np.full(space.shape, 1.6 * POISSON_LAM_MAX)
        bucketing = AgeBucketing.from_spec("0-1;2-3", 0, 3)
        theta = ThetaSurface(np.broadcast_to([0.3, 0.7], (2, 2, 1, 2)))
        with pytest.raises(ValueError, match=(
            r"^mean theta \* q \* exposure 1\.0330176647262943e\+19 at \(female, ages 0-1, 2000, "
            r"cause 2\) is above numpy's Poisson limit 9\.223372006484771e\+18$"
        )):
            SimSpec(q=q, exposure=exposure, seed=1, theta=theta, bucketing=bucketing)
        theta = ThetaSurface(np.broadcast_to([0.5, 0.5], (2, 2, 1, 2)))
        SimSpec(q=q, exposure=exposure, seed=1, theta=theta, bucketing=bucketing)


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
        # every cause spec draws a uniform theta; there is no key to choose it
        with pytest.raises(ParseError, match=r"^line 6: unknown key 'theta'$"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\nseed = 1\ncauses = 2\nbuckets = 0-5\n"
                          "theta = uniform\n")

    def test_str_is_text_and_path_is_read(self, tmp_path):
        # a str naming no file, or an existing one, is still parsed as text
        with pytest.raises(ParseError, match=r"^line 1: expected key = value, got 'sim.cfg'$"):
            load_sim_spec("sim.cfg")
        path = tmp_path / "sim.cfg"
        path.write_text("ages = 0:5\nyears = 2000:2001\nseed = 3\n")
        assert load_sim_spec(path).seed == 3
        with pytest.raises(ParseError, match=r"^line 1: expected key = value"):
            load_sim_spec(str(path))

    def test_non_finite_values_name_their_line(self):
        head = "ages = 0:5\nyears = 2000:2001\nseed = 1\n"
        for key, value in [("exposure", "nan"), ("exposure", "inf"), ("base_rate", "nan"),
                           ("age_slope", "-inf"), ("male_factor", "NaN")]:
            with pytest.raises(ParseError, match=rf"^line 4: {key} must be finite, got '{value}'$"):
                load_sim_spec(f"{head}{key} = {value}\n")

    def test_causes_need_buckets(self):
        with pytest.raises(ValueError, match="buckets"):
            load_sim_spec("ages = 0:5\nyears = 2000:2001\nseed = 1\ncauses = 3\n")

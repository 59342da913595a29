import numpy as np
import pytest

from mortboost import (
    AgeBucketing,
    BucketedRates,
    FeatureSpace,
    RateSurface,
    SimSpec,
    ThetaSurface,
    TreeConfig,
    estimate_theta_tree,
    init_theta,
    make_cod_working_data,
    pearson_residuals,
    sample_cause_deaths,
)
from mortboost.codboost import residuals_to_csv, smooth_series, theta_to_csv
from mortboost.hmd import CauseDeathTable


def bucket_rates(n_buckets, year_min, year_max, q, E):
    bucketing = AgeBucketing.from_spec(
        ";".join(f"{i}" for i in range(n_buckets)), 0, n_buckets - 1
    )
    n_years = year_max - year_min + 1
    return BucketedRates(
        bucketing,
        year_min,
        year_max,
        np.full((2, n_buckets, n_years), q),
        np.full((2, n_buckets, n_years), E),
    )


def cause_table(counts, missing=None, causes=None, year_min=2000):
    counts = np.asarray(counts, dtype=np.int64)
    K = counts.shape[3]
    causes = causes or tuple(f"cause {k + 1}" for k in range(K))
    missing = np.zeros(counts.shape, dtype=bool) if missing is None else missing
    return CauseDeathTable(
        causes=causes,
        n_buckets=counts.shape[1],
        year_min=year_min,
        year_max=year_min + counts.shape[2] - 1,
        counts=np.where(missing, 0, counts),
        missing=missing,
    )


class TestInitTheta:
    def test_uniform_twelve(self):
        theta = init_theta(cause_table(np.zeros((2, 6, 25, 12))), "uniform")
        assert theta.values.shape == (2, 6, 25, 12)
        assert np.all(theta.values == pytest.approx(1 / 12))

    def test_single_cause(self):
        assert np.all(init_theta(cause_table(np.zeros((2, 2, 3, 1))), "uniform").values == 1.0)

    def test_zero_causes_rejected(self):
        # the table init_theta takes its causes from has at least one
        with pytest.raises(ValueError, match="^need at least one cause$"):
            cause_table(np.zeros((2, 2, 3, 0)))

    def test_empirical_frequencies(self):
        counts = np.zeros((2, 1, 2, 2), dtype=np.int64)
        counts[..., 0] = 30
        counts[..., 1] = 10
        table = cause_table(counts)
        theta = init_theta(table, "empirical")
        assert np.all(theta.values[..., 0] == 0.75)
        assert np.all(theta.values[..., 1] == 0.25)


class TestMakeCodWorkingData:
    def test_volume_product(self):
        # theta = 1/12, q = 0.02, E = 60000 -> d = 100 per cause
        counts = np.full((2, 1, 1, 12), 90, dtype=np.int64)
        table = cause_table(counts)
        qtilde = bucket_rates(1, 2000, 2000, 0.02, 60000.0)
        theta0 = init_theta(table, "uniform")
        working = make_cod_working_data(table, qtilde, theta0)
        assert np.all(working.data.volume == pytest.approx(100.0))
        assert working.data.n == 2 * 12
        assert working.data.ordered_names == ("gender", "bucket", "year")

    def test_missing_cells_carried(self):
        counts = np.full((2, 1, 3, 2), 50, dtype=np.int64)
        missing = np.zeros(counts.shape, dtype=bool)
        missing[:, :, :2, 1] = True  # cause 2 missing in the first two years
        table = cause_table(counts, missing=missing)
        qtilde = bucket_rates(1, 2000, 2002, 0.01, 1e4)
        working = make_cod_working_data(table, qtilde, init_theta(table, "uniform"))
        nan_count = int(np.isnan(working.data.deaths).sum())
        assert nan_count == 4  # 2 genders * 2 years
        assert working.data.n == counts.size

    def test_swiss_cod_shape(self):
        counts = np.full((2, 6, 25, 12), 10, dtype=np.int64)
        table = cause_table(counts, year_min=1990)
        bucketing = AgeBucketing.from_spec("0;1-14;15-44;45-64;65-84;85+", 0, 97)
        qtilde = BucketedRates(
            bucketing, 1990, 2014, np.full((2, 6, 25), 0.01), np.full((2, 6, 25), 1e5)
        )
        working = make_cod_working_data(table, qtilde, init_theta(table, "uniform"))
        assert working.data.n == 3600

    def test_rates_over_more_years_are_cut_to_the_table(self, rng):
        table = cause_table(rng.integers(1, 50, size=(2, 2, 3, 2)), year_min=2001)
        theta0 = init_theta(table, "uniform")
        bucketing = AgeBucketing.from_spec("0;1", 0, 1)
        rate, exposure = rng.uniform(0.01, 0.02, (2, 2, 5)), rng.uniform(1e3, 1e4, (2, 2, 5))
        wide = BucketedRates(bucketing, 2000, 2004, rate, exposure)
        cut = BucketedRates(bucketing, 2001, 2003, rate[:, :, 1:4], exposure[:, :, 1:4])
        volume = make_cod_working_data(table, wide, theta0).data.volume
        assert np.array_equal(volume, make_cod_working_data(table, cut, theta0).data.volume)
        narrow = BucketedRates(bucketing, 2002, 2004, rate[:, :, 2:], exposure[:, :, 2:])
        message = r"^cause table years 2001\.\.2003 are not covered by the fitted rates \(2002\.\.2004\)$"
        with pytest.raises(ValueError, match=message):
            make_cod_working_data(table, narrow, theta0)

    def test_zero_theta_with_deaths_rejected(self):
        counts = np.full((2, 2, 2, 2), 5, dtype=np.int64)
        table = cause_table(counts)
        qtilde = bucket_rates(2, 2000, 2001, 0.01, 1e4)
        theta = np.full((2, 2, 2, 2), 0.5)
        theta[1, 1, 1, 1] = 0.0
        message = r"^theta0 = 0 with observed deaths at \(male, bucket 2, 2001, cause 2\)$"
        with pytest.raises(ValueError, match=message):
            make_cod_working_data(table, qtilde, ThetaSurface(theta))

    def test_zero_volume_with_deaths_rejected(self):
        table = cause_table(np.full((2, 2, 2, 2), 5, dtype=np.int64))
        qtilde = bucket_rates(2, 2000, 2001, 0.01, 1e4)
        exposure = qtilde.exposure.copy()
        exposure[1, 0, 1] = 0.0
        qtilde = BucketedRates(qtilde.bucketing, 2000, 2001, qtilde.rate, exposure)
        message = r"^zero working volume with observed deaths at \(male, bucket 1, 2001, cause 1\)$"
        with pytest.raises(ValueError, match=message):
            make_cod_working_data(table, qtilde, init_theta(table, "uniform"))

    def test_zero_volume_cells_without_deaths_dropped(self):
        counts = np.full((2, 2, 2, 2), 5, dtype=np.int64)
        counts[0, 1, 0, 1] = counts[1, 0, 1, 0] = 0
        theta = np.full((2, 2, 2, 2), 0.5)
        theta[0, 1, 0, 1] = theta[1, 0, 1, 0] = 0.0
        working = make_cod_working_data(
            cause_table(counts), bucket_rates(2, 2000, 2001, 0.01, 1e4), ThetaSurface(theta)
        )
        assert working.data.n == counts.size - 2
        assert working.dropped == (("female", 2, 2000, "cause 2"), ("male", 1, 2001, "cause 1"))
        assert all(list(map(type, cell)) == [str, int, int, str] for cell in working.dropped)


class TestEstimateThetaTree:
    def test_identity_boost(self):
        # counts exactly at the prior expectation: mu = 1, theta_tree = theta0
        qtilde = bucket_rates(2, 2000, 2004, 0.02, 60000.0)
        counts = np.full((2, 2, 5, 12), 100, dtype=np.int64)
        table = cause_table(counts)
        working = make_cod_working_data(table, qtilde, init_theta(table, "uniform"))
        raw, norm, tree = estimate_theta_tree(working, TreeConfig())
        assert tree.n_splits == 0
        assert np.all(raw.values == pytest.approx(1 / 12))
        assert np.all(norm.values == pytest.approx(1 / 12))

    def test_raw_product_rule(self):
        # doubled counts for one cause: raw theta_tree = mu * theta0
        qtilde = bucket_rates(1, 2000, 2019, 0.02, 60000.0)
        counts = np.empty((2, 1, 20, 2), dtype=np.int64)
        counts[..., 0] = 600
        counts[..., 1] = 1800
        table = cause_table(counts)
        working = make_cod_working_data(table, qtilde, init_theta(table, "uniform"))
        raw, norm, tree = estimate_theta_tree(working, TreeConfig(cp=1e-3, min_bucket=5))
        # volumes are 600 per (cell, cause); mu ~ 1 and ~3, raw clamped at 1
        assert np.all(np.abs(raw.values[..., 0] - 0.5) < 1e-9)
        assert np.all(np.abs(raw.values[..., 1] - 1.0) < 1e-9)
        assert np.all(np.abs(norm.values[..., 0] - 1 / 3) < 1e-9)
        assert np.all(np.abs(norm.values[..., 1] - 2 / 3) < 1e-9)

    def test_recovers_piecewise_theta(self, rng):
        # true theta piecewise-constant in (cause, year); huge exposures
        space = FeatureSpace(0, 1, 2000, 2039)
        bucketing = AgeBucketing.single_ages(0, 1)
        n_years = space.n_years
        theta = np.empty((2, 2, n_years, 4))
        theta[..., 0] = np.where(np.arange(n_years) < 20, 0.40, 0.10)
        theta[..., 1] = np.where(np.arange(n_years) < 20, 0.20, 0.50)
        theta[..., 2] = 0.25
        theta[..., 3] = 1.0 - theta[..., 0] - theta[..., 1] - theta[..., 2]
        spec = SimSpec(
            q=RateSurface(space, np.full(space.shape, 0.05)),
            exposure=np.full(space.shape, 2e6),
            seed=17,
            theta=ThetaSurface(theta),
            bucketing=bucketing,
        )
        cod, _ = sample_cause_deaths(spec)
        zero = np.zeros(space.shape, dtype=np.int64)
        from mortboost import MortalityTable, aggregate_rates

        qtilde = aggregate_rates(spec.q, MortalityTable(space, spec.exposure, zero), bucketing)
        working = make_cod_working_data(cod, qtilde, init_theta(cod, "uniform"))
        raw, norm, tree = estimate_theta_tree(working, TreeConfig(cp=1e-4, min_bucket=10))
        assert np.max(np.abs(norm.values - theta)) < 0.01

    def test_label_equivariance(self, rng):
        space = FeatureSpace(0, 0, 2000, 2015)
        bucketing = AgeBucketing.single_ages(0, 0)
        theta = np.empty((2, 1, 16, 3))
        theta[..., 0] = 0.5
        theta[..., 1] = np.where(np.arange(16) < 8, 0.35, 0.15)
        theta[..., 2] = 1.0 - theta[..., 0] - theta[..., 1]
        spec = SimSpec(
            q=RateSurface(space, np.full(space.shape, 0.03)),
            exposure=np.full(space.shape, 1e6),
            seed=4,
            theta=ThetaSurface(theta),
            bucketing=bucketing,
        )
        cod, _ = sample_cause_deaths(spec)
        zero = np.zeros(space.shape, dtype=np.int64)
        from mortboost import MortalityTable, aggregate_rates

        qtilde = aggregate_rates(spec.q, MortalityTable(space, spec.exposure, zero), bucketing)
        theta0 = init_theta(cod, "uniform")
        cfg = TreeConfig(cp=1e-3, min_bucket=2)
        _, norm, _ = estimate_theta_tree(make_cod_working_data(cod, qtilde, theta0), cfg)

        perm = [2, 0, 1]  # new code k holds old cause perm[k]
        permuted = CauseDeathTable(
            causes=tuple(cod.causes[p] for p in perm),
            n_buckets=cod.n_buckets,
            year_min=cod.year_min,
            year_max=cod.year_max,
            counts=cod.counts[..., perm],
            missing=cod.missing[..., perm],
        )
        _, norm_p, _ = estimate_theta_tree(make_cod_working_data(permuted, qtilde, theta0), cfg)
        assert np.allclose(norm_p.values, norm.values[..., perm], atol=1e-12)

    def test_normalized_sums_to_one(self, rng):
        counts = rng.integers(10, 400, size=(2, 2, 6, 5))
        missing = np.zeros(counts.shape, dtype=bool)
        missing[0, 0, :2, 3] = True
        table = cause_table(np.where(missing, 0, counts), missing=missing)
        qtilde = bucket_rates(2, 2000, 2005, 0.02, 5e4)
        working = make_cod_working_data(table, qtilde, init_theta(table, "uniform"))
        raw, norm, _ = estimate_theta_tree(working, TreeConfig(cp=1e-3, min_bucket=2))
        sums = (norm.values * ~table.missing).sum(axis=3)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


class TestPearsonResiduals:
    def test_exact_expectation_gives_zero(self):
        counts = np.zeros((2, 1, 1, 4), dtype=np.int64)
        counts[..., :] = 25
        table = cause_table(counts)
        theta = ThetaSurface(np.full((2, 1, 1, 4), 0.25))
        res = pearson_residuals(table, theta)
        assert np.all(res.values == 0.0)

    def test_unit_residual(self):
        counts = np.zeros((2, 1, 1, 2), dtype=np.int64)
        counts[0, 0, 0] = (30, 70)
        counts[1, 0, 0] = (25, 75)
        table = cause_table(counts)
        theta = ThetaSurface(np.full((2, 1, 1, 2), np.array([0.25, 0.75])))
        res = pearson_residuals(table, theta)
        assert res.values[0, 0, 0, 0] == pytest.approx((30 - 25) / np.sqrt(25))
        assert res.values[1, 0, 0, 0] == 0.0

    def test_missing_cells_are_zero(self):
        counts = np.full((2, 1, 2, 3), 10, dtype=np.int64)
        missing = np.zeros(counts.shape, dtype=bool)
        missing[1, 0, 1, 2] = True
        table = cause_table(np.where(missing, 0, counts), missing=missing)
        theta = ThetaSurface(np.full((2, 1, 2, 3), 1 / 3))
        res = pearson_residuals(table, theta)
        assert res.values[1, 0, 1, 2] == 0.0

    def test_zero_denominator_rule(self):
        counts = np.zeros((2, 1, 1, 2), dtype=np.int64)
        table = cause_table(counts)
        theta = ThetaSurface(np.full((2, 1, 1, 2), 0.5))
        res = pearson_residuals(table, theta)  # all-cause sum = 0
        assert np.all(res.values == 0.0)


class TestHelpers:
    def test_smooth_series_window_five(self):
        y = np.arange(10, dtype=float)
        sm = smooth_series(y, 5)
        assert sm[5] == pytest.approx(y[3:8].mean())
        assert sm[0] == pytest.approx(y[:3].mean())  # shrunk edge window
        assert np.array_equal(smooth_series(y, 1), y)

    @pytest.mark.parametrize("window", [0, -1, 2, 4])
    def test_smooth_series_rejects_even_or_non_positive_windows(self, window):
        # an even window used to average window + 1 points
        with pytest.raises(ValueError, match="odd integer >= 1"):
            smooth_series(np.arange(5.0), window)

    def test_csv_exports(self):
        counts = np.full((2, 2, 3, 2), 20, dtype=np.int64)
        table = cause_table(counts)
        theta0 = init_theta(table, "uniform")
        res = pearson_residuals(table, theta0)
        text = theta_to_csv(table, theta0, theta0, smooth_window=3)
        lines = text.splitlines()
        assert lines[0] == "gender,age_group,year,cause,theta_raw,theta_norm,theta_raw_smooth"
        assert len(lines) == 1 + counts.size
        rtext = residuals_to_csv(table, res)
        assert rtext.splitlines()[0] == "gender,age_group,year,cause,delta"

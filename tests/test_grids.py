import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mortboost import (
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    ParseError,
    RateSurface,
    aggregate_rates,
    crude_rates,
)
from mortboost.grids import rate_surface_from_csv, rate_surface_to_csv


def small_space():
    return FeatureSpace(0, 4, 2000, 2003)


def table_with(space, exposure, deaths):
    E = np.full(space.shape, float(exposure))
    D = np.full(space.shape, int(deaths))
    return MortalityTable(space, E, D)


class TestFeatureSpace:
    def test_grid_size(self):
        sp = FeatureSpace(0, 97, 1876, 2014)
        assert sp.size == 27244
        assert sp.n_cohorts == 139 + 98 - 1

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpace(5, 4, 2000, 2001)
        with pytest.raises(ValueError):
            FeatureSpace(0, 4, 2002, 2001)
        with pytest.raises(ValueError):
            FeatureSpace(-1, 4, 2000, 2001)


class TestMortalityTable:
    def test_invariants(self):
        sp = small_space()
        with pytest.raises(ValueError):
            MortalityTable(sp, -np.ones(sp.shape), np.zeros(sp.shape, dtype=int))
        with pytest.raises(ValueError):
            MortalityTable(sp, np.ones(sp.shape), -np.ones(sp.shape, dtype=int))
        E = np.ones(sp.shape)
        D = np.zeros(sp.shape, dtype=int)
        E[1, 2, 3] = 0.0
        D[1, 2, 3] = 3
        with pytest.raises(ValueError, match=r"^deaths with zero exposure at \(male, 2, 2003\)$"):
            MortalityTable(sp, E, D)

    def test_arrays_are_frozen(self):
        t = table_with(small_space(), 100, 1)
        with pytest.raises(ValueError):
            t.deaths[0, 0, 0] = 5


class TestCrudeRates:
    def test_direct_division(self):
        q = crude_rates(table_with(small_space(), 1000, 10))
        assert np.all(q.rate == 0.01)

    def test_zero_deaths(self):
        q = crude_rates(table_with(small_space(), 100, 0))
        assert np.all(q.rate == 0.0)

    def test_clamp_above_one(self):
        q = crude_rates(table_with(small_space(), 5, 7))
        assert np.all(q.rate == 1.0)

    def test_zero_exposure_gets_rate_zero(self):
        sp = small_space()
        E = np.full(sp.shape, 10.0)
        D = np.full(sp.shape, 1)
        E[1, 2, 3] = 0.0
        D[1, 2, 3] = 0
        expected = np.full(sp.shape, 0.1)
        expected[1, 2, 3] = 0.0
        assert np.array_equal(crude_rates(MortalityTable(sp, E, D)).rate, expected)


class TestAgeBucketing:
    def test_default_six_bucket_scheme(self):
        b = AgeBucketing.from_spec("0;1-14;15-44;45-64;65-84;85+", 0, 97)
        assert b.n_buckets == 6
        assert b.bounds == ((0, 0), (1, 14), (15, 44), (45, 64), (65, 84), (85, 97))
        assert [b.label(i) for i in range(b.n_buckets)] == ["0", "1-14", "15-44", "45-64", "65-84", "85+"]

    def test_partition_violations_rejected(self):
        with pytest.raises(ValueError):
            AgeBucketing.from_spec("0;2-5", 0, 5)  # gap at 1
        with pytest.raises(ValueError):
            AgeBucketing.from_spec("0-2;2-5", 0, 5)  # overlap
        with pytest.raises(ValueError):
            AgeBucketing.from_spec("0-2", 0, 5)  # not covering


class TestAggregateRates:
    def test_trivial_partition_is_identity(self, rng):
        sp = small_space()
        E = rng.uniform(10, 1000, sp.shape)
        q = RateSurface(sp, rng.uniform(0, 0.5, sp.shape))
        table = MortalityTable(sp, E, np.zeros(sp.shape, dtype=int))
        out = aggregate_rates(q, table, AgeBucketing.single_ages(0, 4))
        assert np.array_equal(out.rate, q.rate)

    def test_two_age_example(self):
        sp = FeatureSpace(0, 1, 2000, 2000)
        E = np.zeros(sp.shape)
        E[:, 0, 0] = 100.0
        E[:, 1, 0] = 300.0
        rate = np.zeros(sp.shape)
        rate[:, 0, 0] = 0.1
        rate[:, 1, 0] = 0.2
        table = MortalityTable(sp, E, np.zeros(sp.shape, dtype=int))
        out = aggregate_rates(RateSurface(sp, rate), table, AgeBucketing.from_spec("0-1", 0, 1))
        assert out.rate[0, 0, 0] == pytest.approx(70.0 / 400.0)
        assert out.exposure[0, 0, 0] == 400.0

    def test_conservation_to_one_ulp(self, rng):
        # summation oracle over all ages in the bucket
        sp = FeatureSpace(0, 4, 2000, 2000)
        for _ in range(200):
            E = rng.uniform(1, 1e5, sp.shape)
            q = rng.uniform(0, 1, sp.shape)
            table = MortalityTable(sp, E, np.zeros(sp.shape, dtype=int))
            out = aggregate_rates(RateSurface(sp, q), table, AgeBucketing.from_spec("0-4", 0, 4))
            for gi in range(2):
                expected = (E[gi, :, 0] * q[gi, :, 0]).sum()
                got = out.rate[gi, 0, 0] * out.exposure[gi, 0, 0]
                assert abs(got - expected) <= np.spacing(expected)

    def test_zero_exposure_bucket_named_in_error(self):
        sp = small_space()
        E = np.full(sp.shape, 10.0)
        E[:, 1, :] = 0.0
        table = MortalityTable(sp, E, np.zeros(sp.shape, dtype=int))
        q = RateSurface(sp, np.full(sp.shape, 0.1))
        with pytest.raises(ValueError, match="bucket 1"):
            aggregate_rates(q, table, AgeBucketing.single_ages(0, 4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        sp = FeatureSpace(0, 9, 2000, 2002)
        E = rng.uniform(0.5, 1e6, sp.shape)
        q = rng.uniform(0, 1, sp.shape)
        table = MortalityTable(sp, E, np.zeros(sp.shape, dtype=int))
        buckets = AgeBucketing.from_spec("0-3;4-6;7-9", 0, 9)
        out = aggregate_rates(RateSurface(sp, q), table, buckets)
        for i, (lo, hi) in enumerate(buckets.bounds):
            expected = (E[:, lo:hi + 1, :] * q[:, lo:hi + 1, :]).sum(axis=1)
            got = out.rate[:, i, :] * out.exposure[:, i, :]
            assert np.all(np.abs(got - expected) <= np.spacing(expected))


class TestRateSurface:
    def test_rates_outside_the_unit_interval_rejected(self):
        sp = small_space()
        for bad in (-0.1, 1.5, np.nan):
            rate = np.full(sp.shape, 0.5)
            rate[0, 1, 1] = bad
            with pytest.raises(ValueError, match=r"^rates must lie in \[0, 1\]$"):
                RateSurface(sp, rate)


class TestRateSurfaceCsv:
    def test_round_trip(self, rng):
        sp = small_space()
        q = RateSurface(sp, rng.uniform(0, 1, sp.shape))
        back = rate_surface_from_csv(rate_surface_to_csv(q))
        assert back.space == sp
        assert np.array_equal(back.rate, q.rate)

    def test_a_row_fault_is_a_parse_error_naming_its_line(self):
        head = "gender,age,year,rate\nfemale,0,2000,0.1\n"
        for row, message in (("female,0,2001,0.1,0.2", "expected 4 fields, got 5"),
                             ("female,0,2001", "expected 4 fields, got 3"),
                             ("female,x,2001,0.1", "invalid literal for int() with base 10: 'x'"),
                             ("female,0,2000,0.2", "duplicate rate row for female, age 0, year 2000")):
            with pytest.raises(ParseError) as exc:
                rate_surface_from_csv(f"{head}\n{row}\n")
            assert (exc.value.line, str(exc.value)) == (4, f"line 4: {message}")

    def test_sparse_grid_rejected(self):
        text = "gender,age,year,rate\nfemale,0,2000,0.1\nmale,1,2001,0.2\n"
        with pytest.raises(ValueError, match="dense"):
            rate_surface_from_csv(text)

import math

import numpy as np
import pytest

from mortboost import FeatureSpace, MortalityTable, ParseError, fit_lc, fit_rh
from mortboost.leecarter import (
    FitConfig,
    PoissonCells,
    fit_lc_both,
    params_from_csv,
    params_to_csv,
    poisson_surface_deviance,
    rate_surface,
)
from conftest import noise_free_table, surface_deviance


def constrained_truth(rng, n_ages, n_years, level=(-6.0, -3.0)):
    b0 = np.linspace(level[0], level[1], n_ages)
    b1 = rng.uniform(0.5, 1.5, n_ages)
    b1 /= b1.sum()
    k = rng.normal(0.0, 2.0, n_years)
    k -= k.mean()
    return b0, b1, k


def lc_table(rng, space, b0, b1, k):
    log_q = b0[:, None] + b1[:, None] * k[None, :]
    return noise_free_table(space, np.stack([log_q, log_q]))


class TestFitLC:
    def test_time_homogeneous_surface(self):
        # D = E*q exactly, q depending on age only -> kappa ~ 0
        space = FeatureSpace(50, 54, 2000, 2005)
        q_by_age = np.array([0.01, 0.02, 0.03, 0.05, 0.08])
        E = np.full(space.shape, 10000.0)
        D = (q_by_age[None, :, None] * E).astype(np.int64)
        fit = fit_lc(MortalityTable(space, E, D), "female")
        assert fit.converged
        assert np.max(np.abs(fit.kappa)) < 1e-6
        assert fit.beta0 == pytest.approx(np.log(q_by_age), abs=1e-6)
        assert any("weakly identified" in f for f in fit.flags)

    def test_noise_free_recovery(self, rng):
        space = FeatureSpace(40, 49, 2000, 2009)
        b0, b1, k = constrained_truth(rng, 10, 10)
        table, q = lc_table(rng, space, b0, b1, k)
        fit = fit_lc(table, "male")
        assert fit.converged
        # oracle: deviance evaluated at the generating parameters
        log_truth = b0[:, None] + b1[:, None] * k[None, :]
        dev_truth = surface_deviance(table.deaths[1], table.exposure[1], log_truth)
        assert fit.deviance <= dev_truth + 1e-8
        assert np.max(np.abs(fit.log_rates() - log_truth)) < 1e-4

    def test_constraints_and_monotonicity(self, rng):
        space = FeatureSpace(0, 9, 1990, 2009)
        b0, b1, k = constrained_truth(rng, 10, 20)
        E = np.full(space.shape, 1e6)
        q = np.exp(b0[:, None] + b1[:, None] * k[None, :])
        D = np.stack([rng.poisson(q * E[0]), rng.poisson(q * E[1])]).astype(np.int64)
        fit = fit_lc(MortalityTable(space, E, D), "female")
        assert abs(fit.beta1.sum() - 1.0) < 1e-10
        assert abs(fit.kappa.sum()) < 1e-10
        assert np.all(np.diff(fit.deviance_trace) <= 0)

    def test_fitted_age_margins_match_observed(self, rng):
        space = FeatureSpace(0, 7, 1990, 2005)
        b0, b1, k = constrained_truth(rng, 8, 16)
        E = np.full(space.shape, 1e5)
        q = np.exp(b0[:, None] + b1[:, None] * k[None, :])
        D = np.stack([rng.poisson(q * E[0]), rng.poisson(q * E[1])]).astype(np.int64)
        table = MortalityTable(space, E, D)
        fit = fit_lc(table, "male")
        fitted = table.exposure[1] * np.exp(fit.log_rates())
        np.testing.assert_allclose(fitted.sum(axis=1), D[1].sum(axis=1), rtol=1e-6)

    def test_swiss_sized_parameter_lengths(self, rng):
        space = FeatureSpace(0, 97, 1876, 2014)
        E = np.full(space.shape, 1000.0)
        q = np.clip(5e-5 * np.exp(0.085 * space.ages()), 0, 1)
        D = rng.poisson(q[None, :, None] * E).astype(np.int64)
        fit = fit_lc(MortalityTable(space, E, D), "female", FitConfig(max_iterations=3))
        assert (fit.beta0.size, fit.beta1.size, fit.kappa.size) == (98, 98, 139)

    def test_non_convergence_reported_not_raised(self, rng):
        space = FeatureSpace(0, 5, 2000, 2009)
        b0, b1, k = constrained_truth(rng, 6, 10)
        E = np.full(space.shape, 1e5)
        q = np.exp(b0[:, None] + b1[:, None] * k[None, :])
        D = np.stack([rng.poisson(q * E[0]), rng.poisson(q * E[1])]).astype(np.int64)
        fit = fit_lc(MortalityTable(space, E, D), "female", FitConfig(max_iterations=1))
        assert not fit.converged
        assert any("not converged" in f for f in fit.flags)

    def test_zero_death_age_row_uses_rate_floor(self):
        space = FeatureSpace(0, 3, 2000, 2004)
        E = np.full(space.shape, 1000.0)
        D = np.full(space.shape, 20, dtype=np.int64)
        D[:, 1, :] = 0
        fit = fit_lc(MortalityTable(space, E, D), "female")
        assert any("zero deaths" in f for f in fit.flags)
        assert fit.rates()[1].max() <= 1e-10

    def test_needs_two_ages_and_years(self):
        space = FeatureSpace(0, 0, 2000, 2004)
        E = np.full(space.shape, 10.0)
        with pytest.raises(ValueError, match="2 ages"):
            fit_lc(MortalityTable(space, E, np.zeros(space.shape, np.int64)), "female")

    @pytest.mark.parametrize("exposure", [1e-12, 1e-300, 1e-305, 1e18, 1e300])
    def test_cell_of_extreme_exposure_is_fitted_near_its_own_rate(self, exposure):
        # one cell's exposure is far off its deaths: candidates whose exp
        # overflows are halved away, and the deviance stays exact with fitted
        # means 2**53 times the deaths or far below a normal float
        space = FeatureSpace(0, 9, 2000, 2009)
        log_q = np.log(2e-3) + 0.12 * np.arange(10)[:, None] - 0.01 * np.arange(10)[None, :]
        table, _ = noise_free_table(space, np.stack([log_q, log_q]), bits=16)
        E = table.exposure.copy()
        E[0, 0, 0] = exposure
        fit = fit_lc(MortalityTable(space, E, table.deaths), "female")
        assert fit.converged
        D, mu = table.deaths[0], E[0] * np.exp(fit.log_rates())
        exact = 2.0 * np.sum(np.where(D > 0, D * (np.log(D) - np.log(mu)), 0.0) - (D - mu))
        assert fit.deviance == pytest.approx(exact, rel=1e-9)
        assert fit.log_rates()[0, 0] == pytest.approx(np.log(table.deaths[0, 0, 0] / exposure), abs=1e-4)

    def test_reparameterization_invariance(self, rng):
        # scaling (beta1 <- 2 beta1, kappa <- kappa/2) before re-normalization
        # leaves predictions unchanged (bit-exact for the power-of-two scale)
        space = FeatureSpace(40, 45, 2000, 2005)
        b0, b1, k = constrained_truth(rng, 6, 6)
        table, _ = lc_table(rng, space, b0, b1, k)
        fit = fit_lc(table, "female")
        scaled = fit.beta1 * 2.0
        kap = fit.kappa / 2.0
        rates_scaled = np.exp(fit.beta0[:, None] + scaled[:, None] * kap[None, :])
        assert np.array_equal(rates_scaled, np.exp(fit.log_rates()))


def deviance_at(deaths, exposure, fitted) -> float:
    """poisson_surface_deviance of given fitted means, on a one-row grid."""
    return poisson_surface_deviance(PoissonCells(np.atleast_2d(deaths), np.atleast_2d(exposure)),
                                    np.atleast_2d(np.asarray(fitted, dtype=np.float64)))


class TestPoissonDeviance:
    def test_saturated_fit_is_zero(self):
        # D = mu * E exactly at every cell
        E = np.array([1.0, 2.0, 4.0])
        assert deviance_at(3.0 * E, E, 3.0 * E) == 0.0

    def test_single_cell_closed_form(self):
        got = deviance_at([2.0], [1.0], [1.0])
        assert got == pytest.approx(2 * (2 * math.log(2) - 1), abs=1e-12)
        assert got == pytest.approx(0.77259, abs=5e-6)

    def test_mean_rate_minimizes_over_grid(self, rng):
        # grid-search oracle on one rate factor mu in [0.01, 10] for all cells
        for _ in range(20):
            E = rng.uniform(0.5, 3.0, size=6)
            D = rng.poisson(1.2 * E).astype(float)
            at_mean = deviance_at(D, E, D.sum() / E.sum() * E)
            grid = np.linspace(0.01, 10.0, 1000)
            assert all(at_mean <= deviance_at(D, E, m * E) + 1e-12 for m in grid)

    def test_unexposed_cell_contributes_nothing(self):
        # an unexposed cell is a missing response, whatever its deaths and fitted mean
        base = deviance_at([2.0], [1.0], [1.0])
        assert deviance_at([2.0, 3.0], [1.0, 0.0], [1.0, 5.0]) == base

    def test_deathless_cell_contributes_twice_its_mean(self):
        # D = 0 leaves 2 mu of the unit deviance, and nothing at mu = 0
        assert deviance_at([0.0, 0.0], [1.0, 2.0], [0.5, 0.0]) == 1.0
        assert deviance_at([0.0, 0.0], [1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_fitted_means_are_zero_where_unexposed(self):
        cells = PoissonCells(np.ones((1, 3)), np.array([[2.0, 0.0, 3.0]]))
        assert np.array_equal(cells.fitted_means(np.array([[0.0, 5.0, 0.0]])), [[2.0, 0.0, 3.0]])

    def test_saturated_fit_at_large_counts(self, rng):
        # log rates log(D/E) reproduce the deaths up to a few ulps, so the
        # deviance is ~0; D log(D/mu) - (D - mu) left ~1e-3 of cancellation
        # residue here, the log1p form leaves ~1e-18
        D = np.floor(rng.uniform(1.0, 2.0**40, (20, 30)))
        E = np.full(D.shape, 2.0**41)
        log_rate = np.log(D / E)
        E[0, 0] = D[0, 0] = 0.0  # an unexposed cell carries no deviance
        assert 0.0 <= surface_deviance(D, E, log_rate) < 1e-12


    def test_extreme_fitted_means(self):
        # mu 2**60 times D, where (D - mu)/mu rounds to -1, and mu far below a
        # normal float, where it overflows: each unit deviance is its exact
        # value D log(D/mu) - (D - mu) up to rounding
        D = np.array([[3.0, 7.0]])
        for mu in (3.0 * 2.0**60, 1e-310):
            log_rate = np.log(np.array([[mu, 7.0]]))
            exact = 2.0 * (3.0 * (np.log(3.0) - np.log(mu)) - (3.0 - mu))
            with np.errstate(over="ignore"):
                assert surface_deviance(D, np.ones((1, 2)), log_rate) == pytest.approx(exact, rel=1e-12)


class TestRates:
    def setup_method(self):
        space = FeatureSpace(60, 62, 2000, 2002)
        rng = np.random.default_rng(0)
        E = np.full(space.shape, 1e5)
        D = rng.poisson(0.02 * E).astype(np.int64)
        self.fit = fit_lc(MortalityTable(space, E, D), "female")

    def test_kappa_zero_evaluation(self):
        p = self.fit
        p.beta0[:] = -4.0
        p.beta1[:] = 0.5
        p.kappa[:] = 0.0
        # age 61, year 2001
        assert p.rates()[1, 1] == pytest.approx(math.exp(-4), rel=1e-12)

    def test_clamped_at_one(self):
        p = self.fit
        p.beta0[:] = 0.0
        p.beta1[:] = 1.0
        p.kappa[:] = 5.0
        # age 60, year 2000
        assert p.rates()[0, 0] == 1.0

    def test_clamped_at_the_floor(self):
        p = self.fit
        p.beta0[:] = -800.0
        assert np.array_equal(p.rates(), np.full((p.n_ages, p.n_years), p.rate_floor))

    def test_equals_the_log_rate_grid_at_every_cell(self, rng):
        # the cell's own terms give the grid's entry bit for bit, and its rate
        # is that entry clamped, LC and RH
        space = FeatureSpace(50, 58, 2000, 2011)
        E = np.full(space.shape, 1e5)
        q = 1e-3 * np.exp(0.08 * (space.ages() - 50))[:, None] * np.ones(space.n_years)
        table = MortalityTable(space, E, rng.poisson(q * E).astype(np.int64))
        for p in (fit_lc(table, "female"), fit_rh(table, "female", FitConfig(max_iterations=20))):
            grid, rates = p.log_rates(), p.rates()
            for a in range(space.n_ages):
                for t in range(space.n_years):
                    want = p.beta0[a] + p.beta1[a] * p.kappa[t]
                    if hasattr(p, "gamma"):
                        want += p.beta2[a] * p.gamma[t - a + space.n_ages - 1]
                    assert grid[a, t] == want
                    assert rates[a, t] == np.clip(np.exp(want), p.rate_floor, 1.0)

    def test_mean_log_rate_equals_beta0(self, rng):
        space = FeatureSpace(30, 35, 2000, 2009)
        b0 = np.linspace(-7, -5, 6)
        b1 = rng.uniform(0.5, 1.5, 6)
        b1 /= b1.sum()
        k = rng.normal(0, 1, 10)
        k -= k.mean()
        table, _ = noise_free_table(space, np.stack([b0[:, None] + b1[:, None] * k[None, :]] * 2))
        fit = fit_lc(table, "female")
        # sum(kappa) = 0 makes the time-average of log rates equal beta0
        np.testing.assert_allclose(fit.log_rates().mean(axis=1), fit.beta0, atol=1e-12)


class TestParamsCsv:
    def test_round_trip(self, rng):
        space = FeatureSpace(20, 29, 1990, 1999)
        b0, b1, k = constrained_truth(rng, 10, 10)
        table, _ = lc_table(rng, space, b0, b1, k)
        fits = fit_lc_both(table)
        text = params_to_csv(fits)
        back = params_from_csv(text)
        for g in ("female", "male"):
            assert np.array_equal(back[g].beta0, fits[g].beta0)
            assert np.array_equal(back[g].beta1, fits[g].beta1)
            assert np.array_equal(back[g].kappa, fits[g].kappa)
            assert back[g].age_min == 20 and back[g].year_min == 1990
        with pytest.raises(ValueError, match="no parameter rows"):
            params_from_csv(text.splitlines()[0] + "\n")

    def test_a_row_fault_is_a_parse_error_naming_its_line(self):
        head = "gender,kind,index,value\nfemale,beta0,0,-5.0\n"
        for row, message in (("female,beta0,1,-5.0,-5.0", "expected 4 fields, got 5"),
                             ("female,beta0,1", "expected 4 fields, got 3"),
                             ("female,beta0,1,x", "could not convert string to float: 'x'"),
                             ("female,beta0,0,-4.0", "duplicate female beta0 row for index 0")):
            with pytest.raises(ParseError) as exc:
                params_from_csv(f"{head}\n{row}\n")
            assert (exc.value.line, str(exc.value)) == (4, f"line 4: {message}")

    def test_surface_assembly(self, rng):
        space = FeatureSpace(20, 24, 1990, 1994)
        b0, b1, k = constrained_truth(rng, 5, 5)
        table, _ = lc_table(rng, space, b0, b1, k)
        fits = fit_lc_both(table)
        surf = rate_surface(space, fits)
        assert surf.rate.shape == space.shape
        assert surf.rate[0, 0, 0] == fits["female"].rates()[0, 0]

    def test_surface_on_other_ranges_of_the_same_size_is_rejected(self, rng):
        space = FeatureSpace(10, 19, 1990, 1999)
        b0, b1, k = constrained_truth(rng, 10, 10)
        table, _ = lc_table(rng, space, b0, b1, k)
        fits = fit_lc_both(table)
        for other in (FeatureSpace(0, 9, 1990, 1999), FeatureSpace(10, 19, 2000, 2009)):
            with pytest.raises(ValueError, match="do not match the feature space"):
                rate_surface(other, fits)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_non_finite_deviance_tol_is_rejected(tol):
    with pytest.raises(ValueError, match=f"^deviance_tol must be finite and > 0, got {tol}$"):
        FitConfig(deviance_tol=tol)

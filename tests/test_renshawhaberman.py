import math
import os

import numpy as np
import pytest

from mortboost import (
    GENDERS,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    SimSpec,
    fit_lc,
    fit_rh,
    predict_rh,
    renshawhaberman,
    sample_deaths,
)
from mortboost.leecarter import FitConfig, params_from_csv, params_to_csv
from mortboost.renshawhaberman import RHParams, _fisher_system, _joint_step, _Workspace, fit_rh_both
from conftest import noise_free_table, surface_deviance


def rh_truth(rng, space):
    A, T = space.n_ages, space.n_years
    b0 = np.linspace(-6.5, -3.5, A)
    b1 = rng.uniform(0.5, 1.5, A)
    b1 /= b1.sum()
    k = rng.normal(0, 1.5, T)
    k -= k.mean()
    b2 = rng.uniform(0.5, 1.5, A)
    b2 /= b2.sum()
    ci = space.cohort_grid() - space.cohort_min
    mult = np.bincount(ci.ravel(), minlength=space.n_cohorts)
    g = rng.normal(0, 0.3, space.n_cohorts)
    g -= (mult * g).sum() / mult.sum()
    log_q = b0[:, None] + b1[:, None] * k[None, :] + b2[:, None] * g[ci]
    return (b0, b1, k, b2, g), log_q


def rh_jacobian(ci, beta1, kappa, beta2, gamma_grid):
    """Dense d log_rates / d[beta0, beta1, kappa, beta2, gamma], one row per
    grid cell; gamma_grid is gamma on the (age, year) grid."""
    A, T = ci.shape
    C = A + T - 1
    a, t = np.divmod(np.arange(A * T), T)
    c = ci.ravel()
    rows = np.arange(A * T)
    J = np.zeros((A * T, 3 * A + T + C))
    J[rows, a] = 1.0
    J[rows, A + a] = kappa[t]
    J[rows, 2 * A + t] = beta1[a]
    J[rows, 2 * A + T + a] = gamma_grid.ravel()
    J[rows, 3 * A + T + c] = beta2[a]
    return J


def full_damped_solve(H, grad, lam):
    """The joint LM step as one dense solve of the whole damped system."""
    diag = np.diag(H).copy()
    diag[diag <= 0] = 1.0
    M = H + lam * np.diag(diag) + 1e-12 * diag.max() * np.eye(H.shape[0])
    return np.linalg.solve(M, grad), diag


def dense_system(B, X, P, score_age, score_z, n_years):
    """Scatter the grouped Fisher system into the dense H and score, in parameter order."""
    A, T = B.shape[0], n_years
    C = P.shape[0] - T
    age_idx = np.stack([np.arange(A), A + np.arange(A), 2 * A + T + np.arange(A)], axis=1)
    z_idx = np.concatenate([2 * A + np.arange(T), 3 * A + T + np.arange(C)])
    H = np.zeros((3 * A + T + C,) * 2)
    H[age_idx[:, :, None], age_idx[:, None, :]] = B
    H[age_idx[:, :, None], z_idx] = X
    H[z_idx[:, None, None], age_idx] = X.transpose(2, 0, 1)
    H[np.ix_(z_idx, z_idx)] = P
    grad = np.zeros(H.shape[0])
    grad[age_idx] = score_age
    grad[z_idx] = score_z
    return H, grad


SYSTEM_SPACE = FeatureSpace(30, 35, 2000, 2008)


def random_rh_inputs(rng, unexposed=False):
    """_fisher_system's arguments after the workspace, at random parameters,
    weights and residuals on a small grid; gamma is given on the grid."""
    space = SYSTEM_SPACE
    A, T, C = space.n_ages, space.n_years, space.n_cohorts
    b1, k, b2, g = rng.normal(size=A), rng.normal(size=T), rng.normal(size=A), rng.normal(size=C)
    W = rng.uniform(0.5, 50.0, (A, T))
    R = rng.normal(0.0, 3.0, (A, T))
    W[2, 4] = R[2, 4] = 0.0  # zero-exposure cell
    if unexposed:
        W[3] = R[3] = 0.0  # an age row
        W[-1, 0] = R[-1, 0] = 0.0  # the oldest cohort's only cell
    return W, R, b1, b2, k, g[space.cohort_grid() - space.cohort_min]


def new_workspace():
    space = SYSTEM_SPACE
    return _Workspace(space.cohort_grid() - space.cohort_min, space.n_cohorts)


def random_rh_system(rng, unexposed=False):
    """The grouped Fisher system of random_rh_inputs in a fresh workspace,
    with its dense reference J^T diag(W) J and J^T R."""
    W, R, b1, b2, k, g_grid = inputs = random_rh_inputs(rng, unexposed)
    work = new_workspace()
    J = rh_jacobian(SYSTEM_SPACE.cohort_grid() - SYSTEM_SPACE.cohort_min, b1, k, b2, g_grid)
    system = _fisher_system(work, *inputs)
    return system, J.T @ (W.ravel()[:, None] * J), J.T @ R.ravel(), SYSTEM_SPACE.n_years


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestJointStep:
    def test_fisher_system_is_jacobian_normal_equations(self, rng):
        for unexposed in (False, True):
            system, H_ref, grad_ref, T = random_rh_system(rng, unexposed)
            H, grad = dense_system(*system, T)
            np.testing.assert_allclose(H, H_ref, rtol=1e-12, atol=1e-12 * np.abs(H_ref).max())
            np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-12 * np.abs(grad_ref).max())

    @pytest.mark.parametrize("unexposed", [False, True])
    @pytest.mark.parametrize("lam", [1e-3, 1.0])
    def test_damped_step_matches_full_solve(self, rng, lam, unexposed):
        # unexposed: one age row and the oldest cohort carry no exposure, so an
        # age block and a gamma diagonal are zero before damping
        system, H_ref, grad_ref, T = random_rh_system(rng, unexposed)
        B, X, P, score_age, score_z = system
        assert (not B[3].any() and P[T, T] == 0.0) == unexposed
        want, _ = full_damped_solve(H_ref, grad_ref, lam)
        u, z = _joint_step(system, lam, new_workspace())
        got = np.concatenate([u[:, 0], u[:, 1], z[:T], u[:, 2], z[T:]])
        np.testing.assert_allclose(got, want, rtol=1e-8)

    def test_reused_workspace_matches_fresh_one(self, rng):
        # the second system has an unexposed age row and an unexposed cohort,
        # so zeros it writes must replace the first system's values everywhere
        work = new_workspace()
        for unexposed in (False, True):
            inputs = random_rh_inputs(rng, unexposed)
            system = _fisher_system(work, *inputs)
            fresh_work = new_workspace()
            fresh = _fisher_system(fresh_work, *inputs)
            assert_same_arrays(system, fresh)
            assert_same_arrays(_joint_step(system, 1e-3, work), _joint_step(fresh, 1e-3, fresh_work))

    def test_joint_step_leaves_the_system_unchanged(self, rng):
        # every LM trial of an iteration solves the same system at another lam
        work = new_workspace()
        inputs = random_rh_inputs(rng, unexposed=True)
        system = _fisher_system(work, *inputs)
        kept = [a.copy() for a in system]
        _joint_step(system, 1e-3, work)
        assert_same_arrays(system, kept)
        fresh_work = new_workspace()
        assert_same_arrays(
            _joint_step(system, 10.0, work),
            _joint_step(_fisher_system(fresh_work, *inputs), 10.0, fresh_work),
        )


class TestFitRH:
    def test_lc_generated_data_matches_lc(self, rng):
        space = FeatureSpace(40, 49, 2000, 2009)
        b0 = np.linspace(-6, -3, 10)
        b1 = rng.uniform(0.5, 1.5, 10)
        b1 /= b1.sum()
        k = rng.normal(0, 2, 10)
        k -= k.mean()
        log_q = b0[:, None] + b1[:, None] * k[None, :]
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        lc = fit_lc(table, "female")
        rh = fit_rh(table, "female", warm_start=lc)
        assert np.max(np.abs(np.log(rh.rates()) - np.log(lc.rates()))) < 1e-6

    def test_recovery_from_rh_truth(self, rng):
        space = FeatureSpace(30, 39, 2000, 2011)
        (b0, b1, k, b2, g), log_q = rh_truth(rng, space)
        table, q = noise_free_table(space, np.stack([log_q, log_q]))
        rh = fit_rh(table, "male")
        # oracle: deviance evaluated at the generating parameters
        dev_truth = surface_deviance(table.deaths[1], table.exposure[1], log_q)
        assert rh.deviance <= dev_truth + 1e-8

    def test_nesting_under_warm_start(self, rng):
        space = FeatureSpace(20, 29, 1990, 2009)
        E = np.full(space.shape, 1e5)
        q = np.exp(np.linspace(-7, -4, 10))[None, :, None] * np.exp(
            0.01 * (np.arange(20))[None, None, :]
        )
        D = rng.poisson(np.broadcast_to(q, space.shape) * E).astype(np.int64)
        table = MortalityTable(space, E, D)
        lc = fit_lc(table, "female")
        # the monotone acceptance gate makes nesting hold at any budget
        rh = fit_rh(table, "female", FitConfig(max_iterations=300), warm_start=lc)
        assert rh.deviance <= lc.deviance + 1e-8
        assert np.all(np.diff(rh.deviance_trace) <= 0)

    def test_constraints_hold(self, rng):
        space = FeatureSpace(50, 57, 1995, 2006)
        (params, log_q) = rh_truth(rng, space)
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        rh = fit_rh(table, "female")
        assert abs(rh.beta1.sum() - 1.0) < 1e-10
        assert abs(rh.beta2.sum() - 1.0) < 1e-10
        assert abs(rh.kappa.sum()) < 1e-10
        ci = space.cohort_grid() - space.cohort_min
        mult = np.bincount(ci.ravel(), minlength=space.n_cohorts)
        assert abs((mult * rh.gamma).sum()) < 1e-10
        # the rows `mortboost check --kind rh` prints, in its order
        assert rh.constraints() == [
            ("beta1 sum - 1", rh.beta1.sum() - 1.0),
            ("beta2 sum - 1", rh.beta2.sum() - 1.0),
            ("kappa sum", rh.kappa.sum()),
            ("grid-weighted gamma sum", (mult * rh.gamma).sum()),
        ]

    def test_swiss_sized_gamma_length(self, rng):
        space = FeatureSpace(0, 97, 1876, 2014)
        E = np.full(space.shape, 1000.0)
        q = np.clip(5e-5 * np.exp(0.085 * space.ages()), 0, 1)
        D = rng.poisson(q[None, :, None] * E).astype(np.int64)
        table = MortalityTable(space, E, D)
        rh = fit_rh(table, "female", FitConfig(max_iterations=2))
        assert rh.gamma.size == 139 + 98 - 1 == 236

    def test_corner_cohorts_flagged(self, rng):
        space = FeatureSpace(40, 44, 2000, 2004)
        (params, log_q) = rh_truth(rng, space)
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        rh = fit_rh(table, "female", FitConfig(max_iterations=5))
        assert any("single grid cell" in f for f in rh.flags)

    def test_zero_exposure_cohorts(self, rng):
        space = FeatureSpace(40, 49, 1990, 2005)
        _, log_q = rh_truth(rng, space)
        E = np.full(space.shape, 1e5)
        D = rng.poisson(np.exp(np.stack([log_q, log_q])) * E)
        noise_free, _ = noise_free_table(space, np.stack([log_q, log_q]))
        for E, D in ((E, D), (noise_free.exposure.copy(), noise_free.deaths.copy())):
            # the oldest and the youngest cohorts are each one cell, here unexposed
            E[:, -1, 0] = E[:, 0, -1] = 0.0
            D[:, -1, 0] = D[:, 0, -1] = 0
            table = MortalityTable(space, E, D)
            lc = fit_lc(table, "female")
            rh = fit_rh(table, "female", warm_start=lc)
            assert rh.converged
            assert np.all(np.isfinite(rh.gamma))
            # on the noise-free counts (2**40 exposure) the deviance is ~1e-9, so
            # cancellation in the unit deviance must not push it below 0
            assert 0.0 <= rh.deviance <= lc.deviance
            assert lc.deviance >= 0.0
            for cohort in (space.cohort_min, space.cohort_max):
                assert f"cohort {cohort}: no positive exposure" in rh.flags

    def test_non_convergence_reported_not_raised(self, rng):
        # a cold fit: the Lee-Carter warm start runs out of iterations as well,
        # but the flags report the RH fit only
        space = FeatureSpace(40, 45, 2000, 2009)
        _, log_q = rh_truth(rng, space)
        E = np.full(space.shape, 1e5)
        D = rng.poisson(np.exp(np.stack([log_q, log_q])) * E)
        rh = fit_rh(MortalityTable(space, E, D), "female", FitConfig(max_iterations=1))
        assert rh.converged is False and rh.n_iterations == 1
        assert [f for f in rh.flags if "not converged" in f] == ["not converged after 1 iterations"]

    def test_flags_are_the_fits_own(self):
        # the warm start read from CSV carries "loaded from CSV"; the RH fit
        # flags its own zero-death age row instead
        space = FeatureSpace(0, 3, 2000, 2004)
        E = np.full(space.shape, 1000.0)
        D = np.full(space.shape, 20, dtype=np.int64)
        D[:, 1, :] = 0
        table = MortalityTable(space, E, D)
        warm = params_from_csv(params_to_csv({"female": fit_lc(table, "female")}))["female"]
        assert warm.flags == ["loaded from CSV"]
        rh = fit_rh(table, "female", FitConfig(max_iterations=20), warm_start=warm)
        assert "loaded from CSV" not in rh.flags
        assert "age 1: zero deaths in every year; fitted at rate_floor" in rh.flags

    @pytest.mark.parametrize(
        "warm_space, covers",
        [(FeatureSpace(40, 50, 2000, 2006), "ages 40:50, years 2000:2006"),  # another size
         (FeatureSpace(41, 49, 2000, 2006), "ages 41:49, years 2000:2006")],  # same size, shifted
    )
    def test_warm_start_on_other_ranges_rejected(self, warm_space, covers):
        def table(space):
            return MortalityTable(space, np.full(space.shape, 1e4), np.full(space.shape, 50, dtype=np.int64))

        warm = fit_lc(table(warm_space), "female", FitConfig(max_iterations=5))
        message = f"warm start covers {covers}; the fit uses ages 40:48, years 2000:2006"
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_rh(table(FeatureSpace(40, 48, 2000, 2006)), "female", warm_start=warm)

    def test_reparameterization_invariance(self, rng):
        space = FeatureSpace(40, 45, 2000, 2006)
        (params, log_q) = rh_truth(rng, space)
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        rh = fit_rh(table, "female", FitConfig(max_iterations=50))
        ci = space.cohort_grid() - space.cohort_min
        base = rh.beta0[:, None] + rh.beta1[:, None] * rh.kappa[None, :] + rh.beta2[:, None] * rh.gamma[ci]
        scaled = rh.beta0[:, None] + rh.beta1[:, None] * rh.kappa[None, :] + (rh.beta2 * 2.0)[:, None] * (rh.gamma / 2.0)[ci]
        assert np.array_equal(base, scaled)


class TestPredictRH:
    def make_params(self, rng):
        space = FeatureSpace(60, 63, 2000, 2003)
        (params, log_q) = rh_truth(rng, space)
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        return fit_rh(table, "female", FitConfig(max_iterations=20))

    def test_gamma_zero_nests_lc(self, rng):
        p = self.make_params(rng)
        p.gamma[:] = 0.0
        got = predict_rh(p, "female", 61, 2001)
        want = float(np.clip(np.exp(p.beta0[1] + p.beta1[1] * p.kappa[1]), p.rate_floor, 1.0))
        assert got == want

    def test_direct_evaluation(self, rng):
        p = self.make_params(rng)
        p.beta0[:] = -4.0
        p.beta1[:] = 0.5
        p.kappa[:] = 0.0
        p.beta2[:] = 0.5
        p.gamma[:] = 2.0
        assert predict_rh(p, "female", 60, 2000) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_clamped_at_one(self, rng):
        p = self.make_params(rng)
        p.beta0[:] = 1.0
        p.beta1[:] = 0.0
        p.beta2[:] = 0.0
        assert predict_rh(p, "female", 60, 2000) == 1.0

    def test_no_extrapolation(self, rng):
        p = self.make_params(rng)
        with pytest.raises(ValueError, match="outside"):
            predict_rh(p, "female", 59, 2000)


class TestRHParamsCsv:
    def test_round_trip(self, rng):
        space = FeatureSpace(45, 52, 1990, 1999)
        (params, log_q) = rh_truth(rng, space)
        table, _ = noise_free_table(space, np.stack([log_q, log_q]))
        fits = fit_rh_both(table, FitConfig(max_iterations=30))
        text = params_to_csv(fits)
        back = params_from_csv(text, RHParams)
        for g in ("female", "male"):
            for name in ("beta0", "beta1", "kappa", "beta2", "gamma"):
                assert np.array_equal(getattr(back[g], name), getattr(fits[g], name)), name
            assert back[g].cohort_min == fits[g].cohort_min
        with pytest.raises(ValueError, match="no parameter rows"):
            params_from_csv(text.splitlines()[0] + "\n", RHParams)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFitRhBoth:
    """fit_rh_both fits GENDERS[0] in a forked child and the other gender in
    this process: the results and errors of fit_rh, and no child left behind."""

    SPACE = FeatureSpace(40, 51, 1990, 2001)
    CFG = FitConfig(max_iterations=300, deviance_tol=1e-8)

    @pytest.fixture(scope="class")
    def table(self):
        """Sampled RH surfaces, one truth per gender."""
        rng = np.random.default_rng(11)
        log_q = np.stack([rh_truth(rng, self.SPACE)[1] for _ in GENDERS])
        surface = RateSurface(self.SPACE, np.exp(log_q))
        return sample_deaths(SimSpec(surface, np.full(self.SPACE.shape, 2e4), seed=5))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "lc_warm_start"])
    def test_bit_for_bit_the_per_gender_fits(self, table, warm):
        start = {g: fit_lc(table, g) for g in GENDERS} if warm else None
        both = fit_rh_both(table, self.CFG, warm_start=start)
        assert_no_child_left()
        assert list(both) == list(GENDERS)
        for g in GENDERS:
            one = fit_rh(table, g, self.CFG, warm_start=start[g] if warm else None)
            assert one.n_iterations > 10, g
            for kind in RHParams.kinds():
                assert getattr(both[g], kind).tobytes() == getattr(one, kind).tobytes(), (g, kind)
            assert both[g].deviance_trace.tobytes() == one.deviance_trace.tobytes()
            assert (both[g].n_iterations, both[g].converged, both[g].flags) == (
                one.n_iterations, one.converged, one.flags)

    @pytest.mark.parametrize("failing", GENDERS)
    def test_an_error_of_either_gender_is_raised_with_its_type_and_message(self, table, failing):
        exposure = table.exposure.copy()
        exposure[GENDERS.index(failing), 1:] = 0.0  # exposed at one age only
        bad = MortalityTable(self.SPACE, exposure, np.where(exposure > 0, table.deaths, 0))
        with pytest.raises(ValueError, match="need at least 2 ages") as direct:
            fit_rh(bad, failing, self.CFG)
        with pytest.raises(type(direct.value)) as raised:
            fit_rh_both(bad, self.CFG)
        assert str(raised.value) == str(direct.value)
        assert_no_child_left()

    def test_a_worker_that_dies_is_an_error_naming_its_gender(self, table, monkeypatch):
        parent, fit = os.getpid(), renshawhaberman.fit_rh

        def dies_in_the_child(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return fit(*args, **kwargs)

        monkeypatch.setattr(renshawhaberman, "fit_rh", dies_in_the_child)
        with pytest.raises(RuntimeError, match=f"fit of {GENDERS[0]} ended without a result"):
            fit_rh_both(table, self.CFG)
        assert_no_child_left()

    def test_a_failed_fork_raises_and_closes_the_pipe(self, table, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        open_fds = len(os.listdir("/dev/fd"))
        with pytest.raises(BlockingIOError):
            fit_rh_both(table, self.CFG)
        assert len(os.listdir("/dev/fd")) == open_fds

    def test_without_fork_the_genders_are_fitted_in_turn(self, table, monkeypatch):
        forked = fit_rh_both(table, self.CFG)
        monkeypatch.delattr(os, "fork")
        in_turn = fit_rh_both(table, self.CFG)
        assert params_to_csv(in_turn) == params_to_csv(forked)

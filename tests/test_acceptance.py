"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from mortboost import (
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    SimSpec,
    ThetaSurface,
    TreeConfig,
    aggregate_rates,
    backtest,
    estimate_theta_tree,
    fit_lc,
    fit_rh,
    init_theta,
    make_cod_working_data,
    make_working_data,
    pearson_residuals,
    sample_cause_deaths,
    sample_deaths,
)
from mortboost.tree import grow_tree
from conftest import noise_free_table, random_working_data, surface_deviance
from oracle import assert_same_structure, oracle_grow

GROWN_TREES = []  # (tree, data) pairs collected for criterion 2


def grown(tree, data):
    GROWN_TREES.append((tree, data))
    return tree


def check_calibration(tree, data):
    for leaf in tree.leaves():
        assert leaf.sum_deaths == pytest.approx(
            leaf.mu * leaf.sum_volume, rel=1e-9, abs=1e-12
        ), "leaf calibration"
    obs = ~np.isnan(data.deaths)
    mu = tree.predict(data.ordered, data.cause)
    got = float((mu[obs] * data.volume[obs]).sum())
    want = float(data.deaths[obs].sum())
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9), "global calibration"


def test_criterion_1_tree_oracle_equivalence():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    n_checked = 0
    for _ in range(200):
        data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=8, max_levels=4)
        for cp in (0.0, 0.05, 0.2):
            cfg = TreeConfig(cp=cp, min_bucket=1, max_depth=30)
            tree = grown(grow_tree(data, cfg), data)
            oracle_root, oracle_dev = oracle_grow(data, cp, 1, 30)
            assert_same_structure(tree, oracle_root, oracle_dev, tol=1e-10)
            n_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 tree-oracle equivalence ({n_checked} trees, {elapsed:.1f}s): PASS")


def test_criterion_2_leaf_and_global_calibration():
    rng = np.random.default_rng(7)
    for _ in range(30):
        data = random_working_data(rng, n_ordered=3, with_cause=True, max_points=80)
        cfg = TreeConfig(cp=float(rng.choice([0.0, 0.01, 0.1])), min_bucket=int(rng.integers(1, 5)))
        GROWN_TREES.append((grow_tree(data, cfg), data))
    assert len(GROWN_TREES) >= 600  # criterion 1 trees plus the randomized set
    for tree, data in GROWN_TREES:
        check_calibration(tree, data)
    print(f"ACCEPTANCE 2 leaf/global calibration ({len(GROWN_TREES)} trees): PASS")


def test_criterion_3_lc_recovery():
    rng = np.random.default_rng(11)
    space = FeatureSpace(40, 49, 2000, 2009)
    b0 = np.linspace(-6.0, -3.0, 10)
    b1 = rng.uniform(0.5, 1.5, 10)
    b1 /= b1.sum()
    k = rng.normal(0.0, 2.0, 10)
    k -= k.mean()
    log_truth = b0[:, None] + b1[:, None] * k[None, :]
    table, _ = noise_free_table(space, np.stack([log_truth, log_truth]))
    start = time.perf_counter()
    fit = fit_lc(table, "female")
    elapsed = time.perf_counter() - start
    err = float(np.max(np.abs(fit.log_rates() - log_truth)))
    assert err < 1e-4, f"max log-rate error {err}"
    assert abs(fit.beta1.sum() - 1.0) < 1e-10
    assert abs(fit.kappa.sum()) < 1e-10
    dev_truth = surface_deviance(table.deaths[0], table.exposure[0], log_truth)
    assert fit.deviance <= dev_truth + 1e-8
    assert elapsed < 1.0, f"LC fit took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3 LC recovery (err {err:.2e}, {elapsed:.2f}s): PASS")


def test_criterion_4_rh_nesting_and_recovery():
    rng = np.random.default_rng(13)
    start = time.perf_counter()

    # (a) gamma = 0 truth: RH matches LC rates within 1e-6 in log scale
    space = FeatureSpace(40, 49, 2000, 2009)
    b0 = np.linspace(-6.0, -3.0, 10)
    b1 = rng.uniform(0.5, 1.5, 10)
    b1 /= b1.sum()
    k = rng.normal(0.0, 1.5, 10)
    k -= k.mean()
    log_lc = b0[:, None] + b1[:, None] * k[None, :]
    table, _ = noise_free_table(space, np.stack([log_lc, log_lc]))
    lc = fit_lc(table, "female")
    rh = fit_rh(table, "female", warm_start=lc)
    gap = float(np.max(np.abs(np.log(rh.rates()) - np.log(lc.rates()))))
    assert gap < 1e-6, f"RH vs LC log gap {gap}"
    assert rh.deviance <= lc.deviance + 1e-8

    # (b) RH-generated noise-free data: deviance beats deviance-at-truth
    b2 = rng.uniform(0.5, 1.5, 10)
    b2 /= b2.sum()
    ci = space.cohort_grid() - space.cohort_min
    mult = np.bincount(ci.ravel(), minlength=space.n_cohorts)
    g = rng.normal(0.0, 0.2, space.n_cohorts)
    g -= (mult * g).sum() / mult.sum()
    log_rh = log_lc + b2[:, None] * g[ci]
    table_rh, _ = noise_free_table(space, np.stack([log_rh, log_rh]))
    fit = fit_rh(table_rh, "male")
    dev_truth = surface_deviance(table_rh.deaths[1], table_rh.exposure[1], log_rh)
    assert fit.deviance <= dev_truth + 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"RH criterion took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 RH nesting/recovery (gap {gap:.2e}, {elapsed:.1f}s): PASS")


def test_criterion_5_closed_loop_null():
    space = FeatureSpace(0, 19, 2000, 2019)
    rng = np.random.default_rng(2024)
    q = RateSurface(space, rng.uniform(0.005, 0.05, space.shape))
    E = np.full(space.shape, 1e8)
    for seed in range(20):
        table = sample_deaths(SimSpec(q=q, exposure=E, seed=seed))
        result = backtest(q, table, TreeConfig(cp=2e-3))
        data, _ = make_working_data(q, table)
        grown(result.tree, data)
        lo, hi = float(result.mu_hat.min()), float(result.mu_hat.max())
        assert 0.99 <= lo and hi <= 1.01, f"seed {seed}: mu_hat range [{lo}, {hi}]"
    print("ACCEPTANCE 5 closed-loop back-test null (20 seeds): PASS")


def test_criterion_6_closed_loop_shock_detection():
    space = FeatureSpace(0, 19, 2000, 2019)
    rng = np.random.default_rng(99)
    q_init = RateSurface(space, rng.uniform(0.008, 0.02, space.shape))
    band = (space.years() >= 2009) & (space.years() <= 2011)
    q_true = q_init.rate.copy()
    q_true[:, :, band] *= 2.0
    E = np.full(space.shape, 1e6)
    table = sample_deaths(SimSpec(q=RateSurface(space, q_true), exposure=E, seed=123))
    result = backtest(q_init, table, TreeConfig(cp=2e-3))
    data, _ = make_working_data(q_init, table)
    grown(result.tree, data)
    rule = result.tree.root.rule
    assert rule is not None and rule.feature == "year"
    assert min(abs(rule.threshold - 2008.5), abs(rule.threshold - 2011.5)) <= 0.5, rule
    band_mu = result.mu_hat[:, :, band]
    assert band_mu.min() >= 1.9 and band_mu.max() <= 2.1
    print(
        f"ACCEPTANCE 6 shock detection (split at {rule.feature}<={rule.threshold}, "
        f"band mu in [{band_mu.min():.3f}, {band_mu.max():.3f}]): PASS"
    )


def test_criterion_7_cod_residual_distribution():
    # 2000 features (2 genders x 10 buckets x 100 years), K = 6; true theta
    # piecewise-constant in (cause, year): four eras of generic normalized
    # weights, so every era boundary carries first-order signal for the
    # greedy splitter
    space = FeatureSpace(0, 9, 1950, 2049)
    bucketing = AgeBucketing.single_ages(0, 9)
    n_years = space.n_years
    rng = np.random.default_rng(77)
    years = np.arange(n_years)
    era = np.digitize(years, [30, 50, 70])
    weights = rng.uniform(0.8, 2.5, size=(4, 6))
    theta_by_era = weights / weights.sum(axis=1, keepdims=True)
    theta = np.broadcast_to(theta_by_era[era][None, None, :, :], (2, 10, n_years, 6)).copy()
    assert theta.min() >= 0.05
    q = RateSurface(space, np.full(space.shape, 0.04))
    E = np.full(space.shape, 60000.0)
    spec = SimSpec(
        q=q, exposure=E, seed=606, theta=ThetaSurface(theta), bucketing=bucketing
    )
    cod, _ = sample_cause_deaths(spec)
    # expected counts theta * q * E >= 0.05 * 2400 = 120 >= 20 everywhere
    qtilde = aggregate_rates(q, MortalityTable(space, E, np.zeros(space.shape, np.int64)), bucketing)
    working = make_cod_working_data(cod, qtilde, init_theta(cod, "uniform"))
    raw, norm, tree = estimate_theta_tree(working, TreeConfig(cp=1e-4))
    grown(tree, working.data)
    theta_err = float(np.max(np.abs(norm.values - theta)))
    assert theta_err < 0.02, f"theta error {theta_err}"
    res = pearson_residuals(cod, norm)
    mean = float(res.values.mean())
    var = float(res.values.var())
    assert abs(mean) < 0.05, f"residual mean {mean}"
    assert 0.8 <= var <= 1.2, f"residual variance {var}"
    print(
        f"ACCEPTANCE 7 COD residuals (theta err {theta_err:.4f}, mean {mean:.4f}, "
        f"var {var:.3f}): PASS"
    )


def test_criterion_8_aggregation_identity():
    rng = np.random.default_rng(55)
    for trial in range(50):
        n_ages = int(rng.integers(3, 12))
        space = FeatureSpace(0, n_ages - 1, 2000, 2000 + int(rng.integers(1, 6)))
        E = rng.uniform(0.5, 1e6, space.shape)
        q = rng.uniform(0.0, 1.0, space.shape)
        table = MortalityTable(space, E, np.zeros(space.shape, np.int64))
        surface = RateSurface(space, q)

        # random partition: cut points drawn without replacement
        n_cuts = int(rng.integers(0, n_ages))
        cuts = sorted(rng.choice(np.arange(1, n_ages), size=n_cuts, replace=False)) if n_cuts else []
        bounds, lo = [], 0
        for cut in list(cuts) + [n_ages]:
            bounds.append((lo, cut - 1))
            lo = cut
        buckets = AgeBucketing(0, n_ages - 1, tuple(bounds))
        out = aggregate_rates(surface, table, buckets)
        for i, (blo, bhi) in enumerate(buckets.bounds):
            expected = (E[:, blo:bhi + 1, :] * q[:, blo:bhi + 1, :]).sum(axis=1)
            got = out.rate[:, i, :] * out.exposure[:, i, :]
            assert np.all(np.abs(got - expected) <= np.spacing(expected)), "conservation"

        trivial = aggregate_rates(surface, table, AgeBucketing.single_ages(0, n_ages - 1))
        assert np.array_equal(trivial.rate, q), "trivial partition identity"
    print("ACCEPTANCE 8 aggregation identity (50 random surfaces/partitions): PASS")


def _swiss_dir():
    env = os.environ.get("MORTBOOST_SWISS_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent / "data" / "swiss")
    for cand in candidates:
        if cand and (cand / "deaths.txt").exists() and (cand / "exposures.txt").exists():
            return cand
    return None


@pytest.mark.skipif(_swiss_dir() is None, reason="Swiss HMD files not present")
def test_criterion_9_swiss_data_checks():
    from mortboost import clip_to_space, parse_hmd_1x1
    from mortboost.leecarter import fit_lc_both, rate_surface
    from mortboost.renshawhaberman import fit_rh_both

    data_dir = _swiss_dir()
    space = FeatureSpace(0, 97, 1876, 2014)
    deaths = parse_hmd_1x1((data_dir / "deaths.txt").read_text(), "deaths")
    exposures = parse_hmd_1x1((data_dir / "exposures.txt").read_text(), "exposures")
    table, _ = clip_to_space(deaths, exposures, space, pool_top_age=True)
    assert table.total_deaths == 7_867_978, f"total deaths {table.total_deaths}"

    lc = fit_lc_both(table)
    q_lc = rate_surface(space, lc)
    data, _ = make_working_data(q_lc, table)
    assert data.n == 27_244, f"working points {data.n}"

    cfg = TreeConfig(cp=2e-3)
    lc_result = backtest(q_lc, table, cfg, initial_model_tag="LC")
    year_1918 = 1918 - space.year_min
    assert np.any(lc_result.mu_hat[:, :, year_1918] > 1.0), "no mu > 1 at 1918"
    assert "cohort" in lc_result.tree.split_features(), "no cohort split"

    rh = fit_rh_both(table)
    q_rh = rate_surface(space, rh)
    rh_result = backtest(q_rh, table, cfg, initial_model_tag="RH")
    assert rh_result.tree.n_splits < lc_result.tree.n_splits, (
        f"RH splits {rh_result.tree.n_splits} vs LC {lc_result.tree.n_splits}"
    )
    print(
        f"ACCEPTANCE 9 Swiss data (LC splits {lc_result.tree.n_splits}, "
        f"RH splits {rh_result.tree.n_splits}): PASS"
    )


def test_criterion_10_determinism():
    rng = np.random.default_rng(1)
    data = random_working_data(rng, n_ordered=2, with_cause=True, max_points=60)
    cfg = TreeConfig(cp=0.01, min_bucket=2)
    assert grow_tree(data, cfg).to_text() == grow_tree(data, cfg).to_text()

    space = FeatureSpace(0, 9, 2000, 2009)
    q = RateSurface(space, np.full(space.shape, 0.01))
    spec = SimSpec(q=q, exposure=np.full(space.shape, 1e6), seed=8)
    assert np.array_equal(sample_deaths(spec).deaths, sample_deaths(spec).deaths)

    table = sample_deaths(spec)
    f1 = fit_lc(table, "female")
    f2 = fit_lc(table, "female")
    assert np.array_equal(f1.beta0, f2.beta0)
    assert np.array_equal(f1.kappa, f2.kappa)

    r1 = backtest(q, table, TreeConfig(cp=1e-3, min_bucket=5))
    r2 = backtest(q, table, TreeConfig(cp=1e-3, min_bucket=5))
    assert np.array_equal(r1.mu_hat, r2.mu_hat)
    assert r1.tree.to_text() == r2.tree.to_text()
    print("ACCEPTANCE 10 determinism (re-runs): PASS")

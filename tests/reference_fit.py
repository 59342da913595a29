"""The Poisson fit loop as it was before its points carried fitted means and
term grids, kept as the oracle that `mortboost.leecarter.fit_terms` and the
Renshaw-Haberman joint step must match bit for bit.

A point here is (theta, its log-rate grid, its deviance): every candidate
rebuilds the whole log-rate grid, the deviance takes exp of it, and each
block step takes exp of the accepted grid again for the fitted means. The
Fisher system sums its cohort bands with bincounts over A*C and T*C bins.
"""

from dataclasses import replace

import numpy as np

from mortboost.leecarter import _KIND_AXIS, FitConfig, LCParams, _gender_slice, _on_grid, _per_index
from mortboost.renshawhaberman import RHParams

_MAX_HALVINGS = 30


def poisson_surface_deviance(deaths, exposure, log_rate) -> float:
    d = np.asarray(deaths, dtype=np.float64).ravel()
    e = np.asarray(exposure, dtype=np.float64).ravel()
    log_rate = np.asarray(log_rate).ravel()
    exposed = e > 0
    if not exposed.all():
        d, e, log_rate = d[exposed], e[exposed], log_rate[exposed]
    fitted = e * np.exp(log_rate)
    mu = np.where(fitted > 0, fitted, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(d > 0, d * np.log1p((d - mu) / mu), 0.0)
    return float(2.0 * np.maximum(terms - (d - fitted), 0.0).sum())


def log_rate_grid(theta, terms, ci):
    log_rate = theta["beta0"][:, None]
    for age_kind, period in terms:
        log_rate = log_rate + theta[age_kind][:, None] * _on_grid(period, theta[period], ci)
    return log_rate


def fit_terms(D, E, start, cfg, joint_step=None):
    if (E.sum(axis=1) > 0).sum() < 2 or (E.sum(axis=0) > 0).sum() < 2:
        raise ValueError("need at least 2 ages and 2 years with positive exposure")
    terms = start.TERMS
    theta = start.theta()
    ci, cells = start._cohort_index(), start.cohort_cells()

    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    updatable = (age_E > 0) & (age_D > 0)
    flags = []
    for what, rows in (("exposure", age_E == 0), ("deaths", (age_E > 0) & (age_D == 0))):
        for a in np.flatnonzero(rows):
            flags.append(f"age {a + start.age_min}: zero {what} in every year; fitted at rate_floor")
    flags += start.flags

    def evaluate(th):
        log_rate = log_rate_grid(th, terms, ci)
        return th, log_rate, poisson_surface_deviance(D, E, log_rate)

    def fitted_means(log_rate):
        return np.where(E > 0, E * np.exp(log_rate), 0.0)

    def damped(point, kind, step):
        th, _, dev = point
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = evaluate({**th, kind: th[kind] + scale * step})
            if cand[2] <= dev:
                return cand
            scale *= 0.5
        return point

    point = evaluate(theta)
    trace = [point[2]]
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        fitted_age = fitted_means(point[1]).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.log(age_D / fitted_age)
        point = damped(point, "beta0", np.where(updatable & (fitted_age > 0), shift, 0.0))

        for age_kind, period in terms:
            for kind, other in ((period, age_kind), (age_kind, period)):
                theta = point[0]
                fitted = fitted_means(point[1])
                factor = _on_grid(other, theta[other], ci)
                n = theta[kind].size
                grad = _per_index(kind, factor * (D - fitted), ci, n)
                hess = _per_index(kind, factor**2 * fitted, ci, n)
                step = np.where(hess > 0, grad / np.where(hess > 0, hess, 1.0), 0.0)
                if np.any(step):
                    point = damped(point, kind, step)

        if joint_step is not None:
            point = joint_step(point, fitted_means(point[1]), evaluate)

        theta, _, dev = point
        for age_kind, period in terms:
            b, k = theta[age_kind], theta[period]
            if _KIND_AXIS[period] == "year":
                k_mean = k.mean()
            else:
                k_mean = float((cells * k).sum() / cells.sum())
            theta["beta0"] = theta["beta0"] + b * k_mean
            k = k - k_mean
            scale = b.sum()
            if scale != 0.0:
                b, k = b / scale, k * scale
            theta[age_kind], theta[period] = b, k
        point = (theta, log_rate_grid(theta, terms, ci), dev)

        trace.append(dev)
        prev = trace[-2]
        if prev - dev <= cfg.deviance_tol * max(prev, 1e-300):
            converged = True
            break

    if not converged:
        flags.append(f"not converged after {cfg.max_iterations} iterations")
    return replace(
        start,
        **point[0],
        converged=converged,
        n_iterations=it,
        deviance_trace=np.asarray(trace),
        flags=flags,
    )


def fit_lc(table, gender, cfg):
    D, E = _gender_slice(table, gender)
    space = table.space
    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    beta0 = np.where(
        (age_E > 0) & (age_D > 0),
        np.log((age_D + 0.5) / np.where(age_E > 0, age_E, 1.0)),
        np.log(cfg.rate_floor),
    )
    start = LCParams(
        gender=gender,
        age_min=space.age_min,
        year_min=space.year_min,
        beta0=beta0,
        beta1=np.full(space.n_ages, 1.0 / space.n_ages),
        kappa=np.zeros(space.n_years),
        rate_floor=cfg.rate_floor,
        converged=False,
        n_iterations=0,
        deviance_trace=np.array([]),
        flags=[],
    )
    fit = fit_terms(D, E, start, cfg)
    if np.max(np.abs(fit.kappa)) < 1e-8:
        fit.flags.append("kappa is numerically zero: time-homogeneous surface, beta1 weakly identified")
    return fit


def _fisher_system(ci, n_cohorts, W, R, beta1, beta2, kappa, gamma):
    A, T = W.shape
    C = n_cohorts
    n = T + C
    c_idx = ci.ravel()
    age_cohort = (np.arange(A)[:, None] * C + ci).ravel()
    year_cohort = (np.arange(T)[None, :] * C + ci).ravel()
    B2 = beta2[:, None]
    GM = gamma[ci]
    WG = W * GM

    def by_cohort(codes, m, values):
        return np.bincount(codes, weights=values.ravel(), minlength=m * C).reshape(m, C)

    B = np.empty((A, 3, 3))
    B[:, 0, 0] = W.sum(axis=1)
    B[:, 0, 1] = B[:, 1, 0] = W @ kappa
    B[:, 0, 2] = B[:, 2, 0] = WG.sum(axis=1)
    B[:, 1, 1] = W @ kappa**2
    B[:, 1, 2] = B[:, 2, 1] = WG @ kappa
    B[:, 2, 2] = (WG * GM).sum(axis=1)

    X = np.empty((A, 3, n))
    WB1 = W * beta1[:, None]
    WB2 = W * B2
    X[:, 0, :T] = WB1
    X[:, 1, :T] = WB1 * kappa
    X[:, 2, :T] = WB1 * GM
    X[:, 0, T:] = by_cohort(age_cohort, A, WB2)
    X[:, 1, T:] = by_cohort(age_cohort, A, WB2 * kappa)
    X[:, 2, T:] = by_cohort(age_cohort, A, WB2 * GM)

    P = np.zeros((n, n))
    kg = by_cohort(year_cohort, T, WB1 * B2)
    P[:T, T:] = kg
    P[T:, :T] = kg.T
    np.fill_diagonal(P[:T, :T], beta1 @ WB1)
    np.fill_diagonal(P[T:, T:], np.bincount(c_idx, weights=(WB2 * B2).ravel(), minlength=C))

    score_age = np.stack([R.sum(axis=1), R @ kappa, (R * GM).sum(axis=1)], axis=1)
    score_z = np.concatenate([beta1 @ R, np.bincount(c_idx, weights=(R * B2).ravel(), minlength=C)])
    return B, X, P, score_age, score_z


def _joint_step(system, lam):
    B, X, P, score_age, score_z = system
    A = B.shape[0]
    n = P.shape[0]
    d_age = B.diagonal(axis1=1, axis2=2).copy()
    d_z = P.diagonal().copy()
    d_age[d_age <= 0] = 1.0
    d_z[d_z <= 0] = 1.0
    eps = 1e-12 * max(d_age.max(), d_z.max())

    Bd = B.copy()
    Bd_diag = Bd.reshape(A, 9)[:, ::4]
    Bd_diag += lam * d_age
    Bd_diag += eps
    Linv = np.linalg.inv(np.linalg.cholesky(Bd))

    Y = np.empty((3 * A, n))
    S = np.empty((n, n))
    np.matmul(Linv, X, out=Y.reshape(A, 3, n))
    np.matmul(Y.T, Y, out=S)
    np.subtract(P, S, out=S)
    S_diag = S.reshape(-1)[:: n + 1]
    S_diag += lam * d_z
    S_diag += eps
    v = Linv @ score_age[:, :, None]
    z = np.linalg.solve(S, score_z - Y.T @ v.ravel())
    u = (Linv.transpose(0, 2, 1) @ (v - (Y @ z).reshape(A, 3, 1)))[:, :, 0]
    return u, z


def fit_rh(table, gender, cfg, warm_start=None):
    space = table.space
    if warm_start is None:
        warm_start = fit_lc(table, gender, FitConfig(rate_floor=cfg.rate_floor))
    D, E = _gender_slice(table, gender)
    n_years = space.n_years
    start = RHParams(
        gender=gender,
        age_min=space.age_min,
        year_min=space.year_min,
        **{kind: getattr(warm_start, kind) for kind in LCParams.kinds()},
        beta2=np.full(space.n_ages, 1.0 / space.n_ages),
        gamma=np.zeros(space.n_cohorts),
        rate_floor=cfg.rate_floor,
        converged=False,
        n_iterations=0,
        deviance_trace=np.array([]),
        flags=[],
    )
    ci = start._cohort_index()
    for c in np.flatnonzero(start.cohort_cells() == 1):
        start.flags.append(f"cohort {c + start.cohort_min}: observed in a single grid cell, weakly identified")
    for c in np.flatnonzero(np.bincount(ci[E > 0], minlength=start.n_cohorts) == 0):
        start.flags.append(f"cohort {c + start.cohort_min}: no positive exposure")

    lm_lambda = 1e-3

    def joint_step(point, fitted, evaluate):
        nonlocal lm_lambda
        theta, _, dev = point
        beta1, kappa, beta2, gamma = (theta[kind] for kind in ("beta1", "kappa", "beta2", "gamma"))
        system = _fisher_system(ci, start.n_cohorts, fitted, D - fitted, beta1, beta2, kappa, gamma)
        for _ in range(12):
            try:
                u, z = _joint_step(system, lm_lambda)
            except np.linalg.LinAlgError:
                lm_lambda *= 10.0
                continue
            steps = (u[:, 0], u[:, 1], z[:n_years], u[:, 2], z[n_years:])
            cand = evaluate({kind: theta[kind] + step for kind, step in zip(RHParams.kinds(), steps)})
            if cand[2] <= dev:
                lm_lambda = max(lm_lambda / 3.0, 1e-12)
                return cand
            lm_lambda = min(lm_lambda * 10.0, 1e12)
        return point

    return fit_terms(D, E, start, cfg, joint_step=joint_step)

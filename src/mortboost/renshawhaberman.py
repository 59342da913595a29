"""Renshaw-Haberman cohort extension of the Lee-Carter surface.

log q(g,a,t) = beta0[a] + beta1[a]*kappa[t] + beta2[a]*gamma[t-a], with
sum(beta1) = sum(beta2) = 1, sum(kappa) = 0 and the grid-multiplicity-weighted
cohort sum sum_{a,t} gamma[t-a] = 0. The fit warm-starts from Lee-Carter
(gamma = 0, so the starting deviance equals the LC deviance exactly).

Each iteration runs alternating blockwise Newton updates followed by one
joint Fisher-scoring step (Levenberg-Marquardt damped); block sweeps make
cheap early progress, while the joint step escapes the zigzag stalls the
pure alternating scheme is prone to on this model. Every step is accepted
only if the deviance does not increase, which makes the LC-nesting property
hold by construction. RH fitting is known to converge slowly; the default
iteration budget is deliberately generous.

The joint step's Fisher system has 3A + T + C unknowns for A ages, T years
and C cohorts. Every age-age block is diagonal, so the age unknowns fall
into A independent 3x3 blocks over (beta0, beta1, beta2)[a]; the
kappa-kappa and gamma-gamma blocks are diagonal as well (each grid cell
loads on one year and one cohort), and only the age-kappa, age-gamma and
kappa-gamma couplings are dense. The step eliminates the age blocks with
batched 3x3 Cholesky factors and hands the dense (T + C)-square Schur
complement to np.linalg.solve; each age's three unknowns then follow by
back-substitution. On the 98-age, 65-year README grid that is a 227-square
solve in place of a 521-square one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import GENDERS, MortalityTable, gender_index
from .leecarter import (
    FitConfig,
    LCParams,
    fit_lc,
    poisson_surface_deviance,
    read_params_csv,
    write_params_csv,
)

_MAX_HALVINGS = 30

RH_DEFAULT_CONFIG = FitConfig(max_iterations=50000)
RH_KINDS = ("beta0", "beta1", "kappa", "beta2", "gamma")


@dataclass
class RHParams:
    """One gender's fitted coefficients, cohort-indexed gamma included."""

    gender: str
    age_min: int
    year_min: int
    beta0: np.ndarray
    beta1: np.ndarray
    kappa: np.ndarray
    beta2: np.ndarray
    gamma: np.ndarray  # cohorts year_min - age_max .. year_max - age_min
    rate_floor: float
    converged: bool
    n_iterations: int
    deviance_trace: np.ndarray
    flags: list[str]

    @property
    def n_ages(self) -> int:
        return self.beta0.size

    @property
    def n_years(self) -> int:
        return self.kappa.size

    @property
    def cohort_min(self) -> int:
        return self.year_min - (self.age_min + self.n_ages - 1)

    @property
    def n_cohorts(self) -> int:
        return self.gamma.size

    @property
    def deviance(self) -> float:
        return float(self.deviance_trace[-1])

    def _cohort_index(self) -> np.ndarray:
        ages = np.arange(self.age_min, self.age_min + self.n_ages)
        years = np.arange(self.year_min, self.year_min + self.n_years)
        return (years[None, :] - ages[:, None]) - self.cohort_min

    def log_rates(self) -> np.ndarray:
        ci = self._cohort_index()
        return (
            self.beta0[:, None]
            + self.beta1[:, None] * self.kappa[None, :]
            + self.beta2[:, None] * self.gamma[ci]
        )

    def rates(self) -> np.ndarray:
        return np.clip(np.exp(self.log_rates()), self.rate_floor, 1.0)


def _fisher_system(W, R, ci, beta1, beta2, kappa, gamma, n_cohorts):
    """Expected-information normal equations for one joint scoring step, by group.

    Parameter order [beta0 (A), beta1 (A), kappa (T), beta2 (A), gamma (C)];
    W holds the fitted means (Fisher weights), R the raw residuals D - fitted,
    both zeroed on zero-exposure cells. Every age-age block is diagonal, so the
    age unknowns form A independent 3x3 blocks over (beta0, beta1, beta2)[a].
    Returns
      B (A, 3, 3)        the age blocks,
      X (A, 3, T+C)      X[a, j] couples [kappa; gamma] to age parameter j of a,
      P (T+C, T+C)       the [kappa; gamma] block (diagonal kappa-kappa and
                         gamma-gamma, dense kappa-gamma),
      score_age (A, 3)   and score_z (T+C,), the score in the same grouping.
    Each (age, cohort) and (year, cohort) pair is one grid cell at most, so the
    cohort blocks are bincounts.
    """
    A, T = W.shape
    C = n_cohorts
    B2 = beta2[:, None]
    GM = gamma[ci]
    WG = W * GM
    age_cohort = (np.arange(A)[:, None] * C + ci).ravel()
    year_cohort = (np.arange(T)[None, :] * C + ci).ravel()
    c_idx = ci.ravel()

    def by_cohort(codes, n, values):
        return np.bincount(codes, weights=values.ravel(), minlength=n * C).reshape(n, C)

    B = np.empty((A, 3, 3))
    B[:, 0, 0] = W.sum(axis=1)
    B[:, 0, 1] = B[:, 1, 0] = W @ kappa
    B[:, 0, 2] = B[:, 2, 0] = WG.sum(axis=1)
    B[:, 1, 1] = W @ kappa**2
    B[:, 1, 2] = B[:, 2, 1] = WG @ kappa
    B[:, 2, 2] = (WG * GM).sum(axis=1)

    X = np.empty((A, 3, T + C))
    WB1 = W * beta1[:, None]
    WB2 = W * B2
    X[:, 0, :T] = WB1
    X[:, 1, :T] = WB1 * kappa
    X[:, 2, :T] = WB1 * GM
    X[:, 0, T:] = by_cohort(age_cohort, A, WB2)
    X[:, 1, T:] = by_cohort(age_cohort, A, WB2 * kappa)
    X[:, 2, T:] = by_cohort(age_cohort, A, WB2 * GM)

    P = np.zeros((T + C, T + C))
    kg = by_cohort(year_cohort, T, WB1 * B2)
    P[:T, T:] = kg
    P[T:, :T] = kg.T
    np.fill_diagonal(P[:T, :T], beta1 @ WB1)
    np.fill_diagonal(P[T:, T:], np.bincount(c_idx, weights=(WB2 * B2).ravel(), minlength=C))

    score_age = np.stack([R.sum(axis=1), R @ kappa, (R * GM).sum(axis=1)], axis=1)
    score_z = np.concatenate(
        [beta1 @ R, np.bincount(c_idx, weights=(R * B2).ravel(), minlength=C)]
    )
    return B, X, P, score_age, score_z


def _joint_step(B, X, P, score_age, score_z, lam):
    """Solve the damped joint system (H + lam*diag(d) + 1e-12*max(d)*I) step = score.

    d is the diagonal of H with non-positive entries set to 1, so every damped
    block stays positive definite, also for ages and cohorts without exposure.
    The 3x3 age blocks are eliminated: with B_a = L_a L_a^T and Y = L^-1 X,
    the dense Schur complement S = P - Y^T Y of the T + C unknowns [kappa;
    gamma] goes to np.linalg.solve, and each age's 3-vector follows by
    back-substitution. Returns the age steps (A, 3) over (beta0, beta1,
    beta2) and the [kappa; gamma] step. A non-positive-definite age block or
    a singular S raises np.linalg.LinAlgError.
    """
    A = B.shape[0]
    n = P.shape[0]
    d_age = B.diagonal(axis1=1, axis2=2).copy()
    d_z = P.diagonal().copy()
    d_age[d_age <= 0] = 1.0
    d_z[d_z <= 0] = 1.0
    eps = 1e-12 * max(d_age.max(), d_z.max())

    Bd = B.copy()
    i3 = np.arange(3)
    Bd[:, i3, i3] += lam * d_age
    Bd[:, i3, i3] += eps
    Linv = np.linalg.inv(np.linalg.cholesky(Bd))  # (A, 3, 3), lower triangular

    Y = (Linv @ X).reshape(3 * A, n)  # L^-1 X, one row per (age, parameter)
    S = Y.T @ Y  # X^T B^-1 X as one symmetric rank-k product
    np.subtract(P, S, out=S)
    S.flat[:: n + 1] += lam * d_z
    S.flat[:: n + 1] += eps
    v = Linv @ score_age[:, :, None]  # L^-1 score_age, (A, 3, 1)
    z = np.linalg.solve(S, score_z - Y.T @ v.ravel())
    u = (Linv.transpose(0, 2, 1) @ (v - (Y @ z).reshape(A, 3, 1)))[:, :, 0]
    return u, z


def fit_rh(
    table: MortalityTable,
    gender: str,
    cfg: FitConfig = RH_DEFAULT_CONFIG,
    warm_start: LCParams | None = None,
) -> RHParams:
    """Fit one gender slice, warm-started from Lee-Carter (fitted here if not given)."""
    if warm_start is None:
        warm_start = fit_lc(table, gender, cfg)
    gi = gender_index(gender)
    D = table.deaths[gi].astype(np.float64)
    E = table.exposure[gi]
    space = table.space
    n_ages, n_years = D.shape

    ages = space.ages()
    years = space.years()
    cohort_min = space.cohort_min
    ci = (years[None, :] - ages[:, None]) - cohort_min  # (A, T) cohort indices
    n_cohorts = space.n_cohorts
    multiplicity = np.bincount(ci.ravel(), minlength=n_cohorts).astype(np.float64)

    flags = list(warm_start.flags)
    for c in np.nonzero(multiplicity == 1)[0]:
        flags.append(f"cohort {c + cohort_min}: observed in a single grid cell, weakly identified")
    for c in np.nonzero(multiplicity > 0)[0]:
        cells = ci == c
        if not np.any(E[cells] > 0):
            flags.append(f"cohort {c + cohort_min}: no positive exposure")

    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    updatable = (age_E > 0) & (age_D > 0)

    beta0 = warm_start.beta0.copy()
    beta1 = warm_start.beta1.copy()
    kappa = warm_start.kappa.copy()
    beta2 = np.full(n_ages, 1.0 / n_ages)
    gamma = np.zeros(n_cohorts)

    def log_rates(b0, b1, k, b2, g):
        return b0[:, None] + b1[:, None] * k[None, :] + b2[:, None] * g[ci]

    def deviance(b0, b1, k, b2, g):
        return poisson_surface_deviance(D, E, log_rates(b0, b1, k, b2, g))

    dev = deviance(beta0, beta1, kappa, beta2, gamma)
    trace = [dev]
    converged = False
    lm_lambda = 1e-3
    lm_enabled = True
    lm_failures = 0
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        # beta0 closed form, gated against the carried deviance
        fitted_age = (E * np.exp(log_rates(beta0, beta1, kappa, beta2, gamma))).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.log(age_D / fitted_age)
        shift = np.where(updatable & (fitted_age > 0), shift, 0.0)
        scale0 = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta0 + scale0 * shift
            cand_dev = deviance(cand, beta1, kappa, beta2, gamma)
            if cand_dev <= dev:
                beta0, dev = cand, cand_dev
                break
            scale0 *= 0.5

        for block in ("kappa", "beta1", "gamma", "beta2"):
            fitted = np.where(E > 0, E * np.exp(log_rates(beta0, beta1, kappa, beta2, gamma)), 0.0)
            resid = D - fitted
            if block == "kappa":
                grad = (beta1[:, None] * resid).sum(axis=0)
                hess = (beta1[:, None] ** 2 * fitted).sum(axis=0)
                current = kappa
            elif block == "beta1":
                grad = (kappa[None, :] * resid).sum(axis=1)
                hess = (kappa[None, :] ** 2 * fitted).sum(axis=1)
                current = beta1
            elif block == "gamma":
                grad = np.bincount(ci.ravel(), weights=(beta2[:, None] * resid).ravel(), minlength=n_cohorts)
                hess = np.bincount(ci.ravel(), weights=(beta2[:, None] ** 2 * fitted).ravel(), minlength=n_cohorts)
                current = gamma
            else:
                gamma_grid = gamma[ci]
                grad = (gamma_grid * resid).sum(axis=1)
                hess = (gamma_grid**2 * fitted).sum(axis=1)
                current = beta2
            step = np.where(hess > 0, grad / np.where(hess > 0, hess, 1.0), 0.0)
            if not np.any(step):
                continue
            scale = 1.0
            for _ in range(_MAX_HALVINGS):
                cand = current + scale * step
                args = {
                    "kappa": (beta0, beta1, cand, beta2, gamma),
                    "beta1": (beta0, cand, kappa, beta2, gamma),
                    "gamma": (beta0, beta1, kappa, beta2, cand),
                    "beta2": (beta0, beta1, kappa, cand, gamma),
                }[block]
                cand_dev = deviance(*args)
                if cand_dev <= dev:
                    beta0, beta1, kappa, beta2, gamma = args
                    dev = cand_dev
                    break
                scale *= 0.5

        # one joint Fisher-scoring step (Levenberg-Marquardt damped); the
        # alternating sweeps alone zigzag-stall on this model
        if lm_enabled:
            fitted = np.where(E > 0, E * np.exp(log_rates(beta0, beta1, kappa, beta2, gamma)), 0.0)
            system = _fisher_system(
                fitted, D - fitted, ci, beta1, beta2, kappa, gamma, n_cohorts
            )
            accepted = False
            for _ in range(12):
                try:
                    u, z = _joint_step(*system, lm_lambda)
                except np.linalg.LinAlgError:
                    lm_lambda *= 10.0
                    continue
                cand = (
                    beta0 + u[:, 0],
                    beta1 + u[:, 1],
                    kappa + z[:n_years],
                    beta2 + u[:, 2],
                    gamma + z[n_years:],
                )
                cand_dev = deviance(*cand)
                if cand_dev <= dev:
                    beta0, beta1, kappa, beta2, gamma = cand
                    dev = cand_dev
                    lm_lambda = max(lm_lambda / 3.0, 1e-12)
                    accepted = True
                    break
                lm_lambda = min(lm_lambda * 10.0, 1e12)
            if not accepted:
                lm_failures += 1
                if lm_failures >= 5:
                    lm_enabled = False
            else:
                lm_failures = 0

        # re-impose constraints (prediction-invariant)
        k_mean = kappa.mean()
        beta0 = beta0 + beta1 * k_mean
        kappa = kappa - k_mean
        scale1 = beta1.sum()
        if scale1 != 0.0:
            beta1 = beta1 / scale1
            kappa = kappa * scale1
        g_mean = float((multiplicity * gamma).sum() / multiplicity.sum())
        beta0 = beta0 + beta2 * g_mean
        gamma = gamma - g_mean
        scale2 = beta2.sum()
        if scale2 != 0.0:
            beta2 = beta2 / scale2
            gamma = gamma * scale2

        trace.append(dev)
        prev = trace[-2]
        if prev - dev <= cfg.deviance_tol * max(prev, 1e-300):
            converged = True
            break

    if not converged:
        flags.append(f"not converged after {cfg.max_iterations} iterations")

    return RHParams(
        gender=gender,
        age_min=space.age_min,
        year_min=space.year_min,
        beta0=beta0,
        beta1=beta1,
        kappa=kappa,
        beta2=beta2,
        gamma=gamma,
        rate_floor=cfg.rate_floor,
        converged=converged,
        n_iterations=it,
        deviance_trace=np.asarray(trace),
        flags=flags,
    )


def fit_rh_both(table: MortalityTable, cfg: FitConfig = RH_DEFAULT_CONFIG) -> dict[str, RHParams]:
    return {g: fit_rh(table, g, cfg) for g in GENDERS}


def predict_rh(params: RHParams, gender: str, age: int, year: int) -> float:
    """Fitted rate at one feature, clamped to [rate_floor, 1]; no extrapolation."""
    if gender != params.gender:
        raise ValueError(f"parameters are for {params.gender}, not {gender}")
    ai = age - params.age_min
    ti = year - params.year_min
    if not (0 <= ai < params.n_ages and 0 <= ti < params.n_years):
        raise ValueError(f"feature (age={age}, year={year}) outside the fitted ranges")
    log_rate = (
        params.beta0[ai]
        + params.beta1[ai] * params.kappa[ti]
        + params.beta2[ai] * params.gamma[(year - age) - params.cohort_min]
    )
    return float(np.clip(np.exp(log_rate), params.rate_floor, 1.0))


def rh_params_to_csv(per_gender: dict[str, RHParams]) -> str:
    """RH parameters as CSV; gamma indexed by birth cohort."""
    return write_params_csv(per_gender, RH_KINDS)


def rh_params_from_csv(text: str, rate_floor: float = FitConfig().rate_floor) -> dict[str, RHParams]:
    return read_params_csv(text, RH_KINDS, RHParams, rate_floor)

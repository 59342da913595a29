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
    """Expected-information normal equations for one joint scoring step.

    Parameter order [beta0 (A), beta1 (A), kappa (T), beta2 (A), gamma (C)];
    W holds the fitted means (Fisher weights), R the raw residuals D - fitted,
    both zeroed on zero-exposure cells.
    """
    A, T = W.shape
    C = n_cohorts
    p = 3 * A + T + C
    o1, ok, o2, og = A, 2 * A, 2 * A + T, 3 * A + T
    KP = np.broadcast_to(kappa[None, :], (A, T))
    B1 = np.broadcast_to(beta1[:, None], (A, T))
    B2 = np.broadcast_to(beta2[:, None], (A, T))
    GM = gamma[ci]
    a_idx = np.repeat(np.arange(A), T)
    t_idx = np.tile(np.arange(T), A)
    c_idx = ci.ravel()

    H = np.zeros((p, p))
    ar = np.arange(A)
    tr = np.arange(T)

    def put_diag(rows, values):
        H[rows, rows] += values

    def put_pair(rows, cols, values):
        H[rows, cols] += values
        H[cols, rows] += values

    put_diag(ar, W.sum(axis=1))
    put_pair(ar, o1 + ar, (W * KP).sum(axis=1))
    H[np.ix_(ar, ok + tr)] += W * B1
    H[np.ix_(ok + tr, ar)] += (W * B1).T
    put_pair(ar, o2 + ar, (W * GM).sum(axis=1))
    blk = np.zeros((A, C))
    np.add.at(blk, (a_idx, c_idx), (W * B2).ravel())
    H[np.ix_(ar, og + np.arange(C))] += blk
    H[np.ix_(og + np.arange(C), ar)] += blk.T

    put_diag(o1 + ar, (W * KP**2).sum(axis=1))
    H[np.ix_(o1 + ar, ok + tr)] += W * KP * B1
    H[np.ix_(ok + tr, o1 + ar)] += (W * KP * B1).T
    put_pair(o1 + ar, o2 + ar, (W * KP * GM).sum(axis=1))
    blk = np.zeros((A, C))
    np.add.at(blk, (a_idx, c_idx), (W * KP * B2).ravel())
    H[np.ix_(o1 + ar, og + np.arange(C))] += blk
    H[np.ix_(og + np.arange(C), o1 + ar)] += blk.T

    put_diag(ok + tr, (W * B1**2).sum(axis=0))
    H[np.ix_(ok + tr, o2 + ar)] += (W * B1 * GM).T
    H[np.ix_(o2 + ar, ok + tr)] += W * B1 * GM
    blk = np.zeros((T, C))
    np.add.at(blk, (t_idx, c_idx), (W * B1 * B2).ravel())
    H[np.ix_(ok + tr, og + np.arange(C))] += blk
    H[np.ix_(og + np.arange(C), ok + tr)] += blk.T

    put_diag(o2 + ar, (W * GM**2).sum(axis=1))
    blk = np.zeros((A, C))
    np.add.at(blk, (a_idx, c_idx), (W * GM * B2).ravel())
    H[np.ix_(o2 + ar, og + np.arange(C))] += blk
    H[np.ix_(og + np.arange(C), o2 + ar)] += blk.T

    put_diag(og + np.arange(C), np.bincount(c_idx, weights=(W * B2**2).ravel(), minlength=C))

    grad = np.concatenate(
        [
            R.sum(axis=1),
            (R * KP).sum(axis=1),
            (R * B1).sum(axis=0),
            (R * GM).sum(axis=1),
            np.bincount(c_idx, weights=(R * B2).ravel(), minlength=C),
        ]
    )
    return H, grad


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
            H, grad = _fisher_system(
                fitted, D - fitted, ci, beta1, beta2, kappa, gamma, n_cohorts
            )
            diag = np.diag(H).copy()
            diag[diag <= 0] = 1.0
            accepted = False
            for _ in range(12):
                try:
                    step = np.linalg.solve(
                        H + lm_lambda * np.diag(diag) + 1e-12 * diag.max() * np.eye(H.shape[0]),
                        grad,
                    )
                except np.linalg.LinAlgError:
                    lm_lambda *= 10.0
                    continue
                A = n_ages
                cand = (
                    beta0 + step[:A],
                    beta1 + step[A:2 * A],
                    kappa + step[2 * A:2 * A + n_years],
                    beta2 + step[2 * A + n_years:3 * A + n_years],
                    gamma + step[3 * A + n_years:],
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

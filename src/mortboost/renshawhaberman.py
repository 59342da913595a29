"""Renshaw-Haberman: the Lee-Carter surface plus a cohort term.

log q(g,a,t) = beta0[a] + beta1[a]*kappa[t] + beta2[a]*gamma[t-a], with
sum(beta1) = sum(beta2) = 1, sum(kappa) = 0 and the grid-multiplicity-weighted
cohort sum sum_{a,t} gamma[t-a] = 0. RHParams declares the model: it adds
the fields beta2 and gamma and one bilinear term to Lee-Carter's TERMS,
which give its log rates, parameter CSV rows and constraints. The fit runs
the same loop, leecarter.fit_terms, warm-started from Lee-Carter's beta0,
beta1 and kappa (gamma = 0, so the starting deviance equals the LC deviance
exactly). This module adds the flags for cohorts seen in one grid cell or
without positive exposure, and the loop's one model-specific hook: after
the block steps of each iteration, one Levenberg-Marquardt damped
Fisher-scoring step on all parameters at once. Block steps make cheap early
progress; the joint step escapes the zigzag stalls the pure alternating
scheme is prone to on this model. Like every step it is accepted only if the
deviance does not increase, which makes the LC-nesting property hold by
construction. RH fitting is known to converge slowly; the default iteration
budget is deliberately generous. fit_rh_both, which `mortboost fit rh` calls,
fits the first gender in a forked child process while the caller fits the
other, on a second core; the child inherits the caller's BLAS thread count
(Python 3.12+ warns if BLAS threads run at the fork), and a tracer that
patches this module's functions sees only the caller's gender. Lee-Carter's
fit_lc_both stays in one process: its fits cost about what a fork does.

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

The system's four large arrays, the coupling X, the [kappa; gamma] block P,
Y = L^-1 X and the Schur complement S, live in one _Workspace per fit, with
the fit's cohort index codes and the band views below. Every iteration
fills X and P in place and every LM trial overwrites Y and S. Fresh arrays
of this size (0.4 to 0.5 MB each on the README grid) would be returned to
the kernel when freed and page-faulted in again on every trial; the joint
step's small arrays (damped age blocks, diagonals, right-hand side) are its
locals. A grid cell (a, t) of cohort c is the only cell of its (age,
cohort) and of its (year, cohort) pair, so X's age-cohort couplings X[a, j,
T + c] and P's year-cohort block P[t, T + c] = P[T + c, t] are written cell
by cell through the workspace's band views (x_bands, p_bands), whose
entries sit at exactly those positions; the rest of X and P's cohort
columns stays zero.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .grids import GENDERS, MortalityTable
from .leecarter import (
    FitConfig,
    LCParams,
    _gender_slice,
    fit_lc,
    fit_terms,
    poisson_surface_deviance,
    predict_lc,
)

RH_DEFAULT_CONFIG = FitConfig(max_iterations=50000)


@dataclass
class RHParams(LCParams):
    """LCParams plus beta2 per age and gamma per birth cohort."""

    TERMS: ClassVar[tuple[tuple[str, str], ...]] = LCParams.TERMS + (("beta2", "gamma"),)

    beta2: np.ndarray
    gamma: np.ndarray  # cohorts year_min - age_max .. year_max - age_min


class _Workspace:
    """The joint step's arrays and the cohort index codes of one fit,
    allocated once by fit_rh and reused by every iteration. X and P start at
    zero, and _fisher_system writes only X's year columns, P's diagonal and
    the band views: cell (a, t) of cohort c = ci[a, t] at X[a, j, T + c]
    (x_bands[j]), P[t, T + c] and P[T + c, t] (p_bands)."""

    def __init__(self, ci: np.ndarray, n_cohorts: int):
        A, T = ci.shape
        n = T + n_cohorts
        self.c_idx = ci.ravel()
        self.X = np.zeros((A, 3, n))
        self.P = np.zeros((n, n))
        self.P_diag = self.P.reshape(-1)[:: n + 1]
        self.Y = np.empty((3 * A, n))
        self.S = np.empty((n, n))
        # c = t - a + A - 1, so one step in a moves a band entry back by one
        # cohort; each view stays inside its array for every (a, t)
        x, p = self.X.reshape(-1), self.P.reshape(-1)
        self.x_bands = [_band(x, j * n + T + A - 1, 3 * n - 1, 1, (A, T)) for j in range(3)]
        self.p_bands = (
            _band(p, T + A - 1, -1, n + 1, (A, T)),
            _band(p, (T + A - 1) * n, -n, n + 1, (A, T)),
        )


def _band(flat: np.ndarray, start: int, step_a: int, step_t: int, shape) -> np.ndarray:
    """The view of flat whose (a, t) entry is flat[start + a*step_a + t*step_t]."""
    size = flat.itemsize
    return as_strided(flat[start:], shape=shape, strides=(step_a * size, step_t * size))


def _fisher_system(work: _Workspace, W, R, beta1, beta2, kappa, GM):
    """Expected-information normal equations for one joint scoring step, by group.

    Parameter order [beta0 (A), beta1 (A), kappa (T), beta2 (A), gamma (C)];
    W holds the fitted means (Fisher weights), R the raw residuals D - fitted,
    both zeroed on zero-exposure cells, and GM is gamma on the (age, year)
    grid. Every age-age block is diagonal, so the age unknowns form A
    independent 3x3 blocks over (beta0, beta1, beta2)[a].
    Returns
      B (A, 3, 3)        the age blocks,
      X (A, 3, T+C)      X[a, j] couples [kappa; gamma] to age parameter j of a,
      P (T+C, T+C)       the [kappa; gamma] block (diagonal kappa-kappa and
                         gamma-gamma, dense kappa-gamma),
      score_age (A, 3)   and score_z (T+C,), the score in the same grouping.
    X and P are work.X and work.P, filled in place: the returned system is
    valid until the next _fisher_system call on the same workspace. Their
    cohort entries are written through the workspace's band views, + 0.0 as
    a sum from a 0.0 start (no -0.0); the gamma diagonal and score are sums
    over the cells of a cohort, so they are bincounts.
    """
    A, T = W.shape
    C = work.P.shape[0] - T
    B2 = beta2[:, None]
    WG = W * GM

    B = np.empty((A, 3, 3))
    B[:, 0, 0] = W.sum(axis=1)
    B[:, 0, 1] = B[:, 1, 0] = W @ kappa
    B[:, 0, 2] = B[:, 2, 0] = WG.sum(axis=1)
    B[:, 1, 1] = W @ kappa**2
    B[:, 1, 2] = B[:, 2, 1] = WG @ kappa
    B[:, 2, 2] = (WG * GM).sum(axis=1)

    X = work.X
    WB1 = W * beta1[:, None]
    WB2 = W * B2
    X[:, 0, :T] = WB1
    np.multiply(WB1, kappa, out=X[:, 1, :T])
    np.multiply(WB1, GM, out=X[:, 2, :T])
    for band, values in zip(work.x_bands, (WB2, WB2 * kappa, WB2 * GM)):
        np.add(values, 0.0, out=band)

    kg = WB1 * B2
    for band in work.p_bands:
        np.add(kg, 0.0, out=band)
    work.P_diag[:T] = beta1 @ WB1
    work.P_diag[T:] = np.bincount(work.c_idx, weights=(WB2 * B2).ravel(), minlength=C)

    score_age = np.empty((A, 3))
    score_age[:, 0] = R.sum(axis=1)
    score_age[:, 1] = R @ kappa
    score_age[:, 2] = (R * GM).sum(axis=1)
    score_z = np.concatenate(
        [beta1 @ R, np.bincount(work.c_idx, weights=(R * B2).ravel(), minlength=C)]
    )
    return B, X, work.P, score_age, score_z


def _joint_step(system, lam, work: _Workspace):
    """Solve the damped joint system (H + lam*diag(d) + 1e-12*max(d)*I) step = score.

    system is _fisher_system's (B, X, P, score_age, score_z). d is the
    diagonal of H with non-positive entries set to 1, so every damped block
    stays positive definite, also for ages and cohorts without exposure.
    The 3x3 age blocks are eliminated: with B_a = L_a L_a^T and Y = L^-1 X,
    the dense Schur complement S = P - Y^T Y of the T + C unknowns [kappa;
    gamma] goes to np.linalg.solve, and each age's 3-vector follows by
    back-substitution. Y and S are written into the workspace; X and P are
    only read, so one system serves every LM trial of an iteration.
    Returns the age steps (A, 3) over (beta0, beta1, beta2) and the [kappa;
    gamma] step. A non-positive-definite age block or a singular S raises
    np.linalg.LinAlgError.
    """
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
    Linv = np.linalg.inv(np.linalg.cholesky(Bd))  # (A, 3, 3), lower triangular

    Y, S = work.Y, work.S
    np.matmul(Linv, X, out=Y.reshape(A, 3, n))  # L^-1 X, one row per (age, parameter)
    np.matmul(Y.T, Y, out=S)  # X^T B^-1 X as one symmetric rank-k product
    np.subtract(P, S, out=S)
    S_diag = S.reshape(-1)[:: n + 1]
    S_diag += lam * d_z
    S_diag += eps
    v = Linv @ score_age[:, :, None]  # L^-1 score_age, (A, 3, 1)
    rhs = score_z - Y.T @ v.ravel()
    # S is exactly symmetric (P is, and numpy mirrors the rank-k product's
    # triangle), so S.T holds the same values in the column order LAPACK
    # reads, which solve copies without transposing
    z = np.linalg.solve(S.T, rhs)
    u = (Linv.transpose(0, 2, 1) @ (v - (Y @ z).reshape(A, 3, 1)))[:, :, 0]
    return u, z


def fit_rh(
    table: MortalityTable,
    gender: str,
    cfg: FitConfig = RH_DEFAULT_CONFIG,
    warm_start: LCParams | None = None,
) -> RHParams:
    """Fit one gender slice, warm-started from Lee-Carter (fitted here if not
    given); the warm start's vectors seed every kind it has."""
    space = table.space
    if warm_start is None:
        warm_start = fit_lc(table, gender, cfg)
    elif warm_start.space != space:
        raise ValueError(f"warm start covers {warm_start.space.describe()}; the fit uses {space.describe()}")
    D, E = _gender_slice(table, gender)
    n_years = space.n_years
    start = RHParams.start(gender, space, cfg.rate_floor, **warm_start.theta())
    ci = start._cohort_index()
    for c in np.flatnonzero(start.cohort_cells() == 1):
        start.flags.append(f"cohort {c + start.cohort_min}: observed in a single grid cell, weakly identified")
    for c in np.flatnonzero(np.bincount(ci[E > 0], minlength=start.n_cohorts) == 0):
        start.flags.append(f"cohort {c + start.cohort_min}: no positive exposure")

    lm_lambda = 1e-3
    work = _Workspace(ci, start.n_cohorts)

    def joint_step(point, evaluate):
        """One Levenberg-Marquardt damped Fisher-scoring step on all parameters;
        the alternating block steps alone zigzag-stall on this model."""
        nonlocal lm_lambda
        theta, fitted = point.theta, point.fitted
        beta1, kappa, beta2 = (theta[kind] for kind in ("beta1", "kappa", "beta2"))
        system = _fisher_system(work, fitted, D - fitted, beta1, beta2, kappa, point.on_grid["gamma"])
        for _ in range(12):
            try:
                u, z = _joint_step(system, lm_lambda, work)
            except np.linalg.LinAlgError:
                lm_lambda *= 10.0
                continue
            steps = (u[:, 0], u[:, 1], z[:n_years], u[:, 2], z[n_years:])
            cand = evaluate({kind: theta[kind] + step for kind, step in zip(RHParams.kinds(), steps)})
            if cand.deviance <= point.deviance:
                lm_lambda = max(lm_lambda / 3.0, 1e-12)
                return cand
            lm_lambda = min(lm_lambda * 10.0, 1e12)
        return point

    return fit_terms(D, E, start, cfg, surface_deviance=poisson_surface_deviance, joint_step=joint_step)


def fit_rh_both(
    table: MortalityTable,
    cfg: FitConfig = RH_DEFAULT_CONFIG,
    warm_start: dict[str, LCParams] | None = None,
) -> dict[str, RHParams]:
    """fit_rh of every gender, warm-started from warm_start[gender] if given,
    with the same results and errors. Where os.fork exists, a child process
    fits GENDERS[0] while this process fits the other, so the two fits share
    two cores; an error of either is raised here with its type and message."""
    warm = warm_start or {}
    if not hasattr(os, "fork"):
        return {g: fit_rh(table, g, cfg, warm.get(g)) for g in GENDERS}
    worker, here = GENDERS
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        _worker(read_fd, write_fd, lambda: fit_rh(table, worker, cfg, warm.get(worker)))
    os.close(write_fd)
    try:
        # the child blocks on a full pipe until this fit is done and read
        with open(read_fd, "rb") as pipe:
            mine = fit_rh(table, here, cfg, warm.get(here))
            payload = pipe.read()
    except BaseException:
        import signal  # not loaded at start-up, and only this path needs it

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    status = os.waitpid(pid, 0)[1]
    if not payload:
        raise RuntimeError(f"the Renshaw-Haberman fit of {worker} ended without a result (wait status {status})")
    ok, result = pickle.loads(payload)
    if not ok:
        raise result
    return {worker: result, here: mine}


def _worker(read_fd: int, write_fd: int, fit) -> None:
    """The forked child's whole life: fit() or its exception, pickled, to
    write_fd, then os._exit, which flushes none of the parent's stdio buffers
    and runs no atexit hook. It never returns, whatever happens."""
    code = 1
    try:
        os.close(read_fd)
        try:
            result = (True, fit())
        except BaseException as exc:
            result = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


# the cohort term enters through RHParams.TERMS
predict_rh = predict_lc

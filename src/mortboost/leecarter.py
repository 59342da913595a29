"""Lee-Carter mortality surfaces fitted by Poisson maximum likelihood.

log q(g,a,t) = beta0[a] + beta1[a] * kappa[t] per gender, with the usual
identifiability constraints sum(beta1) = 1 and sum(kappa) = 0. Fitting uses
alternating blockwise Newton updates with an exposure offset: beta0 has a
closed-form update, kappa and beta1 take damped Newton steps (halved until
the deviance does not increase), and the constraints are re-imposed after
every sweep by exactly prediction-invariant transformations.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .grids import GENDERS, FeatureSpace, MortalityTable, RateSurface, gender_index

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 10000
    deviance_tol: float = 1e-10
    rate_floor: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.deviance_tol <= 0:
            raise ValueError("deviance_tol must be > 0")
        if not (0 < self.rate_floor < 1):
            raise ValueError("rate_floor must lie in (0, 1)")


@dataclass
class LCParams:
    """One gender's fitted coefficients: beta0/beta1 per age, kappa per year."""

    gender: str
    age_min: int
    year_min: int
    beta0: np.ndarray
    beta1: np.ndarray
    kappa: np.ndarray
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
    def deviance(self) -> float:
        return float(self.deviance_trace[-1])

    def log_rates(self) -> np.ndarray:
        """(n_ages, n_years) grid of unclamped log rates."""
        return self.beta0[:, None] + self.beta1[:, None] * self.kappa[None, :]

    def rates(self) -> np.ndarray:
        return np.clip(np.exp(self.log_rates()), self.rate_floor, 1.0)


def poisson_surface_deviance(deaths, exposure, log_rate) -> float:
    """Poisson deviance of a fitted log-rate surface against a (D, E) grid.

    Cells with zero exposure are excluded (they carry no likelihood). The
    unit deviance D log(D/mu) - (D - mu) is evaluated with log1p((D - mu)/mu),
    which keeps its rounding error proportional to |D - mu| instead of D, and
    is clamped at 0 (its exact value is never negative) before the sum.
    """
    D = np.asarray(deaths, dtype=np.float64)
    E = np.asarray(exposure, dtype=np.float64)
    mask = E > 0
    d = D[mask]
    fitted = E[mask] * np.exp(log_rate[mask])
    mu = np.where(fitted > 0, fitted, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(d > 0, d * np.log1p((d - mu) / mu), 0.0)
    return float(2.0 * np.maximum(terms - (d - fitted), 0.0).sum())


def _gender_slice(table: MortalityTable, gender: str) -> tuple[np.ndarray, np.ndarray]:
    gi = gender_index(gender)
    return table.deaths[gi].astype(np.float64), table.exposure[gi]


def fit_lc(table: MortalityTable, gender: str, cfg: FitConfig = FitConfig()) -> LCParams:
    """Fit one gender slice; never raises on non-convergence (converged=False)."""
    D, E = _gender_slice(table, gender)
    space = table.space
    if (E.sum(axis=1) > 0).sum() < 2 or (E.sum(axis=0) > 0).sum() < 2:
        raise ValueError("need at least 2 ages and 2 years with positive exposure")

    n_ages, n_years = D.shape
    flags: list[str] = []
    log_floor = float(np.log(cfg.rate_floor))

    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    dead_rows = age_E == 0
    zero_rows = (age_E > 0) & (age_D == 0)
    updatable = ~(dead_rows | zero_rows)
    for a in np.nonzero(dead_rows)[0]:
        flags.append(f"age {a + space.age_min}: zero exposure in every year; fitted at rate_floor")
    for a in np.nonzero(zero_rows)[0]:
        flags.append(f"age {a + space.age_min}: zero deaths in every year; fitted at rate_floor")

    beta0 = np.where(updatable, np.log((age_D + 0.5) / np.where(age_E > 0, age_E, 1.0)), log_floor)
    beta1 = np.full(n_ages, 1.0 / n_ages)
    kappa = np.zeros(n_years)

    def deviance(b0, b1, k):
        return poisson_surface_deviance(D, E, b0[:, None] + b1[:, None] * k[None, :])

    dev = deviance(beta0, beta1, kappa)
    trace = [dev]
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        # beta0: per-age closed-form maximization, gated against the carried
        # deviance (renormalization is invariant only up to rounding)
        fitted_age = (E * np.exp(beta0[:, None] + beta1[:, None] * kappa[None, :])).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.log(age_D / fitted_age)
        shift = np.where(updatable & (fitted_age > 0), shift, 0.0)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = beta0 + scale * shift
            cand_dev = deviance(cand, beta1, kappa)
            if cand_dev <= dev:
                beta0, dev = cand, cand_dev
                break
            scale *= 0.5

        # kappa: damped Newton
        kappa, dev = _newton_block(
            D, E, beta0, beta1, kappa, dev, deviance, block="kappa"
        )
        # beta1: damped Newton
        beta1, dev = _newton_block(
            D, E, beta0, beta1, kappa, dev, deviance, block="beta1"
        )

        # re-impose constraints (prediction-invariant)
        k_mean = kappa.mean()
        beta0 = beta0 + beta1 * k_mean
        kappa = kappa - k_mean
        scale = beta1.sum()
        if scale != 0.0:
            beta1 = beta1 / scale
            kappa = kappa * scale

        trace.append(dev)
        prev = trace[-2]
        if prev - dev <= cfg.deviance_tol * max(prev, 1e-300):
            converged = True
            break

    if not converged:
        flags.append(f"not converged after {cfg.max_iterations} iterations")
    if np.max(np.abs(kappa)) < 1e-8:
        flags.append("kappa is numerically zero: time-homogeneous surface, beta1 weakly identified")

    return LCParams(
        gender=gender,
        age_min=space.age_min,
        year_min=space.year_min,
        beta0=beta0,
        beta1=beta1,
        kappa=kappa,
        rate_floor=cfg.rate_floor,
        converged=converged,
        n_iterations=it,
        deviance_trace=np.asarray(trace),
        flags=flags,
    )


def _newton_block(D, E, beta0, beta1, kappa, dev_current, deviance, block: str):
    """One damped Newton step on kappa or beta1, holding the rest fixed."""
    fitted = E * np.exp(beta0[:, None] + beta1[:, None] * kappa[None, :])
    resid = D - fitted
    if block == "kappa":
        grad = (beta1[:, None] * resid).sum(axis=0)
        hess = (beta1[:, None] ** 2 * fitted).sum(axis=0)
        current = kappa
    elif block == "beta1":
        grad = (kappa[None, :] * resid).sum(axis=1)
        hess = (kappa[None, :] ** 2 * fitted).sum(axis=1)
        current = beta1
    else:
        raise ValueError(block)
    step = np.where(hess > 0, grad / np.where(hess > 0, hess, 1.0), 0.0)
    if not np.any(step):
        return current, dev_current
    scale = 1.0
    for _ in range(_MAX_HALVINGS):
        cand = current + scale * step
        if block == "kappa":
            cand_dev = deviance(beta0, beta1, cand)
        else:
            cand_dev = deviance(beta0, cand, kappa)
        if cand_dev <= dev_current:
            return cand, cand_dev
        scale *= 0.5
    return current, dev_current  # step rejected


def predict_lc(params: LCParams, gender: str, age: int, year: int) -> float:
    """Fitted rate at one feature, clamped to [rate_floor, 1]; no extrapolation."""
    if gender != params.gender:
        raise ValueError(f"parameters are for {params.gender}, not {gender}")
    ai = age - params.age_min
    ti = year - params.year_min
    if not (0 <= ai < params.n_ages and 0 <= ti < params.n_years):
        raise ValueError(f"feature (age={age}, year={year}) outside the fitted ranges")
    log_rate = params.beta0[ai] + params.beta1[ai] * params.kappa[ti]
    return float(np.clip(np.exp(log_rate), params.rate_floor, 1.0))


def fit_lc_both(table: MortalityTable, cfg: FitConfig = FitConfig()) -> dict[str, LCParams]:
    return {g: fit_lc(table, g, cfg) for g in GENDERS}


def rate_surface(space: FeatureSpace, per_gender: dict[str, "LCParams"]) -> RateSurface:
    """Assemble a RateSurface from per-gender fitted parameters."""
    rate = np.empty(space.shape)
    for g in GENDERS:
        p = per_gender[g]
        if p.n_ages != space.n_ages or p.n_years != space.n_years:
            raise ValueError("fitted parameter ranges do not match the feature space")
        rate[gender_index(g)] = p.rates()
    return RateSurface(space, rate)


# --- CSV round-trip ---------------------------------------------------------

_CSV_HEADER = "gender,kind,index,value"
# the CSV index of each parameter kind runs over ages, calendar years or
# cohorts, starting at the parameter object's age_min, year_min or cohort_min
_KIND_AXIS = {"beta0": "age", "beta1": "age", "beta2": "age", "kappa": "year", "gamma": "cohort"}
LC_KINDS = ("beta0", "beta1", "kappa")


def write_params_csv(per_gender: dict, kinds: tuple[str, ...]) -> str:
    """Columns gender,kind,index,value for the named parameter vectors."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    for g in GENDERS:
        if g not in per_gender:
            continue
        p = per_gender[g]
        for kind in kinds:
            base = getattr(p, _KIND_AXIS[kind] + "_min")
            for i, v in enumerate(getattr(p, kind)):
                buf.write(f"{g},{kind},{base + i},{float(v)!r}\n")
    return buf.getvalue()


def read_params_csv(text: str, kinds: tuple[str, ...], make, rate_floor: float) -> dict:
    """Inverse of write_params_csv; `make` builds one gender's parameter object
    (LCParams, RHParams) from keyword fields."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER}")
    rows: dict[str, dict[str, dict[int, float]]] = {}
    for ln in lines[1:]:
        if not ln.strip():
            continue
        g, kind, idx, val = ln.split(",")
        rows.setdefault(g, {}).setdefault(kind, {})[int(idx)] = float(val)
    if not rows:
        raise ValueError("no parameter rows after the header")
    out = {}
    for g, by_kind in rows.items():
        if set(by_kind) != set(kinds):
            raise ValueError(f"gender {g}: expected kinds {'/'.join(kinds)}, got {sorted(by_kind)}")
        starts, vecs = {}, {}
        for kind in kinds:
            idx = sorted(by_kind[kind])
            if idx != list(range(idx[0], idx[0] + len(idx))):
                raise ValueError(f"gender {g}: {kind} indices are not contiguous")
            starts[kind], vecs[kind] = idx[0], np.array([by_kind[kind][i] for i in idx])
        age_min, n_ages = starts["beta0"], vecs["beta0"].size
        year_min, n_years = starts["kappa"], vecs["kappa"].size
        span = {
            "age": (age_min, n_ages),
            "year": (year_min, n_years),
            "cohort": (year_min - (age_min + n_ages - 1), n_ages + n_years - 1),
        }
        for kind in kinds:
            if (starts[kind], vecs[kind].size) != span[_KIND_AXIS[kind]]:
                raise ValueError(f"gender {g}: {kind} index range does not match the age/year ranges")
        out[g] = make(
            gender=g,
            age_min=age_min,
            year_min=year_min,
            **vecs,
            rate_floor=rate_floor,
            converged=True,
            n_iterations=0,
            deviance_trace=np.array([np.nan]),
            flags=["loaded from CSV"],
        )
    return out


def params_to_csv(per_gender: dict[str, LCParams]) -> str:
    """LC parameters as CSV; kappa indexed by calendar year."""
    return write_params_csv(per_gender, LC_KINDS)


def params_from_csv(text: str, rate_floor: float = FitConfig().rate_floor) -> dict[str, LCParams]:
    return read_params_csv(text, LC_KINDS, LCParams, rate_floor)

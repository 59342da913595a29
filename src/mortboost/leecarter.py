"""Lee-Carter mortality surfaces fitted by Poisson maximum likelihood, and
the fit loop and parameter CSV that Lee-Carter and Renshaw-Haberman share.

log q(g,a,t) = beta0[a] + beta1[a] * kappa[t] per gender, with the usual
identifiability constraints sum(beta1) = 1 and sum(kappa) = 0.

A model is declared once, by its parameter class's TERMS: log q is beta0[a]
plus a sum of bilinear terms age_kind[a] * period_kind[p] (LCParams.TERMS
here; RHParams adds ("beta2", "gamma")), and `_KIND_AXIS` gives each kind
its axis: age, year or birth cohort. The terms give the model's kinds and
their CSV row order (beta0, then each term's kinds), its log-rate grid
(`log_rate_grid`), its constraints (`LCParams.constraints`) and its fit
(`fit_terms`). The axis decides how a vector is broadcast onto the (age,
year) grid and how a grid is reduced to it: a row sum, a column sum or a
cohort bincount. Each iteration of `fit_terms`, with an exposure
offset, moves beta0 to its closed-form per-age maximiser, takes one damped
Newton step on each kind (per term, the period kind first), runs the
model's joint-step hook if it has one, and re-imposes the constraints (each
age kind sums to 1, each period kind has grid-weighted mean 0) by exactly
prediction-invariant transformations. Every step is halved until the
deviance does not increase, so the deviance trace is monotone.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .grids import (
    GENDERS,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    TableFormat,
    four_fields,
    gender_index,
    kept_rows,
)

_MAX_HALVINGS = 30

# the axis each parameter kind is indexed by: in the fit, and in the CSV,
# where the index starts at the parameter object's age_min, year_min or
# cohort_min
_KIND_AXIS = {"beta0": "age", "beta1": "age", "beta2": "age", "kappa": "year", "gamma": "cohort"}


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 10000
    deviance_tol: float = 1e-10
    rate_floor: float = 1e-12

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.deviance_tol > 0:
            raise ValueError("deviance_tol must be > 0")
        if not (0 < self.rate_floor < 1):
            raise ValueError("rate_floor must lie in (0, 1)")


@dataclass
class LCParams:
    """One gender's fitted coefficients: beta0/beta1 per age, kappa per year.
    A subclass adds fields and extends TERMS to declare another model."""

    TERMS: ClassVar[tuple[tuple[str, str], ...]] = (("beta1", "kappa"),)

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
    def cohort_min(self) -> int:
        return self.year_min - (self.age_min + self.n_ages - 1)

    @property
    def n_cohorts(self) -> int:
        return self.n_ages + self.n_years - 1

    @property
    def deviance(self) -> float:
        return float(self.deviance_trace[-1])

    @classmethod
    def kinds(cls) -> tuple[str, ...]:
        """The parameter vectors in CSV row order: beta0, then each term's."""
        return ("beta0", *(kind for term in cls.TERMS for kind in term))

    def theta(self) -> dict[str, np.ndarray]:
        """The parameter vectors by kind."""
        return {kind: getattr(self, kind) for kind in self.kinds()}

    def span(self, kind: str) -> tuple[int, int]:
        """The first index and the length of kind's axis: ages, years or cohorts."""
        axis = _KIND_AXIS[kind]
        return getattr(self, f"{axis}_min"), getattr(self, f"n_{axis}s")

    def _cohort_index(self) -> np.ndarray:
        """(n_ages, n_years) grid of cohort indices, t - a + n_ages - 1 at (a, t)."""
        return np.arange(self.n_years)[None, :] - np.arange(self.n_ages)[:, None] + (self.n_ages - 1)

    def cohort_cells(self) -> np.ndarray:
        """Number of grid cells of each cohort, oldest first."""
        return np.bincount(self._cohort_index().ravel(), minlength=self.n_cohorts)

    def log_rates(self) -> np.ndarray:
        """(n_ages, n_years) grid of unclamped log rates."""
        return log_rate_grid(self.theta(), self.TERMS, self._cohort_index())

    def constraints(self) -> list[tuple[str, float]]:
        """The identifiability constraints as (name, residual) pairs, each 0
        on an exact fit: every age kind sums to 1, then every period kind has
        grid-weighted sum 0 (a year kind's is its plain sum, as every year
        has as many cells)."""
        out = [(f"{kind} sum - 1", float(getattr(self, kind).sum() - 1.0)) for kind, _ in self.TERMS]
        for _, period in self.TERMS:
            k = getattr(self, period)
            if _KIND_AXIS[period] == "year":
                out.append((f"{period} sum", float(k.sum())))
            else:
                out.append((f"grid-weighted {period} sum", float((self.cohort_cells() * k).sum())))
        return out

    def rates(self) -> np.ndarray:
        return np.clip(np.exp(self.log_rates()), self.rate_floor, 1.0)


def poisson_surface_deviance(deaths, exposure, log_rate) -> float:
    """Poisson deviance of a fitted log-rate surface against a (D, E) grid.

    Cells with zero exposure are excluded (they carry no likelihood). The
    unit deviance D log(D/mu) - (D - mu) is evaluated with log1p((D - mu)/mu),
    which keeps its rounding error proportional to |D - mu| instead of D, and
    is clamped at 0 (its exact value is never negative) before the sum.
    """
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


def _gender_slice(table: MortalityTable, gender: str) -> tuple[np.ndarray, np.ndarray]:
    gi = gender_index(gender)
    return table.deaths[gi].astype(np.float64), table.exposure[gi]


def _on_grid(kind: str, values: np.ndarray, ci) -> np.ndarray:
    """A parameter vector broadcast onto the (age, year) grid along its axis;
    ci is the grid of cohort indices (used by cohort kinds only)."""
    axis = _KIND_AXIS[kind]
    if axis == "age":
        return values[:, None]
    if axis == "year":
        return values[None, :]
    return values[ci]


def _per_index(kind: str, grid: np.ndarray, ci, n: int) -> np.ndarray:
    """Grid values summed per index of the kind's axis."""
    axis = _KIND_AXIS[kind]
    if axis == "age":
        return grid.sum(axis=1)
    if axis == "year":
        return grid.sum(axis=0)
    return np.bincount(ci.ravel(), weights=grid.ravel(), minlength=n)


def log_rate_grid(theta: dict[str, np.ndarray], terms, ci) -> np.ndarray:
    """The (age, year) grid of beta0 plus the bilinear terms, for theta
    mapping kinds to vectors; ci is the grid of cohort indices."""
    log_rate = theta["beta0"][:, None]
    for age_kind, period in terms:
        log_rate = log_rate + theta[age_kind][:, None] * _on_grid(period, theta[period], ci)
    return log_rate


def fit_terms(D, E, start, cfg: FitConfig, surface_deviance=poisson_surface_deviance, joint_step=None):
    """Fit beta0 and start's TERMS to one gender's deaths D and exposure E.

    start (an LCParams or RHParams) holds the starting vectors; the result is
    a copy of it with the fitted ones. Its flags are those of age rows without
    exposure or deaths (whose beta0 keeps its start value), then start.flags,
    then one for non-convergence, which is reported, never raised. Every
    deviance is surface_deviance(D, E, log_rate). joint_step(point, fitted,
    evaluate), if given, runs after the block steps: point is (theta, its
    log-rate grid, its deviance dev), theta maps kinds to vectors, fitted is
    the grid of fitted means, and evaluate(theta) gives the point of a
    candidate theta. It returns a point with a deviance no higher than dev.
    """
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
        """The point (th, its log-rate grid, its deviance)."""
        log_rate = log_rate_grid(th, terms, ci)
        return th, log_rate, surface_deviance(D, E, log_rate)

    def fitted_means(log_rate):
        return np.where(E > 0, E * np.exp(log_rate), 0.0)

    def damped(point, kind, step):
        """point moved by step along kind, the step halved until the deviance
        does not increase."""
        th, _, dev = point
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = evaluate({**th, kind: th[kind] + scale * step})
            if cand[2] <= dev:
                return cand
            scale *= 0.5
        return point  # step rejected

    # a point is (theta, its log-rate grid, the carried deviance); each grid is
    # evaluated once and serves both the deviance and the next fitted means
    point = evaluate(theta)
    trace = [point[2]]
    converged = False
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        # beta0: per-age closed-form maximization, gated against the carried
        # deviance (renormalization is invariant only up to rounding)
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

        # re-impose constraints (prediction-invariant); a year has as many
        # cells as any other, so kappa's grid-weighted mean is its plain mean
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
        # the constraints change theta's bits, so its grid is evaluated again
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


def fit_lc(table: MortalityTable, gender: str, cfg: FitConfig = FitConfig()) -> LCParams:
    """Fit one gender slice; never raises on non-convergence (converged=False)."""
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


def predict_lc(params: LCParams, gender: str, age: int, year: int) -> float:
    """Fitted rate at one feature, clamped to [rate_floor, 1]; no extrapolation.
    Serves every model: the rate is the cell's entry of params.log_rates()."""
    if gender != params.gender:
        raise ValueError(f"parameters are for {params.gender}, not {gender}")
    ai = age - params.age_min
    ti = year - params.year_min
    if not (0 <= ai < params.n_ages and 0 <= ti < params.n_years):
        raise ValueError(f"feature (age={age}, year={year}) outside the fitted ranges")
    return float(np.clip(np.exp(params.log_rates()[ai, ti]), params.rate_floor, 1.0))


def fit_lc_both(table: MortalityTable, cfg: FitConfig = FitConfig()) -> dict[str, LCParams]:
    return {g: fit_lc(table, g, cfg) for g in GENDERS}


def rate_surface(space: FeatureSpace, per_gender: dict[str, "LCParams"]) -> RateSurface:
    """Assemble a RateSurface from per-gender fitted parameters."""
    rate = np.empty(space.shape)
    for g in GENDERS:
        p = per_gender[g]
        if (p.age_min, p.n_ages, p.year_min, p.n_years) != (
            space.age_min, space.n_ages, space.year_min, space.n_years
        ):
            raise ValueError("fitted parameter ranges do not match the feature space")
        rate[gender_index(g)] = p.rates()
    return RateSurface(space, rate)


# --- CSV round-trip ---------------------------------------------------------

_CSV_HEADER = "gender,kind,index,value"


def params_to_csv(per_gender: dict[str, LCParams]) -> str:
    """Columns gender,kind,index,value: each gender's kinds in its model's
    order, indexed by age, calendar year or birth cohort."""
    buf = io.StringIO()
    buf.write(_CSV_HEADER + "\n")
    for g in GENDERS:
        if g not in per_gender:
            continue
        p = per_gender[g]
        for kind in p.kinds():
            for i, v in enumerate(getattr(p, kind), start=p.span(kind)[0]):
                buf.write(f"{g},{kind},{i},{float(v)!r}\n")
    return buf.getvalue()


def params_from_csv(
    text: str, model: type[LCParams] = LCParams, rate_floor: float = FitConfig().rate_floor
) -> dict[str, LCParams]:
    """Inverse of params_to_csv for one model class (LCParams, RHParams); a
    gender's rows must hold exactly the model's kinds. A malformed or
    repeated row is named by its line; a row's value is converted first,
    then its index, then its gender."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER}")
    # kind label -> code: a numpy string column would drop a label's trailing NULs
    codes: dict[str, int] = {}
    params = TableFormat(
        4, four_fields,
        ((3, float), (2, int), (0, gender_index), (1, lambda kind: codes.setdefault(kind, len(codes)))),
        3, lambda f, v: f"duplicate {f[0]} {f[1]} row for index {v[2]}", "no parameter rows after the header",
    )
    gi, code, index, value = params.read(
        *kept_rows(lines[1:], str.strip, range(2, len(lines) + 1))
    )
    labels = list(codes)
    kinds = model.kinds()
    out = {}
    for gc in dict.fromkeys(gi.tolist()):  # genders in order of first appearance
        g, mine = GENDERS[gc], gi == gc
        present = {labels[c] for c in code[mine].tolist()}
        if present != set(kinds):
            raise ValueError(f"gender {g}: expected kinds {'/'.join(kinds)}, got {sorted(present)}")
        starts, vecs = {}, {}
        for kind in kinds:
            rows = mine & (code == codes[kind])
            order = np.argsort(index[rows])
            idx = index[rows][order].tolist()
            if idx != list(range(idx[0], idx[0] + len(idx))):
                raise ValueError(f"gender {g}: {kind} indices are not contiguous")
            starts[kind], vecs[kind] = idx[0], value[rows][order]
        # beta0 gives the ages and kappa the years; every other axis follows
        out[g] = p = model(
            gender=g,
            age_min=starts["beta0"],
            year_min=starts["kappa"],
            **vecs,
            rate_floor=rate_floor,
            converged=True,
            n_iterations=0,
            deviance_trace=np.array([np.nan]),
            flags=["loaded from CSV"],
        )
        for kind in kinds:
            if (starts[kind], vecs[kind].size) != p.span(kind):
                raise ValueError(f"gender {g}: {kind} index range does not match the age/year ranges")
    return out

"""Lee-Carter mortality surfaces fitted by Poisson maximum likelihood, and
the fit loop and parameter CSV that Lee-Carter and Renshaw-Haberman share.

log q(g,a,t) = beta0[a] + beta1[a] * kappa[t] per gender, with the usual
identifiability constraints sum(beta1) = 1 and sum(kappa) = 0.

A model is declared once, by its parameter class's TERMS: log q is beta0[a]
plus a sum of bilinear terms age_kind[a] * period_kind[p] (LCParams.TERMS
here; RHParams adds ("beta2", "gamma")), and `_KIND_AXIS` gives each kind
its axis: age, year or birth cohort. The terms give the model's kinds and
their CSV row order (beta0, then each term's kinds), its log-rate grid
(`log_rate_grid`), its fit's start (`LCParams.start`), its constraints
(`LCParams.constraints`; `period_sum` states a period kind's for the fit
too) and its fit (`fit_terms`). The axis decides how a vector is broadcast
onto the (age, year) grid and how a grid is reduced to it: a row sum, a
column sum or a cohort bincount. Each iteration of `fit_terms`, with an
exposure offset, moves beta0 to its closed-form per-age maximiser, takes one
damped Newton step on each kind (per term, the period kind first), runs the
model's joint-step hook if it has one, and re-imposes the constraints (each
age kind sums to 1, each period kind has grid-weighted mean 0) by exactly
prediction-invariant transformations. Every step is halved until the
deviance does not increase, so the deviance trace is monotone.

A point of the fit carries its theta, each period kind on the grid, each
term's grid, the fitted means E * exp(log rate) and the deviance. exp runs
once per point: the deviance, the next block steps and the joint step read
the carried fitted means. A step along one kind recomputes only the term
grid that holds it, and the log rate is summed in TERMS order as
`log_rate_grid` sums it, so every result has the bits of a full recompute.
The deviance reads its per-fit constants from `PoissonCells`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from functools import partial
from typing import ClassVar, NamedTuple

import numpy as np

from .grids import (
    GENDERS,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    TableFormat,
    first_line,
    four_fields,
    gender_index,
    line_blocks,
)

_MAX_HALVINGS = 30

# the double next above -1, the smallest ratio whose log1p is finite
_ABOVE_MINUS_ONE = np.nextafter(-1.0, 0.0)

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
    def space(self) -> FeatureSpace:
        """The ages and years the parameters cover."""
        return FeatureSpace(
            self.age_min, self.age_min + self.n_ages - 1, self.year_min, self.year_min + self.n_years - 1
        )

    @property
    def cohort_min(self) -> int:
        return self.space.cohort_min

    @property
    def n_cohorts(self) -> int:
        return self.space.n_cohorts

    @property
    def deviance(self) -> float:
        return float(self.deviance_trace[-1])

    @classmethod
    def kinds(cls) -> tuple[str, ...]:
        """The parameter vectors in CSV row order: beta0, then each term's."""
        return ("beta0", *(kind for term in cls.TERMS for kind in term))

    @classmethod
    def start(cls, gender: str, space: FeatureSpace, rate_floor: float, beta0: np.ndarray, **given):
        """A fit's starting point over space, before any iteration: each age
        kind of TERMS is 1/n_ages and each period kind 0, unless given."""
        theta = {"beta0": beta0}
        for age_kind, period in cls.TERMS:
            theta[age_kind] = np.full(space.n_ages, 1.0 / space.n_ages)
            theta[period] = np.zeros(getattr(space, f"n_{_KIND_AXIS[period]}s"))
        theta.update(given)
        return cls(
            gender=gender, age_min=space.age_min, year_min=space.year_min, **theta, rate_floor=rate_floor,
            converged=False, n_iterations=0, deviance_trace=np.array([]), flags=[],
        )

    def theta(self) -> dict[str, np.ndarray]:
        """The parameter vectors by kind."""
        return {kind: getattr(self, kind) for kind in self.kinds()}

    def span(self, kind: str) -> tuple[int, int]:
        """The first index and the length of kind's axis: ages, years or cohorts."""
        axis = _KIND_AXIS[kind]
        return getattr(self, f"{axis}_min"), getattr(self, f"n_{axis}s")

    def _cohort_index(self) -> np.ndarray:
        """(n_ages, n_years) grid of cohort indices, t - a + n_ages - 1 at (a, t)."""
        return self.space.cohort_grid() - self.cohort_min

    def cohort_cells(self) -> np.ndarray:
        """Number of grid cells of each cohort, oldest first."""
        return np.bincount(self._cohort_index().ravel(), minlength=self.n_cohorts)

    def log_rates(self) -> np.ndarray:
        """(n_ages, n_years) grid of unclamped log rates."""
        return log_rate_grid(self.theta(), self.TERMS, self._cohort_index())

    def constraints(self) -> list[tuple[str, float]]:
        """The identifiability constraints as (name, residual) pairs, each 0
        on an exact fit: every age kind sums to 1, then every period kind has
        grid-weighted sum 0."""
        out = [(f"{kind} sum - 1", float(getattr(self, kind).sum() - 1.0)) for kind, _ in self.TERMS]
        cells = self.cohort_cells()
        for _, period in self.TERMS:
            name, total, _ = period_sum(period, getattr(self, period), cells)
            out.append((name, float(total)))
        return out

    def rates(self) -> np.ndarray:
        return np.clip(np.exp(self.log_rates()), self.rate_floor, 1.0)


def period_sum(kind: str, k: np.ndarray, cohort_cells: np.ndarray) -> tuple[str, float, int]:
    """A period kind's constraint: its name, the grid-weighted sum of k and
    the total weight, for the number of grid cells of each cohort. Every
    year has as many cells, so a year kind's sum is its plain sum, and its
    weight its length."""
    if _KIND_AXIS[kind] == "year":
        return f"{kind} sum", k.sum(), k.size
    return f"grid-weighted {kind} sum", (cohort_cells * k).sum(), cohort_cells.sum()


class PoissonCells:
    """One gender's deaths and exposure as the Poisson deviance reads them,
    set once per fit: the exposure grid, the deaths of the exposed cells in
    storage order, the mask of the exposed cells (None when every cell is
    exposed), and the flat positions of the cells without exposure and of
    the exposed cells without deaths."""

    def __init__(self, deaths, exposure):
        self.exposure = np.asarray(exposure, dtype=np.float64)
        d = np.asarray(deaths, dtype=np.float64).ravel()
        exposed = self.exposure.ravel() > 0
        self.unexposed = np.flatnonzero(~exposed)
        self.exposed = exposed if self.unexposed.size else None
        self.deaths = d if self.exposed is None else d[exposed]
        self.deathless = np.flatnonzero(~(self.deaths > 0))

    def fitted_means(self, log_rate: np.ndarray) -> np.ndarray:
        """The (age, year) grid E * exp(log_rate), 0 where E = 0."""
        fitted = np.exp(log_rate)
        fitted *= self.exposure
        fitted.reshape(-1)[self.unexposed] = 0.0
        return fitted


def poisson_surface_deviance(cells: PoissonCells, fitted: np.ndarray) -> float:
    """Poisson deviance of a grid of fitted means, cells.fitted_means of a
    log-rate grid, against the cells' deaths.

    Cells with zero exposure are excluded (they carry no likelihood). The
    unit deviance D log(D/mu) - (D - mu) is evaluated with log1p((D - mu)/mu),
    which keeps its rounding error proportional to |D - mu| instead of D, and
    is clamped at 0 (its exact value is never negative) before the sum; where
    (D - mu)/mu overflows, as for a fitted mean far below a normal float, the
    unit deviance is D (log D - log mu) - (D - mu). A fitted mean of 0 stands
    in as 1 in the logarithm. An infinite fitted mean gives an invalid-value
    warning, and an overflowing quotient an overflow warning, unless the
    caller ignores them, as fit_terms does.
    """
    f = fitted.reshape(-1)
    if cells.exposed is not None:
        f = f[cells.exposed]
    d = cells.deaths
    resid = d - f
    if f.min(initial=np.inf) > 0:  # then mu is f
        ratio = resid / f
    else:
        mu = np.where(f > 0, f, 1.0)
        ratio = (d - mu) / mu
    # D log(D/mu) of a cell without deaths is log1p(0) * 0 = 0, with no log of 0
    ratio[cells.deathless] = 0.0
    # a ratio that rounds to -1 (mu at least 2**53 D) is read as the next
    # double above it, so its term is about mu, not -inf clamped to 0; every
    # other ratio keeps its bits
    np.maximum(ratio, _ABOVE_MINUS_ONE, out=ratio)
    terms = np.log1p(ratio, out=ratio)
    terms *= d
    terms -= resid
    total = 2.0 * np.maximum(terms, 0.0, out=terms).sum()
    if total == np.inf:  # (D - mu)/mu overflowed; a finite total keeps its bits
        big = np.isinf(terms)
        terms[big] = d[big] * (np.log(d[big]) - np.log(f[big])) - resid[big]
        total = 2.0 * terms.sum()
    return float(total)


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


class _Point(NamedTuple):
    """A point of the fit: theta maps kinds to vectors, on_grid maps each
    period kind to its (age, year) grid, terms holds each term's grid
    age_kind * period kind in TERMS order, and fitted the fitted means."""

    theta: dict[str, np.ndarray]
    on_grid: dict[str, np.ndarray]
    terms: tuple[np.ndarray, ...]
    fitted: np.ndarray
    deviance: float


def fit_terms(D, E, start, cfg: FitConfig, surface_deviance=poisson_surface_deviance, joint_step=None):
    """Fit beta0 and start's TERMS to one gender's deaths D and exposure E.

    start (an LCParams or RHParams) holds the starting vectors; the result is
    a copy of it with the fitted ones. Its flags are those of age rows without
    exposure or deaths (whose beta0 keeps its start value), then start.flags,
    then one for non-convergence, which is reported, never raised. Every
    deviance is surface_deviance(cells, fitted) for the fit's PoissonCells.
    joint_step(point, evaluate), if given, runs after the block steps: point
    is a _Point and evaluate(theta) gives the point of a candidate theta. It
    returns a point with a deviance no higher than point's. The fit runs
    under one np.errstate that ignores divide, invalid and overflow (an age
    row without exposure, a candidate whose exp overflows: its deviance is
    not a number, so the step is halved).
    """
    if (E.sum(axis=1) > 0).sum() < 2 or (E.sum(axis=0) > 0).sum() < 2:
        raise ValueError("need at least 2 ages and 2 years with positive exposure")
    terms = start.TERMS
    theta = start.theta()
    ci, multiplicity = start._cohort_index(), start.cohort_cells()
    cells = PoissonCells(D, E)

    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    updatable = (age_E > 0) & (age_D > 0)
    flags = []
    for what, rows in (("exposure", age_E == 0), ("deaths", (age_E > 0) & (age_D == 0))):
        for a in np.flatnonzero(rows):
            flags.append(f"age {a + start.age_min}: zero {what} in every year; fitted at rate_floor")
    flags += start.flags

    def grids(th, base=None, kind=None):
        """(on_grid, terms, fitted) of th, which differs from base's theta in
        kind only: base's grids serve every term without kind. Without a
        base, every grid is computed."""
        on_grid = {} if base is None else dict(base.on_grid)
        term_grids = [None] * len(terms) if base is None else list(base.terms)
        for i, (age_kind, period) in enumerate(terms):
            if base is None or kind == period:
                on_grid[period] = _on_grid(period, th[period], ci)
            if base is None or kind in (age_kind, period):
                term_grids[i] = th[age_kind][:, None] * on_grid[period]
        log_rate = th["beta0"][:, None] + term_grids[0]
        for grid in term_grids[1:]:
            log_rate += grid
        return on_grid, tuple(term_grids), cells.fitted_means(log_rate)

    def evaluate(th, base=None, kind=None):
        """The point of th (grids' arguments)."""
        on_grid, term_grids, fitted = grids(th, base, kind)
        return _Point(th, on_grid, term_grids, fitted, surface_deviance(cells, fitted))

    def damped(point, kind, step):
        """point moved by step along kind, the step halved until the deviance
        does not increase."""
        th = point.theta
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = evaluate({**th, kind: th[kind] + scale * step}, point, kind)
            if cand.deviance <= point.deviance:
                return cand
            scale *= 0.5
        return point  # step rejected

    converged = False
    it = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        point = evaluate(theta)
        trace = [point.deviance]
        for it in range(1, cfg.max_iterations + 1):
            # beta0: per-age closed-form maximization, gated against the carried
            # deviance (renormalization is invariant only up to rounding)
            fitted_age = point.fitted.sum(axis=1)
            shift = np.log(age_D / fitted_age)
            point = damped(point, "beta0", np.where(updatable & (fitted_age > 0), shift, 0.0))

            for age_kind, period in terms:
                for kind, other in ((period, age_kind), (age_kind, period)):
                    theta, fitted = point.theta, point.fitted
                    factor = point.on_grid[other] if other == period else _on_grid(other, theta[other], ci)
                    n = theta[kind].size
                    grad = _per_index(kind, factor * (D - fitted), ci, n)
                    hess = _per_index(kind, factor**2 * fitted, ci, n)
                    step = np.where(hess > 0, grad / np.where(hess > 0, hess, 1.0), 0.0)
                    if step.any():
                        point = damped(point, kind, step)

            if joint_step is not None:
                point = joint_step(point, evaluate)

            # re-impose constraints (prediction-invariant)
            theta, dev = point.theta, point.deviance
            for age_kind, period in terms:
                b, k = theta[age_kind], theta[period]
                _, total, weight = period_sum(period, k, multiplicity)
                k_mean = total / weight
                theta["beta0"] = theta["beta0"] + b * k_mean
                k = k - k_mean
                scale = b.sum()
                if scale != 0.0:
                    b, k = b / scale, k * scale
                theta[age_kind], theta[period] = b, k
            # the constraints change theta's bits, so its grids are computed
            # again; the deviance is carried
            point = _Point(theta, *grids(theta), dev)

            trace.append(dev)
            prev = trace[-2]
            if prev - dev <= cfg.deviance_tol * max(prev, 1e-300):
                converged = True
                break

    if not converged:
        flags.append(f"not converged after {cfg.max_iterations} iterations")
    return replace(
        start,
        **point.theta,
        converged=converged,
        n_iterations=it,
        deviance_trace=np.asarray(trace),
        flags=flags,
    )


def fit_lc(table: MortalityTable, gender: str, cfg: FitConfig = FitConfig()) -> LCParams:
    """Fit one gender slice; never raises on non-convergence (converged=False)."""
    D, E = _gender_slice(table, gender)
    age_D = D.sum(axis=1)
    age_E = E.sum(axis=1)
    beta0 = np.where(
        (age_E > 0) & (age_D > 0),
        np.log((age_D + 0.5) / np.where(age_E > 0, age_E, 1.0)),
        np.log(cfg.rate_floor),
    )
    fit = fit_terms(D, E, LCParams.start(gender, table.space, cfg.rate_floor, beta0), cfg)
    if np.max(np.abs(fit.kappa)) < 1e-8:
        fit.flags.append("kappa is numerically zero: time-homogeneous surface, beta1 weakly identified")
    return fit


def predict_lc(params: LCParams, gender: str, age: int, year: int) -> float:
    """Fitted rate at one feature, clamped to [rate_floor, 1]; no extrapolation.
    Serves every model: the log rate is the cell's entry of params.log_rates(),
    summed from the cell's own terms in log_rate_grid's order."""
    if gender != params.gender:
        raise ValueError(f"parameters are for {params.gender}, not {gender}")
    ai = age - params.age_min
    ti = year - params.year_min
    if not (0 <= ai < params.n_ages and 0 <= ti < params.n_years):
        raise ValueError(f"feature (age={age}, year={year}) outside the fitted ranges")
    theta = params.theta()
    at = {"age": ai, "year": ti, "cohort": ti - ai + params.n_ages - 1}
    log_rate = theta["beta0"][ai]
    for age_kind, period in params.TERMS:
        log_rate = log_rate + theta[age_kind][ai] * theta[period][at[_KIND_AXIS[period]]]
    return float(np.clip(np.exp(log_rate), params.rate_floor, 1.0))


def fit_lc_both(table: MortalityTable, cfg: FitConfig = FitConfig()) -> dict[str, LCParams]:
    # in this process, not in a worker as renshawhaberman.fit_rh_both does:
    # an LC fit takes 4-35 ms per gender, and forking a 45-50 MB process costs
    # 10-20 ms with the copy-on-write faults it leaves behind
    return {g: fit_lc(table, g, cfg) for g in GENDERS}


def rate_surface(space: FeatureSpace, per_gender: dict[str, "LCParams"]) -> RateSurface:
    """Assemble a RateSurface from per-gender fitted parameters."""
    rate = np.empty(space.shape)
    for g in GENDERS:
        p = per_gender[g]
        if p.space != space:
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
    header = first_line(text)
    if header is None or header.strip() != _CSV_HEADER:
        raise ValueError(f"expected header {_CSV_HEADER}")
    # kind label -> code: a numpy string column would drop a label's trailing NULs
    codes: dict[str, int] = {}
    params = TableFormat(
        4, four_fields,
        ((3, float), (2, int), (0, gender_index), (1, lambda kind: codes.setdefault(kind, len(codes)))),
        3, lambda f, v: f"duplicate {f[0]} {f[1]} row for index {v[2]}", "no parameter rows after the header",
    )
    gi, code, index, value = params.read(partial(line_blocks, text, skip=1))
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

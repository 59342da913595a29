"""Deterministic Poisson sampling of death counts, the generative side of the
model: D ~ Poisson(q * E) per cell, and D_k ~ Poisson(theta_k * q * E) per
cause on the bucketed grid.

Every cell (and cause) draws from its own counter block of a Philox stream
keyed by (seed, domain), so draws are independent by construction,
order-independent, and bit-reproducible for a given seed regardless of how
the cells are traversed. One Philox generator per (seed, domain) serves all
the cells of a call: before each cell's draw its state is reset to the key,
the counter block of the cell index (the index in counter word 2, i.e.
``index << 128``) and an empty output buffer. That is exactly the state of a
fresh ``Philox(key, counter=index << 128)``, so each cell's draw depends only
on (seed, domain, index, mean) and never on the draws of other cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codboost import ThetaSurface
from .grids import (
    GENDERS,
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    RateSurface,
    aggregate_rates,
)
from .hmd import CauseDeathTable, ParseError, parse_range, read_key_values

_MASK64 = (1 << 64) - 1
_DOMAIN_DEATHS = 0
_DOMAIN_CAUSES = 1


def _draw_poisson(seed: int, domain: int, indices, means) -> np.ndarray:
    """One Poisson draw per cell: means[j] from the (seed, domain, indices[j])
    counter block."""
    bitgen = np.random.Philox(key=(seed & _MASK64) | (domain << 64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0, empty buffer (buffer_pos 4)
    counter = state["state"]["counter"]
    out = np.empty(len(means), dtype=np.int64)
    for j, (index, mean) in enumerate(zip(indices, means)):
        counter[2] = index
        bitgen.state = state
        out[j] = gen.poisson(mean)
    return out


@dataclass(frozen=True)
class SimSpec:
    """True rates, exposures and (optionally) cause probabilities plus a seed."""

    q: RateSurface
    exposure: np.ndarray  # (2, A, T)
    seed: int
    theta: ThetaSurface | None = None
    bucketing: AgeBucketing | None = None
    cause_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        exposure = np.asarray(self.exposure, dtype=np.float64)
        if exposure.shape != self.q.space.shape:
            raise ValueError(f"exposure shape {exposure.shape} != space shape {self.q.space.shape}")
        if np.any(exposure < 0):
            raise ValueError("negative exposure")
        object.__setattr__(self, "exposure", exposure)
        if self.theta is not None:
            if self.bucketing is None:
                raise ValueError("theta requires a bucketing for the condensed grid")
            sums = self.theta.cause_sums()
            if np.any(np.abs(sums - 1.0) > 1e-8):
                raise ValueError("theta must sum to 1 over causes for every feature")
            expected = (
                len(GENDERS),
                self.bucketing.n_buckets,
                self.q.space.n_years,
                self.theta.n_causes,
            )
            if self.theta.values.shape != expected:
                raise ValueError(f"theta shape {self.theta.values.shape} != {expected}")
            labels = self.cause_labels or tuple(
                f"cause {k + 1}" for k in range(self.theta.n_causes)
            )
            if len(labels) != self.theta.n_causes:
                raise ValueError("cause_labels length != number of causes")
            object.__setattr__(self, "cause_labels", tuple(labels))


def sample_deaths(spec: SimSpec) -> MortalityTable:
    """Independent Poisson draws D ~ Pois(q * E) per grid cell."""
    space = spec.q.space
    means = (spec.q.rate * spec.exposure).ravel()
    deaths = _draw_poisson(spec.seed, _DOMAIN_DEATHS, range(means.size), means.tolist())
    return MortalityTable(space, spec.exposure, deaths.reshape(space.shape))


def sample_cause_deaths(spec: SimSpec) -> tuple[CauseDeathTable, np.ndarray]:
    """Cause-level draws D_k ~ Pois(theta_k * q * E) on the bucketed grid.

    Returns the cause table and the implied all-cause grid (the cause sum,
    which by Poisson additivity has the aggregated q * E mean).
    """
    if spec.theta is None:
        raise ValueError("spec has no cause probabilities")
    space = spec.q.space
    zero_table = MortalityTable(space, spec.exposure, np.zeros(space.shape, dtype=np.int64))
    condensed = aggregate_rates(spec.q, zero_table, spec.bucketing)
    means = spec.theta.values * (condensed.rate * condensed.exposure)[..., None]
    # cause k of cell c draws from counter block c * K + k, the flat index
    flat = means.ravel()
    counts = _draw_poisson(spec.seed, _DOMAIN_CAUSES, range(flat.size), flat.tolist())
    counts = counts.reshape(means.shape)
    table = CauseDeathTable(
        causes=spec.cause_labels,
        n_buckets=spec.bucketing.n_buckets,
        year_min=space.year_min,
        year_max=space.year_max,
        counts=counts,
        missing=np.zeros(means.shape, dtype=bool),
        bucketing=spec.bucketing,
    )
    return table, counts.sum(axis=3)


# --- config-file loading -----------------------------------------------------

_SPEC_DEFAULTS = {
    "exposure": 1e5,
    "base_rate": 5e-5,
    "age_slope": 0.085,
    "year_drift": 0.0,
    "male_factor": 1.0,
    "theta": "uniform",
}
_SPEC_KEYS = {"ages", "years", "seed", "causes", "buckets", *_SPEC_DEFAULTS}


def _uniform_theta(mode: str) -> None:
    if mode != "uniform":
        raise ValueError(f"unsupported theta mode {mode!r} (only 'uniform' in spec files)")


def load_sim_spec(source: str | Path) -> SimSpec:
    """Build a SimSpec from key = value lines: a Path is read, a str is the text.

    Required keys: ages=A:B, years=T0:T1, seed. Optional: exposure,
    base_rate, age_slope, year_drift, male_factor, causes (with buckets).
    The rate surface is log-linear in age and calendar year:
    q = base_rate * exp(age_slope*a + year_drift*(t - t_min)) * male_factor^[male].
    A malformed value or an unknown key raises ParseError with its line.
    """
    text = source.read_text() if isinstance(source, Path) else source
    entries = read_key_values(text)
    for key, (_, line) in entries.items():
        if key not in _SPEC_KEYS:
            raise ParseError(f"unknown key {key!r}", line)
    for required in ("ages", "years", "seed"):
        if required not in entries:
            raise ValueError(f"simulation spec needs the {required!r} key")

    def get(key, convert=float, *args):
        if key not in entries:
            return _SPEC_DEFAULTS[key]
        value, line = entries[key]
        try:
            return convert(value, *args)
        except ValueError as exc:
            raise ParseError(str(exc), line) from None

    age_min, age_max = get("ages", parse_range, "ages")
    year_min, year_max = get("years", parse_range, "years")
    space = FeatureSpace(age_min, age_max, year_min, year_max)
    seed = get("seed", int)

    ages = space.ages().astype(np.float64)
    years = space.years().astype(np.float64)
    base = get("base_rate") * np.exp(
        get("age_slope") * ages[:, None] + get("year_drift") * (years[None, :] - year_min)
    )
    rate = np.stack([base, base * get("male_factor")])
    rate = np.minimum(rate, 1.0)
    exposure = np.full(space.shape, get("exposure"))

    theta = None
    bucketing = None
    if "causes" in entries:
        K = get("causes", int)
        if "buckets" not in entries:
            raise ValueError("causes given without a buckets partition spec")
        bucketing = get("buckets", AgeBucketing.from_spec, age_min, age_max)
        get("theta", _uniform_theta)
        theta = ThetaSurface(
            np.full((len(GENDERS), bucketing.n_buckets, space.n_years, K), 1.0 / K)
        )
    return SimSpec(
        q=RateSurface(space, rate),
        exposure=exposure,
        seed=seed,
        theta=theta,
        bucketing=bucketing,
    )

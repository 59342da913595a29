"""Feature grids, exposure/death tables, crude rates and age-bucket aggregation.

All grid-valued data is stored dense with axes (gender, age, year); gender 0
is female, gender 1 is male. Iteration and export order is gender-major,
age-major, year-minor throughout the package.

`scan_rows` is the row-by-row re-scan that the rate, parameter, HMD and
cause-of-death readers share to name a table's first malformed row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

GENDERS = ("female", "male")


def gender_index(gender: str) -> int:
    try:
        return GENDERS.index(gender)
    except ValueError:
        raise ValueError(f"unknown gender {gender!r}, expected one of {GENDERS}") from None


@dataclass(frozen=True)
class FeatureSpace:
    """Rectangular grid of (gender, age, calendar year) cells."""

    age_min: int
    age_max: int
    year_min: int
    year_max: int

    def __post_init__(self):
        if self.age_min < 0:
            raise ValueError(f"age_min must be >= 0, got {self.age_min}")
        if self.age_max < self.age_min:
            raise ValueError(f"empty age range {self.age_min}..{self.age_max}")
        if self.year_max < self.year_min:
            raise ValueError(f"empty year range {self.year_min}..{self.year_max}")

    @property
    def genders(self) -> tuple[str, ...]:
        return GENDERS

    @property
    def n_ages(self) -> int:
        return self.age_max - self.age_min + 1

    @property
    def n_years(self) -> int:
        return self.year_max - self.year_min + 1

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(GENDERS), self.n_ages, self.n_years)

    @property
    def size(self) -> int:
        return len(GENDERS) * self.n_ages * self.n_years

    def ages(self) -> np.ndarray:
        return np.arange(self.age_min, self.age_max + 1)

    def years(self) -> np.ndarray:
        return np.arange(self.year_min, self.year_max + 1)

    @property
    def cohort_min(self) -> int:
        return self.year_min - self.age_max

    @property
    def cohort_max(self) -> int:
        return self.year_max - self.age_min

    @property
    def n_cohorts(self) -> int:
        return self.cohort_max - self.cohort_min + 1

    def contains(self, gender: str, age: int, year: int) -> bool:
        return (
            gender in GENDERS
            and self.age_min <= age <= self.age_max
            and self.year_min <= year <= self.year_max
        )

    def iter_features(self):
        """Yield (gender, age, year) in the canonical storage order."""
        for g in GENDERS:
            for a in range(self.age_min, self.age_max + 1):
                for t in range(self.year_min, self.year_max + 1):
                    yield (g, a, t)

    def cohort_grid(self) -> np.ndarray:
        """(n_ages, n_years) array of cohorts c = year - age."""
        return self.years()[None, :] - self.ages()[:, None]


@dataclass(frozen=True)
class ExtendedFeature:
    """A grid feature plus its derived birth cohort c = year - age."""

    gender: str
    age: int
    year: int
    cohort: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cohort", self.year - self.age)


def extend_feature(gender: str, age: int, year: int, space: FeatureSpace) -> ExtendedFeature:
    """Attach the birth cohort to a feature; raises if outside the space."""
    if not space.contains(gender, age, year):
        raise ValueError(f"feature ({gender}, {age}, {year}) outside feature space {space}")
    return ExtendedFeature(gender, age, year)


def _as_grid(values, space: FeatureSpace, dtype, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != space.shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {space.shape}")
    out = np.array(arr, dtype=dtype)  # private copy, then frozen
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class MortalityTable:
    """Exposures (person-years) and integer death counts over a FeatureSpace."""

    space: FeatureSpace
    exposure: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "exposure", _as_grid(self.exposure, self.space, np.float64, "exposure"))
        object.__setattr__(self, "deaths", _as_grid(self.deaths, self.space, np.int64, "deaths"))
        if np.any(self.exposure < 0):
            raise ValueError("negative exposure")
        if np.any(self.deaths < 0):
            raise ValueError("negative death count")
        bad = (self.exposure == 0) & (self.deaths > 0)
        if np.any(bad):
            g, a, t = [idx[0] for idx in np.nonzero(bad)]
            raise ValueError(
                f"deaths with zero exposure at ({GENDERS[g]}, {a + self.space.age_min}, "
                f"{t + self.space.year_min})"
            )

    @property
    def total_deaths(self) -> int:
        return int(self.deaths.sum())


@dataclass(frozen=True)
class RateSurface:
    """Mortality rates q(x) in [0, 1] on a dense FeatureSpace grid."""

    space: FeatureSpace
    rate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rate", _as_grid(self.rate, self.space, np.float64, "rate"))
        if np.any(self.rate < 0) or np.any(self.rate > 1):
            raise ValueError("rates must lie in [0, 1]")

    def at(self, gender: str, age: int, year: int) -> float:
        if not self.space.contains(gender, age, year):
            raise ValueError(f"feature ({gender}, {age}, {year}) outside feature space")
        return float(
            self.rate[
                gender_index(gender),
                age - self.space.age_min,
                year - self.space.year_min,
            ]
        )


def crude_rates(table: MortalityTable) -> tuple[RateSurface, list[str]]:
    """Observed rates D/E, clamped to 1; zero-exposure cells get rate 0.

    Returns the surface and a list of human-readable warnings (one per
    zero-exposure cell and one per clamped cell).
    """
    space = table.space
    E = table.exposure
    D = table.deaths.astype(np.float64)
    warnings: list[str] = []
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(E > 0, D / np.where(E > 0, E, 1.0), 0.0)
    for g, a, t in zip(*np.nonzero(E == 0)):
        warnings.append(
            f"zero exposure at ({GENDERS[g]}, {a + space.age_min}, {t + space.year_min}): rate set to 0"
        )
    clamped = rate > 1.0
    for g, a, t in zip(*np.nonzero(clamped)):
        warnings.append(
            f"crude rate {rate[g, a, t]:.6g} > 1 at ({GENDERS[g]}, {a + space.age_min}, "
            f"{t + space.year_min}): clamped to 1"
        )
    rate = np.minimum(rate, 1.0)
    return RateSurface(space, rate), warnings


@dataclass(frozen=True)
class AgeBucketing:
    """Ordered partition of an age range into disjoint, non-empty buckets.

    Each bucket is an inclusive (lo, hi) pair; together they must cover the
    full age range without gaps or overlaps.
    """

    age_min: int
    age_max: int
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("bucketing needs at least one bucket")
        expected = self.age_min
        for lo, hi in self.bounds:
            if lo != expected:
                raise ValueError(f"buckets do not partition ages: expected {expected}, got bucket start {lo}")
            if hi < lo:
                raise ValueError(f"empty bucket {lo}-{hi}")
            expected = hi + 1
        if expected != self.age_max + 1:
            raise ValueError(f"buckets stop at {expected - 1}, age range ends at {self.age_max}")

    @classmethod
    def from_spec(cls, spec: str, age_min: int, age_max: int) -> "AgeBucketing":
        """Parse a partition spec like "0;1-14;15-44;45-64;65-84;85+"."""
        bounds = []
        for part in spec.split(";"):
            part = part.strip()
            if not part:
                raise ValueError("empty bucket in spec")
            if part.endswith("+"):
                bounds.append((int(part[:-1]), age_max))
            elif "-" in part:
                lo, hi = part.split("-", 1)
                bounds.append((int(lo), int(hi)))
            else:
                bounds.append((int(part), int(part)))
        return cls(age_min, age_max, tuple(bounds))

    @classmethod
    def single_ages(cls, age_min: int, age_max: int) -> "AgeBucketing":
        """The trivial partition: one age per bucket."""
        return cls(age_min, age_max, tuple((a, a) for a in range(age_min, age_max + 1)))

    @property
    def n_buckets(self) -> int:
        return len(self.bounds)

    def bucket_of(self, age: int) -> int:
        for i, (lo, hi) in enumerate(self.bounds):
            if lo <= age <= hi:
                return i
        raise ValueError(f"age {age} outside bucketed range {self.age_min}..{self.age_max}")

    def label(self, i: int) -> str:
        lo, hi = self.bounds[i]
        if lo == hi:
            return str(lo)
        if hi == self.age_max and i == self.n_buckets - 1:
            return f"{lo}+"
        return f"{lo}-{hi}"

    def labels(self) -> list[str]:
        return [self.label(i) for i in range(self.n_buckets)]


@dataclass(frozen=True)
class BucketedRates:
    """Rates and total exposures on the condensed (gender, bucket, year) grid."""

    bucketing: AgeBucketing
    year_min: int
    year_max: int
    rate: np.ndarray  # (2, n_buckets, n_years)
    exposure: np.ndarray  # (2, n_buckets, n_years)

    def __post_init__(self):
        shape = (len(GENDERS), self.bucketing.n_buckets, self.year_max - self.year_min + 1)
        for name in ("rate", "exposure"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            arr = np.array(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_years(self) -> int:
        return self.year_max - self.year_min + 1

    def years(self) -> np.ndarray:
        return np.arange(self.year_min, self.year_max + 1)


def rate_surface_to_csv(surface: RateSurface) -> str:
    """Dense dump in storage order, columns gender,age,year,rate."""
    space = surface.space
    ages, years = space.ages().tolist(), space.years().tolist()
    keys = [f"{g},{a},{t}" for g in GENDERS for a in ages for t in years]
    rates = map(repr, surface.rate.ravel().tolist())
    return "\n".join(["gender,age,year,rate", *map(",".join, zip(keys, rates))]) + "\n"


def _any_duplicate(*keys: np.ndarray) -> bool:
    """Whether two rows agree on every key column."""
    rows = np.stack(keys)[:, np.lexsort(keys)]
    return bool(np.any(np.all(rows[:, 1:] == rows[:, :-1], axis=0)))


def _line_error(message: str, line: int | None = None) -> ValueError:
    return ValueError(message if line is None else f"line {line}: {message}")


def _column(values: tuple) -> np.ndarray:
    """Values of one Python type as an array; integers beyond 64 bits stay
    Python integers (an object array), never floats."""
    try:
        return np.array(values, dtype=type(values[0]))
    except OverflowError:
        return np.array(values, dtype=object)


def scan_rows(rows, convert, n_key: int, duplicate, empty: str, error=_line_error) -> tuple:
    """One table read row by row into the columns its whole-text path gives.

    rows yields (line number, fields) for every non-blank row. convert(fields)
    returns the row's values, the first n_key of which form its key, and
    raises ValueError in the table's own check order. The first row that
    convert rejects, or whose key repeats, raises error(message, line);
    duplicate(fields, values) is the message for a repeated key, and a table
    without rows raises error(empty).
    """
    keys, values = set(), []
    for ln_no, fields in rows:
        try:
            row = convert(fields)
        except ValueError as exc:
            raise error(str(exc), ln_no) from None
        if row[:n_key] in keys:
            raise error(duplicate(fields, row), ln_no)
        keys.add(row[:n_key])
        values.append(row)
    if not values:
        raise error(empty)
    return tuple(map(_column, zip(*values)))


def comma_rows(lines: list[str]):
    """(line number, fields) of every non-blank line after the header line,
    split at commas."""
    return ((ln_no, ln.split(",")) for ln_no, ln in enumerate(lines[1:], start=2) if ln.strip())


_RATE_HEADER = "gender,age,year,rate"


def _rate_columns(lines: list[str]):
    """All rows after the header split at once into (gender index, age, year,
    rate) columns, or None if any row is malformed or a duplicate (the
    re-scan then reports the first such row)."""
    rows = [ln for ln in lines[1:] if ln.strip()]
    if not rows or set(map(str.count, rows, repeat(","))) != {3}:
        return None
    tokens = ",".join(rows).split(",")
    g_tok, a_tok, t_tok, r_tok = (tokens[i::4] for i in range(4))
    n = len(rows)
    try:
        columns = (
            np.fromiter(map(gender_index, g_tok), np.int64, n),
            np.fromiter(map(int, a_tok), np.int64, n),
            np.fromiter(map(int, t_tok), np.int64, n),
            np.fromiter(map(float, r_tok), np.float64, n),
        )
    except (ValueError, OverflowError):
        return None
    if _any_duplicate(*columns[:3]):
        return None
    return columns


def _rate_row(fields: list[str]) -> tuple[int, int, int, float]:
    g, a, t, r = fields
    return gender_index(g), int(a), int(t), float(r)


def rate_surface_from_csv(text: str) -> RateSurface:
    """Inverse of rate_surface_to_csv: one row per cell of a dense grid, in any
    order. All rows are split at once; a text that fails that goes through
    scan_rows, which names the first malformed or duplicate row."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _RATE_HEADER:
        raise ValueError(f"expected header {_RATE_HEADER}")
    columns = _rate_columns(lines)
    if columns is None:
        columns = scan_rows(
            comma_rows(lines), _rate_row, 3,
            lambda f, v: f"duplicate rate row for {f[0]}, age {v[1]}, year {v[2]}",
            "no rate rows after the header",
        )
    gi, ages, years, values = columns
    space = FeatureSpace(int(ages.min()), int(ages.max()), int(years.min()), int(years.max()))
    if gi.size != space.size:
        raise ValueError(f"rate grid is not dense: {gi.size} rows for a {space.size}-cell space")
    rate = np.empty(space.shape)
    # a cast, because ages or years beyond 64 bits leave object arrays
    rate[gi, (ages - space.age_min).astype(np.intp), (years - space.year_min).astype(np.intp)] = values
    return RateSurface(space, rate)


def _snap_to_conservation(q: np.ndarray, expected: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    """Nudge q by at most one ulp so q * exposure best reproduces `expected`."""
    err = np.abs(q * exposure - expected)
    for direction in (np.inf, -np.inf):
        cand = np.nextafter(q, direction)
        cand_err = np.abs(cand * exposure - expected)
        better = cand_err < err
        q = np.where(better, cand, q)
        err = np.where(better, cand_err, err)
    return q


def aggregate_rates(q: RateSurface, table: MortalityTable, buckets: AgeBucketing) -> BucketedRates:
    """Exposure-weighted rate aggregation onto age buckets.

    The condensed rate is total expected deaths over total exposure, so the
    Poisson death-count model is preserved on the condensed grid; the product
    rate * exposure reproduces the accumulated expected deaths to 1 ulp.
    Raises when a bucket has zero total exposure for some (gender, year).
    """
    space = q.space
    if table.space != space:
        raise ValueError("rate surface and table are on different feature spaces")
    if buckets.age_min != space.age_min or buckets.age_max != space.age_max:
        raise ValueError(
            f"bucketing covers ages {buckets.age_min}..{buckets.age_max}, "
            f"space has {space.age_min}..{space.age_max}"
        )
    n_b = buckets.n_buckets
    rate_out = np.zeros((len(GENDERS), n_b, space.n_years))
    expo_out = np.zeros_like(rate_out)
    for i, (lo, hi) in enumerate(buckets.bounds):
        sl = slice(lo - space.age_min, hi - space.age_min + 1)
        E_slab = table.exposure[:, sl, :]
        expo_out[:, i, :] = E_slab.sum(axis=1)
        if np.any(expo_out[:, i, :] == 0):
            g, t = [idx[0] for idx in np.nonzero(expo_out[:, i, :] == 0)]
            raise ValueError(
                f"zero total exposure in bucket {buckets.label(i)} "
                f"(gender={GENDERS[g]}, year={t + space.year_min})"
            )
        if lo == hi:
            # single-age bucket: aggregation is the identity on rates
            rate_out[:, i, :] = q.rate[:, sl, :][:, 0, :]
        else:
            expected = (E_slab * q.rate[:, sl, :]).sum(axis=1)
            rate_out[:, i, :] = _snap_to_conservation(
                expected / expo_out[:, i, :], expected, expo_out[:, i, :]
            )
    return BucketedRates(buckets, space.year_min, space.year_max, rate_out, expo_out)

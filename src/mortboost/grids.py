"""Feature grids, exposure/death tables, crude rates and age-bucket aggregation.

All grid-valued data is stored dense with axes (gender, age, year); gender 0
is female, gender 1 is male. Iteration and export order is gender-major,
age-major, year-minor throughout the package. This module is the one place
for that layout: `frozen` makes every grid type's read-only copy,
`FeatureSpace.cell` names a cell of the (gender, age, year) grid
(`hmd.CauseDeathTable.cell` one of the cause grid), and `grid_csv` writes
one row per cell in storage order.

`TableFormat` is the one column reader of the rate, parameter, HMD and
cause-of-death tables: it converts every column once per distinct token and,
if some row is malformed, names the first such row.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain, islice, product, repeat

import numpy as np

GENDERS = ("female", "male")


def frozen(values, dtype, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """A private read-only copy of values as dtype; raises when a shape is
    given and values have another."""
    out = np.array(values, dtype=dtype)
    if shape is not None and out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    out.setflags(write=False)
    return out


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

    def describe(self) -> str:
        return f"ages {self.age_min}:{self.age_max}, years {self.year_min}:{self.year_max}"

    @property
    def cohort_min(self) -> int:
        return self.year_min - self.age_max

    @property
    def cohort_max(self) -> int:
        return self.year_max - self.age_min

    @property
    def n_cohorts(self) -> int:
        return self.cohort_max - self.cohort_min + 1

    def cell(self, g: int, a: int, t: int) -> tuple[str, int, int]:
        """The (gender, age, year) of the grid cell at index (g, a, t)."""
        return GENDERS[g], self.age_min + int(a), self.year_min + int(t)

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
class MortalityTable:
    """Exposures (person-years) and integer death counts over a FeatureSpace."""

    space: FeatureSpace
    exposure: np.ndarray
    deaths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "exposure", frozen(self.exposure, np.float64, "exposure", self.space.shape))
        object.__setattr__(self, "deaths", frozen(self.deaths, np.int64, "deaths", self.space.shape))
        if np.any(self.exposure < 0):
            raise ValueError("negative exposure")
        if np.any(self.deaths < 0):
            raise ValueError("negative death count")
        bad = np.argwhere((self.exposure == 0) & (self.deaths > 0))
        if bad.size:
            raise ValueError("deaths with zero exposure at ({}, {}, {})".format(*self.space.cell(*bad[0])))

    @property
    def total_deaths(self) -> int:
        return int(self.deaths.sum())


@dataclass(frozen=True)
class RateSurface:
    """Mortality rates q(x) in [0, 1] on a dense FeatureSpace grid."""

    space: FeatureSpace
    rate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rate", frozen(self.rate, np.float64, "rate", self.space.shape))
        if not np.all((self.rate >= 0) & (self.rate <= 1)):  # NaN fails too
            raise ValueError("rates must lie in [0, 1]")


def crude_rates(table: MortalityTable) -> tuple[RateSurface, list[str]]:
    """Observed rates D/E, clamped to 1; zero-exposure cells get rate 0.

    Returns the surface and a list of human-readable warnings (one per
    zero-exposure cell and one per clamped cell).
    """
    space = table.space
    E = table.exposure
    D = table.deaths.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(E > 0, D / np.where(E > 0, E, 1.0), 0.0)
    warnings = [
        "zero exposure at ({}, {}, {}): rate set to 0".format(*space.cell(*i)) for i in np.argwhere(E == 0)
    ]
    warnings += [
        "crude rate {:.6g} > 1 at ({}, {}, {}): clamped to 1".format(rate[tuple(i)], *space.cell(*i))
        for i in np.argwhere(rate > 1.0)
    ]
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
        shape = (len(GENDERS), self.bucketing.n_buckets, self.n_years)
        for name in ("rate", "exposure"):
            object.__setattr__(self, name, frozen(getattr(self, name), np.float64, name, shape))

    @property
    def n_years(self) -> int:
        return self.year_max - self.year_min + 1

    def years(self) -> np.ndarray:
        return np.arange(self.year_min, self.year_max + 1)


def float_fields(values) -> list[str]:
    """repr of every value in C order, each distinct bit pattern formatted
    once: fitted and simulated grids repeat few values (a tree's leaf rates,
    a constant exposure), and repr is the cost of a float CSV."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    bits, index = np.unique(flat.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, index.tolist()))


def grid_csv(header: str, axes: Sequence[Sequence], *columns: list[str]) -> str:
    """CSV text with one row per cell of the product of the axes' labels, in
    storage order (the last axis fastest): the cell's labels, then one
    already formatted field from each column, each in that same order."""
    labels = [list(map(str, axis)) for axis in axes]
    half = len(labels) // 2
    # each label is joined once per cell of its half, not once per cell
    lead, trail = ([",".join(key) for key in product(*part)] for part in (labels[:half], labels[half:]))
    keys = [f"{o},{i}" for o in lead for i in trail]
    for col in columns:
        if len(col) != len(keys):
            raise ValueError(f"column of {len(col)} fields for {len(keys)} cells")
    return "\n".join([header, *map(",".join, zip(keys, *columns))]) + "\n"


def rate_surface_to_csv(surface: RateSurface) -> str:
    """Dense dump in storage order, columns gender,age,year,rate."""
    space = surface.space
    rates = list(map(repr, surface.rate.ravel().tolist()))
    return grid_csv("gender,age,year,rate", (GENDERS, space.ages(), space.years()), rates)


# the smallest positive normal float; dividing by a positive value below it
# can overflow, so an input value there is rejected
TINY = float(np.finfo(np.float64).tiny)


def _rate(token: str) -> float:
    """A rate field's float, unless it is positive and below TINY."""
    rate = float(token)
    if 0.0 < rate < TINY:
        raise ValueError(f"rate {rate!r} is below the smallest normal float {TINY!r}")
    return rate


def _line_error(message: str, line: int | None = None) -> ValueError:
    return ValueError(message if line is None else f"line {line}: {message}")


def four_fields(fields: list[str]) -> None:
    """Python's own ValueError for a row that is not four fields."""
    _, _, _, _ = fields


def comma_fields(rows: list[str]) -> tuple[list[str], np.ndarray]:
    """The fields of comma-separated rows, flat, and each row's field count."""
    counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    return ",".join(rows).split(","), counts + 1


def list_fields(rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """The fields of rows that are already split, flat, and each row's field count."""
    return list(chain.from_iterable(rows)), np.fromiter(map(len, rows), np.intp, len(rows))


def kept_rows(rows: list, keep, lines: Sequence[int]) -> tuple[list, Callable[[int], int]]:
    """The rows that keep() accepts, and the line number of the k-th of them
    (counted only when asked for) when rows[i] starts on line lines[i]."""

    def line_of(k: int) -> int:
        return next(islice((ln for ln, row in zip(lines, rows) if keep(row)), k, None))

    return list(filter(keep, rows)), line_of


def _distinct_values(convert, tokens: list[str]) -> tuple[dict, set]:
    """convert(token) of every distinct token, and the tokens it rejects."""
    value_of, bad = {}, set()
    for tok in set(tokens):
        try:
            value_of[tok] = convert(tok)
        except ValueError:
            bad.add(tok)
    return value_of, bad


def _array(value_of: dict, tokens: list[str]) -> np.ndarray:
    """The values of tokens as one array; integers beyond 64 bits give an
    object array of Python integers, never floats."""
    if not tokens:
        return np.empty(0)
    kind = type(value_of[tokens[0]])
    try:
        return np.fromiter(map(value_of.__getitem__, tokens), kind, len(tokens))
    except OverflowError:
        return np.array(list(map(value_of.__getitem__, tokens)), dtype=object)


def _first_repeat(keys: tuple[np.ndarray, ...]) -> int:
    """The first row whose key columns all equal an earlier row's, or the row
    count: lexsort is stable, so of equal neighbours the later is the repeat."""
    n = keys[0].size
    order = np.lexsort(keys)
    same = np.ones(max(n - 1, 0), dtype=bool)
    for key in keys:
        k = key[order]
        same &= k[1:] == k[:-1]
    return int(order[1:][same].min()) if same.any() else n


@dataclass(frozen=True)
class TableFormat:
    """The columns of a text table and the checks that name its first bad row.

    A row has `width` fields; count(fields) raises the table's ValueError for
    a row of another width. `steps` are (field, step) pairs in the table's
    check order: a field's value is its token passed through its steps in
    turn, and a step raises ValueError for a value it rejects. The first
    n_key values form a row's key, which no two rows may share;
    duplicate(fields, values) is the message for a row that repeats one.
    error(message, line) is the exception raised, error(empty) the one for a
    table without rows.
    """

    width: int
    count: Callable[[list[str]], object]
    steps: tuple[tuple[int, Callable], ...]
    n_key: int
    duplicate: Callable[[list[str], list], str]
    empty: str
    error: Callable[..., Exception] = _line_error

    def _converter(self, field: int) -> Callable:
        """A field's steps as one function of its token."""
        steps = [step for f, step in self.steps if f == field]
        if len(steps) == 1:
            return steps[0]

        def convert(token):
            for step in steps:
                token = step(token)
            return token

        return convert

    def read(self, rows: list, line_of, fields=comma_fields, stop: Exception | None = None) -> tuple:
        """One array per field of the rows, which fields(rows) splits; raises
        for the first row of another width, with a rejected value or with a
        repeated key. Only that row goes through the steps in check order.
        stop, if given, is raised when no row is bad: the error of the row
        after the last, which could not be split."""
        tokens, counts = fields(rows)
        w, n = self.width, len(rows)
        wrong = np.flatnonzero(counts != w)
        end = int(wrong[0]) if wrong.size else n  # rows before the first of another width
        columns = [tokens[f: end * w: w] for f in range(w)]
        converted = [_distinct_values(self._converter(f), col) for f, col in enumerate(columns)]
        for (_, bad), col in zip(converted, columns):
            if bad:
                end = min(end, next(i for i, tok in enumerate(col) if tok in bad))
        values = tuple(_array(value_of, col[:end]) for (value_of, _), col in zip(converted, columns))
        first = min(end, _first_repeat(values[: self.n_key]))
        if first < n:
            start = first * w
            raise self._row_error(tokens[start: start + int(counts[first])], line_of(first))
        if stop is not None:
            raise stop
        if not n:
            raise self.error(self.empty)
        return values

    def _row_error(self, fields: list[str], line: int) -> Exception:
        try:
            self.count(fields)
            values = list(fields)
            for f, step in self.steps:
                values[f] = step(values[f])
        except ValueError as exc:
            return self.error(str(exc), line)
        return self.error(self.duplicate(fields, values), line)


_RATE_HEADER = "gender,age,year,rate"
_RATE_FORMAT = TableFormat(
    4, four_fields, ((0, gender_index), (1, int), (2, int), (3, _rate)), 3,
    lambda f, v: f"duplicate rate row for {f[0]}, age {v[1]}, year {v[2]}",
    "no rate rows after the header",
)


def rate_surface_from_csv(text: str) -> RateSurface:
    """Inverse of rate_surface_to_csv: one row per cell of a dense grid, in any
    order; a malformed or repeated row is named by its line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != _RATE_HEADER:
        raise ValueError(f"expected header {_RATE_HEADER}")
    gi, ages, years, values = _RATE_FORMAT.read(
        *kept_rows(lines[1:], str.strip, range(2, len(lines) + 1))
    )
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

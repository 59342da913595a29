"""Feature grids, exposure/death tables, crude rates and age-bucket aggregation.

All grid-valued data is stored dense with axes (gender, age, year); gender 0
is female, gender 1 is male. Iteration and export order is gender-major,
age-major, year-minor throughout the package. This module is the one place
for that layout: `frozen` makes every grid type's read-only copy,
`FeatureSpace.cell` names a cell of the (gender, age, year) grid
(`hmd.CauseDeathTable.cell` one of the cause grid), and `grid_csv` writes
one row per cell in storage order.

`TableFormat` is the one column reader of the rate, parameter, HMD and
cause-of-death tables, and `block_text` the one writer of their text. Both
work a fixed block of rows at a time, so that a table's text never exists as
one Python string per field: the reader splits and converts _READ_ROWS rows
at once, converting each column once per distinct token of a block, and
names the first malformed row of the whole table; the writer formats
_WRITE_CELLS cells at once from value arrays (`Fields`).
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
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
        """The sum of all death counts. No command reads it; it is public
        because acceptance criterion 9 checks a parsed HMD table by it."""
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


def crude_rates(table: MortalityTable) -> RateSurface:
    """Observed rates D/E, clamped to 1; zero-exposure cells get rate 0."""
    E = table.exposure
    D = table.deaths.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(E > 0, D / np.where(E > 0, E, 1.0), 0.0)
    return RateSurface(table.space, np.minimum(rate, 1.0))


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
        """The trivial partition: one age per bucket. No command builds it; it
        is public because aggregating over it gives back the single-age rates,
        the identity case of acceptance criterion 8."""
        return cls(age_min, age_max, tuple((a, a) for a in range(age_min, age_max + 1)))

    @property
    def n_buckets(self) -> int:
        return len(self.bounds)

    def label(self, i: int) -> str:
        lo, hi = self.bounds[i]
        if lo == hi:
            return str(lo)
        if hi == self.age_max and i == self.n_buckets - 1:
            return f"{lo}+"
        return f"{lo}-{hi}"


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


# rows of text that one step of TableFormat.read splits and converts at once
_READ_ROWS = 1 << 10
# cells whose fields one step of block_text formats at once
_WRITE_CELLS = 1 << 10
# characters that write_file encodes at once
_WRITE_CHARS = 1 << 16

# the most cells a dense grid built in memory may hold: a grid sampled from
# a spec, and the cause grid read from a cause-of-death file
MAX_GRID_CELLS = 10_000_000


class Fields:
    """One column of a text table: text(value) for each of `values` in C
    order, made a slice of cells at a time. A value that occurs once is
    formatted in its slice; a value that repeats (a tree's leaf rate, a
    constant exposure) is formatted once, beforehand. Values are told apart
    by their bits, so -0.0 and 0.0 each get their own text."""

    def __init__(self, values: np.ndarray, text: Callable[[object], str] = repr):
        self.values, self.text = values, text
        bits, counts = np.unique(values.reshape(-1).view(np.int64), return_counts=True)
        self._repeats = bits[counts > 1]
        self._repeat_text = np.array(list(map(text, self._repeats.view(values.dtype).tolist())), dtype=object)

    def __len__(self) -> int:
        return self.values.size

    def __getitem__(self, cells: slice) -> list[str]:
        block = self.values.flat[cells]
        bits = block.view(np.int64)
        at = np.searchsorted(self._repeats, bits)
        repeat = at < self._repeats.size
        repeat[repeat] = self._repeats[at[repeat]] == bits[repeat]
        fields = np.empty(block.size, dtype=object)
        fields[repeat] = self._repeat_text[at[repeat]]
        once = ~repeat
        fields[once] = list(map(self.text, block[once].tolist()))
        return fields.tolist()


def float_fields(values) -> Fields:
    """repr of every value in C order, each distinct bit pattern formatted
    once: fitted and simulated grids repeat few values (a tree's leaf rates,
    a constant exposure), and repr is the cost of a float CSV."""
    return Fields(np.asarray(values, dtype=np.float64))


def block_text(head: list[str], keys, columns: Sequence, sep: str) -> str:
    """The lines head, then a line per cell: the cell's key, taken from the
    iterator keys, and its field of each column, joined by sep. A column is
    a sequence of fields (a list, or Fields); the lines are built
    _WRITE_CELLS cells at a time, so one block's fields are alive at once."""
    n = len(columns[0])
    text = "\n".join(head) + "\n"
    for start in range(0, n, _WRITE_CELLS):
        cells = slice(start, min(start + _WRITE_CELLS, n))
        lines = map(sep.join, zip(islice(keys, _WRITE_CELLS), *(col[cells] for col in columns)))
        # CPython appends to a str that nothing else refers to in place, so
        # the text is never held twice
        text += "\n".join(lines)
        text += "\n"
    return text


def write_file(path, text: str) -> None:
    """Path(path).write_text(text) a block of characters at a time, where
    write_text would hold an encoded copy of the whole text."""
    with open(path, "w") as f:  # write_text's defaults
        for start in range(0, len(text), _WRITE_CHARS):
            f.write(text[start : start + _WRITE_CHARS])


def grid_csv(header: str, axes: Sequence[Sequence], *columns) -> str:
    """CSV text with one row per cell of the product of the axes' labels, in
    storage order (the last axis fastest): the cell's labels, then one field
    from each column (a list of fields, or Fields), each in that same order."""
    labels = [list(map(str, axis)) for axis in axes]
    n = math.prod(map(len, labels))
    for col in columns:
        if len(col) != n:
            raise ValueError(f"column of {len(col)} fields for {n} cells")
    # the labels of all but the last axis are joined once per run of the last
    keys = (f"{lead},{last}" for lead in map(",".join, product(*labels[:-1])) for last in labels[-1])
    return block_text([header], keys, columns, ",")


def rate_surface_to_csv(surface: RateSurface) -> str:
    """Dense dump in storage order, columns gender,age,year,rate."""
    space = surface.space
    return grid_csv("gender,age,year,rate", (GENDERS, space.ages(), space.years()), float_fields(surface.rate))


# the smallest positive normal float; dividing by a positive value below it
# can overflow, so an input value there is rejected
TINY = float(np.finfo(np.float64).tiny)


def _rate(token: str) -> float:
    """A rate field's float: in [0, 1], and not positive and below TINY."""
    rate = float(token)
    if not 0.0 <= rate <= 1.0:  # NaN fails too
        raise ValueError(f"rate {rate!r} does not lie in [0, 1]")
    if 0.0 < rate < TINY:
        raise ValueError(f"rate {rate!r} is below the smallest normal float {TINY!r}")
    return rate


class ParseError(ValueError):
    """Malformed input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def comma_fields(rows: list[str]) -> tuple[list[str], np.ndarray]:
    """The fields of comma-separated rows, flat, and each row's field count."""
    counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    return ",".join(rows).split(","), counts + 1


def list_fields(rows: list[list[str]]) -> tuple[list[str], np.ndarray]:
    """The fields of rows that are already split, flat, and each row's field count."""
    return list(chain.from_iterable(rows)), np.fromiter(map(len, rows), np.intp, len(rows))


def newline_rows(block: str) -> list[str]:
    """The rows of a block of text split at each newline and nowhere else
    (as str.split("\\n"); a newline that ends the block ends its last row)."""
    return block.removesuffix("\n").split("\n") if block else []


def first_line(text: str, split: Callable[[str], list] = str.splitlines) -> str | None:
    """The first of the lines that split(text) gives, or None for none."""
    lines = split(text[: text.find("\n") + 1 or len(text)])
    return lines[0] if lines else None


def line_blocks(text: str, skip: int, split: Callable[[str], list] = str.splitlines):
    """The lines that split(text) gives past the first `skip`, as (lines,
    their 1-based numbers) per block of _READ_ROWS lines. Each block is cut
    from the text right after a newline, so a block splits as it would
    inside the whole text; a block may hold more lines where split also cuts
    at other characters."""
    # up to _READ_ROWS lines, each up to and including its "\n"
    block = re.compile(r"(?:[^\n]*\n){1,%d}" % _READ_ROWS)
    start, line = 0, 1
    while start < len(text):
        match = block.match(text, start)
        end = match.end() if match else len(text)
        rows = split(text[start:end])
        first = max(skip + 1 - line, 0)
        yield rows[first:], range(line + first, line + len(rows))
        start, line = end, line + len(rows)


def row_blocks(rows):
    """(rows, their line numbers) per block of _READ_ROWS of the (row, line)
    pairs that rows gives; a ValueError that rows raises comes after the
    block of the pairs before it."""
    block: list[tuple] = []
    try:
        for pair in rows:
            block.append(pair)
            if len(block) == _READ_ROWS:
                yield tuple(zip(*block))
                block = []
    except ValueError:
        if block:
            yield tuple(zip(*block))
        raise
    if block:
        yield tuple(zip(*block))


def kept_row(blocks, keep: Callable, k: int) -> tuple:
    """The k-th row of blocks() that keep() accepts, and its line number."""
    for rows, lines in blocks():
        kept = [(row, line) for row, line in zip(rows, lines) if keep(row)]
        if k < len(kept):
            return kept[k]
        k -= len(kept)
    raise IndexError(f"no kept row {k}")


def _distinct_values(convert, tokens: list[str], known: dict) -> tuple[dict, set]:
    """convert(token) of every distinct token, taken from known where it
    holds the token, and the tokens that convert rejects."""
    value_of, bad = {}, set()
    for tok in set(tokens):
        if tok in known:
            value_of[tok] = known[tok]
            continue
        try:
            value_of[tok] = convert(tok)
        except ValueError:
            bad.add(tok)
    return value_of, bad


def _array(value_of: dict, tokens: list[str]) -> np.ndarray:
    """The values of tokens as one array; integers beyond 64 bits give an
    object array of Python integers, never floats."""
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
        del k  # one sorted key column at a time
    return int(order[1:][same].min()) if same.any() else n


@dataclass(frozen=True)
class TableFormat:
    """The columns of a text table and the checks that name its first bad row.

    A row has `width` fields. `steps` are (field, step) pairs in the table's
    check order: a field's value is its token passed through its steps in
    turn, and a step raises ValueError for a value it rejects. The first
    n_key values form a row's key, which no two rows may share;
    duplicate(fields, values) is the message for a row that repeats one.
    A bad row raises ParseError with its line, a table without rows
    ParseError(empty).
    """

    width: int
    steps: tuple[tuple[int, Callable], ...]
    n_key: int
    duplicate: Callable[[list[str], list], str]
    empty: str

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

    def read(self, blocks, keep: Callable = str.strip, fields=comma_fields) -> tuple:
        """One array per field of the rows that keep() accepts, which
        fields(rows) splits; blocks() gives the rows and their line numbers a
        block at a time (line_blocks, row_blocks), and may raise ValueError
        for text it cannot split into rows. Raises for the first row of
        another width, with a rejected value or with a repeated key; only
        that row goes through the steps in check order. The error of
        blocks() is raised when no row before it is bad. A block's tokens
        are dropped before the next block is split: what grows with the
        table is its arrays."""
        convert = [self._converter(f) for f in range(self.width)]
        known: list[dict] = [{} for _ in range(self.width)]  # the previous block's values
        parts: list[list[np.ndarray]] = [[] for _ in range(self.width)]
        n, bad, stop = 0, False, None
        source = iter(blocks())
        while not bad:
            try:
                rows, _ = next(source)
            except StopIteration:
                break
            except ValueError as exc:  # the text after the last block
                stop = exc
                break
            rows = list(filter(keep, rows))
            end, good, known = self._good_rows(rows, fields, convert, known)
            for part, values in zip(parts, good):
                part.append(values)
            n += end
            bad = end < len(rows)
        columns = []
        for part in parts:  # one column at a time, so the blocks' arrays are held once
            columns.append(np.concatenate(part) if part else np.empty(0))
            part.clear()
        first = _first_repeat(columns[: self.n_key])
        if bad or first < n:
            row, line = kept_row(blocks, keep, first)
            raise self._row_error(fields([row])[0], line)
        if stop is not None:
            raise stop
        if not n:
            raise ParseError(self.empty)
        return tuple(columns)

    def _good_rows(self, rows: list, fields, convert: list[Callable], known: list[dict]) -> tuple:
        """The number of rows before the first of another width or with a
        rejected value, one array per field of them (none for none), and
        each field's values of the rows' tokens; known holds values of
        tokens already converted."""
        w = self.width
        tokens, counts = fields(rows)
        wrong = np.flatnonzero(counts != w)
        end = int(wrong[0]) if wrong.size else len(rows)  # rows before the first of another width
        columns = [tokens[f: end * w: w] for f in range(w)]
        converted = [_distinct_values(c, col, k) for c, col, k in zip(convert, columns, known)]
        for (_, rejected), col in zip(converted, columns):
            if rejected:
                end = min(end, next(i for i, tok in enumerate(col) if tok in rejected))
        arrays = [_array(value_of, col[:end]) for (value_of, _), col in zip(converted, columns)] if end else []
        return end, arrays, [value_of for value_of, _ in converted]

    def _row_error(self, fields: list[str], line: int) -> ParseError:
        try:
            if len(fields) != self.width:
                raise ValueError(f"expected {self.width} fields, got {len(fields)}")
            values = list(fields)
            for f, step in self.steps:
                values[f] = step(values[f])
        except ValueError as exc:
            return ParseError(str(exc), line)
        return ParseError(self.duplicate(fields, values), line)


_RATE_HEADER = "gender,age,year,rate"
_RATE_FORMAT = TableFormat(
    4, ((0, gender_index), (1, int), (2, int), (3, _rate)), 3,
    lambda f, v: f"duplicate rate row for {f[0]}, age {v[1]}, year {v[2]}",
    "no rate rows after the header",
)


def rate_surface_from_csv(text: str) -> RateSurface:
    """Inverse of rate_surface_to_csv: one row per cell of a dense grid, in any
    order; a malformed or repeated row, and a rate outside [0, 1], is named
    by its line."""
    header = first_line(text)
    if header is None or header.strip() != _RATE_HEADER:
        raise ParseError(f"header must be exactly {_RATE_HEADER}", 1)
    gi, ages, years, values = _RATE_FORMAT.read(partial(line_blocks, text, 1))
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

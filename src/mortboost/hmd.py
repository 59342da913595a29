"""Parsers and writers for HMD 1x1 tables and the cause-of-death CSV schema.

HMD 1x1 layout: two header lines (and, in files as published, a column-name
line starting with "Year", which is tolerated), then whitespace-separated
rows Year Age Female Male Total. "." marks a missing value; a trailing "+"
marks the open age interval.

Cause-of-death interchange CSV: header exactly gender,age_group,year,cause,deaths
with age-group indices 1..n of an n-bucket scheme, the cause as a 1-based
registry index or a case-insensitive label, and an empty deaths field meaning
MISSING (which is distinct from 0). Cells never mentioned in the file are
MISSING too.

Both parsers read the text through grids.TableFormat a block of rows at a
time, converting each column once per distinct token of a block, and name
the first malformed row by its line; both writers build their text a block
of rows at a time (grids.block_text).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice

import numpy as np

from .grids import (
    GENDERS,
    MAX_GRID_CELLS,
    TINY,
    AgeBucketing,
    FeatureSpace,
    Fields,
    MortalityTable,
    ParseError,
    TableFormat,
    block_text,
    comma_fields,
    first_line,
    frozen,
    grid_csv,
    kept_row,
    line_blocks,
    list_fields,
    newline_rows,
    row_blocks,
)

DEFAULT_CAUSES = (
    "infectious diseases",
    "malignant tumors",
    "diabetes mellitus",
    "dementia",
    "circulatory system",
    "respiratory organs",
    "alcoholic liver cirrhosis",
    "urinary organs",
    "congenital malformation",
    "perinatal causes",
    "accidents and violent impacts",
    "others/unknown",
)


def generic_causes(n: int) -> tuple[str, ...]:
    """The labels "cause 1" .. "cause n" of n causes known by count only."""
    return tuple(f"cause {k + 1}" for k in range(n))


_NAN = float("nan")


def read_key_values(text: str) -> dict[str, tuple[str, int]]:
    """The `key = value` lines of a config or spec file, as key -> (value, line).

    '#' starts a comment; blank lines are skipped. A line without '=' and a
    key given twice are errors.
    """
    entries: dict[str, tuple[str, int]] = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key = value, got {raw!r}", ln_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", ln_no)
        entries[key] = (value, ln_no)
    return entries


def parse_range(token: str, name: str) -> tuple[int, int]:
    """An integer range LO:HI given for `name`."""
    try:
        lo, hi = token.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ParseError(f"{name} expects LO:HI, got {token!r}") from None


def _hmd_value(token: str) -> float:
    return _NAN if token == "." else float(token)


def _hmd_age(token: str) -> int:
    return int(token[:-1]) if token.endswith("+") else int(token)


def _non_negative(value: float) -> float:
    if value < 0:
        raise ValueError(f"negative value {value}")
    return value


def _is_data_row(tokens: list[str]) -> bool:
    """Not blank and not the column-name line of published files."""
    return bool(tokens) and tokens[0].lower() != "year"


def _hmd_rows(block: str) -> list[list[str]]:
    return list(map(str.split, block.splitlines()))


def _hmd_format(open_ages: set[int]) -> TableFormat:
    """Year Age Female Male Total; all three values are converted before any
    is checked for a negative. Each age read with the "+" marker is added to
    open_ages."""

    def age(token: str) -> int:
        value = _hmd_age(token)
        if token.endswith("+"):
            open_ages.add(value)
        return value

    return TableFormat(
        5,
        ((0, int), (1, age), (2, _hmd_value), (3, _hmd_value), (4, _hmd_value),
         (2, _non_negative), (3, _non_negative), (4, _non_negative)),
        2, lambda f, v: f"duplicate entry for age {f[1]}, year {v[0]}", "no data rows found",
    )


@dataclass(frozen=True)
class HmdGrid:
    """One parsed HMD 1x1 file: per-gender (age, year) grids, NaN = missing."""

    kind: str  # "deaths" or "exposures"
    ages: np.ndarray
    years: np.ndarray
    female: np.ndarray  # (n_ages, n_years)
    male: np.ndarray
    total: np.ndarray
    open_age: int | None = None  # age that carried the "+" marker

    def gender_grid(self, gender: str) -> np.ndarray:
        return {"female": self.female, "male": self.male}[gender]


def parse_hmd_1x1(text: str, kind: str) -> HmdGrid:
    """Parse an HMD 1x1 deaths or exposures file into dense per-gender grids."""
    if kind not in ("deaths", "exposures"):
        raise ValueError(f"kind must be 'deaths' or 'exposures', got {kind!r}")
    open_ages: set[int] = set()
    years, ages, *values = _hmd_format(open_ages).read(
        partial(line_blocks, text, 2, _hmd_rows), _is_data_row, list_fields  # past the two-line header
    )
    # dense grids from the distinct (age, year) rows; cells without a row are NaN
    age_values, ai = np.unique(ages, return_inverse=True)
    year_values, ti = np.unique(years, return_inverse=True)
    grids = np.full((3, age_values.size, year_values.size), np.nan)
    grids[:, ai, ti] = values
    open_age = max(open_ages) if open_ages else None
    return HmdGrid(kind, age_values, year_values, *grids, open_age)


def _hmd_text(value: float) -> str:
    return "." if value != value else repr(value)  # NaN is missing


def write_hmd_1x1(grid: HmdGrid) -> str:
    """Serialize a grid back to the 1x1 layout (full-precision values)."""
    head = [
        f"Synthetic, {grid.kind.capitalize()} (period 1x1)",
        "",
        "  Year          Age             Female            Male           Total",
    ]
    age_tok = [
        f"{a}+" if grid.open_age is not None and a == grid.open_age else str(a)
        for a in grid.ages.tolist()
    ]
    keys = (f"  {t}  {a}" for t in grid.years.tolist() for a in age_tok)
    # the value columns are year-major
    fields = [Fields(np.asarray(v, dtype=np.float64).T, _hmd_text) for v in (grid.female, grid.male, grid.total)]
    return block_text(head, keys, fields, "  ")


class GridError(ValueError):
    """A fault of one input grid (an age or year it lacks, a value out of
    range); `kind` is that grid's kind."""

    def __init__(self, grid: HmdGrid, message: str):
        self.kind = grid.kind
        super().__init__(message)


_SHOWN_MISSING = 10


def _lacking(present: np.ndarray, lo: int, hi: int, name: str) -> str:
    """What the ascending, distinct present lacks of the requested name
    (ages or years) lo..hi: '' when nothing, else the missing values, cut to
    their count and the first _SHOWN_MISSING for a long list. lo..hi is
    never built, so a huge range costs no memory."""
    inside = present[np.searchsorted(present, lo) : np.searchsorted(present, hi, side="right")].tolist()
    first: list[int] = []
    expected = lo
    for value in inside + [hi + 1]:
        first += range(expected, min(value, expected + _SHOWN_MISSING - len(first)))
        expected = value + 1
    n = hi - lo + 1 - len(inside)
    if n > _SHOWN_MISSING:
        return f"{n} requested {name}; the first {_SHOWN_MISSING}: {first}"
    return f"requested {name}: {first}" if n else ""


def clip_to_space(
    deaths: HmdGrid | None,
    exposures: HmdGrid,
    space: FeatureSpace,
    pool_top_age: bool,
) -> tuple[MortalityTable, list[str]]:
    """Cut per-gender grids down to a feature space, optionally pooling all
    ages >= age_max into the top row, and the warnings of the cut; deaths are
    rounded to integers, and are all 0 when no deaths grid is given (an
    exposure-only caller). The grids' ages and years ascend, as
    parse_hmd_1x1 gives them. A requested age or year that a grid lacks, a
    non-finite exposure (a pooled sum that overflows too), a positive
    exposure below the smallest normal float and a death count beyond 64
    bits raise GridError."""
    if (deaths is not None and deaths.kind != "deaths") or exposures.kind != "exposures":
        raise ValueError("pass the deaths grid first and the exposures grid second")
    for grid in [exposures] if deaths is None else [deaths, exposures]:
        for name, lo, hi, present in (
            ("years", space.year_min, space.year_max, grid.years),
            ("ages", space.age_min, space.age_max, grid.ages),
        ):
            lacks = _lacking(present, lo, hi, name)
            if lacks:
                raise GridError(grid, f"{grid.kind} file lacks {lacks}")
    # every requested age and year is in the grids, so these are no larger
    ages, years = space.ages(), space.years()
    warnings: list[str] = []

    def cut(grid: HmdGrid, gender: str) -> np.ndarray:
        src = grid.gender_grid(gender)
        cols = np.searchsorted(grid.years, years)
        out = src[np.ix_(np.searchsorted(grid.ages, ages), cols)]
        # NaN (missing) counts as 0; an infinite value stays for the checks below
        if pool_top_age:
            # a running sum in age order; + 0.0 as from a 0.0 start (no -0.0);
            # a sum that overflows is inf, which the checks below reject
            top = src[grid.ages >= space.age_max][:, cols]
            with np.errstate(over="ignore"):
                out[-1] = np.add.accumulate(np.where(np.isnan(top), 0.0, top))[-1] + 0.0
        n_missing = int(np.isnan(out).sum())
        if n_missing:
            warnings.append(f"{grid.kind}/{gender}: {n_missing} missing cells treated as zero")
            out = np.where(np.isnan(out), 0.0, out)
        return out

    E = np.stack([cut(exposures, g) for g in GENDERS])
    D_raw = np.zeros_like(E) if deaths is None else np.stack([cut(deaths, g) for g in GENDERS])
    orphan = (E == 0) & (D_raw > 0)
    if np.any(orphan):
        warnings.append(f"{int(orphan.sum())} cells had deaths with zero exposure; deaths zeroed")
        D_raw = np.where(orphan, 0.0, D_raw)
    for grid, values, bad, fault in (
        (exposures, E, ~np.isfinite(E), "exposure {!r} at ({}, {}, {}) is not finite"),
        (exposures, E, (E > 0) & (E < TINY),
         f"exposure {{!r}} at ({{}}, {{}}, {{}}) is below the smallest normal float {TINY!r}"),
        (deaths, D_raw, D_raw >= 2.0**63, "deaths {!r} at ({}, {}, {}) do not fit a 64-bit count"),
    ):
        hit = np.argwhere(bad)
        if hit.size:
            i = tuple(hit[0])
            raise GridError(grid, fault.format(float(values[i]), *space.cell(*i)))
    D = np.rint(D_raw)
    delta = np.abs(D - D_raw)
    n_rounded = int((delta > 0).sum())
    if n_rounded:
        warnings.append(
            f"deaths: {n_rounded} cell{'s' if n_rounded > 1 else ''} rounded to a "
            f"whole count, largest change {float(delta.max()):.3g}"
        )
    return MortalityTable(space, E, D.astype(np.int64)), warnings


@dataclass(frozen=True)
class CauseDeathTable:
    """Cause-split death counts over (gender, age bucket, year, cause)."""

    causes: tuple[str, ...]
    n_buckets: int
    year_min: int
    year_max: int
    counts: np.ndarray  # (2, I, T, K) int64; 0 in missing cells
    missing: np.ndarray  # bool, same shape
    bucketing: AgeBucketing | None = None

    def __post_init__(self):
        if len(self.causes) < 1:
            raise ValueError("need at least one cause")
        shape = (len(GENDERS), self.n_buckets, self.n_years, len(self.causes))
        object.__setattr__(self, "counts", frozen(self.counts, np.int64, "counts", shape))
        object.__setattr__(self, "missing", frozen(self.missing, bool, "missing", shape))
        object.__setattr__(self, "causes", tuple(self.causes))
        if np.any(self.counts < 0):
            raise ValueError("negative death count")
        if np.any(self.counts[self.missing] != 0):
            raise ValueError("missing cells must carry count 0")

    @property
    def n_years(self) -> int:
        return self.year_max - self.year_min + 1

    @property
    def n_causes(self) -> int:
        return len(self.causes)

    def cell(self, g: int, b: int, t: int, k: int) -> tuple[str, int, int, str]:
        """The (gender, 1-based age group, year, cause) of the cell at index (g, b, t, k)."""
        return GENDERS[g], int(b) + 1, self.year_min + int(t), self.causes[k]

    def axes(self) -> tuple:
        """The labels of the grid's axes in its CSV files: gender, 1-based
        age group, year and 1-based cause index."""
        buckets, causes = range(1, self.n_buckets + 1), range(1, self.n_causes + 1)
        return GENDERS, buckets, range(self.year_min, self.year_max + 1), causes

    def all_cause_counts(self) -> np.ndarray:
        """(2, I, T) sums over causes with available data."""
        return self.counts.sum(axis=3)


_COD_HEADER = ["gender", "age_group", "year", "cause", "deaths"]


def _cod_gender(tok: str) -> int:
    if tok.lower() not in GENDERS:
        raise ValueError(f"unknown gender {tok!r}")
    return GENDERS.index(tok.lower())


def _cod_deaths(tok: str) -> int:
    """The count, or -1 for an empty (MISSING) field."""
    if tok == "":
        return -1
    try:
        count = int(tok)
    except ValueError:
        raise ValueError(f"deaths must be an integer or empty, got {tok!r}") from None
    if count < 0:
        raise ValueError(f"negative death count {count}")
    if count >= 2**63:
        raise ValueError(f"death count {count} does not fit a 64-bit count")
    return count


def cause_index(causes: tuple[str, ...]) -> dict[str, int]:
    """Each cause's index by its lower-case label; two labels that are equal
    without regard to case raise ValueError."""
    index: dict[str, int] = {}
    for k, label in enumerate(causes):
        first = index.setdefault(label.lower(), k)
        if first != k:
            raise ValueError(f"cause labels {causes[first]!r} and {label!r} are equal without regard to case")
    return index


def _cod_format(n_buckets: int, causes: tuple[str, ...]) -> TableFormat:
    """The cause CSV's columns (gender, bucket, year, cause, count or -1),
    checked in field order except that the year is converted before the
    bucket is range-checked; every field is stripped first."""
    label_of = cause_index(causes)

    def bucket(b: int) -> int:
        if not 1 <= b <= n_buckets:
            raise ValueError(f"age_group must be an index in 1..{n_buckets}, got {b}")
        return b

    def cause(tok: str) -> int:
        if tok.lower() in label_of:
            return label_of[tok.lower()]
        try:
            k = int(tok) - 1
        except ValueError:
            raise ValueError(f"unknown cause {tok!r}") from None
        if not 0 <= k < len(causes):
            raise ValueError(f"cause index {tok} outside registry 1..{len(causes)}")
        return k

    return TableFormat(
        5,
        tuple((f, str.strip) for f in range(5))
        + ((0, _cod_gender), (1, int), (2, int), (1, bucket), (3, cause), (4, _cod_deaths)),
        4, lambda f, v: f"duplicate entry for ({f[0].strip()},{v[1]},{v[2]},{causes[v[3]]})",
        "no data rows found",
    )


def _csv_rows(text: str):
    """(row, the line it starts on) of the csv module's reading of text,
    blank rows included: a quoted field may hold newlines. A row that the
    module cannot split raises ParseError naming its line."""
    reader = csv.reader(io.StringIO(text))
    start = 1
    try:
        for row in reader:
            yield row, start
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over the module's size limit
        raise ParseError(str(exc), start) from None


def _csv_blocks(text: str):
    """The blocks of the csv module's rows of text past the header."""
    return row_blocks(islice(_csv_rows(text), 1, None))


def _is_csv_data_row(row: list[str]) -> bool:
    """Not a blank row: the csv module gives [] for an empty line."""
    return len(row) > 1 or bool(row and row[0].strip())


def parse_cod_csv(text: str, n_buckets: int, causes: tuple[str, ...] = DEFAULT_CAUSES) -> CauseDeathTable:
    """Parse the cause-of-death CSV into a dense table of n_buckets age
    groups, the causes and the years its rows span; unmentioned cells are
    MISSING. A table whose dense grid would hold more than MAX_GRID_CELLS
    cells is rejected naming the row that widens it past the limit."""
    # the csv module only for what a split at newlines and commas reads differently
    if '"' in text or "\r" in text or "\0" in text:
        header = next(_csv_rows(text), (None,))[0]
        blocks = partial(_csv_blocks, text)
        keep, fields = _is_csv_data_row, list_fields
    else:
        line = first_line(text, newline_rows)
        header = None if line is None else line.split(",")
        blocks = partial(line_blocks, text, 1, newline_rows)
        keep, fields = str.strip, comma_fields
    if header is None:
        raise ParseError("empty file")
    if [h.strip() for h in header] != _COD_HEADER:
        raise ParseError("header must be exactly gender,age_group,year,cause,deaths", 1)
    gi, bucket, year, k, count = _cod_format(n_buckets, tuple(causes)).read(blocks, keep, fields)
    year_min, year_max = int(year.min()), int(year.max())
    shape = (len(GENDERS), n_buckets, year_max - year_min + 1, len(causes))
    if math.prod(shape) > MAX_GRID_CELLS:
        # the first row whose years so far span too many cells, in Python integers
        year = year.astype(object)
        span = np.maximum.accumulate(year) - np.minimum.accumulate(year) + 1
        cells = len(GENDERS) * n_buckets * span * len(causes)
        first = int(np.flatnonzero(cells > MAX_GRID_CELLS)[0])
        message = f"a cause grid of {cells[first]} cells is above the limit of {MAX_GRID_CELLS}"
        raise ParseError(message, kept_row(blocks, keep, first)[1])
    # each row's flat cell, built in place of its gender column: the columns
    # are the table's size
    cell = gi
    cell *= n_buckets
    cell += bucket
    cell -= 1
    cell *= shape[2]
    year -= year_min
    cell += np.asarray(year, dtype=np.intp)  # a cast, for years beyond 64 bits
    cell *= shape[3]
    cell += k
    counts = np.full(math.prod(shape), -1, dtype=np.int64)  # -1: MISSING, as an empty field reads
    counts[cell] = count
    del gi, bucket, year, k, count, cell  # before the table copies its grids
    missing = counts < 0
    counts[missing] = 0
    return CauseDeathTable(
        causes=tuple(causes),
        n_buckets=n_buckets,
        year_min=year_min,
        year_max=year_max,
        counts=counts.reshape(shape),
        missing=missing.reshape(shape),
    )


def _count_text(count: int) -> str:
    return "" if count < 0 else str(count)  # -1 marks a MISSING cell


def write_cod_csv(table: CauseDeathTable) -> str:
    """Full-grid serialization; MISSING cells get an empty deaths field."""
    deaths = Fields(np.where(table.missing, -1, table.counts), _count_text)
    return grid_csv("gender,age_group,year,cause,deaths", table.axes(), deaths)

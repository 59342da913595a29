"""Parsers and writers for HMD 1x1 tables and the cause-of-death CSV schema.

HMD 1x1 layout: two header lines (and, in files as published, a column-name
line starting with "Year", which is tolerated), then whitespace-separated
rows Year Age Female Male Total. "." marks a missing value; a trailing "+"
marks the open age interval.

Cause-of-death interchange CSV: header exactly gender,age_group,year,cause,deaths
with 1-based age-group indices, the cause as a 1-based registry index or a
case-insensitive label, and an empty deaths field meaning MISSING (which is
distinct from 0). Cells never mentioned in the file are MISSING too.

Both parsers split the text once and read it through grids.TableFormat, which
converts every column at once and names the first malformed row by its line.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .grids import (
    GENDERS,
    TINY,
    AgeBucketing,
    FeatureSpace,
    MortalityTable,
    TableFormat,
    comma_fields,
    float_fields,
    frozen,
    grid_csv,
    kept_rows,
    list_fields,
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

_NAN = float("nan")


class ParseError(ValueError):
    """Malformed input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


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


def _five_columns(tokens: list[str]) -> None:
    if len(tokens) != 5:
        raise ValueError(f"expected 5 columns, got {len(tokens)}")


def _is_data_row(tokens: list[str]) -> bool:
    """Not blank and not the column-name line of published files."""
    return bool(tokens) and tokens[0].lower() != "year"


# Year Age Female Male Total; all three values are converted before any is
# checked for a negative
_HMD_FORMAT = TableFormat(
    5, _five_columns,
    ((0, int), (1, _hmd_age), (2, _hmd_value), (3, _hmd_value), (4, _hmd_value),
     (2, _non_negative), (3, _non_negative), (4, _non_negative)),
    2, lambda f, v: f"duplicate entry for age {f[1]}, year {v[0]}", "no data rows found", ParseError,
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
    rows = list(map(str.split, text.splitlines()[2:]))  # past the two-line header
    rows, line_of = kept_rows(rows, _is_data_row, range(3, len(rows) + 3))
    years, ages, *values = _HMD_FORMAT.read(rows, line_of, list_fields)
    is_open = np.fromiter((row[1].endswith("+") for row in rows), bool, len(rows))
    # dense grids from the distinct (age, year) rows; cells without a row are NaN
    age_values, ai = np.unique(ages, return_inverse=True)
    year_values, ti = np.unique(years, return_inverse=True)
    grids = np.full((3, age_values.size, year_values.size), np.nan)
    grids[:, ai, ti] = values
    open_age = int(ages[is_open].max()) if is_open.any() else None
    return HmdGrid(kind, age_values, year_values, *grids, open_age)


def _hmd_field(values) -> list[str]:
    """One value column of the 1x1 layout: year-major, "." for NaN."""
    col = np.asarray(values, dtype=np.float64).T
    out = float_fields(col)
    for i in np.flatnonzero(np.isnan(col.ravel())).tolist():
        out[i] = "."
    return out


def write_hmd_1x1(grid: HmdGrid, title: str | None = None) -> str:
    """Serialize a grid back to the 1x1 layout (full-precision values)."""
    head = [
        title or f"Synthetic, {grid.kind.capitalize()} (period 1x1)",
        "",
        "  Year          Age             Female            Male           Total",
    ]
    age_tok = [
        f"{a}+" if grid.open_age is not None and a == grid.open_age else str(a)
        for a in grid.ages.tolist()
    ]
    keys = [f"  {t}  {a}" for t in grid.years.tolist() for a in age_tok]
    fields = (_hmd_field(grid.female), _hmd_field(grid.male), _hmd_field(grid.total))
    return "\n".join([*head, *map("  ".join, zip(keys, *fields))]) + "\n"


class GridError(ValueError):
    """A fault of one input grid (an age or year it lacks, a value out of
    range); `kind` is that grid's kind."""

    def __init__(self, grid: HmdGrid, message: str):
        self.kind = grid.kind
        super().__init__(message)


@dataclass
class ClipReport:
    warnings: list[str]
    n_rounded: int
    max_rounding_delta: float


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
) -> tuple[MortalityTable, ClipReport]:
    """Cut per-gender grids down to a feature space, optionally pooling all
    ages >= age_max into the top row; deaths are rounded to integers, and are
    all 0 when no deaths grid is given (an exposure-only caller). The grids'
    ages and years ascend, as parse_hmd_1x1 gives them. A requested age or
    year that a grid lacks, a non-finite exposure (a pooled sum that
    overflows too), a positive exposure below the smallest normal float and a
    death count beyond 64 bits raise GridError."""
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
    report = ClipReport(warnings, int((delta > 0).sum()), float(delta.max()) if delta.size else 0.0)
    return MortalityTable(space, E, D.astype(np.int64)), report


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


def _cod_bucket(bucket: int) -> int:
    if bucket < 1:
        raise ValueError(f"age_group must be a 1-based index, got {bucket}")
    return bucket


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
    return count


def _five_fields(fields: list[str]) -> None:
    if len(fields) != 5:
        raise ValueError(f"expected 5 fields, got {len(fields)}")


def _cod_format(causes: tuple[str, ...]) -> TableFormat:
    """The cause CSV's columns (gender, bucket, year, cause, count or -1),
    checked in field order except that the year is converted before the
    bucket is range-checked; every field is stripped first."""
    label_of = {c.lower(): k for k, c in enumerate(causes)}

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
        5, _five_fields,
        tuple((f, str.strip) for f in range(5))
        + ((0, _cod_gender), (1, int), (2, int), (1, _cod_bucket), (3, cause), (4, _cod_deaths)),
        4, lambda f, v: f"duplicate entry for ({f[0].strip()},{v[1]},{v[2]},{causes[v[3]]})",
        "no data rows found", ParseError,
    )


def _csv_rows(text: str) -> tuple[list[list[str]], list[int], ParseError | None]:
    """The rows of the csv module's reading of text, blank rows included, up
    to a row it cannot split; the line each row starts on (a quoted field
    may hold newlines); and the error naming the row it cannot split."""
    reader = csv.reader(io.StringIO(text))
    rows: list[list[str]] = []
    lines: list[int] = []
    start = 1
    try:
        for row in reader:
            rows.append(row)
            lines.append(start)
            start = reader.line_num + 1
    except csv.Error as exc:  # e.g. a field over the module's size limit
        return rows, lines, ParseError(str(exc), start)
    return rows, lines, None


def _is_csv_data_row(row: list[str]) -> bool:
    """Not a blank row: the csv module gives [] for an empty line."""
    return len(row) > 1 or bool(row and row[0].strip())


def parse_cod_csv(
    text: str,
    causes: tuple[str, ...] = DEFAULT_CAUSES,
    bucketing: AgeBucketing | None = None,
) -> CauseDeathTable:
    """Parse the cause-of-death CSV into a dense table; unmentioned cells are MISSING."""
    # the csv module only for what a split at newlines and commas reads differently
    if '"' in text or "\r" in text or "\0" in text:
        rows, lines, stop = _csv_rows(text)
        header = rows[0] if rows else None
        keep, fields = _is_csv_data_row, list_fields
    else:
        rows, stop = text.split("\n") if text else [], None
        lines = range(1, len(rows) + 1)
        header = rows[0].split(",") if rows else None
        keep, fields = str.strip, comma_fields
    if header is None:
        raise stop or ParseError("empty file")
    if [h.strip() for h in header] != _COD_HEADER:
        raise ParseError("header must be exactly gender,age_group,year,cause,deaths", 1)
    gi, bucket, year, k, count = _cod_format(tuple(causes)).read(*kept_rows(rows[1:], keep, lines[1:]), fields, stop)
    n_buckets = int(bucket.max())
    year_min, year_max = int(year.min()), int(year.max())
    shape = (len(GENDERS), n_buckets, year_max - year_min + 1, len(causes))
    counts = np.zeros(shape, dtype=np.int64)
    missing = np.ones(shape, dtype=bool)
    present = count >= 0
    cells = (gi[present], bucket[present] - 1, year[present] - year_min, k[present])
    counts[cells] = count[present]
    missing[cells] = False
    return CauseDeathTable(
        causes=tuple(causes),
        n_buckets=n_buckets,
        year_min=year_min,
        year_max=year_max,
        counts=counts,
        missing=missing,
        bucketing=bucketing,
    )


def write_cod_csv(table: CauseDeathTable) -> str:
    """Full-grid serialization; MISSING cells get an empty deaths field."""
    deaths = [
        "" if m else str(c)
        for c, m in zip(table.counts.ravel().tolist(), table.missing.ravel().tolist())
    ]
    return grid_csv("gender,age_group,year,cause,deaths", table.axes(), deaths)


def cause_total_report(table: CauseDeathTable, all_cause: np.ndarray) -> list[str]:
    """Cross-validate cause sums against an all-cause grid (2, I, T).

    The sum over available causes should not exceed the all-cause count;
    violations are reported, not raised.
    """
    all_cause = np.asarray(all_cause)
    expected_shape = (len(GENDERS), table.n_buckets, table.n_years)
    if all_cause.shape != expected_shape:
        raise ValueError(f"all-cause grid must have shape {expected_shape}")
    partial = table.counts.sum(axis=3)
    report = []
    for gi, b, ti in zip(*np.nonzero(partial > all_cause)):
        report.append(
            f"({GENDERS[gi]}, bucket {b + 1}, {table.year_min + ti}): cause sum "
            f"{int(partial[gi, b, ti])} exceeds all-cause count {int(all_cause[gi, b, ti])}"
        )
    return report

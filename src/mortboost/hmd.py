"""Parsers and writers for HMD 1x1 tables and the cause-of-death CSV schema.

HMD 1x1 layout: two header lines (and, in files as published, a column-name
line starting with "Year", which is tolerated), then whitespace-separated
rows Year Age Female Male Total. "." marks a missing value; a trailing "+"
marks the open age interval.

Cause-of-death interchange CSV: header exactly gender,age_group,year,cause,deaths
with 1-based age-group indices, the cause as a 1-based registry index or a
case-insensitive label, and an empty deaths field meaning MISSING (which is
distinct from 0). Cells never mentioned in the file are MISSING too.

Both parsers read all rows at once; a text that fails that goes through the
shared re-scan, grids.scan_rows, which names the first malformed row.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .grids import GENDERS, AgeBucketing, FeatureSpace, MortalityTable, _any_duplicate, scan_rows

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


def _hmd_data_rows(text: str):
    """(line number, tokens) of every data row: past the two-line header, not
    blank and not the column-name line of published files."""
    for ln_no, raw in enumerate(text.splitlines()[2:], start=3):
        tokens = raw.split()
        if tokens and tokens[0].lower() != "year":
            yield ln_no, tokens


def _hmd_columns(text: str):
    """All data rows tokenised at once into (years, ages, open-age flags,
    female, male, total), or None if any row is malformed, negative or a
    duplicate (the re-scan then reports the first such row)."""
    rows = [tokens for _, tokens in _hmd_data_rows(text)]
    if not rows or any(len(tokens) != 5 for tokens in rows):
        return None
    year_tok, age_tok, *value_tok = zip(*rows)
    try:
        years = np.fromiter(map(int, year_tok), np.int64, len(rows))
        ages = np.fromiter(map(_hmd_age, age_tok), np.int64, len(rows))
        values = np.array([list(map(_hmd_value, col)) for col in value_tok])
    except (ValueError, OverflowError):
        return None
    if np.any(values < 0) or _any_duplicate(ages, years):
        return None
    is_open = np.fromiter((t.endswith("+") for t in age_tok), bool, len(rows))
    return years, ages, is_open, *values


def _hmd_row(tokens: list[str]) -> tuple:
    """(year, age, open-age flag, female, male, total) of one data row; all
    three values are converted before any is checked for a negative."""
    if len(tokens) != 5:
        raise ValueError(f"expected 5 columns, got {len(tokens)}")
    year, age = int(tokens[0]), _hmd_age(tokens[1])
    values = tuple(map(_hmd_value, tokens[2:]))
    for v in values:
        if v < 0:
            raise ValueError(f"negative value {v}")
    return year, age, tokens[1].endswith("+"), *values


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
    columns = _hmd_columns(text)
    if columns is None:
        columns = scan_rows(
            _hmd_data_rows(text), _hmd_row, 2,
            lambda f, v: f"duplicate entry for age {f[1]}, year {v[0]}", "no data rows found", ParseError,
        )
    years, ages, is_open, *values = columns
    # dense grids from the distinct (age, year) rows; cells without a row are NaN
    age_values, ai = np.unique(ages, return_inverse=True)
    year_values, ti = np.unique(years, return_inverse=True)
    grids = np.full((3, age_values.size, year_values.size), np.nan)
    grids[:, ai, ti] = values
    open_age = int(ages[is_open].max()) if is_open.any() else None
    return HmdGrid(kind, age_values, year_values, *grids, open_age)


def float_fields(values) -> list[str]:
    """repr of every value in C order, each distinct bit pattern formatted
    once: fitted and simulated grids repeat few values (a tree's leaf rates,
    a constant exposure), and repr is the cost of a float CSV."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    bits, index = np.unique(flat.view(np.int64), return_inverse=True)
    text = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(text.__getitem__, index.tolist()))


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


@dataclass
class ClipReport:
    warnings: list[str]
    n_rounded: int
    max_rounding_delta: float
    total_rounding_delta: float


def clip_to_space(
    deaths: HmdGrid,
    exposures: HmdGrid,
    space: FeatureSpace,
    pool_top_age: bool,
) -> tuple[MortalityTable, ClipReport]:
    """Cut per-gender grids down to a feature space, optionally pooling all
    ages >= age_max into the top row; deaths are rounded to integers."""
    if deaths.kind != "deaths" or exposures.kind != "exposures":
        raise ValueError("pass the deaths grid first and the exposures grid second")
    report = ClipReport([], 0, 0.0, 0.0)
    requested_years = set(range(space.year_min, space.year_max + 1))
    for grid in (deaths, exposures):
        missing_years = sorted(requested_years - {int(t) for t in grid.years})
        if missing_years:
            raise ValueError(f"{grid.kind} file lacks requested years: {missing_years}")
        missing_ages = sorted(set(range(space.age_min, space.age_max + 1)) - {int(a) for a in grid.ages})
        if missing_ages:
            raise ValueError(f"{grid.kind} file lacks requested ages: {missing_ages}")

    def cut(grid: HmdGrid, gender: str) -> np.ndarray:
        src = grid.gender_grid(gender)
        t_sel = np.isin(grid.years, np.arange(space.year_min, space.year_max + 1))
        out = np.zeros((space.n_ages, space.n_years))
        for ai, a in enumerate(range(space.age_min, space.age_max + 1)):
            row = src[np.nonzero(grid.ages == a)[0][0], t_sel]
            out[ai] = row
        if pool_top_age:
            top = np.zeros(space.n_years)
            for a in grid.ages[grid.ages >= space.age_max]:
                top = top + np.nan_to_num(src[np.nonzero(grid.ages == a)[0][0], t_sel], nan=0.0)
            out[-1] = top
        nan_cells = np.nonzero(np.isnan(out))
        if nan_cells[0].size:
            report.warnings.append(
                f"{grid.kind}/{gender}: {nan_cells[0].size} missing cells treated as zero"
            )
            out = np.nan_to_num(out, nan=0.0)
        return out

    E = np.stack([cut(exposures, g) for g in GENDERS])
    D_raw = np.stack([cut(deaths, g) for g in GENDERS])
    orphan = (E == 0) & (D_raw > 0)
    if np.any(orphan):
        report.warnings.append(
            f"{int(orphan.sum())} cells had deaths with zero exposure; deaths zeroed"
        )
        D_raw = np.where(orphan, 0.0, D_raw)
    D = np.rint(D_raw)
    delta = np.abs(D - D_raw)
    report.n_rounded = int((delta > 0).sum())
    report.max_rounding_delta = float(delta.max()) if delta.size else 0.0
    report.total_rounding_delta = float(delta.sum())
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
        counts = np.asarray(self.counts, dtype=np.int64)
        missing = np.asarray(self.missing, dtype=bool)
        if counts.shape != shape or missing.shape != shape:
            raise ValueError(f"counts/missing must have shape {shape}")
        if np.any(counts < 0):
            raise ValueError("negative death count")
        if np.any(counts[missing] != 0):
            raise ValueError("missing cells must carry count 0")
        counts = np.array(counts)
        counts.setflags(write=False)
        missing = np.array(missing)
        missing.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "missing", missing)
        object.__setattr__(self, "causes", tuple(self.causes))

    @property
    def n_years(self) -> int:
        return self.year_max - self.year_min + 1

    @property
    def n_causes(self) -> int:
        return len(self.causes)

    def all_cause_counts(self) -> np.ndarray:
        """(2, I, T) sums over causes with available data."""
        return self.counts.sum(axis=3)


_COD_HEADER = ["gender", "age_group", "year", "cause", "deaths"]


class _CodFields:
    """Converters of the stripped fields of one cause-of-death CSV row; each
    raises ValueError with the message a ParseError carries."""

    def __init__(self, causes: tuple[str, ...]):
        self.causes = causes
        self.label_of = {c.lower(): k for k, c in enumerate(causes)}

    @staticmethod
    def gender(tok: str) -> int:
        if tok.lower() not in GENDERS:
            raise ValueError(f"unknown gender {tok!r}")
        return GENDERS.index(tok.lower())

    @staticmethod
    def bucket(bucket: int) -> int:
        if bucket < 1:
            raise ValueError(f"age_group must be a 1-based index, got {bucket}")
        return bucket

    def cause(self, tok: str) -> int:
        if tok.lower() in self.label_of:
            return self.label_of[tok.lower()]
        try:
            k = int(tok) - 1
        except ValueError:
            raise ValueError(f"unknown cause {tok!r}") from None
        if not 0 <= k < len(self.causes):
            raise ValueError(f"cause index {tok} outside registry 1..{len(self.causes)}")
        return k

    @staticmethod
    def deaths(tok: str) -> int:
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

    def row(self, fields: list[str]) -> tuple[int, int, int, int, int]:
        """(gender, bucket, year, cause, count or -1), checked in field order
        except that the year is converted before the bucket is range-checked."""
        if len(fields) != 5:
            raise ValueError(f"expected 5 fields, got {len(fields)}")
        g_tok, bucket_tok, year_tok, cause_tok, deaths_tok = (f.strip() for f in fields)
        gi = self.gender(g_tok)
        bucket, year = int(bucket_tok), int(year_tok)
        return gi, self.bucket(bucket), year, self.cause(cause_tok), self.deaths(deaths_tok)

    def duplicate(self, fields: list[str], row: tuple) -> str:
        return f"duplicate entry for ({fields[0].strip()},{row[1]},{row[2]},{self.causes[row[3]]})"


def _map_distinct(convert, tokens) -> np.ndarray:
    """convert(token.strip()) for every token, computed once per distinct token."""
    value_of = {tok: convert(tok.strip()) for tok in set(tokens)}
    return np.fromiter(map(value_of.__getitem__, tokens), np.int64, len(tokens))


def _cod_columns(text: str, fields: _CodFields):
    """All data rows split at once into (gender, bucket, year, cause, count)
    columns, count -1 for MISSING, or None if the text needs the csv module
    (quotes, carriage returns, NUL) or any row is malformed or a duplicate
    (the re-scan then reports the first such row)."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    header, *lines = text.split("\n")
    if [h.strip() for h in header.split(",")] != _COD_HEADER:
        return None
    lines = [ln for ln in lines if ln.strip()]  # the csv module skips blank lines
    if not lines or set(map(str.count, lines, repeat(","))) != {4}:
        return None
    tokens = ",".join(lines).split(",")
    g_tok, bucket_tok, year_tok, cause_tok, deaths_tok = (tokens[i::5] for i in range(5))
    try:
        columns = (
            _map_distinct(fields.gender, g_tok),
            _map_distinct(lambda t: fields.bucket(int(t)), bucket_tok),
            _map_distinct(int, year_tok),
            _map_distinct(fields.cause, cause_tok),
            _map_distinct(fields.deaths, deaths_tok),
        )
    except (ValueError, OverflowError):
        return None
    if _any_duplicate(*columns[:4]):
        return None
    return columns


def _cod_rows(text: str):
    """(row number, fields) of every non-blank csv row after the header; the
    header is checked when the first row is asked for."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ParseError("empty file")
    if [h.strip() for h in header] != _COD_HEADER:
        raise ParseError("header must be exactly gender,age_group,year,cause,deaths", 1)
    for ln_no, row in enumerate(reader, start=2):
        if row and (len(row) > 1 or row[0].strip()):
            yield ln_no, row


def parse_cod_csv(
    text: str,
    causes: tuple[str, ...] = DEFAULT_CAUSES,
    bucketing: AgeBucketing | None = None,
) -> CauseDeathTable:
    """Parse the cause-of-death CSV into a dense table; unmentioned cells are MISSING."""
    fields = _CodFields(tuple(causes))
    columns = _cod_columns(text, fields)
    if columns is None:
        columns = scan_rows(_cod_rows(text), fields.row, 4, fields.duplicate, "no data rows found", ParseError)
    gi, bucket, year, k, count = columns
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


def cod_grid_csv(header: str, table: CauseDeathTable, *columns: list[str]) -> str:
    """CSV text with one row per (gender, age group, year, cause) cell of the
    table, in storage order: the four key fields, then one already formatted
    field from each column (each in the same order)."""
    outer = [f"{g},{b}," for g in GENDERS for b in range(1, table.n_buckets + 1)]
    inner = [
        f"{t},{k}"
        for t in range(table.year_min, table.year_max + 1)
        for k in range(1, table.n_causes + 1)
    ]
    keys = [o + i for o in outer for i in inner]
    for col in columns:
        if len(col) != len(keys):
            raise ValueError(f"column of {len(col)} fields for {len(keys)} cells")
    return "\n".join([header, *map(",".join, zip(keys, *columns))]) + "\n"


def write_cod_csv(table: CauseDeathTable) -> str:
    """Full-grid serialization; MISSING cells get an empty deaths field."""
    deaths = [
        "" if m else str(c)
        for c, m in zip(table.counts.ravel().tolist(), table.missing.ravel().tolist())
    ]
    return cod_grid_csv("gender,age_group,year,cause,deaths", table, deaths)


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

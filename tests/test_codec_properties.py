"""Property tests for the text codecs: the rate CSV, the LC/RH parameter CSV,
the HMD 1x1 table, the cause-of-death CSV and the tree text.

Every valid object round-trips unchanged through write and read; truncated
or mutated text gives either a result or ValueError, never another exception.
The rate CSV, parameter CSV, HMD and cause-of-death parsers each read a text
through the shared column reader (grids.TableFormat), a block of rows at a
time. Each parser and its per-row reference parser must agree on every
text: the same result, or the same exception type with the same text, which
pins each table's check order within a row. The damaged-text properties
also draw the reader's block size (1 to 20 rows), so that a bad row falls
at a block's edge; the block-boundary tests put each kind of bad row there.
"""

import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from conftest import random_working_data
from mortboost import DEFAULT_CAUSES, FeatureSpace, PoissonTree, RateSurface, TreeConfig, grids, grow_tree, hmd
from mortboost.grids import rate_surface_from_csv, rate_surface_to_csv
from mortboost.leecarter import _KIND_AXIS, LCParams, params_from_csv, params_to_csv
from mortboost.renshawhaberman import RHParams

# characters that make up the formats, plus any character at all
SYMBOLS = st.sampled_from(list(",\n\r .-+e0123456789fmalenif")) | st.characters()

spaces = st.builds(
    lambda a0, na, t0, nt: FeatureSpace(a0, a0 + na - 1, t0, t0 + nt - 1),
    st.integers(0, 110),
    st.integers(1, 4),
    st.integers(1800, 2100),
    st.integers(1, 4),
)


@st.composite
def rate_surfaces(draw):
    space = draw(spaces)
    # a subnormal rate is rejected on reading
    rates = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=space.size, max_size=space.size))
    return RateSurface(space, np.reshape(rates, space.shape))


@st.composite
def param_sets(draw, make):
    space = draw(spaces)
    genders = draw(st.sampled_from([("female",), ("male",), ("female", "male")]))
    size = {"age": space.n_ages, "year": space.n_years, "cohort": space.n_cohorts}
    out = {}
    for g in genders:
        vecs = {
            kind: np.array(
                draw(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False),
                        min_size=size[_KIND_AXIS[kind]],
                        max_size=size[_KIND_AXIS[kind]],
                    )
                )
            )
            for kind in make.kinds()
        }
        out[g] = make(
            gender=g,
            age_min=space.age_min,
            year_min=space.year_min,
            **vecs,
            rate_floor=1e-8,
            converged=True,
            n_iterations=0,
            deviance_trace=np.array([np.nan]),
            flags=[],
        )
    return out


def damage(data, text: str, symbols=SYMBOLS) -> str:
    """One truncation (at a character or a line end), character replacement,
    insertion or dropped line."""
    how = data.draw(st.sampled_from(["truncate", "keep lines", "replace", "insert", "drop line"]))
    lines = text.splitlines(keepends=True)
    if how == "keep lines":
        return "".join(lines[: data.draw(st.integers(0, len(lines)))])
    if how == "drop line":
        i = data.draw(st.integers(0, len(lines) - 1))
        return "".join(lines[:i] + lines[i + 1:])
    i = data.draw(st.integers(0, len(text)))
    if how == "truncate":
        return text[:i]
    ch = data.draw(symbols)
    return text[:i] + ch + text[i + (how == "replace"):]


def reads_or_rejects(reader, text: str) -> None:
    try:
        reader(text)
    except ValueError:
        pass


def same_params(back, fits) -> bool:
    return list(back) == list(fits) and all(
        (back[g].age_min, back[g].year_min) == (p.age_min, p.year_min)
        and all(same_bits(getattr(back[g], kind), getattr(p, kind)) for kind in p.kinds())
        for g, p in fits.items()
    )


def same_bits(a, b) -> bool:
    """Equal arrays, NaN equal to NaN and -0.0 distinct from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        np.where(np.isnan(a), np.nan, a).view(np.int64), np.where(np.isnan(b), np.nan, b).view(np.int64)
    )


def outcome(parse, text):
    """The parsed object, or the type and text of the exception raised."""
    try:
        return parse(text)
    except Exception as exc:  # the reference may raise anything; compare it
        return (type(exc), str(exc))


# the rows that TableFormat.read splits at once: as the package sets it, or small
READ_ROWS = st.none() | st.integers(1, 20)


def check_same(read, oracle, same, text: str, read_rows: int | None = None) -> None:
    """The package reader, reading read_rows rows at a time if given, and its
    per-row oracle give results that same() finds equal, or raise the same
    exception type with the same text."""
    with mock.patch.object(grids, "_READ_ROWS", read_rows or grids._READ_ROWS):
        got = outcome(read, text)
    want = outcome(oracle, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same(got, want)


def same_rate(a: RateSurface, b: RateSurface) -> bool:
    return a.space == b.space and same_bits(a.rate, b.rate)


RATE = (rate_surface_from_csv, ref.rate_surface_from_csv, same_rate)


def params_readers(make):
    """params_from_csv for one model, its oracle and their comparison."""
    return (
        partial(params_from_csv, model=make),
        partial(ref.read_params_csv, kinds=make.kinds(), make=make),
        same_params,
    )


RATE_HEAD = "gender,age,year,rate\n"


class TestRateCsv:
    @pytest.mark.parametrize(
        "rows",
        [
            "female,0,2000,0.5\nmale,0,2000,0.25\n",
            "male,0,2000,0.25\n\n  \nfemale,0,2000,1_0e-1\r\n",
            " female,0,2000,0.5\nmale,0,2000,0.25\n",
            "female, 0 ,2000, 0.5 \nmale,0,2000,0.25\n",
            "female,0,2000,0.5\nfemale,0,2000,0.5\nmale,0,2000,0.25\n",
            "female,0,2000,0.5\nmale,0,2000\n",
            "female,0,2000,0.5,1\nmale,0,2000,0.25\n",
            "female,0,2000,0.5\nmale,1,2000,0.25\n",
            "female,-1,2000,0.5\nmale,-1,2000,0.25\n",
            "female,0,2000,1.5\nmale,0,2000,0.25\n",
            "female,0,99999999999999999999,0.5\nmale,0,99999999999999999999,0.25\n",
            "female,0,-1,0.5\nmale,0,9223372036854775809,0.25\n",
            "female,0,2000,nan\nmale,0,2000,0.25\n",
            "female,0,2000,5e-324\nmale,0,2000,0.25\n",
            "female,0,2000,2.2250738585072014e-308\nmale,0,2000,-0.0\n",
            "",
        ],
    )
    def test_examples_same_grid_or_same_error(self, rows):
        check_same(*RATE, RATE_HEAD + rows)

    @given(rate_surfaces())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, q):
        text = rate_surface_to_csv(q)
        back = rate_surface_from_csv(text)
        assert back.space == q.space
        assert np.array_equal(back.rate, q.rate)

    @given(rate_surfaces(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_reads_or_raises_value_error(self, q, data):
        check_same(*RATE, damage(data, rate_surface_to_csv(q)), data.draw(READ_ROWS))

    @given(rate_surfaces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, q, data):
        lines = rate_surface_to_csv(q).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_same(*RATE, "".join(lines[: i + 1] + lines[i:]), data.draw(READ_ROWS))


PARAMS_HEAD = "gender,kind,index,value\n"
LC_ROWS = "female,beta0,0,-5.0\nfemale,beta1,0,1.0\nfemale,kappa,2000,0.0\n"


class TestParamsCsv:
    @pytest.mark.parametrize(
        "rows",
        [
            LC_ROWS,
            "\n  \n" + LC_ROWS.replace("female", "male") + LC_ROWS,
            LC_ROWS.replace("female,beta1", "foo,beta1"),
            "Female,beta0,0,-5.0\n",
            "foo,beta0,x,-5.0\n",
            "foo,beta0,0,y\n",
            "female,beta0,x,y\n",
            "female,beta0,0\n",
            "female,beta0,0,-5.0,1\n",
            LC_ROWS + "female,beta0,0,-9.0\n",
            LC_ROWS + "female,beta0\x00,0,-9.0\n",
            LC_ROWS + "female,gamma,0,1.0\n",
            LC_ROWS + "female,beta0,2,-9.0\n",
            "female,beta0,9223372036854775809,-5.0\nfemale,beta0,-1,-5.0\n"
            "female,beta1,0,1.0\nfemale,kappa,2000,0.0\n",
            "male,beta0,0,-5.0\n" + LC_ROWS,
            "female,beta0,0,nan\nfemale,beta1,0,-0.0\nfemale,kappa,2000,inf\n",
            "",
        ],
    )
    def test_examples_same_params_or_same_error(self, rows):
        check_same(*params_readers(LCParams), PARAMS_HEAD + rows)

    @given(param_sets(LCParams))
    @settings(max_examples=100, deadline=None)
    def test_lc_round_trip(self, fits):
        assert same_params(params_from_csv(params_to_csv(fits)), fits)

    @given(param_sets(RHParams))
    @settings(max_examples=100, deadline=None)
    def test_rh_round_trip(self, fits):
        assert same_params(params_from_csv(params_to_csv(fits), RHParams), fits)

    @given(param_sets(LCParams), st.data())
    @settings(max_examples=300, deadline=None)
    def test_lc_damaged_text_reads_or_raises_value_error(self, fits, data):
        check_same(*params_readers(LCParams), damage(data, params_to_csv(fits)), data.draw(READ_ROWS))

    @given(param_sets(RHParams), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rh_damaged_text_reads_or_raises_value_error(self, fits, data):
        check_same(*params_readers(RHParams), damage(data, params_to_csv(fits)), data.draw(READ_ROWS))


# --- HMD 1x1 and cause-of-death CSV ----------------------------------------

HMD_VALUES = st.floats(min_value=0.0) | st.sampled_from([np.nan, -0.0, 1e-300])
COD_CAUSES = ("infectious diseases", "Dementia", "others/unknown", "cause 4")


def distinct_ints(lo, hi, max_size=4):
    return st.lists(st.integers(lo, hi), min_size=1, max_size=max_size, unique=True).map(sorted)


@st.composite
def hmd_grids(draw):
    ages = np.array(draw(distinct_ints(0, 120)))
    years = np.array(draw(distinct_ints(1750, 2100)))
    shape = (ages.size, years.size)
    female, male, total = (
        np.reshape(draw(st.lists(HMD_VALUES, min_size=ages.size * years.size,
                                 max_size=ages.size * years.size)), shape)
        for _ in range(3)
    )
    open_age = draw(st.none() | st.just(int(ages[-1])))
    kind = draw(st.sampled_from(["deaths", "exposures"]))
    return hmd.HmdGrid(kind, ages, years, female, male, total, open_age)


@st.composite
def cause_tables(draw):
    n_buckets = draw(st.integers(1, 3))
    year_min = draw(st.integers(1750, 2100))
    n_years = draw(st.integers(1, 3))
    n_causes = draw(st.integers(1, len(COD_CAUSES)))
    shape = (2, n_buckets, n_years, n_causes)
    size = int(np.prod(shape))
    counts = np.reshape(draw(st.lists(st.integers(0, 2**40), min_size=size, max_size=size)), shape)
    missing = np.reshape(draw(st.lists(st.booleans(), min_size=size, max_size=size)), shape)
    return hmd.CauseDeathTable(
        COD_CAUSES[:n_causes], n_buckets, year_min, year_min + n_years - 1,
        np.where(missing, 0, counts), missing,
    )


def with_labels(text: str, causes) -> str:
    """The cause field of every odd-numbered cause as its upper-case label."""
    head, *rows = text.splitlines(keepends=True)
    out = [head]
    for row in rows:
        g, b, t, k, d = row.split(",")
        out.append(",".join([g, b, t, causes[int(k) - 1].upper() if int(k) % 2 else k, d]))
    return "".join(out)


def same_hmd(a: hmd.HmdGrid, b: hmd.HmdGrid) -> bool:
    return (
        a.kind == b.kind
        and np.array_equal(a.ages, b.ages)
        and np.array_equal(a.years, b.years)
        and a.open_age == b.open_age
        and all(same_bits(getattr(a, c), getattr(b, c)) for c in ("female", "male", "total"))
    )


def same_cod(a: hmd.CauseDeathTable, b: hmd.CauseDeathTable) -> bool:
    return (
        (a.causes, a.n_buckets, a.year_min, a.year_max) == (b.causes, b.n_buckets, b.year_min, b.year_max)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.missing, b.missing)
    )


HMD = (partial(hmd.parse_hmd_1x1, kind="deaths"), partial(ref.parse_hmd_1x1, kind="deaths"), same_hmd)


def cod_readers(n_buckets, causes):
    """parse_cod_csv for one bucket count and cause registry, its oracle and
    their comparison."""
    read = partial(hmd.parse_cod_csv, n_buckets=n_buckets, causes=causes)
    return read, partial(ref.parse_cod_csv, n_buckets=n_buckets, causes=causes), same_cod


HMD_HEAD = "title\n\n  Year  Age  Female  Male  Total\n"
COD_HEAD = "gender,age_group,year,cause,deaths\n"


class TestHmd1x1:
    @pytest.mark.parametrize(
        "rows",
        [
            "2000  100+  1.0  2.0  3.0\n2000  110+  1.0  2.0  3.0\n2000  105  .  .  .\n",
            "2000  0  1.0  2.0  3.0\n\n   \n2001  0  -0.0  1e-300  3.0\n",
            "2000  0  1.0  2.0  3.0\nYear  Age\n2001  0  1.0  2.0  3.0\r\n",
            "2000  0  1.0  -2.0  3.0\n",
            "2000  0  1.0  2.0  3.0\n2000  0  1.0  2.0  3.0\n",
            "2000  0  1.0  2.0\n2001  0  1.0  2.0  3.0  4.0\n",
            "2000  +  1.0  2.0  3.0\n",
            "2000  0  -1.0  x  3.0\n",
            "2000  0  1.0  nan  inf\n",
            "99999999999999999999  0  1.0  2.0  3.0\n",
            "",
        ],
    )
    def test_examples_same_grid_or_same_error(self, rows):
        check_same(*HMD, HMD_HEAD + rows)

    @given(hmd_grids())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, grid):
        text = hmd.write_hmd_1x1(grid)
        back = hmd.parse_hmd_1x1(text, grid.kind)
        assert same_hmd(back, grid)
        assert hmd.write_hmd_1x1(back) == text

    @given(hmd_grids(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_same_grid_or_same_error(self, grid, data):
        check_same(*HMD, damage(data, hmd.write_hmd_1x1(grid)), data.draw(READ_ROWS))

    @given(hmd_grids(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, grid, data):
        lines = hmd.write_hmd_1x1(grid).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_same(*HMD, "".join(lines[: i + 1] + lines[i:]), data.draw(READ_ROWS))


class TestCodCsv:
    @pytest.mark.parametrize(
        "rows",
        [
            "male,1,2000,1,5\r\nfemale,1,2000,1,6\r\n",
            "male,\r1,2000,1,5\n",
            "male,1,2000,1,5\rfemale,1,2000,1,6\n",
            '"male",1,2000,1,5\nfemale,1,2000,"1",6\n',
            'male,1,2000,"1,2",5\n',
            "male,1,2000,1,5\n\n   \nfemale,1,2001,1,\n",
            "male,1,2000,1,5\x00\n",
            " Male , 2 , 2000 , DEMENTIA , 7 \n",
            "male,1,2000,1,5\nmale,1,2000,1,6\n",
            "male,0,2000,1,5\n",
            "male,1,2000,1,5\nmale,3,2000,1,5\n",
            "male,99999999999999999999,2000,1,5\n",
            "male,0,x,1,5\n",
            "male,1,2000,13,5\n",
            "male,1,2000,1,-5\n",
            "male,1,2000,1\n",
            ",,,,\n",
            "male,0,2000,1,5\nmale,\r1,2000,1,5\n",
            '"female",1,2000,"1","5\n"\nmale,0,2000,1,5\n',
            pytest.param('male,1,2000,1,"' + "1" * 140_000 + '"\n', id="field-over-the-csv-limit"),
            pytest.param(
                '"female",1,2000,"1","5\n"\nmale,1,2000,1,"' + "1" * 140_000 + '"\n',
                id="field-over-the-csv-limit-after-a-two-line-row",
            ),
        ],
    )
    def test_examples_same_table_or_same_error(self, rows):
        check_same(*cod_readers(2, DEFAULT_CAUSES), COD_HEAD + rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('"female",1,2000,"1","5\n"\nmale,0,2000,1,5\n',
             "line 4: age_group must be an index in 1..2, got 0"),
            ('"female",1,2000,"1","5\n"\nmale,1,2000,1,"' + "1" * 140_000 + '"\n',
             "line 4: field larger than field limit (131072)"),
        ],
        ids=["bad-value", "csv-error"],
    )
    def test_a_row_is_named_by_the_line_it_starts_on(self, rows, message):
        # the second row spans lines 2 and 3: its quoted count holds a newline
        with pytest.raises(hmd.ParseError, match=f"^{re.escape(message)}$"):
            hmd.parse_cod_csv(COD_HEAD + rows, 2)

    @given(cause_tables())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, table):
        text = hmd.write_cod_csv(table)
        back = hmd.parse_cod_csv(text, table.n_buckets, table.causes)
        assert same_cod(back, table)
        assert hmd.write_cod_csv(back) == text

    @given(cause_tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_same_table_or_same_error(self, table, data):
        text = hmd.write_cod_csv(table)
        if data.draw(st.booleans()):
            text = with_labels(text, table.causes)
        check_same(*cod_readers(table.n_buckets, table.causes), damage(data, text), data.draw(READ_ROWS))

    @given(cause_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, table, data):
        lines = hmd.write_cod_csv(table).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_same(*cod_readers(table.n_buckets, table.causes), "".join(lines[: i + 1] + lines[i:]), data.draw(READ_ROWS))


# --- block boundaries --------------------------------------------------------


def _lc_params(space: FeatureSpace) -> dict:
    return {
        g: LCParams(
            gender=g, age_min=space.age_min, year_min=space.year_min,
            beta0=np.linspace(-5.0, -3.0, space.n_ages), beta1=np.full(space.n_ages, 1.0 / space.n_ages),
            kappa=np.linspace(1.0, -1.0, space.n_years), rate_floor=1e-8, converged=True,
            n_iterations=0, deviance_trace=np.array([np.nan]), flags=[],
        )
        for g in ("female", "male")
    }


def _block_tables():
    """Each reader, its oracle and comparison, a valid text of 8 to 14 rows,
    its field separator and its header line count."""
    space = FeatureSpace(0, 1, 2000, 2001)
    rates = RateSurface(space, np.linspace(0.01, 0.08, 8).reshape(space.shape))
    grid = hmd.HmdGrid("deaths", np.arange(3), np.arange(2000, 2003), *np.arange(27.0).reshape(3, 3, 3))
    shape = (2, 2, 1, 2)
    cod = hmd.CauseDeathTable(
        COD_CAUSES[:2], 2, 2000, 2000, np.arange(8).reshape(shape), np.zeros(shape, dtype=bool)
    )
    cod_text = hmd.write_cod_csv(cod)
    return {
        "rate": (RATE, rate_surface_to_csv(rates), ",", 1),
        "params": (params_readers(LCParams), params_to_csv(_lc_params(space)), ",", 1),
        "hmd": (HMD, hmd.write_hmd_1x1(grid), "  ", 3),
        "cod": (cod_readers(cod.n_buckets, cod.causes), cod_text, ",", 1),
        # quoted genders send the text through the csv module
        "cod-csv": (cod_readers(cod.n_buckets, cod.causes), re.sub(r"^(female|male)", r'"\1"', cod_text, flags=re.M), ",", 1),
    }


BLOCK_TABLES = _block_tables()
DAMAGES = ("width", "value", "duplicate", "blank", "crlf")


def damaged_line(lines: list[str], i: int, how: str, sep: str, first: int) -> str:
    """The text of lines with line i damaged: one field too many, its last
    field rejected, a copy of line `first`, a blank line before it, or a
    CRLF end; or, for the csv module, a quoted field over its size limit,
    alone or after a rejected value."""
    line = lines[i].rstrip("\n")
    head = line.rsplit(sep, 1)[0]
    new = {
        "width": [f"{line}{sep}1\n"],
        "value": [f"{head}{sep}x\n"],
        "duplicate": [lines[first]],
        "blank": ["\n", lines[i]],
        "crlf": [f"{line}\r\n"],
        "csv-error": [f'{head}{sep}"{"1" * 140_000}"\n'],
        "value, then csv-error": [f"{head}{sep}x\n", f'{head}{sep}"{"1" * 140_000}"\n'],
    }[how]
    return "".join(lines[:i] + new + lines[i + 1:])


@pytest.mark.parametrize(
    "name, how",
    [(name, how) for name in BLOCK_TABLES for how in DAMAGES]
    + [("cod-csv", "csv-error"), ("cod-csv", "value, then csv-error")],
)
def test_a_bad_row_at_a_block_edge_is_named_as_in_one_block(name, how):
    # every data line takes each damage while the reader splits 1 to 4 rows
    # at once, so each damage falls on a block's last row and on the next
    # block's first row; the per-row oracle gives the message and line
    (read, oracle, same), text, sep, n_head = BLOCK_TABLES[name]
    lines = text.splitlines(keepends=True)
    for read_rows in (1, 2, 3, 4):
        check_same(read, oracle, same, text, read_rows)
        for i in range(n_head, len(lines)):
            check_same(read, oracle, same, damaged_line(lines, i, how, sep, n_head), read_rows)


@given(hmd_grids(), cause_tables(), rate_surfaces(), st.integers(1, 7))
@settings(max_examples=50, deadline=None)
def test_writers_in_small_blocks_match_their_oracles(grid, table, q, cells):
    with mock.patch.object(grids, "_WRITE_CELLS", cells):
        assert hmd.write_hmd_1x1(grid) == ref.write_hmd_1x1(grid)
        assert hmd.write_cod_csv(table) == ref.write_cod_csv(table)
        assert rate_surface_to_csv(q) == ref.rate_surface_to_csv(q)


# --- tree text -------------------------------------------------------------

# the characters of the tree format, plus any character at all
TREE_SYMBOLS = st.sampled_from(list(" \n#:|{}/,<=.-+e0123456789leaf")) | st.characters()


@st.composite
def grown_trees(draw, with_cause: bool):
    seed = draw(st.integers(0, 2**32 - 1))
    cp = draw(st.sampled_from([0.0, 1e-3, 2e-2]))
    data = random_working_data(
        np.random.default_rng(seed), n_ordered=2, with_cause=with_cause, max_points=40
    )
    return grow_tree(data, TreeConfig(cp=cp, min_bucket=1))


@pytest.mark.parametrize("with_cause", [False, True], ids=["ordered", "cause"])
class TestTreeText:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, with_cause, data):
        text = data.draw(grown_trees(with_cause)).to_text()
        assert PoissonTree.from_text(text).to_text() == text

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_reads_or_raises_value_error(self, with_cause, data):
        text = data.draw(grown_trees(with_cause)).to_text()
        reads_or_rejects(PoissonTree.from_text, damage(data, text, TREE_SYMBOLS))

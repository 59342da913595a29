"""Property tests for the text codecs: the rate CSV, the LC/RH parameter CSV,
the HMD 1x1 table and the cause-of-death CSV.

Every valid object round-trips unchanged through write and read; truncated
or mutated text gives either a result or ValueError, never another exception.
The rate CSV, HMD and cause-of-death parsers read all rows at once and
re-scan line by line when that fails; both paths, and the per-row reference
parsers, must agree on every text: the same grid, or the same error text.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from mortboost import DEFAULT_CAUSES, FeatureSpace, RateSurface, hmd
from mortboost import grids
from mortboost.grids import rate_surface_from_csv, rate_surface_to_csv
from mortboost.leecarter import _KIND_AXIS, LC_KINDS, LCParams, params_from_csv, params_to_csv
from mortboost.renshawhaberman import RH_KINDS, RHParams, rh_params_from_csv, rh_params_to_csv

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
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=space.size, max_size=space.size))
    return RateSurface(space, np.reshape(rates, space.shape))


@st.composite
def param_sets(draw, make, kinds):
    space = draw(spaces)
    genders = draw(st.sampled_from([("female",), ("male",), ("female", "male")]))
    size = {"age": space.n_ages, "year": space.n_years, "cohort": space.n_cohorts}
    out = {}
    for g in genders:
        vecs = {
            kind: np.array(
                draw(
                    st.lists(
                        st.floats(allow_nan=False),
                        min_size=size[_KIND_AXIS[kind]],
                        max_size=size[_KIND_AXIS[kind]],
                    )
                )
            )
            for kind in kinds
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


def damage(data, text: str) -> str:
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
    ch = data.draw(SYMBOLS)
    return text[:i] + ch + text[i + (how == "replace"):]


def reads_or_rejects(reader, text: str) -> None:
    try:
        reader(text)
    except ValueError:
        pass


def assert_same_params(back, fits, kinds):
    assert set(back) == set(fits)
    for g, p in fits.items():
        assert (back[g].age_min, back[g].year_min) == (p.age_min, p.year_min)
        for kind in kinds:
            assert np.array_equal(getattr(back[g], kind), getattr(p, kind)), kind


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


def same_columns(a, b) -> bool:
    return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))


def check_rate_paths(text: str) -> None:
    got = outcome(rate_surface_from_csv, text)
    want = outcome(ref.rate_surface_from_csv, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.space == want.space and same_bits(got.rate, want.rate)
    lines = text.splitlines()
    columns = grids._rate_columns(lines)
    if columns is not None:  # the array path accepted: the re-scan agrees
        assert same_columns(columns, grids._rate_columns_by_line(lines))


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
            "female,0,2000,nan\nmale,0,2000,0.25\n",
            "",
        ],
    )
    def test_examples_same_grid_or_same_error(self, rows):
        check_rate_paths(RATE_HEAD + rows)

    @given(rate_surfaces())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, q):
        text = rate_surface_to_csv(q)
        back = rate_surface_from_csv(text)
        assert back.space == q.space
        assert np.array_equal(back.rate, q.rate)
        assert grids._rate_columns(text.splitlines()) is not None

    @given(rate_surfaces(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_reads_or_raises_value_error(self, q, data):
        check_rate_paths(damage(data, rate_surface_to_csv(q)))

    @given(rate_surfaces(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, q, data):
        lines = rate_surface_to_csv(q).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_rate_paths("".join(lines[: i + 1] + lines[i:]))


class TestParamsCsv:
    @given(param_sets(LCParams, LC_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_lc_round_trip(self, fits):
        assert_same_params(params_from_csv(params_to_csv(fits)), fits, LC_KINDS)

    @given(param_sets(RHParams, RH_KINDS))
    @settings(max_examples=100, deadline=None)
    def test_rh_round_trip(self, fits):
        assert_same_params(rh_params_from_csv(rh_params_to_csv(fits)), fits, RH_KINDS)

    @given(param_sets(LCParams, LC_KINDS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_lc_damaged_text_reads_or_raises_value_error(self, fits, data):
        reads_or_rejects(params_from_csv, damage(data, params_to_csv(fits)))

    @given(param_sets(RHParams, RH_KINDS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rh_damaged_text_reads_or_raises_value_error(self, fits, data):
        reads_or_rejects(rh_params_from_csv, damage(data, rh_params_to_csv(fits)))


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


def check_hmd_paths(text: str) -> None:
    got = outcome(lambda t: hmd.parse_hmd_1x1(t, "deaths"), text)
    want = outcome(lambda t: ref.parse_hmd_1x1(t, "deaths"), text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_hmd(got, want)
    columns = hmd._hmd_columns(text)
    if columns is not None:  # the array path accepted: the re-scan agrees
        assert same_columns(columns, hmd._hmd_columns_by_line(text))


def check_cod_paths(text: str, causes) -> None:
    got = outcome(lambda t: hmd.parse_cod_csv(t, causes), text)
    want = outcome(lambda t: ref.parse_cod_csv(t, causes), text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert same_cod(got, want)
    fields = hmd._CodFields(causes)
    columns = hmd._cod_columns(text, fields)
    if columns is not None:
        assert same_columns(columns, hmd._cod_columns_by_line(text, fields))


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
            "2000  0  1.0  nan  inf\n",
            "99999999999999999999  0  1.0  2.0  3.0\n",
            "",
        ],
    )
    def test_examples_same_grid_or_same_error(self, rows):
        check_hmd_paths(HMD_HEAD + rows)

    @given(hmd_grids())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, grid):
        text = hmd.write_hmd_1x1(grid)
        back = hmd.parse_hmd_1x1(text, grid.kind)
        assert same_hmd(back, grid)
        assert hmd.write_hmd_1x1(back) == text

    @given(hmd_grids())
    @settings(max_examples=100, deadline=None)
    def test_array_path_takes_valid_text(self, grid):
        text = hmd.write_hmd_1x1(grid)
        columns = hmd._hmd_columns(text)
        assert columns is not None
        assert same_columns(columns, hmd._hmd_columns_by_line(text))

    @given(hmd_grids(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_same_grid_or_same_error(self, grid, data):
        check_hmd_paths(damage(data, hmd.write_hmd_1x1(grid)))

    @given(hmd_grids(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, grid, data):
        lines = hmd.write_hmd_1x1(grid).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_hmd_paths("".join(lines[: i + 1] + lines[i:]))


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
            "male,1,2000,13,5\n",
            "male,1,2000,1,-5\n",
            "male,1,2000,1\n",
            ",,,,\n",
        ],
    )
    def test_examples_same_table_or_same_error(self, rows):
        check_cod_paths(COD_HEAD + rows, DEFAULT_CAUSES)

    @given(cause_tables())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, table):
        text = hmd.write_cod_csv(table)
        back = hmd.parse_cod_csv(text, table.causes)
        assert same_cod(back, table)
        assert hmd.write_cod_csv(back) == text

    @given(cause_tables())
    @settings(max_examples=100, deadline=None)
    def test_array_path_takes_valid_text(self, table):
        text = hmd.write_cod_csv(table)
        fields = hmd._CodFields(table.causes)
        columns = hmd._cod_columns(text, fields)
        assert columns is not None
        assert same_columns(columns, hmd._cod_columns_by_line(text, fields))

    @given(cause_tables(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_same_table_or_same_error(self, table, data):
        text = hmd.write_cod_csv(table)
        if data.draw(st.booleans()):
            text = with_labels(text, table.causes)
        check_cod_paths(damage(data, text), table.causes)

    @given(cause_tables(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_duplicated_line(self, table, data):
        lines = hmd.write_cod_csv(table).splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1))
        check_cod_paths("".join(lines[: i + 1] + lines[i:]), table.causes)

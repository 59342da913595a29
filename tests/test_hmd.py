import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io as ref
from mortboost import DEFAULT_CAUSES, FeatureSpace, ParseError, parse_cod_csv, parse_hmd_1x1, write_cod_csv, write_hmd_1x1
from mortboost.hmd import GridError, HmdGrid, cause_total_report, clip_to_space


def hmd_text(rows, title="Switzerland, Deaths (period 1x1)"):
    head = f"{title},  Last modified: whenever\n\n  Year          Age             Female            Male           Total\n"
    return head + "\n".join(rows) + "\n"


def synthetic_file(age_min, age_max, year_min, year_max, value=lambda a, t: 100.0, open_top=False):
    rows = []
    for t in range(year_min, year_max + 1):
        for a in range(age_min, age_max + 1):
            tok = f"{a}+" if open_top and a == age_max else str(a)
            v = value(a, t)
            rows.append(f"  {t}  {tok}  {v}  {v}  {2 * v}")
    return hmd_text(rows)


class TestParseHmd:
    def test_column_extraction(self):
        text = hmd_text(["1876  0  8954.23  9311.77  18266.00"])
        grid = parse_hmd_1x1(text, "exposures")
        assert grid.female[0, 0] == 8954.23
        assert grid.male[0, 0] == 9311.77
        assert list(grid.ages) == [0] and list(grid.years) == [1876]

    def test_open_age_floor(self):
        text = hmd_text(["2014  110+  3.5  1.2  4.7"])
        grid = parse_hmd_1x1(text, "deaths")
        assert list(grid.ages) == [110]
        assert grid.open_age == 110

    def test_missing_marker(self):
        text = hmd_text(["2000  10  .  5.0  5.0"])
        grid = parse_hmd_1x1(text, "deaths")
        assert np.isnan(grid.female[0, 0]) and grid.male[0, 0] == 5.0

    def test_two_line_header_without_column_names(self):
        text = "some title\n\n2001  5  1.5  2.5  4.0\n"
        grid = parse_hmd_1x1(text, "deaths")
        assert grid.female[0, 0] == 1.5 and list(grid.years) == [2001]

    def test_swiss_shaped_file_expands_to_27244_cells(self):
        text = synthetic_file(0, 97, 1876, 2014)
        grid = parse_hmd_1x1(text, "exposures")
        assert grid.female.size + grid.male.size == 27244

    def test_malformed_line_reports_line_number(self):
        text = hmd_text(["2000  0  1.0  2.0  3.0", "2000  zzz  1.0  2.0  3.0"])
        with pytest.raises(ParseError, match="line 5"):
            parse_hmd_1x1(text, "deaths")

    def test_duplicate_key_rejected(self):
        text = hmd_text(["2000  0  1.0  2.0  3.0", "2000  0  1.0  2.0  3.0"])
        with pytest.raises(ParseError, match="duplicate"):
            parse_hmd_1x1(text, "deaths")

    def test_negative_value_rejected(self):
        text = hmd_text(["2000  0  -1.0  2.0  1.0"])
        with pytest.raises(ParseError):
            parse_hmd_1x1(text, "deaths")

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        rows = []
        for t in (2000, 2001):
            for a in (95, 96, 110):
                tok = "110+" if a == 110 else str(a)
                f, m = (float(v) for v in rng.uniform(0, 50, 2))
                rows.append(f"{t}  {tok}  {f!r}  {m!r}  {f + m!r}")
        rows.append("2002  95  .  1.0  1.0")
        rows.append("2002  96  2.0  .  2.0")
        rows.append("2002  110+  0.0  0.0  0.0")
        grid = parse_hmd_1x1(hmd_text(rows), "deaths")
        again = parse_hmd_1x1(write_hmd_1x1(grid), "deaths")
        assert np.array_equal(grid.ages, again.ages)
        assert np.array_equal(grid.years, again.years)
        for name in ("female", "male", "total"):
            assert np.array_equal(getattr(grid, name), getattr(again, name), equal_nan=True)
        assert grid.open_age == again.open_age


class TestClipToSpace:
    def test_pooling_sums_top_ages(self):
        deaths = parse_hmd_1x1(synthetic_file(95, 110, 2000, 2001, value=lambda a, t: 2.0), "deaths")
        exposures = parse_hmd_1x1(synthetic_file(95, 110, 2000, 2001, value=lambda a, t: 50.0), "exposures")
        space = FeatureSpace(95, 97, 2000, 2001)
        table, report = clip_to_space(deaths, exposures, space, pool_top_age=True)
        # ages 97..110 collapse into the 97 row: 14 rows of 2 deaths, 50 exposure
        assert table.deaths[0, -1, 0] == 28
        assert table.exposure[0, -1, 0] == 14 * 50.0
        assert table.deaths[0, 0, 0] == 2

    def test_identity_without_pooling(self):
        deaths = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001, value=lambda a, t: 3.0), "deaths")
        exposures = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001, value=lambda a, t: 70.0), "exposures")
        space = FeatureSpace(0, 4, 2000, 2001)
        table, report = clip_to_space(deaths, exposures, space, pool_top_age=False)
        assert np.all(table.deaths == 3)
        assert np.all(table.exposure == 70.0)
        assert report.n_rounded == 0

    def test_pooling_conserves_totals_and_reports_rounding(self):
        rng = np.random.default_rng(11)
        vals = {}

        def value(a, t):
            key = (a, t)
            if key not in vals:
                vals[key] = float(np.round(rng.uniform(0, 20), 2))
            return vals[key]

        deaths = parse_hmd_1x1(synthetic_file(90, 105, 1990, 1995, value=value), "deaths")
        exposures = parse_hmd_1x1(synthetic_file(90, 105, 1990, 1995, value=lambda a, t: 100.0), "exposures")
        space = FeatureSpace(90, 97, 1990, 1995)
        table, report = clip_to_space(deaths, exposures, space, pool_top_age=True)
        raw_total = deaths.female.sum() + deaths.male.sum()
        assert table.total_deaths == pytest.approx(raw_total, abs=0.5 * table.deaths.size)
        assert report.max_rounding_delta < 0.5 + 1e-12

    def test_missing_years_listed(self):
        deaths = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001), "deaths")
        exposures = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001), "exposures")
        with pytest.raises(ValueError, match=r"\[2002, 2003\]"):
            clip_to_space(deaths, exposures, FeatureSpace(0, 4, 2000, 2003), pool_top_age=False)

    def test_a_long_list_of_missing_years_is_cut_to_its_first_ten(self):
        deaths = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001), "deaths")
        exposures = parse_hmd_1x1(synthetic_file(0, 4, 1990, 2003), "exposures")
        message = r"^deaths file lacks 19 requested years; the first 10: \[1985, 1986, .*, 1994\]$"
        with pytest.raises(GridError, match=message):
            clip_to_space(deaths, exposures, FeatureSpace(0, 4, 1985, 2005), pool_top_age=False)
        message = r"^exposures file lacks requested years: \[1985, 1986, 1987, 1988, 1989, 2004, 2005\]$"
        with pytest.raises(GridError, match=message):
            clip_to_space(None, exposures, FeatureSpace(0, 4, 1985, 2005), pool_top_age=False)

    def test_deaths_beyond_a_64_bit_count_rejected(self):
        # the cast to int64 would wrap them to negative counts
        exposures = parse_hmd_1x1(synthetic_file(0, 1, 2000, 2000), "exposures")
        for value, shown in (("1e20", "1e+20"), ("inf", "inf")):
            deaths = parse_hmd_1x1(hmd_text(["2000  0  1.0  1.0  2.0", f"2000  1  2.0  {value}  2.0"]), "deaths")
            message = rf"^deaths {re.escape(shown)} at \(male, 1, 2000\) do not fit a 64-bit count$"
            with pytest.raises(ValueError, match=message):
                clip_to_space(deaths, exposures, FeatureSpace(0, 1, 2000, 2000), pool_top_age=False)

    def test_non_finite_exposure_rejected_naming_its_cell(self):
        # pooled or not, and beside a missing cell (which counts as 0)
        cells = {(0, 2000): ".", (2, 2001): "inf"}
        rows = [f"{t}  {a}  {cells.get((a, t), '50')}  50  100" for t in (2000, 2001) for a in range(3)]
        exposures = parse_hmd_1x1(hmd_text(rows), "exposures")
        for age_max, pool in ((2, False), (1, True)):
            message = rf"^exposure inf at \(female, {age_max}, 2001\) is not finite$"
            with pytest.raises(GridError, match=message) as exc:
                clip_to_space(None, exposures, FeatureSpace(0, age_max, 2000, 2001), pool)
            assert exc.value.kind == "exposures"

    def test_pooled_sum_that_overflows_is_rejected_naming_its_cell(self):
        values = np.array([[1.0], [1e308], [1e308]])
        grids = {kind: HmdGrid(kind, np.arange(3), np.array([2000]), values, values, values)
                 for kind in ("deaths", "exposures")}
        space = FeatureSpace(0, 1, 2000, 2000)
        with pytest.raises(GridError, match=r"^exposure inf at \(female, 1, 2000\) is not finite$") as exc:
            clip_to_space(None, grids["exposures"], space, True)
        assert exc.value.kind == "exposures"
        exposures = parse_hmd_1x1(synthetic_file(0, 2, 2000, 2000), "exposures")
        message = r"^deaths inf at \(female, 1, 2000\) do not fit a 64-bit count$"
        with pytest.raises(GridError, match=message) as exc:
            clip_to_space(grids["deaths"], exposures, space, True)
        assert exc.value.kind == "deaths"

    def test_subnormal_exposure_rejected_naming_its_cell(self):
        # D / E would overflow; zero and the smallest normal float stay
        cells = {(1, 2000): "1e-320", (2, 2000): "0", (0, 2001): "2.2250738585072014e-308"}
        rows = [f"{t}  {a}  {cells.get((a, t), '50')}  50  100" for t in (2000, 2001) for a in range(3)]
        exposures = parse_hmd_1x1(hmd_text(rows), "exposures")
        tiny = re.escape(repr(np.finfo(float).tiny.item()))
        message = rf"^exposure 1e-320 at \(female, 1, 2000\) is below the smallest normal float {tiny}$"
        with pytest.raises(GridError, match=message):
            clip_to_space(None, exposures, FeatureSpace(0, 2, 2000, 2001), False)
        table, _ = clip_to_space(None, exposures, FeatureSpace(0, 2, 2001, 2001), False)
        assert table.exposure[0, 0, 0] == np.finfo(float).tiny

    def test_exposure_only_caller_gets_zero_deaths(self):
        exposures = parse_hmd_1x1(synthetic_file(0, 4, 2000, 2001, value=lambda a, t: 70.0), "exposures")
        table, report = clip_to_space(None, exposures, FeatureSpace(0, 3, 2000, 2001), pool_top_age=True)
        assert table.deaths.dtype == np.int64 and not table.deaths.any()
        assert np.all(table.exposure[:, -1] == 140.0)
        assert (report.warnings, report.n_rounded, report.max_rounding_delta) == ([], 0, 0.0)
        with pytest.raises(ValueError, match=r"exposures file lacks requested years: \[2002\]"):
            clip_to_space(None, exposures, FeatureSpace(0, 3, 2000, 2002), pool_top_age=True)

    def test_one_year_pools_many_ages_as_a_running_sum(self):
        # exposures falling with age, as at the oldest ages; numpy's sum of one
        # column of 8 or more rows is pairwise and gives other bits here
        rng = np.random.default_rng(6)
        values = np.round(1e5 * 0.7 ** np.arange(12)[:, None] * rng.uniform(0.5, 1, (12, 1)), 2)
        exposures = HmdGrid("exposures", np.arange(12), np.array([2000]), values, values, 2 * values)
        args = (None, exposures, FeatureSpace(0, 0, 2000, 2000), True)
        assert outcome(clip_to_space, *args) == outcome(ref.clip_to_space, *args)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_table_warnings_and_rounding_as_the_per_age_reference(self, data):
        space, deaths, exposures, pool = data.draw(clip_inputs())
        got, want = (outcome(clip, deaths, exposures, space, pool) for clip in (clip_to_space, ref.clip_to_space))
        assert got == want


# a clip's cells: missing, zero (both signs), whole, and with two decimals as
# in HMD files (whose sums round)
CLIP_VALUES = st.sampled_from([np.nan, 0.0, -0.0, 1.0, 2.5]) | st.integers(0, 10**8).map(lambda n: n / 100)


def clip_axis(draw, lo: int, hi: int) -> np.ndarray:
    """lo..hi with about one value in twelve left out (gaps)."""
    keep = st.sampled_from([True] * 11 + [False])
    return np.array([v for v in range(lo, hi + 1) if draw(keep)], dtype=np.int64)


@st.composite
def clip_grids(draw, kind: str, axes=None):
    ages, years = axes or (clip_axis(draw, 0, draw(st.integers(4, 11))), clip_axis(draw, 2000, 2002))
    female, male = (
        np.reshape(draw(st.lists(CLIP_VALUES, min_size=ages.size * years.size, max_size=ages.size * years.size)),
                   (ages.size, years.size))
        for _ in range(2)
    )
    open_age = int(ages[-1]) if ages.size and draw(st.booleans()) else None
    return HmdGrid(kind, ages, years, female, male, female + male, open_age)


@st.composite
def clip_inputs(draw):
    """A space inside 0..11 x 2000..2002, an exposures grid, a deaths grid
    (or None) and the pooling switch."""
    age_min = draw(st.integers(0, 6))
    age_max = draw(st.integers(age_min, 7))
    year_min = draw(st.integers(2000, 2002))
    space = FeatureSpace(age_min, age_max, year_min, draw(st.integers(year_min, 2002)))
    exposures = draw(clip_grids("exposures"))
    shared = (exposures.ages, exposures.years)
    deaths = draw(st.none() | clip_grids("deaths", shared) | clip_grids("deaths"))
    return space, deaths, exposures, draw(st.booleans())


def outcome(clip, *args):
    """The bits of the clipped table and the report, or the error."""
    try:
        table, report = clip(*args)
    except ValueError as exc:
        return repr(exc)
    return (table.exposure.view(np.int64).tolist(), table.deaths.dtype, table.deaths.tolist(),
            report.warnings, report.n_rounded, report.max_rounding_delta)


def cod_csv(rows):
    return "gender,age_group,year,cause,deaths\n" + "\n".join(rows) + "\n"


class TestParseCodCsv:
    def test_direct_mapping(self):
        table = parse_cod_csv(cod_csv(["male,4,1995,2,1023"]))
        assert table.counts[1, 3, 0, 1] == 1023
        assert not table.missing[1, 3, 0, 1]
        assert table.causes[1] == "malignant tumors"

    def test_label_matching_case_insensitive(self):
        table = parse_cod_csv(cod_csv(["female,1,2000,Dementia,7"]))
        assert table.counts[0, 0, 0, 3] == 7

    def test_missing_deaths_field(self):
        table = parse_cod_csv(cod_csv(["female,3,1992,4,"]))
        assert table.missing[0, 2, 0, 3]
        assert table.counts[0, 2, 0, 3] == 0

    def test_swiss_shape(self):
        rows = [
            f"{g},{b},{t},{k},5"
            for g in ("female", "male")
            for b in range(1, 7)
            for t in range(1990, 2015)
            for k in range(1, 13)
        ]
        table = parse_cod_csv(cod_csv(rows))
        assert table.counts.shape == (2, 6, 25, 12)
        assert table.counts.size == 3600  # 2*6*25*12

    def test_errors(self):
        with pytest.raises(ParseError, match="unknown cause"):
            parse_cod_csv(cod_csv(["male,1,2000,not a cause,1"]))
        with pytest.raises(ParseError, match="duplicate"):
            parse_cod_csv(cod_csv(["male,1,2000,1,1", "male,1,2000,1,2"]))
        with pytest.raises(ParseError, match="negative"):
            parse_cod_csv(cod_csv(["male,1,2000,1,-3"]))
        with pytest.raises(ParseError, match="header"):
            parse_cod_csv("a,b,c\n")

    def test_unmentioned_cells_are_missing(self):
        table = parse_cod_csv(cod_csv(["male,2,2000,1,5", "male,2,2001,1,6"]))
        assert table.missing[0, 0, 0, 0]  # female bucket 1 never mentioned
        assert not table.missing[1, 1, 0, 0]

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        rows = []
        for g in ("female", "male"):
            for b in (1, 2):
                for t in (1990, 1991, 1992):
                    for k in range(1, 5):
                        if (b, t, k) == (1, 1991, 2):
                            rows.append(f"{g},{b},{t},{k},")
                        else:
                            rows.append(f"{g},{b},{t},{k},{rng.integers(0, 100)}")
        causes = DEFAULT_CAUSES[:4]
        table = parse_cod_csv(cod_csv(rows), causes=causes)
        again = parse_cod_csv(write_cod_csv(table), causes=causes)
        assert np.array_equal(table.counts, again.counts)
        assert np.array_equal(table.missing, again.missing)
        assert table.causes == again.causes


class TestCauseTotalReport:
    def test_discrepancies_reported_not_raised(self):
        table = parse_cod_csv(cod_csv(["male,1,2000,1,10", "male,1,2000,2,10"]))
        all_cause = np.zeros((2, 1, 1))
        all_cause[1, 0, 0] = 15  # less than 20 reported by cause
        report = cause_total_report(table, all_cause)
        assert len(report) == 1 and "exceeds" in report[0]
        ok = np.full((2, 1, 1), 25.0)
        assert cause_total_report(table, ok) == []

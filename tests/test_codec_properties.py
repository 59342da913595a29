"""Property tests for the text codecs: the rate CSV and the LC/RH parameter CSV.

Every valid object round-trips unchanged through write and read; truncated
or mutated text gives either a result or ValueError, never another exception.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mortboost import FeatureSpace, RateSurface
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


class TestRateCsv:
    @given(rate_surfaces())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, q):
        back = rate_surface_from_csv(rate_surface_to_csv(q))
        assert back.space == q.space
        assert np.array_equal(back.rate, q.rate)

    @given(rate_surfaces(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_reads_or_raises_value_error(self, q, data):
        reads_or_rejects(rate_surface_from_csv, damage(data, rate_surface_to_csv(q)))


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

"""Bounded memory of the text readers and writers and of the sampler,
measured with tracemalloc.

The inputs are those of the cod_5y workload's cause-of-death pass (ages
0..97, 21 five-year buckets, 65 years, 12 causes) and the same with four
times the years. What a call allocates beyond its result (the returned
text, table or grid) is its transients: a writer's stay under 2 MiB at both
sizes, as do a reader's at the cod_5y size. A reader keeps one array per
field of its table for the duplicate check over the whole table, so at the
larger size its transients are bounded by 2 MiB plus those arrays and the
sort of their keys. The sampler draws a block of cells at a time, so beyond
its table it holds 32 bytes a cell (the means, the cell indices, their
uint64 copy and the draws) and one block's working set.
"""

import tracemalloc
from functools import cache

import numpy as np
import pytest

from mortboost import SimSpec, hmd, simulate
from mortboost.codboost import ResidualGrid, ThetaSurface, residuals_to_csv, theta_to_csv
from mortboost.grids import AgeBucketing, FeatureSpace, RateSurface, rate_surface_from_csv, rate_surface_to_csv
from mortboost.leecarter import LCParams, params_from_csv, params_to_csv

MIB = 2**20
BUCKETS = "0;1-4;" + ";".join(f"{a}-{a + 4}" for a in range(5, 95, 5)) + ";95+"
N_CAUSES = 12
# a reader's arrays: 8 bytes per field, and 24 bytes per row to sort its keys
ROW_BYTES = 24


def over_result(fn, *args, **kwargs) -> float:
    """Bytes that fn(*args, **kwargs) allocates at its peak beyond those its
    result still holds when it returns."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


@cache
def cod_5y_inputs(scale: int) -> dict:
    """Values shaped as in a cod_5y pass, with scale times its 65 years."""
    rng = np.random.default_rng(scale)
    space = FeatureSpace(0, 97, 1950, 1950 + 65 * scale - 1)
    bucketing = AgeBucketing.from_spec(BUCKETS, space.age_min, space.age_max)
    shape = (2, bucketing.n_buckets, space.n_years, N_CAUSES)
    missing = np.zeros(shape, dtype=bool)
    missing[:, :, :10, 3] = True
    cod = hmd.CauseDeathTable(
        hmd.DEFAULT_CAUSES, bucketing.n_buckets, space.year_min, space.year_max,
        np.where(missing, 0, rng.poisson(200, shape)), missing, bucketing,
    )
    deaths = rng.poisson(50, space.shape).astype(np.float64)
    theta = rng.dirichlet(np.ones(N_CAUSES), size=shape[:3])
    params = {
        g: LCParams(
            gender=g, age_min=space.age_min, year_min=space.year_min,
            beta0=rng.normal(-5, 1, space.n_ages), beta1=rng.random(space.n_ages) / space.n_ages,
            kappa=rng.normal(0, 1, space.n_years), rate_floor=1e-8, converged=True,
            n_iterations=0, deviance_trace=np.array([np.nan]), flags=[],
        )
        for g in ("female", "male")
    }
    return {
        "cod": cod,
        "grid": hmd.HmdGrid("deaths", space.ages(), space.years(), deaths[0], deaths[1], deaths.sum(axis=0)),
        "rates": RateSurface(space, rng.uniform(1e-5, 0.5, space.shape)),
        "theta": (ThetaSurface(theta), ThetaSurface(theta[..., ::-1])),
        "residuals": ResidualGrid(rng.normal(size=shape)),
        "params": params,
    }


WRITERS = {
    "write_cod_csv": lambda d: hmd.write_cod_csv(d["cod"]),
    "write_hmd_1x1": lambda d: hmd.write_hmd_1x1(d["grid"]),
    "rate_surface_to_csv": lambda d: rate_surface_to_csv(d["rates"]),
    "theta_to_csv": lambda d: theta_to_csv(d["cod"], *d["theta"], smooth_window=5),
    "residuals_to_csv": lambda d: residuals_to_csv(d["cod"], d["residuals"]),
}

# reader, the writer of its text and the width of its rows
READERS = {
    "parse_cod_csv": (lambda text: hmd.parse_cod_csv(text, BUCKETS.count(";") + 1), "write_cod_csv", 5),
    "parse_hmd_1x1": (lambda text: hmd.parse_hmd_1x1(text, "deaths"), "write_hmd_1x1", 5),
    "rate_surface_from_csv": (rate_surface_from_csv, "rate_surface_to_csv", 4),
    "params_from_csv": (params_from_csv, "params_to_csv", 4),
}


@cache
def text(scale: int, writer: str) -> str:
    inputs = cod_5y_inputs(scale)
    return params_to_csv(inputs["params"]) if writer == "params_to_csv" else WRITERS[writer](inputs)


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("name", list(WRITERS))
def test_a_writer_holds_at_most_2_mib_beyond_its_text(name, scale):
    over = over_result(WRITERS[name], cod_5y_inputs(scale))
    assert over < 2 * MIB, f"{name}: {over / MIB:.2f} MiB beyond its text"


@pytest.mark.parametrize("scale", [1, 4])
@pytest.mark.parametrize("name", list(READERS))
def test_a_reader_holds_at_most_2_mib_beyond_its_result_and_arrays(name, scale):
    read, writer, width = READERS[name]
    table = text(scale, writer)
    over = over_result(read, table)
    arrays = 0 if scale == 1 else table.count("\n") * (8 * width + ROW_BYTES)
    assert over < 2 * MIB + arrays, f"{name}: {over / MIB:.2f} MiB beyond its result"


def test_the_sampler_holds_32_bytes_a_cell_and_one_block_beyond_its_table():
    # 250,000 cells, with means from 0 to 200 in both samplers: drawing
    # every cell at once would hold about 250 bytes a cell
    space = FeatureSpace(0, 249, 1, 500)
    rng = np.random.default_rng(5)
    spec = SimSpec(RateSurface(space, rng.uniform(0, 0.2, space.shape)), np.full(space.shape, 1e3), seed=3)
    # a block's Philox words, attempts and products: about 256 bytes a cell,
    # 4 MiB at 16,384 cells
    over = over_result(simulate.sample_deaths, spec)
    assert over < 32 * space.size + 8 * MIB, f"{over / MIB:.2f} MiB beyond the table"

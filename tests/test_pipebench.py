"""The benchmark's tracer still finds every entry point it times, and full
passes still write the outputs recorded in pipebench/reference.json.

pipebench/tracer.py wraps package functions by name. A rename in the package
would leave a traced benchmark run with silent entry points; a small traced
pass of each in-memory workload catches that here, in seconds. The
walkthrough, the one workload that fits Renshaw-Haberman, takes too long for
that, so a small traced RH fit stands in for its solver entry points.
"""

import json
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from mortboost import FeatureSpace, MortalityTable, renshawhaberman
from mortboost.leecarter import FitConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipebench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

with mock.patch.dict(os.environ):  # run.py pins BLAS threads in os.environ on import
    import run  # noqa: E402


@pytest.mark.parametrize("name", ["swiss_closed_loop", "cod_5y"])
def test_traced_pass_reaches_every_entry_point(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(0, True, tmp_path / "setup")
    passdir = tmp_path / "pass"
    with tracer.Tracer() as t:
        raw = workload.run(inputs, passdir)
    outcome = workload.check(inputs, raw, passdir)
    assert outcome.failed_ops == []
    assert outcome.problems == []
    assert t.silent_entries(name) == []


def test_traced_rh_fit_reaches_the_solver_entry_points():
    # a cohort effect, so the joint step runs and its solves are accepted
    space = FeatureSpace(40, 49, 1990, 2004)
    ages, years = np.meshgrid(space.ages(), space.years(), indexing="ij")
    log_q = -9.0 + 0.08 * ages - 0.01 * (years - 1990) + 0.2 * np.sin(years - ages)
    E = np.full(space.shape, 1e5)
    table = MortalityTable(space, E, np.rint(np.exp(log_q) * E).astype(np.int64))
    cfg = FitConfig(max_iterations=20)
    want = renshawhaberman.fit_rh(table, "female", cfg)
    with tracer.Tracer() as t:
        got = renshawhaberman.fit_rh(table, "female", cfg)
    assert t.missing == []
    for entry in (
        "renshawhaberman.fit_rh",
        "renshawhaberman._fisher_system",
        "renshawhaberman.poisson_surface_deviance",
        "numpy.linalg.solve",
    ):
        assert t.calls(entry) > 0, entry
    # one Fisher system per iteration serves up to 12 damped solves, and one
    # deviance per evaluated point; the counts of this fit, as run.py counts
    # them on the walkthrough
    assert t.calls("renshawhaberman._fisher_system") == got.n_iterations == 20
    assert t.calls("numpy.linalg.solve") == 30
    assert t.calls("renshawhaberman.poisson_surface_deviance") == 131
    assert np.array_equal(got.deviance_trace, want.deviance_trace)


@pytest.mark.parametrize(
    "name, seed", [("swiss_closed_loop", 0), ("swiss_closed_loop", 1), ("cod_5y", 0)]
)
def test_full_pass_matches_the_recorded_reference(name, seed, tmp_path):
    # the digests of the workload's reference files and its deviances, as
    # pipebench/record.py wrote them, checked as run.py checks every pass
    workload = workloads.WORKLOADS[name]
    reference = json.loads(run.REFERENCE.read_text())[name][str(seed)]
    inputs = workload.setup(seed, False, tmp_path / "setup")
    passdir = tmp_path / "pass"
    outcome = workload.check(inputs, workload.run(inputs, passdir), passdir)
    assert outcome.failed_ops == []
    assert outcome.problems == []
    assert sorted(reference["digests"]) == sorted(workload.reference_files)
    assert run.reference_problems(reference, outcome) == []


@pytest.mark.skipif(
    os.environ.get("MORTBOOST_ALL_SEEDS") != "1",
    reason="every recorded seed takes about 90 s: set MORTBOOST_ALL_SEEDS=1",
)
@pytest.mark.parametrize("name", ["swiss_closed_loop", "cod_5y"])
def test_every_recorded_seed_matches_its_reference(name, tmp_path):
    # all 100 recorded seeds of the workload, each checked as run.py checks a
    # pass; the tree's growth is where a last-bit change would show
    workload = workloads.WORKLOADS[name]
    recorded = json.loads(run.REFERENCE.read_text())[name]
    assert len(recorded) == 100
    problems = []
    for seed, reference in sorted(recorded.items(), key=lambda item: int(item[0])):
        workdir = tmp_path / seed
        inputs = workload.setup(int(seed), False, workdir / "setup")
        passdir = workdir / "pass"
        outcome = workload.check(inputs, workload.run(inputs, passdir), passdir)
        found = outcome.failed_ops + outcome.problems + run.reference_problems(reference, outcome)
        problems += [f"seed {seed}: {problem}" for problem in found]
        shutil.rmtree(workdir, ignore_errors=True)  # the in-memory workload writes nothing
    assert problems == []

"""The benchmark's tracer still finds every entry point it times.

pipebench/tracer.py wraps package functions by name. A rename in the package
would leave a traced benchmark run with silent entry points; a small traced
pass of each in-memory workload catches that here, in seconds.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "pipebench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


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

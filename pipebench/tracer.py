"""Spans around the calls into each module's public entry points.

The tracer replaces module attributes that the package looks up by name at
call time with timing wrappers, and restores them afterwards. Where a name
is bound by ``from ... import`` (``grow_tree`` in backtest and codboost,
``sample_*`` and ``rate_surface_*`` in cli), the binding in the calling
module is wrapped, because wrapping the defining module would miss it.

Spans live in memory: (entry, start, end, parent span index). A span's
parent is the innermost traced call open when it started.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

GFLOP = 1e9


def _text_len(result, args, kwargs):
    return {"bytes": len(result)}


def _arg_len(result, args, kwargs):
    return {"bytes": len(args[0])}


def _export_bytes(result, args, kwargs):
    return {"bytes": sum(p.stat().st_size for p in result)}


def _draws_deaths(result, args, kwargs):
    return {"draws": args[0].q.space.size}


def _draws_causes(result, args, kwargs):
    return {"draws": args[0].theta.values.size}


def _iterations(result, args, kwargs):
    return {"iterations": result.n_iterations}


def _rh_fit(result, args, kwargs):
    p = result
    ages = np.arange(p.age_min, p.age_min + p.n_ages)
    years = np.arange(p.year_min, p.year_min + p.n_years)
    ci = (years[None, :] - ages[:, None]) - p.cohort_min
    multiplicity = np.bincount(ci.ravel(), minlength=p.n_cohorts)
    # the same grid-weighted gamma sum that `mortboost check --kind rh` tests
    return {
        "iterations": p.n_iterations,
        "constraint_residual": abs(float((multiplicity * p.gamma).sum())),
        "gamma_absmax": float(np.abs(p.gamma).max()),
    }


def _solve(result, args, kwargs):
    p = args[0].shape[0]
    return {"gflop": 2.0 / 3.0 * p**3 / GFLOP}


def _splits(result, args, kwargs):
    return {"splits": result.n_splits}


def _points(result, args, kwargs):
    return {"points": len(args[0])}


# (entry name, module, attribute path, counter hook)
ENTRY_POINTS = [
    ("simulate.sample_deaths", "mortboost.simulate", "sample_deaths", _draws_deaths),
    ("simulate.sample_cause_deaths", "mortboost.simulate", "sample_cause_deaths", _draws_causes),
    ("cli.sample_deaths", "mortboost.cli", "sample_deaths", _draws_deaths),
    ("cli.sample_cause_deaths", "mortboost.cli", "sample_cause_deaths", _draws_causes),
    ("hmd.parse_hmd_1x1", "mortboost.hmd", "parse_hmd_1x1", _arg_len),
    ("hmd.parse_cod_csv", "mortboost.hmd", "parse_cod_csv", _arg_len),
    ("hmd.write_hmd_1x1", "mortboost.hmd", "write_hmd_1x1", _text_len),
    ("hmd.write_cod_csv", "mortboost.hmd", "write_cod_csv", _text_len),
    ("hmd.clip_to_space", "mortboost.hmd", "clip_to_space", None),
    ("cli.rate_surface_to_csv", "mortboost.cli", "rate_surface_to_csv", None),
    ("cli.rate_surface_from_csv", "mortboost.cli", "rate_surface_from_csv", None),
    ("cli.aggregate_rates", "mortboost.cli", "aggregate_rates", None),
    ("leecarter.fit_lc", "mortboost.leecarter", "fit_lc", _iterations),
    ("renshawhaberman.fit_rh", "mortboost.renshawhaberman", "fit_rh", _rh_fit),
    (
        "renshawhaberman.poisson_surface_deviance",
        "mortboost.renshawhaberman",
        "poisson_surface_deviance",
        None,
    ),
    ("renshawhaberman._fisher_system", "mortboost.renshawhaberman", "_fisher_system", None),
    ("numpy.linalg.solve", "numpy.linalg", "solve", _solve),
    ("backtest.backtest", "mortboost.backtest", "backtest", None),
    ("backtest.make_working_data", "mortboost.backtest", "make_working_data", None),
    ("backtest.grow_tree", "mortboost.backtest", "grow_tree", _splits),
    ("codboost.grow_tree", "mortboost.codboost", "grow_tree", _splits),
    ("tree._best_split", "mortboost.tree", "_best_split", None),
    ("kernels.best_cut", "mortboost.kernels", "best_cut", _points),
    ("tree._scan_cause", "mortboost.tree", "_scan_cause", _points),
    ("tree.PoissonTree.predict", "mortboost.tree", "PoissonTree.predict", None),
    ("tree.PoissonTree.to_text", "mortboost.tree", "PoissonTree.to_text", None),
    ("cli.run_backtest", "mortboost.cli", "run_backtest", None),
    ("cli.export_delta_heatmap", "mortboost.cli", "export_delta_heatmap", _export_bytes),
    ("codboost.init_theta", "mortboost.codboost", "init_theta", None),
    ("codboost.make_cod_working_data", "mortboost.codboost", "make_cod_working_data", None),
    ("codboost.estimate_theta_tree", "mortboost.codboost", "estimate_theta_tree", None),
    ("codboost.pearson_residuals", "mortboost.codboost", "pearson_residuals", None),
    ("codboost.theta_to_csv", "mortboost.codboost", "theta_to_csv", _text_len),
    ("codboost.residuals_to_csv", "mortboost.codboost", "residuals_to_csv", _text_len),
    ("svgplot.panels_svg", "mortboost.svgplot", "panels_svg", None),
    ("svgplot.heatmap_svg", "mortboost.svgplot", "heatmap_svg", None),
    ("cli.write_manifest", "mortboost.cli", "write_manifest", None),
]

_TREE = [
    "tree._best_split", "kernels.best_cut", "tree.PoissonTree.predict", "tree.PoissonTree.to_text",
]
_CLI_READ = [
    "hmd.parse_hmd_1x1", "hmd.clip_to_space", "cli.rate_surface_from_csv",
    "cli.write_manifest",
]
_COD = [
    "hmd.parse_cod_csv", "cli.aggregate_rates", "codboost.init_theta",
    "codboost.make_cod_working_data", "codboost.estimate_theta_tree", "codboost.grow_tree",
    "codboost.pearson_residuals", "codboost.theta_to_csv", "codboost.residuals_to_csv",
    "tree._scan_cause", "svgplot.panels_svg",
]

# entry points each workload must reach; zero calls to one fails the traced run
EXPECTED = {
    "swiss_closed_loop": [
        "simulate.sample_deaths", "leecarter.fit_lc", "backtest.backtest",
        "backtest.make_working_data", "backtest.grow_tree", *_TREE,
    ],
    "walkthrough_rh": [
        "cli.sample_deaths", "cli.sample_cause_deaths", "hmd.write_hmd_1x1", "hmd.write_cod_csv",
        *_CLI_READ, "cli.rate_surface_to_csv", "leecarter.fit_lc", "renshawhaberman.fit_rh",
        "renshawhaberman.poisson_surface_deviance", "renshawhaberman._fisher_system",
        "numpy.linalg.solve", "cli.run_backtest", "backtest.make_working_data",
        "backtest.grow_tree", "cli.export_delta_heatmap", "svgplot.heatmap_svg", *_TREE, *_COD,
    ],
    "cod_5y": [
        "simulate.sample_deaths", "simulate.sample_cause_deaths", "hmd.write_hmd_1x1",
        "hmd.write_cod_csv", *_CLI_READ, "cli.rate_surface_to_csv", "leecarter.fit_lc",
        *_TREE, *_COD,
    ],
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs the wrappers for one traced pass and collects its spans."""

    def __init__(self):
        self.spans: list[list] = []  # [entry, start, end, parent]
        self.notes: dict[str, list[dict]] = defaultdict(list)
        self.missing: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, entry: str, fn, hook):
        spans, notes, open_ = self.spans, self.notes, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([entry, time.perf_counter(), None, open_[-1] if open_ else None])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                open_.pop()
            if hook is not None:
                notes[entry].append(hook(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for entry, module, path, hook in ENTRY_POINTS:
            try:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(entry)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(entry, fn, hook))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    # --- aggregation ---------------------------------------------------------

    def calls(self, entry: str) -> int:
        return sum(1 for s in self.spans if s[0] == entry)

    def seconds(self, *entries: str) -> float:
        wanted = set(entries)
        return sum(s[2] - s[1] for s in self.spans if s[0] in wanted)

    def total(self, key: str, *entries: str) -> float:
        return sum(n[key] for e in entries for n in self.notes[e])

    def root_seconds(self) -> float:
        """Time covered by spans that no other traced span encloses."""
        return sum(s[2] - s[1] for s in self.spans if s[3] is None)

    def silent_entries(self, workload: str) -> list[str]:
        """Expected entry points that were not installed or never called."""
        return sorted(
            set(self.missing) | {e for e in EXPECTED[workload] if self.calls(e) == 0}
        )

    def scans_per_tree(self) -> list[tuple[int, int]]:
        """(splits, best_cut calls) for each back-test tree, in growth order."""
        grows = [s for s in self.spans if s[0] == "backtest.grow_tree"]
        scans = [s[1] for s in self.spans if s[0] == "kernels.best_cut"]
        return [
            (note["splits"], sum(1 for t in scans if g[1] <= t <= g[2]))
            for g, note in zip(grows, self.notes["backtest.grow_tree"])
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (metric, unit); the benchmark reports every one on every workload, 0 where
# the layer does not run
LAYER_METRICS = [
    ("simulate.sample_s", "s"),
    ("simulate.draws", "count"),
    ("simulate.draws_per_s", "1/s"),
    ("hmd.parse_s", "s"),
    ("hmd.parse_bytes", "bytes"),
    ("hmd.write_s", "s"),
    ("hmd.write_bytes", "bytes"),
    ("hmd.clip_s", "s"),
    ("grids.rate_csv_s", "s"),
    ("grids.aggregate_s", "s"),
    ("leecarter.fit_s", "s"),
    ("leecarter.iterations", "count"),
    ("renshawhaberman.fit_s", "s"),
    ("renshawhaberman.deviance_s", "s"),
    ("renshawhaberman.fisher_s", "s"),
    ("renshawhaberman.solve_s", "s"),
    ("renshawhaberman.iterations", "count"),
    ("renshawhaberman.deviance_evals", "count"),
    ("renshawhaberman.solves", "count"),
    ("renshawhaberman.solve_gflop", "GFLOP"),
    ("renshawhaberman.evals_per_iteration", "ratio"),
    ("renshawhaberman.solves_per_iteration", "ratio"),
    ("renshawhaberman.constraint_residual", "1"),
    ("renshawhaberman.gamma_absmax", "1"),
    ("tree.grow_s", "s"),
    ("tree.scan_s", "s"),
    ("tree.cause_scan_s", "s"),
    ("tree.predict_s", "s"),
    ("tree.to_text_s", "s"),
    ("tree.scan_calls", "count"),
    ("tree.points_scanned", "count"),
    ("tree.splits", "count"),
    ("tree.split_yield", "ratio"),
    ("backtest.working_data_s", "s"),
    ("backtest.export_s", "s"),
    ("backtest.export_bytes", "bytes"),
    ("codboost.working_data_s", "s"),
    ("codboost.estimate_s", "s"),
    ("codboost.residuals_s", "s"),
    ("codboost.export_s", "s"),
    ("codboost.export_bytes", "bytes"),
    ("svgplot.render_s", "s"),
    ("manifest.write_s", "s"),
    ("cli.self_s", "s"),
]


def layer_values(t: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took pass_s seconds."""
    sample = ("simulate.sample_deaths", "simulate.sample_cause_deaths",
              "cli.sample_deaths", "cli.sample_cause_deaths")
    parse = ("hmd.parse_hmd_1x1", "hmd.parse_cod_csv")
    write = ("hmd.write_hmd_1x1", "hmd.write_cod_csv")
    grow = ("backtest.grow_tree", "codboost.grow_tree")
    cod_export = ("codboost.theta_to_csv", "codboost.residuals_to_csv")
    rh_iters = t.total("iterations", "renshawhaberman.fit_rh")
    evals = t.calls("renshawhaberman.poisson_surface_deviance")
    solves = t.calls("numpy.linalg.solve")
    rh_notes = t.notes["renshawhaberman.fit_rh"]
    sample_s = t.seconds(*sample)
    draws = t.total("draws", *sample)
    splits = t.total("splits", *grow)
    values = {
        "simulate.sample_s": sample_s,
        "simulate.draws": draws,
        "simulate.draws_per_s": _ratio(draws, sample_s),
        "hmd.parse_s": t.seconds(*parse),
        "hmd.parse_bytes": t.total("bytes", *parse),
        "hmd.write_s": t.seconds(*write),
        "hmd.write_bytes": t.total("bytes", *write),
        "hmd.clip_s": t.seconds("hmd.clip_to_space"),
        "grids.rate_csv_s": t.seconds("cli.rate_surface_to_csv", "cli.rate_surface_from_csv"),
        "grids.aggregate_s": t.seconds("cli.aggregate_rates"),
        "leecarter.fit_s": t.seconds("leecarter.fit_lc"),
        "leecarter.iterations": t.total("iterations", "leecarter.fit_lc"),
        "renshawhaberman.fit_s": t.seconds("renshawhaberman.fit_rh"),
        "renshawhaberman.deviance_s": t.seconds("renshawhaberman.poisson_surface_deviance"),
        "renshawhaberman.fisher_s": t.seconds("renshawhaberman._fisher_system"),
        "renshawhaberman.solve_s": t.seconds("numpy.linalg.solve"),
        "renshawhaberman.iterations": rh_iters,
        "renshawhaberman.deviance_evals": evals,
        "renshawhaberman.solves": solves,
        "renshawhaberman.solve_gflop": t.total("gflop", "numpy.linalg.solve"),
        "renshawhaberman.evals_per_iteration": _ratio(evals, rh_iters),
        "renshawhaberman.solves_per_iteration": _ratio(solves, rh_iters),
        "renshawhaberman.constraint_residual": max(
            (n["constraint_residual"] for n in rh_notes), default=0.0
        ),
        "renshawhaberman.gamma_absmax": max((n["gamma_absmax"] for n in rh_notes), default=0.0),
        "tree.grow_s": t.seconds(*grow),
        "tree.scan_s": t.seconds("kernels.best_cut"),
        "tree.cause_scan_s": t.seconds("tree._scan_cause"),
        "tree.predict_s": t.seconds("tree.PoissonTree.predict"),
        "tree.to_text_s": t.seconds("tree.PoissonTree.to_text"),
        "tree.scan_calls": t.calls("kernels.best_cut") + t.calls("tree._scan_cause"),
        "tree.points_scanned": t.total("points", "kernels.best_cut", "tree._scan_cause"),
        "tree.splits": splits,
        "tree.split_yield": _ratio(splits, t.calls("tree._best_split")),
        "backtest.working_data_s": t.seconds("backtest.make_working_data"),
        "backtest.export_s": t.seconds("cli.export_delta_heatmap"),
        "backtest.export_bytes": t.total("bytes", "cli.export_delta_heatmap"),
        "codboost.working_data_s": t.seconds("codboost.make_cod_working_data"),
        "codboost.estimate_s": t.seconds("codboost.estimate_theta_tree"),
        "codboost.residuals_s": t.seconds("codboost.pearson_residuals"),
        "codboost.export_s": t.seconds(*cod_export),
        "codboost.export_bytes": t.total("bytes", *cod_export),
        "svgplot.render_s": t.seconds("svgplot.panels_svg", "svgplot.heatmap_svg"),
        "manifest.write_s": t.seconds("cli.write_manifest"),
        "cli.self_s": pass_s - t.root_seconds(),
    }
    return values

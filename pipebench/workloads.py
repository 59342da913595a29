"""The three named pipeline workloads and their output checks.

Each workload has three parts:

- ``setup(seed, small, workdir)`` builds the inputs (untimed, but measured
  separately as set-up time);
- ``run(inputs, passdir)`` is one timed pass of the pipeline;
- ``check(inputs, raw, passdir)`` verifies that pass's outputs (untimed).

A pass is a list of operations. An operation fails if it raises, exits
non-zero or fails its output check. The CLI workloads go through
``mortboost.cli.main`` in-process, exactly as a user's shell would.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mortboost import cli, hmd, leecarter, simulate
from mortboost.codboost import ThetaSurface
from mortboost.grids import GENDERS, AgeBucketing, FeatureSpace, RateSurface
from mortboost.tree import PoissonTree, TreeConfig

# `mortboost.backtest` is the function, which shadows the submodule
backtest_mod = importlib.import_module("mortboost.backtest")

CP_LADDER = (2e-3, 1e-3, 5e-4, 2e-4, 1e-4)


@dataclass
class Outcome:
    """What one pass did: operations, checked-output digests and problems."""

    ops: list[tuple[str, int]] = field(default_factory=list)  # (name, exit code; 0 = ok)
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    deviance: dict[str, float] = field(default_factory=dict)  # last model fitted, per gender

    @property
    def failed_ops(self) -> list[str]:
        return [name for name, code in self.ops if code != 0]

    @property
    def fit_deviance(self) -> float:
        return sum(self.deviance.values()) if self.deviance else math.nan


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _parse_tree(text: str) -> PoissonTree | None:
    """The tree if the text parses and re-serialises byte-identically."""
    try:
        tree = PoissonTree.from_text(text)
    except (ValueError, IndexError, KeyError):
        return None
    return tree if tree.to_text() == text else None


def _dir_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _manifest_deviance(path: Path) -> dict[str, float]:
    return json.loads(path.read_text())["deviance"]


def _hmd_grid(values: np.ndarray, space: FeatureSpace, kind: str) -> hmd.HmdGrid:
    female = values[0].astype(np.float64)
    male = values[1].astype(np.float64)
    return hmd.HmdGrid(kind, space.ages(), space.years(), female, male, female + male)


def _five_year_buckets(age_max: int) -> str:
    """HMD abridged buckets 0;1-4;5-9;...;(last full 5-year group)+."""
    top = (age_max // 5) * 5
    return ";".join(["0", "1-4"] + [f"{lo}-{lo + 4}" for lo in range(5, top, 5)] + [f"{top}+"])


# --- swiss_closed_loop -----------------------------------------------------


class SwissClosedLoop:
    """Closed loop in memory on the Swiss-sized grid: sample, LC, cp ladder.

    The truth surface is the split-kernel benchmark's generator (cohort-ripple
    seed 12, male log offset +0.15, exposure 3e4). The benchmark seed moves
    only the Poisson sampling seed, 5 + seed, so seed 0 reproduces that
    benchmark's tree at cp=5e-4.
    """

    name = "swiss_closed_loop"
    fixed_input = False
    reference_files = tuple(f"cp={cp!r}/tree.txt" for cp in CP_LADDER)

    def setup(self, seed: int, small: bool, workdir: Path):
        space = FeatureSpace(0, 40, 1960, 2014) if small else FeatureSpace(0, 97, 1876, 2014)
        ages, years = space.ages(), space.years()
        log_q = np.log(
            np.clip(
                3e-4 * np.exp(0.088 * ages[:, None]) * np.exp(-0.008 * (years[None, :] - 1876)),
                1e-6,
                0.7,
            )
        )
        cohort_ripple = np.random.default_rng(12).normal(0, 0.08, space.n_cohorts)
        log_q = log_q + cohort_ripple[space.cohort_grid() - space.cohort_min]
        q = np.clip(np.exp(np.stack([log_q, log_q + 0.15])), 0, 1)
        return simulate.SimSpec(
            q=RateSurface(space, q), exposure=np.full(space.shape, 3e4), seed=5 + seed
        )

    def run(self, spec, passdir: Path):
        ops: list[tuple[str, int]] = []
        texts: dict[str, str] = {}
        fits = None
        try:
            table = simulate.sample_deaths(spec)
            ops.append(("sample_deaths", 0))
            fits = leecarter.fit_lc_both(table)
            ops.append(("fit_lc_both", 0))
            surface = leecarter.rate_surface(spec.q.space, fits)
            for cp in CP_LADDER:
                result = backtest_mod.backtest(surface, table, TreeConfig(cp=cp))
                texts[f"cp={cp!r}/tree.txt"] = result.tree.to_text()
                ops.append((f"backtest cp={cp!r}", 0))
        except Exception as exc:  # an operation that raises is a failed operation
            ops.append((f"raised {type(exc).__name__}: {exc}", 1))
        return ops, texts, fits

    def check(self, spec, raw, passdir: Path) -> Outcome:
        ops, texts, fits = raw
        out = Outcome(ops=list(ops))
        out.digests = {k: sha256(v) for k, v in texts.items()}
        if fits is not None:
            out.deviance = {g: fits[g].deviance for g in GENDERS}
        splits = []
        for key, text in texts.items():
            tree = _parse_tree(text)
            if tree is None:
                out.problems.append(f"{key}: tree text does not round-trip")
            else:
                splits.append(tree.n_splits)
        # a larger cp grows a prefix of the smaller-cp tree
        if splits != sorted(splits):
            out.problems.append(f"split counts not monotone along the cp ladder: {splits}")
        return out


# --- walkthrough_rh --------------------------------------------------------

_README_SIM = """ages = {ages}
years = {years}
seed = 7
exposure = 50000
base_rate = 5e-5
age_slope = 0.09
male_factor = 1.4
causes = 12
buckets = {buckets}
"""


class WalkthroughRH:
    """The README CLI walkthrough, in-process through mortboost.cli.main.

    The input is the README's sim.cfg (seed = 7) whatever the benchmark
    seed: the Renshaw-Haberman iteration count depends on the sampled
    deaths (320 to 1,700 iterations over simulation seeds 7..14, 3.6 to
    9.7 s on a 2-core AMD EPYC with one BLAS thread), so a seed-varied
    input would spread this workload's time wider than any regression
    bound. The README case is the named one.

    On this input `check --kind rh` exits 3: the male fit's grid-weighted
    gamma sum is 1.4e-9 against --tol 1e-10. The step stays in the pass
    and counts as a failed operation until the solver keeps the constraint.
    """

    name = "walkthrough_rh"
    fixed_input = True
    reference_files = ("bt_lc/tree.txt", "bt_lc/delta.csv")

    def setup(self, seed: int, small: bool, workdir: Path):
        if small:
            ages, years, buckets, plot = "0:40", "1980:2014", "0;1-14;15-29;30+", "1980,2000"
        else:
            ages, years, buckets, plot = "0:97", "1950:2014", cli.DEFAULT_BUCKETS, "1950,2000"
        workdir.mkdir(parents=True, exist_ok=True)
        spec = workdir / "sim.cfg"
        spec.write_text(_README_SIM.format(ages=ages, years=years, buckets=buckets))
        return {"spec": spec, "ages": ages, "years": years, "buckets": buckets, "plot": plot}

    def run(self, inp, d: Path):
        data = d / "data"
        hmd_in = ["--deaths", data / "deaths.txt", "--exposures", data / "exposures.txt"]
        grid = ["--ages", inp["ages"], "--years", inp["years"]]
        steps = [
            ("simulate", ["simulate", "--spec", inp["spec"], "--out", data]),
            ("fit lc", ["fit", "lc", *hmd_in, *grid, "--out", d / "fit_lc"]),
            ("check lc", ["check", "--params", d / "fit_lc/params.csv", "--kind", "lc"]),
            (
                "fit rh",
                ["fit", "rh", *hmd_in, *grid, "--warm-start", d / "fit_lc/params.csv",
                 "--out", d / "fit_rh"],
            ),
            ("check rh", ["check", "--params", d / "fit_rh/params.csv", "--kind", "rh"]),
            (
                "backtest lc",
                ["backtest", "--qfit", d / "fit_lc/qfit.csv", *hmd_in, "--cp", "2e-3",
                 "--out", d / "bt_lc", "--svg", "--years-to-plot", inp["plot"]],
            ),
            (
                "backtest rh",
                ["backtest", "--qfit", d / "fit_rh/qfit.csv", *hmd_in, "--cp", "2e-3",
                 "--tag", "rh", "--out", d / "bt_rh"],
            ),
            (
                "cod",
                ["cod", "--cod", data / "cod.csv", "--qfit", d / "fit_rh/qfit.csv",
                 "--exposures", data / "exposures.txt", "--causes", "12",
                 "--buckets", inp["buckets"], "--out", d / "cod", "--svg"],
            ),
        ]
        ops, stdout = [], {}
        for name, argv in steps:
            code, stdout[name] = _cli(argv)
            ops.append((name, code))
        return ops, stdout

    def check(self, inp, raw, d: Path) -> Outcome:
        ops, stdout = raw
        out = Outcome(ops=list(ops))
        out.digests = _dir_digests(d)
        for tree in ("bt_lc/tree.txt", "bt_rh/tree.txt", "cod/tree.txt"):
            path = d / tree
            if not path.is_file() or _parse_tree(path.read_text()) is None:
                out.problems.append(f"{tree}: missing or does not round-trip")
        for name in ("check lc", "check rh"):
            rows = [ln for ln in stdout.get(name, "").splitlines() if ln.strip()]
            if len(rows) != (4 if name == "check lc" else 8):
                out.problems.append(f"{name}: printed {len(rows)} constraint rows")
        try:
            lc = _manifest_deviance(d / "fit_lc/manifest.json")
            rh = _manifest_deviance(d / "fit_rh/manifest.json")
        except (OSError, KeyError, ValueError) as exc:
            out.problems.append(f"fit manifests unreadable: {exc}")
            return out
        out.deviance = rh
        for g in GENDERS:
            # RH nests LC (gamma = 0), so its deviance can only be lower
            if not rh[g] <= lc[g]:
                out.problems.append(f"{g}: RH deviance {rh[g]!r} above LC deviance {lc[g]!r}")
        return out


# --- cod_5y ----------------------------------------------------------------


class Cod5y:
    """Cause-of-death decomposition on 12 causes x 21 five-year buckets.

    The truth theta is non-uniform (a uniform truth grows no split):
    w = exp(0.8 sin(k + 3b) + 0.5 ((k mod 3) - 1) t + 0.2 [male][k = 10]),
    normalised over the causes k = 0..11, with bucket b and year t scaled to
    [0, 1]. Cause k = 3 is MISSING for the first 10 years. The rates are the
    README sim.cfg surface; the benchmark seed moves the sampling seed 7 + seed.
    """

    name = "cod_5y"
    fixed_input = False
    reference_files = ("cod/tree.txt", "cod/theta.csv", "cod/residuals.csv")
    n_causes = 12
    missing_cause = 3
    missing_years = 10

    def setup(self, seed: int, small: bool, workdir: Path):
        space = FeatureSpace(0, 40, 1980, 2014) if small else FeatureSpace(0, 97, 1950, 2014)
        buckets = _five_year_buckets(space.age_max)
        bucketing = AgeBucketing.from_spec(buckets, space.age_min, space.age_max)
        ages = space.ages().astype(np.float64)
        base = np.broadcast_to(5e-5 * np.exp(0.09 * ages)[:, None], space.shape[1:])
        q = np.minimum(np.stack([base, base * 1.4]), 1.0)
        I, T, K = bucketing.n_buckets, space.n_years, self.n_causes
        g, b, t, k = np.meshgrid(
            np.arange(2), np.arange(I) / (I - 1), np.arange(T) / (T - 1), np.arange(K),
            indexing="ij",
        )
        w = np.exp(
            0.8 * np.sin(k + 3 * b) + 0.5 * ((k % 3) - 1) * t + 0.2 * (g == 1) * (k == 10)
        )
        theta = ThetaSurface(w / w.sum(axis=3, keepdims=True))
        spec = simulate.SimSpec(
            q=RateSurface(space, q),
            exposure=np.full(space.shape, 5e4),
            seed=7 + seed,
            theta=theta,
            bucketing=bucketing,
        )
        return {"spec": spec, "buckets": buckets}

    def run(self, inp, d: Path):
        spec = inp["spec"]
        space = spec.q.space
        data = d / "data"
        ops: list[tuple[str, int]] = []
        try:
            table = simulate.sample_deaths(spec)
            cod, _ = simulate.sample_cause_deaths(spec)
            ops.append(("sample", 0))
            missing = np.zeros(cod.counts.shape, dtype=bool)
            missing[:, :, : self.missing_years, self.missing_cause] = True
            cod = hmd.CauseDeathTable(
                causes=cod.causes,
                n_buckets=cod.n_buckets,
                year_min=cod.year_min,
                year_max=cod.year_max,
                counts=np.where(missing, 0, cod.counts),
                missing=missing,
                bucketing=cod.bucketing,
            )
            data.mkdir(parents=True, exist_ok=True)
            (data / "deaths.txt").write_text(
                hmd.write_hmd_1x1(_hmd_grid(table.deaths, space, "deaths"))
            )
            (data / "exposures.txt").write_text(
                hmd.write_hmd_1x1(_hmd_grid(table.exposure, space, "exposures"))
            )
            (data / "cod.csv").write_text(hmd.write_cod_csv(cod))
            ops.append(("write inputs", 0))
        except Exception as exc:  # an operation that raises is a failed operation
            ops.append((f"raised {type(exc).__name__}: {exc}", 1))
            return ops
        grid = ["--ages", f"{space.age_min}:{space.age_max}",
                "--years", f"{space.year_min}:{space.year_max}"]
        steps = [
            ("fit lc", ["fit", "lc", "--deaths", data / "deaths.txt",
                        "--exposures", data / "exposures.txt", *grid, "--out", d / "fit_lc"]),
            ("cod", ["cod", "--cod", data / "cod.csv", "--qfit", d / "fit_lc/qfit.csv",
                     "--exposures", data / "exposures.txt", "--causes", str(self.n_causes),
                     "--buckets", inp["buckets"], "--smooth-window", "5", "--svg",
                     "--out", d / "cod"]),
        ]
        for name, argv in steps:
            ops.append((name, _cli(argv)[0]))
        return ops

    def check(self, inp, raw, d: Path) -> Outcome:
        out = Outcome(ops=list(raw))
        out.digests = _dir_digests(d)
        tree = d / "cod/tree.txt"
        if not tree.is_file() or _parse_tree(tree.read_text()) is None:
            out.problems.append("cod/tree.txt: missing or does not round-trip")
        try:
            out.deviance = _manifest_deviance(d / "fit_lc/manifest.json")
        except (OSError, KeyError, ValueError) as exc:
            out.problems.append(f"fit manifest unreadable: {exc}")
        return out


WORKLOADS = {w.name: w for w in (SwissClosedLoop(), WalkthroughRH(), Cod5y())}

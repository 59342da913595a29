"""Command-line surface: fit, backtest, cod, simulate, check.

Batch in, files out. Every run writes exactly one manifest.json next to its
outputs. All dense CSV exports iterate gender-major, age-major, year-minor
(the package's storage order) and print floats at full round-trip precision.
Exit codes: 0 ok, 2 usage, 3 parse/data error, 4 non-convergence, 5 internal
error. The RH fit solves its linear systems through BLAS, so byte-identical
rh outputs need the same BLAS thread count (e.g. OPENBLAS_NUM_THREADS) on
every run. A key = value config file passed with --config supplies flag
defaults; explicit flags override it.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import codboost, hmd, leecarter, renshawhaberman, svgplot
from .backtest import backtest as run_backtest
from .backtest import export_delta_heatmap
from .grids import (
    GENDERS,
    AgeBucketing,
    FeatureSpace,
    aggregate_rates,
    crude_rates,
    rate_surface_from_csv,
    rate_surface_to_csv,
    write_file,
)
from .manifest import write_manifest
from .simulate import load_sim_spec, sample_cause_deaths, sample_deaths
from .tree import TreeConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NOCONV = 4
EXIT_INTERNAL = 5

DEFAULT_BUCKETS = "0;1-14;15-44;45-64;65-84;85+"
# a `--causes` count is checked before its labels are built; ICD-10 has about
# 2,000 three-character categories
MAX_CAUSES = 10_000
MODELS = {"lc": leecarter.LCParams, "rh": renshawhaberman.RHParams}
# rh: weakly identified directions make the last decades of relative
# deviance improvement (1e-8 .. 1e-10) cost minutes for statistically
# irrelevant gains, so the CLI default stops earlier; --tol overrides
FIT_DEFAULTS = {
    "lc": leecarter.FitConfig(),
    "rh": dataclasses.replace(renshawhaberman.RH_DEFAULT_CONFIG, deviance_tol=1e-8),
}


class DataError(Exception):
    pass


def _load_table(args, space: FeatureSpace):
    """The command's --deaths (all 0 for a command without it) and --exposures,
    clipped to the space, and the clip's warnings; a fault of either grid
    names its flag and file."""
    deaths = _read_hmd("--deaths", args.deaths, "deaths") if hasattr(args, "deaths") else None
    exposures = _read_hmd("--exposures", args.exposures, "exposures")
    try:
        return hmd.clip_to_space(deaths, exposures, space, not args.no_pool_top_age)
    except hmd.GridError as exc:  # the grid's kind is its flag and args field
        raise DataError(f"--{exc.kind} {getattr(args, exc.kind)}: {exc}") from None


def _read_file(flag: str, path: str, reader):
    """reader(text) of the file at path; a file that cannot be read or decoded,
    and a reader's ValueError, name the flag and file."""
    try:
        return reader(Path(path).read_text())
    except OSError as exc:
        raise DataError(f"{flag} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise DataError(f"{flag} {path}: {exc}") from None


def _read_hmd(flag: str, path: str, kind: str) -> hmd.HmdGrid:
    return _read_file(flag, path, lambda text: hmd.parse_hmd_1x1(text, kind))


def _config(cfg, **flags):
    """cfg with each field set in turn to its (flag, value), where the value
    is not None; a value that the config rejects names its flag."""
    for field, (flag, value) in flags.items():
        try:
            cfg = cfg if value is None else dataclasses.replace(cfg, **{field: value})
        except ValueError as exc:
            raise DataError(f"{flag} {value}: {exc}") from None
    return cfg


def _load_warm_start(path: str, space: FeatureSpace) -> dict[str, leecarter.LCParams]:
    """LC parameters for every gender, on exactly the fit's age and year ranges."""
    warm = _read_file("--warm-start", path, leecarter.params_from_csv)
    for g in GENDERS:
        if g not in warm:
            raise DataError(f"--warm-start {path}: no {g} parameters")
        if warm[g].space != space:
            raise DataError(
                f"--warm-start {path}: {g} parameters cover {warm[g].space.describe()}; "
                f"the fit uses {space.describe()}"
            )
    return warm


def cmd_fit(args) -> int:
    ages = hmd.parse_range(args.ages, "--ages")
    years = hmd.parse_range(args.years, "--years")
    try:
        space = FeatureSpace(ages[0], ages[1], years[0], years[1])
    except ValueError as exc:
        raise DataError(f"--ages {args.ages}, --years {args.years}: {exc}") from None
    table, warnings = _load_table(args, space)
    cfg = _config(FIT_DEFAULTS[args.model], max_iterations=("--max-iter", args.max_iter),
                  deviance_tol=("--tol", args.tol), rate_floor=("--rate-floor", args.rate_floor))
    if args.model == "lc":
        fits = leecarter.fit_lc_both(table, cfg)
    else:
        warm = _load_warm_start(args.warm_start, space) if args.warm_start else None
        fits = renshawhaberman.fit_rh_both(table, cfg, warm_start=warm)
    for g in GENDERS:
        warnings.extend(f"{g}: {flag}" for flag in fits[g].flags)
    surface = leecarter.rate_surface(space, fits)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_file(out / "params.csv", leecarter.params_to_csv(fits))
    write_file(out / "qfit.csv", rate_surface_to_csv(surface))
    converged = {g: fits[g].converged for g in GENDERS}
    inputs = [args.deaths, args.exposures] + ([args.warm_start] if args.warm_start else [])
    write_manifest(
        out,
        f"fit {args.model}",
        {
            "ages": args.ages,
            "years": args.years,
            "max_iterations": cfg.max_iterations,
            "deviance_tol": cfg.deviance_tol,
            "rate_floor": cfg.rate_floor,
            "pool_top_age": not args.no_pool_top_age,
        },
        inputs,
        [out / "params.csv", out / "qfit.csv"],
        warnings,
        extra={
            "converged": converged,
            "deviance": {g: fits[g].deviance for g in GENDERS},
            "iterations": {g: fits[g].n_iterations for g in GENDERS},
        },
    )
    if not all(converged.values()):
        print("fit did not converge; outputs written with converged=false", file=sys.stderr)
        return EXIT_NOCONV
    return EXIT_OK


def _years_to_plot(spec: str, space: FeatureSpace) -> list[int]:
    """The comma-separated years of --years-to-plot, each a fitted year."""
    try:
        years = [int(y) for y in spec.split(",")]
    except ValueError as exc:
        raise DataError(f"--years-to-plot {spec}: {exc}") from None
    for year in years:
        if not space.year_min <= year <= space.year_max:
            raise DataError(f"--years-to-plot year {year} outside {space.year_min}:{space.year_max}")
    return years


def _tree_config(args) -> TreeConfig:
    return _config(TreeConfig(), cp=("--cp", args.cp), min_bucket=("--min-bucket", args.min_bucket),
                   max_depth=("--max-depth", args.max_depth))


def cmd_backtest(args) -> int:
    if not (math.isfinite(args.white_band) and args.white_band >= 0):
        raise DataError(f"--white-band must be finite and >= 0, got {args.white_band}")
    q_init = _read_file("--qfit", args.qfit, rate_surface_from_csv)
    space = q_init.space
    years = _years_to_plot(args.years_to_plot, space) if args.years_to_plot else []
    table, warnings = _load_table(args, space)
    cfg = _tree_config(args)
    try:
        result = run_backtest(q_init, table, cfg, initial_model_tag=args.tag)
    except ValueError as exc:  # a point's volume is a --qfit rate times an exposure
        raise DataError(f"--qfit {args.qfit}, --exposures {args.exposures}: {exc}") from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = export_delta_heatmap(result, out, white_band=args.white_band, svg=args.svg)
    tree_path = out / "tree.txt"
    write_file(tree_path, result.tree.to_text())
    outputs.append(tree_path)
    if args.svg and years:
        crude = crude_rates(table)
        ages, cols = space.ages(), np.array(years) - space.year_min
        for gi, g in enumerate(GENDERS):
            # (year, initial | boosted, age)
            lines = np.stack([q_init.rate[gi][:, cols], result.q_tree.rate[gi][:, cols]]).transpose(2, 0, 1)
            dots = [(ages, crude.rate[gi, :, t]) for t in cols]
            path = out / f"rates_{g}.svg"
            write_file(path, svgplot.panels_svg([f"{g} {y}" for y in years], ages, lines, dots, True))
            outputs.append(path)
    write_manifest(
        out,
        "backtest",
        {
            "cp": cfg.cp,
            "min_bucket": cfg.min_bucket,
            "max_depth": cfg.max_depth,
            "white_band": args.white_band,
            "tag": args.tag,
            "pool_top_age": not args.no_pool_top_age,
        },
        [args.qfit, args.deaths, args.exposures],
        outputs,
        warnings,
        extra={
            "dropped_cells": [list(c) for c in result.dropped],
            "n_splits": result.tree.n_splits,
            "split_features": result.tree.split_features(),
        },
    )
    return EXIT_OK


def _cause_registry(spec: str) -> tuple[str, ...]:
    """Either a cause count (generic labels) or pipe-separated labels."""
    spec = spec.strip()
    if spec.isdigit():
        if not spec.isdecimal():  # a digit such as ², which int() refuses
            raise DataError(f"--causes {spec} is not a decimal count")
        # int() refuses more than 4,300 digits: a longer count is above the limit anyway
        digits = spec.lstrip("0") or "0"
        if len(digits) > len(str(MAX_CAUSES)) or int(digits) > MAX_CAUSES:
            raise DataError(f"--causes {spec} is above the limit of {MAX_CAUSES} causes")
        if int(digits) < 1:
            raise DataError("--causes needs at least one cause")
        return hmd.generic_causes(int(digits))
    labels = tuple(part.strip() for part in spec.split("|"))
    for lab in labels:
        if not lab:
            raise DataError("empty cause label in --causes")
        if len((lab + ".").splitlines()) > 1:  # the tree text keeps the labels on one line
            raise DataError(f"cause label {lab!r} in --causes holds a line break")
    try:
        hmd.cause_index(labels)
    except ValueError as exc:
        raise DataError(f"--causes: {exc}") from None
    return labels


def cmd_cod(args) -> int:
    window = args.smooth_window
    if window is not None and (window < 1 or window % 2 == 0):
        raise DataError(f"--smooth-window must be an odd integer >= 1, got {window}")
    causes = _cause_registry(args.causes) if args.causes else hmd.DEFAULT_CAUSES
    q_full = _read_file("--qfit", args.qfit, rate_surface_from_csv)
    space = q_full.space
    try:
        bucketing = AgeBucketing.from_spec(args.buckets, space.age_min, space.age_max)
    except ValueError as exc:
        raise DataError(f"--buckets {args.buckets}: {exc}") from None
    table, warnings = _load_table(args, space)
    try:
        qtilde = aggregate_rates(q_full, table, bucketing)
    except ValueError as exc:  # a bucket without exposure
        raise DataError(f"--exposures {args.exposures}: {exc}") from None
    del q_full, table  # freed before the cause table is read: a smaller heap at the pass's peak
    cod = _read_file("--cod", args.cod, lambda text: hmd.parse_cod_csv(text, bucketing.n_buckets, causes))
    try:
        working = codboost.make_cod_working_data(cod, qtilde, codboost.init_theta(cod, args.theta_init))
    except ValueError as exc:  # the cause table against the rates fitted on its years
        raise DataError(f"--cod {args.cod}, --qfit {args.qfit}: {exc}") from None
    cfg = _tree_config(args)
    raw, norm, tree = codboost.estimate_theta_tree(working, cfg)
    residuals = codboost.pearson_residuals(cod, raw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "theta.csv", out / "residuals.csv", out / "tree.txt"]
    write_file(out / "theta.csv", codboost.theta_to_csv(cod, raw, norm, smooth_window=args.smooth_window))
    write_file(out / "residuals.csv", codboost.residuals_to_csv(cod, residuals))
    write_file(out / "tree.txt", tree.to_text())
    if args.svg:
        years = np.arange(cod.year_min, cod.year_max + 1)
        bucket_years = np.tile(years, cod.n_buckets)
        for gi, g in enumerate(GENDERS):
            # per cause: theta draws a line per bucket, residuals a dot per (bucket, year)
            resid = residuals.values[gi].transpose(2, 0, 1).reshape(cod.n_causes, -1)
            figures = {
                "theta": (raw.values[gi].transpose(2, 0, 1), np.empty((cod.n_causes, 2, 0))),
                "residuals": (np.empty((cod.n_causes, 0, years.size)), [(bucket_years, r) for r in resid]),
            }
            titles = [f"{cause} ({g})" for cause in cod.causes]
            for name, (lines, dots) in figures.items():
                path = out / f"{name}_{g}.svg"
                write_file(path, svgplot.panels_svg(titles, years, lines, dots, False))
                outputs.append(path)
    missing_note = (
        "all-cause totals for residuals use the sum over available causes; "
        "years with missing cause data use the partial sum"
    )
    write_manifest(
        out,
        "cod",
        {
            "buckets": args.buckets,
            "causes": list(causes),
            "cp": cfg.cp,
            "min_bucket": cfg.min_bucket,
            "max_depth": cfg.max_depth,
            "theta_init": args.theta_init,
            "theta_init_value": (
                1.0 / cod.n_causes if args.theta_init == "uniform" else "empirical"
            ),
            "smooth_window": args.smooth_window,
            "pool_top_age": not args.no_pool_top_age,
        },
        [args.cod, args.qfit, args.exposures],
        outputs,
        warnings + [missing_note],
        extra={
            "dropped_cells": [list(c) for c in working.dropped],
            "n_splits": tree.n_splits,
        },
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = _read_file("--spec", args.spec, load_sim_spec)
    table = sample_deaths(spec)
    cod_table = sample_cause_deaths(spec)[0] if spec.theta is not None else None
    space = spec.q.space

    def grid(values) -> hmd.HmdGrid:
        female = values[0].astype(np.float64)
        male = values[1].astype(np.float64)
        return hmd.HmdGrid(
            kind="deaths" if values.dtype.kind in "iu" else "exposures",
            ages=space.ages(),
            years=space.years(),
            female=female,
            male=male,
            total=female + male,
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / "deaths.txt", out / "exposures.txt"]
    write_file(out / "deaths.txt", hmd.write_hmd_1x1(grid(table.deaths)))
    write_file(out / "exposures.txt", hmd.write_hmd_1x1(grid(table.exposure)))
    if cod_table is not None:
        write_file(out / "cod.csv", hmd.write_cod_csv(cod_table))
        outputs.append(out / "cod.csv")
    write_manifest(
        out,
        "simulate",
        {"seed": spec.seed},
        [args.spec],
        outputs,
        [],
    )
    return EXIT_OK


def cmd_check(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise DataError(f"--tol must be finite and >= 0, got {args.tol}")
    fits = _read_file("--params", args.params, lambda text: leecarter.params_from_csv(text, MODELS[args.kind]))
    ok = True
    for g, p in sorted(fits.items()):
        for name, value in p.constraints():
            status = "ok" if abs(value) <= args.tol else "FAIL"
            ok &= status == "ok"
            print(f"{g} {name}: {value:.3e} [{status}]")
    return EXIT_OK if ok else EXIT_DATA


# the names a config file may set: defaults of the same-named flags (dashes allowed)
_CONFIG_KEYS = {
    "cp", "min_bucket", "max_depth", "white_band", "tol", "max_iter", "rate_floor",
    "buckets", "causes", "theta_init", "smooth_window", "tag",
}


def _set_config_defaults(parser: argparse.ArgumentParser, text: str) -> None:
    """Make a config file's values the defaults of the same-named flags of
    every command, each converted by its flag's type and one of its choices
    where it has them."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = [a for command in commands.choices.values() for a in command._actions if a.dest in _CONFIG_KEYS]
    seen = set()
    for key, (value, line) in hmd.read_key_values(text).items():
        dest = key.replace("-", "_")
        if dest not in _CONFIG_KEYS:
            raise hmd.ParseError(f"unknown key {key!r}", line)
        if dest in seen:
            raise hmd.ParseError(f"duplicate key {key!r}", line)
        seen.add(dest)
        message = f"bad value for {key!r}: {value!r}"
        for flag in flags:
            if flag.dest == dest:
                try:
                    default = (flag.type or str)(value)
                except ValueError:
                    raise hmd.ParseError(message, line) from None
                if flag.choices is not None and default not in flag.choices:
                    raise hmd.ParseError(message, line)
                flag.default = default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mortboost", description=__doc__)
    parser.add_argument("--config", help="key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags that several commands share, each declared once
    tree = argparse.ArgumentParser(add_help=False)
    tree.add_argument("--cp", type=float, default=TreeConfig.cp)
    tree.add_argument("--min-bucket", type=int, default=TreeConfig.min_bucket)
    tree.add_argument("--max-depth", type=int, default=TreeConfig.max_depth)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--exposures", required=True)
    table.add_argument("--no-pool-top-age", action="store_true")

    fit = sub.add_parser("fit", parents=[table], help="fit a mortality model by Poisson maximum likelihood")
    fit.add_argument("model", choices=list(MODELS))
    fit.add_argument("--deaths", required=True)
    fit.add_argument("--ages", required=True, help="age range LO:HI")
    fit.add_argument("--years", required=True, help="year range LO:HI")
    fit.add_argument("--out", required=True)
    fit.add_argument("--max-iter", type=int, default=None)
    tols = ", ".join(f"{cfg.deviance_tol:.0e} for {model}" for model, cfg in FIT_DEFAULTS.items())
    fit.add_argument("--tol", type=float, default=None, help=f"relative deviance-change stop (default {tols})")
    fit.add_argument("--rate-floor", type=float, default=leecarter.FitConfig.rate_floor)
    fit.add_argument("--warm-start", help="params.csv of an lc fit (rh only)")
    fit.set_defaults(func=cmd_fit)

    back = sub.add_parser("backtest", parents=[table, tree], help="one-step tree boosting back-test of fitted rates")
    back.add_argument("--qfit", required=True)
    back.add_argument("--deaths", required=True)
    back.add_argument("--out", required=True)
    back.add_argument("--white-band", type=float, default=0.05)
    back.add_argument("--tag", default="external", help="initial-model label for outputs")
    back.add_argument("--years-to-plot", help="comma-separated years for the rates chart")
    back.add_argument("--svg", action="store_true")
    back.set_defaults(func=cmd_backtest)

    cod = sub.add_parser("cod", parents=[table, tree], help="cause-of-death probabilities and residuals")
    cod.add_argument("--cod", required=True)
    cod.add_argument("--qfit", required=True)
    cod.add_argument("--out", required=True)
    cod.add_argument("--buckets", default=DEFAULT_BUCKETS)
    cod.add_argument(
        "--causes",
        help="cause registry: a count (generic labels) or pipe-separated labels; "
        "default is the built-in 12-cause registry",
    )
    cod.add_argument("--theta-init", choices=["uniform", "empirical"], default="uniform")
    cod.add_argument("--smooth-window", type=int, default=None)
    cod.add_argument("--svg", action="store_true")
    cod.set_defaults(func=cmd_cod)

    sim = sub.add_parser("simulate", help="sample synthetic data in the ingest formats")
    sim.add_argument("--spec", required=True, help="key = value simulation spec file")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="verify identifiability constraints of a params.csv")
    check.add_argument("--params", required=True)
    check.add_argument("--kind", choices=list(MODELS), required=True)
    check.add_argument("--tol", type=float, default=1e-10)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        parser = build_parser()
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--config")
        config = probe.parse_known_args(argv)[0].config
        if config:
            _read_file("--config", config, lambda text: _set_config_defaults(parser, text))
        args = parser.parse_args(argv)
        if args.command == "fit" and args.model == "lc" and args.warm_start:
            parser.error("--warm-start applies only to fit rh")
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mortboost
from mortboost import GENDERS, FeatureSpace, PoissonTree, clip_to_space, fit_rh, parse_hmd_1x1
from mortboost.backtest import grid_features
from mortboost.cli import FIT_DEFAULTS, main
from mortboost.grids import rate_surface_from_csv, rate_surface_to_csv
from mortboost.leecarter import params_from_csv, params_to_csv, rate_surface
from test_codec_properties import damage

SIM_SPEC = """
ages = 0:9
years = 2000:2009
seed = 404
exposure = 50000
base_rate = 2e-3
age_slope = 0.12
year_drift = -0.01
male_factor = 1.4
causes = 3
buckets = 0-4;5-9
"""


def hmd_with(source: Path, path: Path, line: int, field: int, value: str) -> Path:
    """source's HMD text with field `field` of its 1-based `line` set to
    value, written to path; line 4 is year 2000, age 0 of the fixtures."""
    lines = source.read_text().splitlines()
    fields = lines[line - 1].split()
    fields[field] = value
    lines[line - 1] = "  ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path


def exposure_argv(command: str, sim_dir: Path, qfit: Path, exposures: Path, out: Path) -> list[str]:
    """argv of a `fit lc`, `backtest` or `cod` run on the sim_dir fixture that
    reads the exposures and (but for `fit lc`) the qfit file given."""
    deaths = str(sim_dir / "deaths.txt")
    return {
        "fit lc": ["fit", "lc", "--deaths", deaths, "--ages", "0:9", "--years", "2000:2009"],
        "backtest": ["backtest", "--qfit", str(qfit), "--deaths", deaths],
        "cod": ["cod", "--cod", str(sim_dir / "cod.csv"), "--qfit", str(qfit), "--causes", "3",
                "--buckets", "0-4;5-9"],
    }[command] + ["--exposures", str(exposures), "--out", str(out)]


def main_in_1gb(argv: list[str]) -> subprocess.CompletedProcess:
    """main(argv) in a child process whose address space is capped at 1 GB,
    so that a run which builds a huge range fails at once (MemoryError, exit
    5) instead of exhausting the host's memory."""
    script = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 2**30 if hard == resource.RLIM_INFINITY else min(2**30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from mortboost.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    src = str(Path(mortboost.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sim")
    spec = root / "sim.cfg"
    spec.write_text(SIM_SPEC)
    out = root / "data"
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def lc_fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("lcfit")
    code = main(
        [
            "fit", "lc",
            "--deaths", str(sim_dir / "deaths.txt"),
            "--exposures", str(sim_dir / "exposures.txt"),
            "--ages", "0:9", "--years", "2000:2009",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestSimulate:
    def test_rerun_is_byte_identical(self, sim_dir, tmp_path):
        spec = tmp_path / "sim.cfg"
        spec.write_text(SIM_SPEC)
        again = tmp_path / "data2"
        assert main(["simulate", "--spec", str(spec), "--out", str(again)]) == 0
        for name in ("deaths.txt", "exposures.txt", "cod.csv"):
            assert (again / name).read_bytes() == (sim_dir / name).read_bytes(), name

    def test_outputs_reingest_cleanly(self, sim_dir):
        deaths = parse_hmd_1x1((sim_dir / "deaths.txt").read_text(), "deaths")
        exposures = parse_hmd_1x1((sim_dir / "exposures.txt").read_text(), "exposures")
        assert not np.any(np.isnan(deaths.female))
        assert not np.any(np.isnan(exposures.male))
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["warnings"] == []


class TestFit:
    def test_outputs_and_manifest(self, lc_fit_dir):
        assert (lc_fit_dir / "params.csv").exists()
        qfit_lines = (lc_fit_dir / "qfit.csv").read_text().splitlines()
        assert len(qfit_lines) == 1 + 2 * 10 * 10
        manifest = json.loads((lc_fit_dir / "manifest.json").read_text())
        assert manifest["converged"] == {"female": True, "male": True}
        assert "threads" not in manifest["config"]

    def test_check_passes_on_fit_params(self, lc_fit_dir, capsys):
        code = main(["check", "--params", str(lc_fit_dir / "params.csv"), "--kind", "lc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "FAIL" not in out

    def test_fit_is_idempotent(self, sim_dir, lc_fit_dir, tmp_path):
        out2 = tmp_path / "again"
        main(
            [
                "fit", "lc",
                "--deaths", str(sim_dir / "deaths.txt"),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--ages", "0:9", "--years", "2000:2009",
                "--out", str(out2),
            ]
        )
        for name in ("params.csv", "qfit.csv", "manifest.json"):
            assert (out2 / name).read_bytes() == (lc_fit_dir / name).read_bytes(), name

    def test_rh_warm_start_nests(self, sim_dir, lc_fit_dir, tmp_path):
        out = tmp_path / "rh"
        code = main(
            [
                "fit", "rh",
                "--deaths", str(sim_dir / "deaths.txt"),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--ages", "0:9", "--years", "2000:2009",
                "--out", str(out),
                "--warm-start", str(lc_fit_dir / "params.csv"),
                "--max-iter", "150",
            ]
        )
        assert code in (0, 4)  # capped iterations may stop before the tolerance
        rh_manifest = json.loads((out / "manifest.json").read_text())
        lc_manifest = json.loads((lc_fit_dir / "manifest.json").read_text())
        assert lc_manifest["config"]["deviance_tol"] == 1e-10
        assert rh_manifest["config"]["deviance_tol"] == 1e-8  # rh-specific default
        for g in ("female", "male"):
            assert rh_manifest["deviance"][g] <= lc_manifest["deviance"][g] + 1e-8
        assert main(["check", "--params", str(out / "params.csv"), "--kind", "rh"]) == 0

    def test_rh_warm_start_must_cover_the_fit(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        rows = (lc_fit_dir / "params.csv").read_text().splitlines(keepends=True)
        female_only = tmp_path / "female_only.csv"
        female_only.write_text("".join(r for r in rows if not r.startswith("male,")))
        fewer_ages = tmp_path / "ages_0_8.csv"
        fewer_ages.write_text("".join(r for r in rows if ",beta0,9," not in r and ",beta1,9," not in r))
        for warm, message in ((female_only, "no male parameters"), (fewer_ages, "cover ages 0:8")):
            code = main(
                [
                    "fit", "rh",
                    "--deaths", str(sim_dir / "deaths.txt"),
                    "--exposures", str(sim_dir / "exposures.txt"),
                    "--ages", "0:9", "--years", "2000:2009",
                    "--out", str(tmp_path / "rh"),
                    "--warm-start", str(warm),
                ]
            )
            assert code == 3
            err = capsys.readouterr().err
            assert str(warm) in err and message in err, err

    def test_non_convergence_exit_code(self, sim_dir, tmp_path):
        for model in ("lc", "rh"):
            out = tmp_path / f"noconv_{model}"
            code = main(
                [
                    "fit", model,
                    "--deaths", str(sim_dir / "deaths.txt"),
                    "--exposures", str(sim_dir / "exposures.txt"),
                    "--ages", "0:9", "--years", "2000:2009",
                    "--out", str(out),
                    "--max-iter", "1",
                ]
            )
            assert code == 4, model
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["converged"] == {"female": False, "male": False}
            assert (out / "qfit.csv").exists()
            # one flag per gender: a cold rh fit does not repeat its warm start's
            for g in ("female", "male"):
                assert manifest["warnings"].count(f"{g}: not converged after 1 iterations") == 1


def fit_rh_in_a_child(argv: list[str]) -> subprocess.CompletedProcess:
    """`mortboost fit rh` with argv in a child process, stdout and stderr on
    pipes; the child prints a line to stdout before main, where it waits in
    the block buffer while the fit forks, and registers one to print at exit."""
    script = (
        "import atexit, sys\n"
        "print('before main')\n"
        "atexit.register(print, 'at exit')\n"
        "from mortboost.cli import main\n"
        f"sys.exit(main(['fit', 'rh', *{argv!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mortboost.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)


class TestFitRhWorker:
    """`fit rh` fits one gender in a forked worker (renshawhaberman.fit_rh_both)."""

    def argv(self, sim_dir, exposures, out) -> list[str]:
        return ["--deaths", str(sim_dir / "deaths.txt"), "--exposures", str(exposures),
                "--ages", "0:9", "--years", "2000:2009", "--out", str(out)]

    def test_output_once_and_the_csvs_of_per_gender_fits(self, sim_dir, lc_fit_dir, tmp_path):
        warm_csv = lc_fit_dir / "params.csv"
        argv = self.argv(sim_dir, sim_dir / "exposures.txt", tmp_path / "rh") + ["--warm-start", str(warm_csv)]
        run = fit_rh_in_a_child(argv)
        assert (run.returncode, run.stdout, run.stderr) == (0, "before main\nat exit\n", "")

        space = FeatureSpace(0, 9, 2000, 2009)
        grids = [parse_hmd_1x1((sim_dir / f"{kind}.txt").read_text(), kind) for kind in ("deaths", "exposures")]
        table, _ = clip_to_space(*grids, space, True)
        warm = params_from_csv(warm_csv.read_text())
        fits = {g: fit_rh(table, g, FIT_DEFAULTS["rh"], warm_start=warm[g]) for g in GENDERS}
        assert (tmp_path / "rh/params.csv").read_text() == params_to_csv(fits)
        assert (tmp_path / "rh/qfit.csv").read_text() == rate_surface_to_csv(rate_surface(space, fits))

    @pytest.mark.parametrize("failing", GENDERS)
    def test_a_failing_gender_exits_3_with_its_message(self, sim_dir, tmp_path, failing):
        # the failing gender keeps exposure at age 0 only
        column = 2 + GENDERS.index(failing)
        lines = (sim_dir / "exposures.txt").read_text().splitlines()
        for i, line in enumerate(lines[3:], start=3):
            fields = line.split()
            if fields[1] != "0":
                fields[column] = "0.0"
            lines[i] = "  ".join(fields)
        exposures = tmp_path / "exposures.txt"
        exposures.write_text("\n".join(lines) + "\n")
        run = fit_rh_in_a_child(self.argv(sim_dir, exposures, tmp_path / "rh"))
        assert (run.returncode, run.stdout) == (3, "before main\nat exit\n")
        assert run.stderr == "error: need at least 2 ages and 2 years with positive exposure\n"


@pytest.fixture(scope="module")
def backtest_dir(sim_dir, lc_fit_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("backtest")
    code = main(
        [
            "backtest",
            "--qfit", str(lc_fit_dir / "qfit.csv"),
            "--deaths", str(sim_dir / "deaths.txt"),
            "--exposures", str(sim_dir / "exposures.txt"),
            "--out", str(out),
            "--cp", "2e-3", "--min-bucket", "5",
            "--svg", "--years-to-plot", "2000,2009",
            "--tag", "LC",
        ]
    )
    assert code == 0
    return out


class TestBacktest:
    def test_delta_csv_schema(self, backtest_dir):
        lines = (backtest_dir / "delta.csv").read_text().splitlines()
        assert lines[0] == "gender,age,year,cohort,delta"
        assert len(lines) == 1 + 200

    def test_tree_text_round_trip(self, backtest_dir, lc_fit_dir):
        tree = PoissonTree.from_text((backtest_dir / "tree.txt").read_text())
        q = rate_surface_from_csv((lc_fit_dir / "qfit.csv").read_text())
        mu = tree.predict(grid_features(q.space))
        deltas = {}
        for line in (backtest_dir / "delta.csv").read_text().splitlines()[1:]:
            g, a, t, c, d = line.split(",")
            deltas[(g, int(a), int(t))] = float(d)
        grid = np.array(
            [deltas[(g, a, t)] for g in ("female", "male") for a in range(10) for t in range(2000, 2010)]
        )
        assert np.array_equal(mu, grid + 1.0)

    def test_svg_outputs_exist(self, backtest_dir):
        import xml.etree.ElementTree as ET

        for name in ("delta_female.svg", "delta_male.svg", "rates_female.svg", "rates_male.svg"):
            ET.fromstring((backtest_dir / name).read_text())

    def test_manifest_has_split_info(self, backtest_dir):
        manifest = json.loads((backtest_dir / "manifest.json").read_text())
        assert manifest["config"]["white_band"] == 0.05
        assert "n_splits" in manifest


class TestCod:
    def test_end_to_end_with_missing_cells(self, sim_dir, lc_fit_dir, tmp_path):
        # inject MISSING cells for cause 2 in the first year
        cod_text = (sim_dir / "cod.csv").read_text().splitlines()
        out_lines = [cod_text[0]]
        blanked = []
        for line in cod_text[1:]:
            g, b, t, k, d = line.split(",")
            if t == "2000" and k == "2":
                line = f"{g},{b},{t},{k},"
                blanked.append((g, int(b), int(t), int(k)))
            out_lines.append(line)
        cod_path = tmp_path / "cod.csv"
        cod_path.write_text("\n".join(out_lines) + "\n")

        out = tmp_path / "cod_out"
        code = main(
            [
                "cod",
                "--cod", str(cod_path),
                "--qfit", str(lc_fit_dir / "qfit.csv"),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--buckets", "0-4;5-9",
                "--causes", "3",
                "--out", str(out),
                "--cp", "1e-3",
                "--min-bucket", "2",
                "--smooth-window", "5",
                "--svg",
            ]
        )
        assert code == 0
        theta_lines = (out / "theta.csv").read_text().splitlines()
        assert theta_lines[0] == "gender,age_group,year,cause,theta_raw,theta_norm,theta_raw_smooth"
        assert len(theta_lines) == 1 + 2 * 2 * 10 * 3

        residuals = {}
        for line in (out / "residuals.csv").read_text().splitlines()[1:]:
            g, b, t, k, d = line.split(",")
            residuals[(g, int(b), int(t), int(k))] = float(d)
        for key in blanked:
            assert residuals[key] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["theta_init_value"] == pytest.approx(1 / 3)

    def test_smooth_window_must_be_odd_and_positive(self, tmp_path, capsys):
        # checked before any input is read, so the input paths need not exist
        argv = [
            "cod", "--cod", str(tmp_path / "none.csv"), "--qfit", str(tmp_path / "none"),
            "--exposures", str(tmp_path / "none.txt"), "--out", str(tmp_path / "out"),
        ]
        for window in ("4", "0", "-3"):
            assert main([*argv, "--smooth-window", window]) == 3
            err = capsys.readouterr().err
            assert f"--smooth-window must be an odd integer >= 1, got {window}" in err
        cfg = tmp_path / "mort.cfg"
        cfg.write_text("smooth-window = 2\n")
        assert main(["--config", str(cfg), *argv]) == 3
        assert "--smooth-window must be an odd integer >= 1, got 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empirical_prior_drops_a_cause_without_deaths(self, sim_dir, lc_fit_dir, tmp_path):
        # cause 2 has no deaths, so its empirical prior and working volumes are 0
        rows = [line.split(",") for line in (sim_dir / "cod.csv").read_text().splitlines()]
        cod = tmp_path / "cod.csv"
        cod.write_text("".join(",".join(r[:4] + ["0" if r[3] == "2" else r[4]]) + "\n" for r in rows))
        out = tmp_path / "out"
        code = main(["cod", "--cod", str(cod), "--qfit", str(lc_fit_dir / "qfit.csv"),
                     "--exposures", str(sim_dir / "exposures.txt"), "--causes", "3",
                     "--buckets", "0-4;5-9", "--theta-init", "empirical", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dropped_cells"] == [
            [g, b, t, "cause 2"] for g in ("female", "male") for b in (1, 2) for t in range(2000, 2010)
        ]

    def test_bucket_mismatch_is_data_error(self, sim_dir, lc_fit_dir, tmp_path):
        code = main(
            [
                "cod",
                "--cod", str(sim_dir / "cod.csv"),
                "--qfit", str(lc_fit_dir / "qfit.csv"),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--buckets", "0-2;3-5;6-9",
                "--causes", "3",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 3


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, sim_dir, lc_fit_dir, tmp_path):
        cfg = tmp_path / "mort.cfg"
        cfg.write_text("cp = 0.5\nmin_bucket = 7\n")
        out = tmp_path / "bt"
        code = main(
            [
                "--config", str(cfg),
                "backtest",
                "--qfit", str(lc_fit_dir / "qfit.csv"),
                "--deaths", str(sim_dir / "deaths.txt"),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--out", str(out),
                "--cp", "1e-3",  # flag wins over the config value
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["cp"] == 1e-3
        assert manifest["config"]["min_bucket"] == 7

    def test_every_config_key_sets_a_flag_converted_by_its_type(self):
        from mortboost.cli import _CONFIG_KEYS, _set_config_defaults, build_parser

        values = {"cp": 0.5, "min_bucket": 7, "max_depth": 4, "white_band": 0.1, "tol": 1e-3, "max_iter": 12,
                  "rate_floor": 1e-9, "buckets": "0-4;5-9", "causes": "3", "theta_init": "empirical",
                  "smooth_window": 3, "tag": "lc"}
        assert set(values) == _CONFIG_KEYS
        parser = build_parser()
        _set_config_defaults(parser, "".join(f"{k} = {v}\n" for k, v in values.items()))
        seen = {}
        for argv in (["fit", "lc", "--deaths", "d", "--exposures", "e", "--ages", "0:1", "--years", "0:1",
                      "--out", "o"],
                     ["backtest", "--qfit", "q", "--deaths", "d", "--exposures", "e", "--out", "o"],
                     ["cod", "--cod", "c", "--qfit", "q", "--exposures", "e", "--out", "o"],
                     ["check", "--params", "p", "--kind", "lc"]):
            seen.update((k, v) for k, v in vars(parser.parse_args(argv)).items() if k in values)
        assert seen == values
        assert all(type(seen[k]) is type(values[k]) for k in values)

    def test_unknown_config_key_is_data_error(self, tmp_path):
        cfg = tmp_path / "mort.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["--config", str(cfg), "check", "--params", "x", "--kind", "lc"])
        assert code == 3

    def test_duplicate_config_key_is_data_error(self, tmp_path, capsys):
        # a repeated key is rejected, not silently replaced by its last value;
        # the two spellings of a key count as one
        cfg = tmp_path / "mort.cfg"
        for text, line, key in (
            ("cp = 1e-3\n# finer\ncp = 5e-3\n", 3, "cp"),
            ("max_iter = 10\nmax-iter = 20\n", 2, "max-iter"),
        ):
            cfg.write_text(text)
            code = main(["--config", str(cfg), "check", "--params", "x", "--kind", "lc"])
            assert code == 3
            assert capsys.readouterr().err == (
                f"error: --config {cfg}: line {line}: duplicate key {key!r}\n"
            )


def test_default_buckets_follow_the_six_group_scheme():
    from mortboost.cli import DEFAULT_BUCKETS, build_parser

    assert DEFAULT_BUCKETS == "0;1-14;15-44;45-64;65-84;85+"
    parser = build_parser()
    args = parser.parse_args(
        ["cod", "--cod", "x", "--qfit", "y", "--exposures", "z", "--out", "o"]
    )
    assert args.buckets == DEFAULT_BUCKETS
    assert args.theta_init == "uniform"
    assert args.cp == 2e-3


class TestErrorPaths:
    def test_parse_error_exit_code(self, tmp_path, sim_dir, lc_fit_dir, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("garbage\n\nYear Age F M T\nnot numbers at all\n")
        code = main(
            [
                "fit", "lc",
                "--deaths", str(bad),
                "--exposures", str(sim_dir / "exposures.txt"),
                "--ages", "0:9", "--years", "2000:2009",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --deaths {bad}: line 4: expected 5 columns, got 4\n"
        )
        # a malformed or header-only --qfit exits 3 with a message naming the file
        wrong_header = tmp_path / "qfit.csv"
        wrong_header.write_text("gender,age,rate\n")
        header_only = tmp_path / "hdr.csv"
        header_only.write_text("gender,age,year,rate\n")
        hmd_in = ["--deaths", str(sim_dir / "deaths.txt"), "--exposures", str(sim_dir / "exposures.txt")]
        for qfit in (wrong_header, header_only):
            for argv in (
                ["backtest", "--qfit", str(qfit), *hmd_in, "--out", str(tmp_path / "bt")],
                ["cod", "--cod", str(sim_dir / "cod.csv"), "--qfit", str(qfit),
                 "--exposures", str(sim_dir / "exposures.txt"), "--causes", "3", "--out", str(tmp_path / "cod")],
            ):
                assert main(argv) == 3
                assert f"--qfit {qfit}:" in capsys.readouterr().err
        # every input error names the flag, the file and the line
        deaths, exposures = str(sim_dir / "deaths.txt"), str(sim_dir / "exposures.txt")
        qfit, params = lc_fit_dir / "qfit.csv", lc_fit_dir / "params.csv"

        def damaged(name, source, line, *replacement):
            """source's text with its 1-based `line` replaced by `replacement` lines."""
            lines = source.read_text().splitlines()
            lines[line - 1:line] = replacement
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n")
            return str(path)

        fit = ["fit", "lc", "--ages", "0:9", "--years", "2000:2009", "--out", str(tmp_path / "f")]
        bad_exposures = damaged("exposures.txt", sim_dir / "exposures.txt", 6, "  2000  2  1.0  1.0")
        bad_cod = damaged("cod.csv", sim_dir / "cod.csv", 3, "female,1,2000,2")
        short_qfit = damaged("short.csv", qfit, 2, "female,0,2000")
        row = qfit.read_text().splitlines()[1]
        twice_qfit = damaged("twice.csv", qfit, 2, row, row)
        bad_params = damaged("params.csv", params, 2, "female,beta0,0")
        row = params.read_text().splitlines()[1]
        assert row.startswith("female,beta0,0,")
        twice_params = damaged("twice_params.csv", params, 2, row, row)
        foo_params = damaged("foo_params.csv", params, 2, row.replace("female", "foo", 1))
        bad_spec = tmp_path / "sim.cfg"
        bad_spec.write_text("ages = 0:9\nyears = 2000:2009\nseed = x\n")
        typo_spec = tmp_path / "typo.cfg"
        typo_spec.write_text("ages = 0:9\nyears = 2000:2009\nseed = 1\nage_slop = 0.5\n")
        cod_inputs = ["--qfit", str(qfit), "--exposures", exposures, "--causes", "3",
                      "--buckets", "0-4;5-9", "--out", str(tmp_path / "c")]
        cases = [
            (
                [*fit, "--deaths", deaths, "--exposures", bad_exposures],
                f"--exposures {bad_exposures}: line 6: expected 5 columns, got 4",
            ),
            (
                ["cod", "--cod", bad_cod, *cod_inputs],
                f"--cod {bad_cod}: line 3: expected 5 fields, got 4",
            ),
            (
                ["backtest", "--qfit", short_qfit, "--deaths", deaths, "--exposures", exposures,
                 "--out", str(tmp_path / "b")],
                f"--qfit {short_qfit}: line 2: not enough values to unpack (expected 4, got 3)",
            ),
            (
                ["backtest", "--qfit", twice_qfit, "--deaths", deaths, "--exposures", exposures,
                 "--out", str(tmp_path / "b")],
                f"--qfit {twice_qfit}: line 3: duplicate rate row for female, age 0, year 2000",
            ),
            (
                ["check", "--params", bad_params, "--kind", "lc"],
                f"--params {bad_params}: line 2: not enough values to unpack (expected 4, got 3)",
            ),
            (
                ["check", "--params", twice_params, "--kind", "lc"],
                f"--params {twice_params}: line 3: duplicate female beta0 row for index 0",
            ),
            (
                ["check", "--params", foo_params, "--kind", "lc"],
                f"--params {foo_params}: line 2: unknown gender 'foo', expected one of ('female', 'male')",
            ),
            (
                ["fit", "rh", "--deaths", deaths, "--exposures", exposures, "--ages", "0:9",
                 "--years", "2000:2009", "--warm-start", twice_params, "--out", str(tmp_path / "r")],
                f"--warm-start {twice_params}: line 3: duplicate female beta0 row for index 0",
            ),
            (
                ["simulate", "--spec", str(bad_spec), "--out", str(tmp_path / "s")],
                f"--spec {bad_spec}: line 3: invalid literal for int() with base 10: 'x'",
            ),
            (
                ["simulate", "--spec", str(typo_spec), "--out", str(tmp_path / "s")],
                f"--spec {typo_spec}: line 4: unknown key 'age_slop'",
            ),
        ]
        for argv, message in cases:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_clip_errors_name_the_flag_and_file(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        deaths, exposures = sim_dir / "deaths.txt", sim_dir / "exposures.txt"
        short = tmp_path / "short.txt"  # without the rows of 2009
        rows = exposures.read_text().splitlines()
        short.write_text("".join(f"{row}\n" for row in rows if row.split()[:1] != ["2009"]))
        big = hmd_with(deaths, tmp_path / "big.txt", 5, 3, "1e20")  # male, age 1, 2000
        # female, ages 8 and 9, 2000: their pooled sum overflows
        huge = hmd_with(exposures, tmp_path / "huge.txt", 12, 2, "1e308")
        hmd_with(huge, huge, 13, 2, "1e308")
        out = tmp_path / "out"
        fit = ["fit", "lc", "--years", "2000:2009", "--out", str(out)]
        cases = [
            ([*fit, "--ages", "0:10", "--deaths", str(deaths), "--exposures", str(exposures)],
             f"--deaths {deaths}: deaths file lacks requested ages: [10]"),
            ([*fit, "--ages", "0:9", "--deaths", str(deaths), "--exposures", str(short)],
             f"--exposures {short}: exposures file lacks requested years: [2009]"),
            (["cod", "--cod", str(sim_dir / "cod.csv"), "--qfit", str(lc_fit_dir / "qfit.csv"),
              "--exposures", str(short), "--causes", "3", "--buckets", "0-4;5-9", "--out", str(out)],
             f"--exposures {short}: exposures file lacks requested years: [2009]"),
            ([*fit, "--ages", "0:9", "--deaths", str(big), "--exposures", str(exposures)],
             f"--deaths {big}: deaths 1e+20 at (male, 1, 2000) do not fit a 64-bit count"),
            ([*fit, "--ages", "0:8", "--deaths", str(deaths), "--exposures", str(huge)],
             f"--exposures {huge}: exposure inf at (female, 8, 2000) is not finite"),
        ]
        for argv, message in cases:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists(), argv

    @pytest.mark.parametrize("command", ["fit lc", "backtest", "cod"])
    def test_non_finite_exposure_is_data_error(self, sim_dir, lc_fit_dir, tmp_path, capsys, command):
        inf = hmd_with(sim_dir / "exposures.txt", tmp_path / "inf.txt", 6, 2, "inf")  # female, age 2, 2000
        out = tmp_path / "out"
        argv = exposure_argv(command, sim_dir, lc_fit_dir / "qfit.csv", inf, out)
        message = f"error: --exposures {inf}: exposure inf at (female, {{}}, 2000) is not finite\n"
        assert main(argv) == 3
        assert capsys.readouterr().err == message.format(2)
        assert not out.exists()
        if command == "fit lc":  # pooled into the top age of a narrower fit
            hmd_with(sim_dir / "exposures.txt", inf, 13, 2, "inf")  # female, age 9, 2000
            assert main([*argv[:5], "0:8", *argv[6:]]) == 3
            assert capsys.readouterr().err == message.format(8)

    @pytest.mark.parametrize("command", ["fit lc", "backtest", "cod"])
    def test_subnormal_exposure_and_rate_are_data_errors(self, sim_dir, lc_fit_dir, tmp_path, capsys, command):
        # a division by either would overflow
        exposures, qfit = sim_dir / "exposures.txt", lc_fit_dir / "qfit.csv"
        tiny = hmd_with(exposures, tmp_path / "tiny.txt", 6, 2, "1e-320")  # female, age 2, 2000
        rows = qfit.read_text().splitlines()
        rows[2] = ",".join(rows[2].split(",")[:3] + ["5e-324"])  # line 3
        tiny_q = tmp_path / "tiny_q.csv"
        tiny_q.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        below = "is below the smallest normal float 2.2250738585072014e-308"
        argv = exposure_argv(command, sim_dir, qfit, tiny, out)
        cases = [(argv, f"--exposures {tiny}: exposure 1e-320 at (female, 2, 2000) {below}")]
        if command != "fit lc":
            argv = exposure_argv(command, sim_dir, tiny_q, exposures, out)
            cases.append((argv, f"--qfit {tiny_q}: line 3: rate 5e-324 {below}"))
        for args, message in cases:
            assert main(args) == 3
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("value", ["1e-12", "1e-300", "1e-305", "1e18", "1e300"])
    @pytest.mark.parametrize("command", ["fit lc", "backtest", "cod"])
    def test_extreme_normal_exposure_is_never_an_internal_error(
        self, sim_dir, lc_fit_dir, tmp_path, capsys, command, value
    ):
        # female, age 0, 2000, with about 100 deaths: the fit reads the cell
        # near its own rate, but a back-test volume of rate * 1e-305 is too
        # small to divide its deaths by
        qfit = lc_fit_dir / "qfit.csv"
        extreme = hmd_with(sim_dir / "exposures.txt", tmp_path / "extreme.txt", 4, 2, value)
        out = tmp_path / "out"
        code = main(exposure_argv(command, sim_dir, qfit, extreme, out))
        err = capsys.readouterr().err
        if (command, value) != ("backtest", "1e-305"):
            assert (code, err) == (0, "")
            return
        assert code == 3
        assert err.startswith(f"error: --qfit {qfit}, --exposures {extreme}: observed deaths over initial ")
        assert err.endswith(" overflow at (female, 0, 2000)\n")
        assert not out.exists()

    def test_bad_flag_values_exit_3_before_any_output(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        deaths, exposures = str(sim_dir / "deaths.txt"), str(sim_dir / "exposures.txt")
        qfit = str(lc_fit_dir / "qfit.csv")
        out = tmp_path / "out"
        backtest = ["backtest", "--qfit", qfit, "--deaths", deaths, "--exposures", exposures,
                    "--out", str(out)]
        cod = ["cod", "--cod", str(sim_dir / "cod.csv"), "--qfit", qfit, "--exposures", exposures,
               "--out", str(out)]
        fit = ["fit", "lc", "--deaths", deaths, "--exposures", exposures, "--ages", "0:9",
               "--years", "2000:2009", "--out", str(out)]
        cases = [
            ([*backtest, "--svg", "--years-to-plot", "1800"],
             "--years-to-plot year 1800 outside 2000:2009"),
            ([*backtest, "--svg", "--years-to-plot", "1990,x"],
             "--years-to-plot 1990,x: invalid literal for int() with base 10: 'x'"),
            ([*backtest, "--cp", "nan"], "cp must be >= 0, got nan"),
            ([*fit, "--tol", "nan", "--max-iter", "300"], "deviance_tol must be > 0"),
            ([*cod, "--causes", "3", "--buckets", "0;1-x;15+"],
             "--buckets 0;1-x;15+: invalid literal for int() with base 10: 'x'"),
            ([*cod, "--causes", "0", "--buckets", "0-4;5-9"], "--causes needs at least one cause"),
            ([*cod, "--causes", "000", "--buckets", "0-4;5-9"], "--causes needs at least one cause"),
            # a digit that int() refuses, and a count past int()'s 4,300-digit limit
            ([*cod, "--causes", "\u00b2", "--buckets", "0-4;5-9"], "--causes \u00b2 is not a decimal count"),
            ([*cod, "--causes", "1" + "0" * 5000, "--buckets", "0-4;5-9"],
             f"--causes 1{'0' * 5000} is above the limit of 10000 causes"),
            # a label that would break the tree text's causes line
            ([*cod, "--causes", "a\nb|c|d", "--buckets", "0-4;5-9"],
             "cause label 'a\\nb' in --causes holds a line break"),
        ]
        for argv, message in cases:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists(), argv

    def test_non_finite_simulation_input_names_its_key(self, tmp_path, capsys):
        head = "ages = 0:9\nyears = 2000:2009\nseed = 1\n"
        out = tmp_path / "s"
        cases = [
            ("exposure = nan", "line 4: exposure must be finite, got 'nan'"),
            ("base_rate = nan", "line 4: base_rate must be finite, got 'nan'"),
            ("causes = 0\nbuckets = 0-4;5-9", "line 4: causes must be >= 1, got 0"),
            ("exposure = 1e300", "mean q * exposure 5.000000000000001e+295 at (female, 0, 2000) "
                                 "is above numpy's Poisson limit 9.223372006484771e+18"),
        ]
        for i, (line, message) in enumerate(cases):
            spec = tmp_path / f"spec{i}.cfg"
            spec.write_text(f"{head}{line}\n")
            assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 3, line
            assert capsys.readouterr().err == f"error: --spec {spec}: {message}\n"
            assert not out.exists(), line

    def test_huge_ranges_are_rejected_before_they_are_built(self, sim_dir, lc_fit_dir, tmp_path):
        # each range alone would take gigabytes; the check reads its endpoints
        out = tmp_path / "out"
        deaths, exposures = sim_dir / "deaths.txt", sim_dir / "exposures.txt"
        fit = main_in_1gb(["fit", "lc", "--deaths", str(deaths), "--exposures", str(exposures),
                           "--ages", "0:9", "--years", "2000:300000000", "--out", str(out)])
        assert (fit.returncode, fit.stderr) == (3, (
            f"error: --deaths {deaths}: deaths file lacks 299997991 requested years; "
            f"the first 10: {list(range(2010, 2020))}\n"
        ))
        # a cause count is checked before its labels are built
        cod = main_in_1gb(["cod", "--cod", str(sim_dir / "cod.csv"),
                           "--qfit", str(lc_fit_dir / "qfit.csv"), "--exposures", str(exposures),
                           "--causes", "1000000000", "--buckets", "0-4;5-9", "--out", str(out)])
        assert (cod.returncode, cod.stderr) == (
            3, "error: --causes 1000000000 is above the limit of 10000 causes\n"
        )
        # a cause table whose year span alone would take gigabytes is named by the
        # row that widens it past the limit, before its grid is allocated
        wide = tmp_path / "wide.csv"
        wide.write_text("gender,age_group,year,cause,deaths\nfemale,1,1950,1,5\nfemale,1,300000000,1,5\n")
        cod = main_in_1gb(["cod", "--cod", str(wide), "--qfit", str(lc_fit_dir / "qfit.csv"),
                           "--exposures", str(exposures), "--causes", "12", "--buckets", "0-4;5-9",
                           "--out", str(out)])
        assert (cod.returncode, cod.stderr) == (3, (
            f"error: --cod {wide}: line 3: a cause grid of 7199953224 cells is above the limit of 10000000\n"
        ))
        head = "ages = 0:9\nyears = 2000:2009\nseed = 1\n"
        cases = [
            ("ages = 0:9\nyears = 1:400000000\nseed = 1\n",
             "line 2: a grid of 8000000000 cells is above the limit of 10000000"),
            (head + "causes = 1000000000\nbuckets = 0-4;5-9\n",
             "line 4: a cause grid of 40000000000 cells is above the limit of 10000000"),
        ]
        for i, (text, message) in enumerate(cases):
            spec = tmp_path / f"spec{i}.cfg"
            spec.write_text(text)
            run = main_in_1gb(["simulate", "--spec", str(spec), "--out", str(out)])
            assert (run.returncode, run.stderr) == (3, f"error: --spec {spec}: {message}\n")
        assert not out.exists()

    def test_rates_that_overflow_are_capped_at_one(self, tmp_path, capsys):
        # exp(90 * 9) overflows: capped at 1 as any rate above 1, no warning;
        # times a zero base rate it is rejected
        head = "ages = 0:9\nyears = 2000:2001\nseed = 1\nage_slope = 90\n"
        spec = tmp_path / "sim.cfg"
        spec.write_text(head)
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "s")]) == 0
        deaths = parse_hmd_1x1((tmp_path / "s" / "deaths.txt").read_text(), "deaths")
        assert deaths.female[-1, 0] > 9e4  # Poisson(1e5)
        spec.write_text(head + "base_rate = 0\n")
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "z")]) == 3
        assert capsys.readouterr().err == f"error: --spec {spec}: rates must lie in [0, 1]\n"

    def test_failed_cause_draw_writes_nothing(self, tmp_path, capsys):
        # each cell mean is below numpy's Poisson limit, their bucket's sum is not
        spec = tmp_path / "sim.cfg"
        spec.write_text("ages = 0:1\nyears = 2000:2000\nseed = 1\nexposure = 1e23\n"
                        "causes = 1\nbuckets = 0-1\n")
        out = tmp_path / "s"
        assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: --spec {spec}: mean theta * q * exposure 1.0443585333491995e+19 at "
            "(female, ages 0+, 2000, cause 1) is above numpy's Poisson limit 9.223372006484771e+18\n"
        )
        assert not out.exists()

    def test_cod_field_over_the_csv_limit_is_data_error(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        lines = (sim_dir / "cod.csv").read_text().splitlines()
        g, b, t, k, _ = lines[2].split(",")
        lines[2] = f'{g},{b},{t},{k},"{"1" * 140_000}"'  # quoted: read by the csv module
        cod = tmp_path / "cod.csv"
        cod.write_text("\n".join(lines) + "\n")
        code = main(["cod", "--cod", str(cod), "--qfit", str(lc_fit_dir / "qfit.csv"),
                     "--exposures", str(sim_dir / "exposures.txt"), "--causes", "3",
                     "--buckets", "0-4;5-9", "--out", str(tmp_path / "c")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --cod {cod}: line 3: field larger than field limit (131072)\n"
        )

    def test_cod_count_beyond_64_bits_is_data_error(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        lines = (sim_dir / "cod.csv").read_text().splitlines()
        g, b, t, k, _ = lines[2].split(",")
        lines[2] = f"{g},{b},{t},{k},99999999999999999999"
        cod = tmp_path / "cod.csv"
        cod.write_text("\n".join(lines) + "\n")
        code = main(["cod", "--cod", str(cod), "--qfit", str(lc_fit_dir / "qfit.csv"),
                     "--exposures", str(sim_dir / "exposures.txt"), "--causes", "3",
                     "--buckets", "0-4;5-9", "--out", str(tmp_path / "c")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --cod {cod}: line 3: death count 99999999999999999999 does not fit a 64-bit count\n"
        )
        assert not (tmp_path / "c").exists()

    def test_usage_error_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "lc"])  # missing required flags
        assert exc.value.code == 2
        # --warm-start is rh-only; rejected before any input is read, so the
        # input paths need not exist
        absent = [str(tmp_path / name) for name in ("deaths.txt", "exposures.txt", "params.csv")]
        with pytest.raises(SystemExit) as exc:
            main(["fit", "lc", "--deaths", absent[0], "--exposures", absent[1],
                  "--ages", "0:9", "--years", "2000:2009", "--warm-start", absent[2],
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--warm-start applies only to fit rh" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_params_of_the_other_model_are_data_errors(self, sim_dir, lc_fit_dir, tmp_path, capsys):
        data = ["--deaths", str(sim_dir / "deaths.txt"), "--exposures", str(sim_dir / "exposures.txt"),
                "--ages", "0:9", "--years", "2000:2009"]
        assert main(["fit", "rh", *data, "--max-iter", "1", "--out", str(tmp_path / "rh")]) == 4
        lc, rh = lc_fit_dir / "params.csv", tmp_path / "rh" / "params.csv"
        lc_kinds = "beta0/beta1/kappa, got ['beta0', 'beta1', 'beta2', 'gamma', 'kappa']"
        cases = [
            (["check", "--params", str(rh), "--kind", "lc"],
             f"--params {rh}: gender female: expected kinds {lc_kinds}"),
            (["check", "--params", str(lc), "--kind", "rh"],
             f"--params {lc}: gender female: expected kinds beta0/beta1/kappa/beta2/gamma, "
             "got ['beta0', 'beta1', 'kappa']"),
            (["fit", "rh", *data, "--warm-start", str(rh), "--out", str(tmp_path / "warm")],
             f"--warm-start {rh}: gender female: expected kinds {lc_kinds}"),
        ]
        capsys.readouterr()
        for argv, message in cases:
            assert main(argv) == 3, argv
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "warm").exists()

    def test_check_on_header_only_params_is_data_error(self, tmp_path, capsys):
        params = tmp_path / "params.csv"
        params.write_text("gender,kind,index,value\n")
        for kind in ("lc", "rh"):
            assert main(["check", "--params", str(params), "--kind", kind]) == 3
            assert f"--params {params}: no parameter rows" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["simulate", "--spec", str(missing), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"error: --spec {missing}: No such file or directory\n"
        assert not (tmp_path / "o").exists()
        adir = tmp_path / "adir"
        adir.mkdir()
        assert main(["simulate", "--spec", str(adir), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: --spec {adir}: Is a directory\n"
        binary = tmp_path / "deaths.bin"
        binary.write_bytes(b"\xff\xfe\x00garbage\n")
        code = main(["fit", "lc", "--deaths", str(binary), "--exposures", str(missing),
                     "--ages", "0:9", "--years", "2000:2009", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: --deaths {binary}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )
        assert not (tmp_path / "o").exists()


# each command's fixed arguments (OUT: its output directory) and the input
# flags it reads, each of which names a file of the sim_dir / lc_fit_dir
# fixtures; the fixture's fit takes 15 iterations, and a damaged table that
# does not converge stops at 200 (exit 4) rather than 10,000
OUT = object()
DAMAGE_RUNS = {
    "fit lc": (["fit", "lc", "--ages", "0:9", "--years", "2000:2009", "--max-iter", "200", "--out", OUT],
               ("deaths", "exposures")),
    "backtest": (["backtest", "--out", OUT], ("qfit", "deaths", "exposures")),
    "cod": (["cod", "--causes", "3", "--buckets", "0-4;5-9", "--out", OUT], ("cod", "qfit", "exposures")),
    "check": (["check", "--kind", "lc"], ("params",)),
    "simulate": (["simulate", "--out", OUT], ("spec",)),
}


# exposures far from a population's: overflowing products, subnormal and
# infinite values
EXTREME_EXPOSURES = ["1e18", "1e300", "1e-300", "1e-305", "5e-324", "inf"]


def extreme_exposure(data, text: str) -> str:
    """HMD exposures text with one Female, Male or Total field of one data
    row (after the three header lines) set to an extreme value."""
    lines = text.splitlines()
    i = data.draw(st.integers(3, len(lines) - 1))
    fields = lines[i].split()
    fields[data.draw(st.integers(2, 4))] = data.draw(st.sampled_from(EXTREME_EXPOSURES))
    lines[i] = "  ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_input_file_is_never_an_internal_error(sim_dir, lc_fit_dir, data):
    """One damaged input file, or one extreme exposure: the command succeeds,
    rejects it (3) or does not converge (4); it never exits 5."""
    inputs = {
        "deaths": sim_dir / "deaths.txt", "exposures": sim_dir / "exposures.txt",
        "cod": sim_dir / "cod.csv", "qfit": lc_fit_dir / "qfit.csv",
        "params": lc_fit_dir / "params.csv", "spec": sim_dir.parent / "sim.cfg",
    }
    head, flags = DAMAGE_RUNS[data.draw(st.sampled_from(sorted(DAMAGE_RUNS)))]
    target = data.draw(st.sampled_from(flags))
    with tempfile.TemporaryDirectory() as tmp:
        damaged = Path(tmp) / inputs[target].name
        text = inputs[target].read_text()
        if target == "exposures" and data.draw(st.booleans()):
            text = extreme_exposure(data, text)
        else:
            text = damage(data, text)
        damaged.write_bytes(text.encode("utf-8", "surrogatepass"))
        files = {flag: damaged if flag == target else inputs[flag] for flag in flags}
        argv = [str(Path(tmp) / "out") if arg is OUT else arg for arg in head]
        argv += [arg for flag in flags for arg in (f"--{flag}", str(files[flag]))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 3, 4), (argv, err.getvalue())
    assert "internal error" not in err.getvalue()


def test_importing_the_cli_loads_no_network_module():
    # every command pays for its imports; the SVG writer escapes by hand,
    # where xml.sax.saxutils would load urllib.request, http, email and ssl
    script = (
        "import sys\n"
        "import mortboost.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'http', 'email', 'ssl'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mortboost.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

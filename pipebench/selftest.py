#!/usr/bin/env python3
"""Harness self-test: a fast run of each workload at reduced size.

    python3 pipebench/selftest.py

Runs every workload of BENCHMARK.json with --small, untraced and traced, and
checks that each run exits 0, is correct, and prints a result line whose
keys, metric names and units match BENCHMARK.json. Then checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int, small: bool = True):
    argv = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    if small:
        argv.append("--small")
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, wanted: dict[str, str]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("correct is false: " + proc.stdout.splitlines()[-2][:400])
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(
            f"metrics missing {sorted(set(wanted) - set(got))}, "
            f"unexpected {sorted(set(got) - set(wanted))}, "
            f"unit mismatch {sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])}"
        )
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run_bench(ROOT, workload, trace), wanted[trace])
            label = f"{workload} --trace {trace}"
            print(f"{label}: {'ok' if not problems else 'FAIL'}", flush=True)
            failures += [f"{label}: {p}" for p in problems]

    bare = ROOT / ".pipebench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, bench["workloads"][0]["name"], 0, small=False)
        refused = proc.returncode != 0 and not proc.stdout.strip()
        print(f"bare directory: {'refused' if refused else 'FAIL'}")
        if not refused:
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

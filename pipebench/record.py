#!/usr/bin/env python3
"""Record the reference outputs that every benchmark pass is checked against.

    python3 pipebench/record.py [--seeds N]

Runs one untraced pass per workload and seed (seeds 0..N-1; one pass for
walkthrough_rh, whose input does not depend on the seed) and writes the
digests of each workload's reference files and the per-gender deviance of
its last fitted model to reference.json. Record on the commit whose outputs
later changes must reproduce.
"""

import argparse
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100)
    args = parser.parse_args()
    run.import_package()
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        seeds = [0] if workload.fixed_input else range(args.seeds)
        entries = {}
        for seed in seeds:
            workdir = run.WORK / f"record-{name}-{os.getpid()}"
            try:
                inputs = workload.setup(seed, False, workdir)
                passdir = workdir / "pass"
                outcome = workload.check(inputs, workload.run(inputs, passdir), passdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if outcome.problems:
                print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            entries["any" if workload.fixed_input else str(seed)] = {
                "digests": {f: outcome.digests[f] for f in workload.reference_files},
                "deviance": outcome.deviance,
            }
            print(name, seed, outcome.failed_ops, flush=True)
        reference[name] = entries
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    run.REFERENCE.write_text(dump(reference))
    return 0


def dump(reference: dict) -> str:
    """JSON with one line per (workload, seed) entry."""
    blocks = []
    for name, entries in sorted(reference.items()):
        rows = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in entries.items()]
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())

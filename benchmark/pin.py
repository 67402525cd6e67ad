#!/usr/bin/env python3
"""Pin the output digests the benchmark checks every run against.

    python3 benchmark/pin.py

Runs one untimed pass of every workload at the default seed and at one
held-out seed (never used while the benchmark was tuned) and rewrites
digests.json.  The bundled workload's instances do not depend on the
seed, so they are pinned for every seed.  Only a change that alters the
model's output on purpose re-pins, and says so in CHANGES.md.
"""

import json
import os
import sys

import run

PINNED_SEEDS = (run.DEFAULT_SEED, 97)


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    digests = {}
    for workload in run.WORKLOADS:
        for seed in PINNED_SEEDS:
            _, ns, instances, scripts, kernels = run.set_up(workload, seed)
            for inst, script, kernel in zip(instances, scripts, kernels):
                result = kernel.run()
                problems = run.identity_problems(script, result)
                if problems:
                    sys.exit(f"{inst.name}: {', '.join(problems)}")
                digests[inst.name] = run.output_digest(ns, result)
            print(f"{workload} seed {seed}: {len(instances)} instances")
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump({"format": "sha256[:24] over metrics.txt, trace.txt, "
                             "decisions.log, mapping.txt, mpm.txt, shm.txt "
                             "and the region tables dump",
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

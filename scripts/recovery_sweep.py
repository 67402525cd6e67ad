#!/usr/bin/env python3
"""Measure what fault prediction buys during recovery.

Every trial runs the same timeline twice: an intermittent burst on a
hosting tile followed by a permanent fault there, once with prediction
enabled (the burst triggers a speculative mapping into the cache) and
once with prediction off.  The report compares recovery walls and the
resulting makespans.
"""

import argparse
import dataclasses
import statistics

import nocsim as ns


def with_faults(script, victim, k):
    burst = ns.Injection(time=20, location=("pe", victim),
                         persistence=("intermittent", 3, 5))
    perm = ns.Injection(time=120, location=("pe", victim),
                        persistence="permanent")
    return dataclasses.replace(script, injections=(burst, perm),
                               prediction_k=k)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=15)
    ap.add_argument("--tasks", type=int, default=9)
    ap.add_argument("--mesh", type=int, nargs=2, default=[4, 4],
                    metavar=("W", "H"))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ag = ns.build_mesh(*args.mesh)
    walls_on, walls_off, savings = [], [], []

    print(f"{'seed':>6} {'victim':>6} {'wall_pred':>9} {'wall_cold':>9} "
          f"{'saving':>7} {'mk_pred':>8} {'mk_cold':>8}")
    for i in range(args.trials):
        seed = args.seed + i
        tg = ns.random_task_graph(args.tasks, 0.3, seed=seed)
        script = ns.ScenarioScript(seed=seed, tg=tg, ag=ag, turn_model=ns.XY)
        mapping, _, _ = ns.Kernel(script).deploy()
        victim = max(set(mapping), key=mapping.count)

        pred = ns.run(with_faults(script, victim, k=2))
        cold = ns.run(with_faults(script, victim, k=0))
        assert pred.metrics.mpm_hits == 1
        assert cold.metrics.mpm_misses == 1

        w_on = pred.metrics.recovery_walls[0]
        w_off = cold.metrics.recovery_walls[0]
        walls_on.append(w_on)
        walls_off.append(w_off)
        savings.append(w_off - w_on)
        print(f"{seed:>6} {victim:>6} {w_on:>9} {w_off:>9} "
              f"{w_off - w_on:>7} {pred.metrics.makespan:>8} "
              f"{cold.metrics.makespan:>8}")

    print()
    print(f"median recovery wall: predicted {statistics.median(walls_on)}, "
          f"cold {statistics.median(walls_off)}")
    print(f"median saving {statistics.median(savings)} cycles "
          f"({100 * statistics.median(savings) / statistics.median(walls_off):.0f}%"
          f" of the cold wall)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare the mapping heuristics on seeded random instances.

For each instance the three heuristics start from the same first-fit
placement; the table reports the schedule-length cost and wall time of
each, plus medians over the batch.
"""

import argparse
import statistics
import time

import nocsim as ns


def run_one(tg, shm, rg, heuristic, seed):
    t0 = time.perf_counter()
    sched = ns.run_heuristic(heuristic, tg, shm, rg, seed=seed).schedule
    cost = ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH)
    return cost, time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=20)
    ap.add_argument("--tasks", type=int, default=9)
    ap.add_argument("--mesh", type=int, nargs=2, default=[3, 3],
                    metavar=("W", "H"))
    ap.add_argument("--density", type=float, default=0.35)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ag = ns.build_mesh(*args.mesh)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)

    names = ("greedy", "ils", "sa")
    costs = {n: [] for n in names}
    times = {n: [] for n in names}

    print(f"{'seed':>6} " + " ".join(f"{n:>8} {n + '_s':>8}" for n in names))
    for i in range(args.instances):
        seed = args.seed + i
        tg = ns.random_task_graph(args.tasks, args.density, seed=seed)
        row = [f"{seed:>6}"]
        for n in names:
            cost, dt = run_one(tg, shm, rg, n, seed)
            costs[n].append(cost)
            times[n].append(dt)
            row.append(f"{cost:>8} {dt:>8.3f}")
        print(" ".join(row))

    print()
    for n in names:
        print(f"{n:>8}: median cost {statistics.median(costs[n]):.1f}, "
              f"median time {statistics.median(times[n]) * 1e3:.1f} ms")
    base = statistics.median(costs["sa"])
    for n in ("greedy", "ils"):
        print(f"{n:>8}: median cost ratio vs sa "
              f"{statistics.median(costs[n]) / base:.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Per-layer timing ladder for nocsim (standard library only).

Each rung is timed with time.perf_counter over REPEATS (5) runs in
this one process, and the median is recorded with the rung's size
parameters and work counters:

  asap      one asap_schedule on a fault-free 4x4 XY mesh at 100, 250,
            500 and 1000 tasks (criterion 07's instances)
  greedy    one greedy mapping: 12 tasks on 4x4, 20 on 6x6, 30 on 8x8
  simulate  `simulate scenarios/smoke.json --heuristic sa`, one
            Kernel(script).run() per repeat

and, on 4x4, 8x8, 12x12 and 16x16 west_first meshes with two permanent
link faults (TABLE_BUDGET rectangles per port):

  graph         a cold build_routing_graph
  graph_fault   the graph after one more link fault: RoutingGraph.without
  tables_cold   build_region_tables on a graph not used before
  tables_warm   the same after the extra fault, with the two-fault
                tables as `prev`
  tables_fault  the kernel's step on the extra fault: graph_fault's
                derivation from a two-fault graph that has its reach
                bits, plus the derived graph's tables with that graph's
                tables as `prev`
  routes        a new RouteProvider asked route() for every tile pair

Each repeat of a table or route rung gets its own graph, built untimed
beforehand (tables_fault derives its own inside the timed step), so no
repeat reads another's memoised reach bits or routes.

The sizes are fixed; a rung whose first run takes longer than LIMIT_S
(60) seconds is recorded as "skipped: exceeds 60 s" instead of repeated.

    python3 scripts/bench.py --label change --out BENCH_15.json
    python3 scripts/bench.py --label parent --src OTHER_CHECKOUT/src \\
        --out BENCH_15.json

--src picks the nocsim source tree to import (default: this
checkout's src), so one script times two checkouts.  Results go under
runs[label] in the output file (--out, required, so no run overwrites
an earlier record by default); other labels already in it are kept.
"""

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ASAP_TASKS = (100, 250, 500, 1000)
GREEDY_SIZES = ((12, 4), (20, 6), (30, 8))      # (tasks, mesh side)
REPEATS = 5
LIMIT_S = 60.0
SIMULATE_SCENARIO = "smoke.json"
SIMULATE_HEURISTIC = "sa"
ROUTING_SIDES = (4, 8, 12, 16)
TABLE_BUDGET = 4
ROUTE_SEED = 1


def _density(tasks):
    return min(0.2, 20.0 / tasks)


def _time(fn):
    """(sorted run times, last result), or (None, None) when the first
    run exceeds LIMIT_S seconds."""
    runs = []
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        runs.append(time.perf_counter() - t0)
        if runs[0] > LIMIT_S:
            return None, None
    return sorted(runs), result


def _rung(layer, size, fn, work):
    runs, result = _time(fn)
    rung = {"layer": layer, "size": size}
    if runs is None:
        rung["status"] = f"skipped: exceeds {LIMIT_S:g} s"
    else:
        rung["median_s"] = statistics.median(runs)
        rung["runs_s"] = runs
        rung["work"] = work(result)
    shown = rung.get("status") or f"{rung['median_s']:.4f} s"
    print(f"{layer:>12} {json.dumps(size)}: {shown}", flush=True)
    return rung


def asap_rungs(ns):
    ag = ns.build_mesh(4, 4)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    rungs = []
    for m in ASAP_TASKS:
        tg = ns.random_task_graph(m, _density(m), seed=m)
        mapping = [t % 16 for t in range(m)]
        rungs.append(_rung(
            "asap",
            {"mesh": [4, 4], "tasks": m, "density": _density(m), "seed": m},
            lambda: ns.asap_schedule(tg, mapping, shm, rg),
            lambda s: {"start_computations": s.start_computations,
                       "flows": len(s.flows), "makespan": s.makespan}))
    return rungs


def greedy_rungs(ns):
    rungs = []
    for m, side in GREEDY_SIZES:
        ag = ns.build_mesh(side, side)
        shm = ns.SystemHealthMap(ag)
        rg = ns.build_routing_graph(ag, ns.XY, shm)
        tg = ns.random_task_graph(m, _density(m), seed=m)
        rungs.append(_rung(
            "greedy",
            {"mesh": [side, side], "tasks": m, "density": _density(m),
             "seed": m},
            lambda: ns.run_heuristic("greedy", tg, shm, rg),
            lambda r: {"evaluations": r.evaluations,
                       "makespan": r.schedule.makespan}))
    return rungs


def _fault_links(ag, side):
    """Three distinct link ids, fixed per mesh side: the first two are
    the standing faults, the third the extra one."""
    return random.Random(f"bench-routing:{side}").sample(range(len(ag.links)), 3)


def _edges(rg):
    return sum(len(succs) for succs in rg.adj.values())


def _rectangles(tables, n):
    return sum(len(tables.rectangles(t, d))
               for t in range(n) for d in tables.ports(t))


def routing_rungs(ns):
    rungs = []
    for side in ROUTING_SIDES:
        ag = ns.build_mesh(side, side)
        n = len(ag)
        shm = ns.SystemHealthMap(ag)
        first, second, extra = _fault_links(ag, side)
        shm.apply_fault(("link", first))
        shm.apply_fault(("link", second))
        after = ns.SystemHealthMap(ag)
        after.restore(shm.snapshot())
        after.apply_fault(("link", extra))
        size = {"mesh": [side, side], "turn_model": "west_first",
                "faults": [["link", first], ["link", second]],
                "extra_fault": ["link", extra], "budget": TABLE_BUDGET}

        def cold(state=shm):
            return ns.build_routing_graph(ag, ns.WEST_FIRST, state)

        def fresh(state):
            return [cold(state) for _ in range(REPEATS)]

        rungs.append(_rung("graph", size, cold,
                           lambda rg: {"edges": _edges(rg)}))

        base = cold()

        def faulted():
            return base.without([("link", extra)])

        rungs.append(_rung("graph_fault", size, faulted,
                           lambda rg: {"edges": _edges(rg)}))

        base_tables = ns.build_region_tables(base, TABLE_BUDGET)
        rungs.append(_rung(
            "tables_fault", size,
            lambda: ns.build_region_tables(faulted(), TABLE_BUDGET,
                                           prev=base_tables),
            lambda t: {"rectangles": _rectangles(t, n)}))

        graphs = fresh(shm)
        rungs.append(_rung(
            "tables_cold", size,
            lambda: ns.build_region_tables(graphs.pop(), TABLE_BUDGET),
            lambda t: {"rectangles": _rectangles(t, n)}))

        prev = ns.build_region_tables(cold(), TABLE_BUDGET)
        graphs = fresh(after)
        rungs.append(_rung(
            "tables_warm", size,
            lambda: ns.build_region_tables(graphs.pop(), TABLE_BUDGET,
                                           prev=prev),
            lambda t: {"rectangles": _rectangles(t, n)}))

        graphs = fresh(shm)

        def all_routes():
            provider = ns.RouteProvider(graphs.pop(), ROUTE_SEED)
            return [provider.route(s, d) for s in range(n) for d in range(n)]

        rungs.append(_rung(
            "routes", dict(size, seed=ROUTE_SEED), all_routes,
            lambda routes: {"routed": sum(r is not None for r in routes),
                            "links": sum(len(r.links) for r in routes if r)}))
    return rungs


def simulate_rung(ns):
    import nocsim.shmu as shmu

    path = os.path.join(ROOT, "scenarios", SIMULATE_SCENARIO)
    evaluations = []
    run_heuristic = shmu.run_heuristic

    def counted(*args, **kwargs):
        result = run_heuristic(*args, **kwargs)
        evaluations[-1] += result.evaluations
        return result

    def run():
        script = ns.load_scenario(path, heuristic=SIMULATE_HEURISTIC)
        evaluations.append(0)
        return ns.Kernel(script).run()

    shmu.run_heuristic = counted
    try:
        return _rung(
            "simulate",
            {"scenario": f"scenarios/{SIMULATE_SCENARIO}",
             "heuristic": SIMULATE_HEURISTIC},
            run,
            lambda r: {"evaluations": evaluations[-1],
                       "makespan": r.metrics.makespan,
                       "trace_lines": len(r.trace)})
    finally:
        shmu.run_heuristic = run_heuristic


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="nocsim source tree to import (default: ./src)")
    ap.add_argument("--label", default="change",
                    help="key of this run in the output's runs object")
    ap.add_argument("--out", required=True,
                    help="JSON file to record the run in, e.g. BENCH_15.json")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import nocsim as ns

    rungs = asap_rungs(ns)
    rungs += greedy_rungs(ns)
    rungs.append(simulate_rung(ns))
    rungs += routing_rungs(ns)

    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["runs"][args.label] = {
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "repeats": REPEATS,
        "limit_s": LIMIT_S,
        "rungs": rungs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({args.label})")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Per-layer timing ladder for nocsim (standard library only).

Each rung is timed with time.perf_counter over REPEATS (5) runs in
this one process, and the median is recorded with the rung's size
parameters and work counters:

  reference a standard-library sort of REFERENCE_ITEMS floats; no
            nocsim code, so it reads the same in every tree
  asap      one asap_schedule on a fault-free 4x4 XY mesh at 100, 250,
            500 and 1000 tasks (criterion 07's instances)
  greedy    one greedy mapping: 12 tasks on 4x4, 20 on 6x6, 30 on 8x8
  simulate  `simulate scenarios/S --heuristic H`, one Kernel(script).run()
            per repeat, for S in smoke.json, regions.json and
            burst_recovery.json and H in greedy, ils and sa; its work
            counters include the run's candidate evaluations

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
    git archive HEAD~1 src | tar -x -C PARENT
    python3 scripts/bench.py --label change-vs-parent --against PARENT/src \\
        --out BENCH_15.json

--src picks the nocsim source tree to import (default: this
checkout's src), so one script times two checkouts.  --against DIR
loads a second tree, DIR's nocsim, under another package name (every
import inside the package is relative) and times both trees in this
one process: each rung is set up in both trees, and their repeats
alternate in ABBA order (this tree first in the first pair), so a
drift of the machine's speed falls on both alike.  A rung then records
both trees' medians and work counters, the median of the REPEATS
paired ratios (this tree's time over DIR's) and their min-max, an
order-statistic interval that holds the true median ratio with
probability 1 - 2 x 0.5^5 = 94%.  The reference rung runs the same code
for both, so its ratio shows what the ordering alone does.

Results go under runs[label] in the output file (--out, required, so
no run overwrites an earlier record by default); other labels already
in it are kept.
"""

import argparse
import importlib.util
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
SIMULATE_SCENARIOS = ("smoke.json", "regions.json", "burst_recovery.json")
SIMULATE_HEURISTICS = ("greedy", "ils", "sa")
REFERENCE_ITEMS = 200_000
ROUTING_SIDES = (4, 8, 12, 16)
TABLE_BUDGET = 4
ROUTE_SEED = 1


def _density(tasks):
    return min(0.2, 20.0 / tasks)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _time(fn):
    """(sorted run times, last result), or (None, None) when the first
    run exceeds LIMIT_S seconds."""
    runs = []
    result = None
    for _ in range(REPEATS):
        elapsed, result = _timed(fn)
        runs.append(elapsed)
        if runs[0] > LIMIT_S:
            return None, None
    return sorted(runs), result


def _skipped(rung):
    rung["status"] = f"skipped: exceeds {LIMIT_S:g} s"
    return rung


def _rung(layer, size, fn, work):
    runs, result = _time(fn)
    rung = {"layer": layer, "size": size}
    if runs is None:
        _skipped(rung)
    else:
        rung["median_s"] = statistics.median(runs)
        rung["runs_s"] = runs
        rung["work"] = work(result)
    shown = rung.get("status") or f"{rung['median_s']:.4f} s"
    print(f"{layer:>12} {json.dumps(size)}: {shown}", flush=True)
    return rung


def _paired_rung(this, against):
    """One rung set up in two trees, timed with their repeats
    alternating ABBA: pair i runs this tree first when i is even."""
    layer, size, fn, work = this
    assert against[:2] == (layer, size), (this[:2], against[:2])
    fns = (fn, against[2])
    runs = ([], [])
    results = [None, None]
    rung = {"layer": layer, "size": size}
    for i in range(REPEATS):
        for j in ((0, 1) if i % 2 == 0 else (1, 0)):
            elapsed, results[j] = _timed(fns[j])
            runs[j].append(elapsed)
            if runs[j][0] > LIMIT_S:
                _skipped(rung)
                print(f"{layer:>12} {json.dumps(size)}: {rung['status']}",
                      flush=True)
                return rung
    ratios = sorted(a / b for a, b in zip(*runs))
    rung.update({
        "median_s": statistics.median(runs[0]),
        "against_median_s": statistics.median(runs[1]),
        "runs_s": runs[0],
        "against_runs_s": runs[1],
        "ratio_median": statistics.median(ratios),
        "ratio_min_max": [ratios[0], ratios[-1]],
        "work": work(results[0]),
        "against_work": against[3](results[1]),
    })
    print(f"{layer:>12} {json.dumps(size)}: {rung['median_s']:.4f} s against "
          f"{rung['against_median_s']:.4f} s, ratio {rung['ratio_median']:.3f} "
          f"[{ratios[0]:.3f}, {ratios[-1]:.3f}]", flush=True)
    return rung


# Each *_rungs(ns) yields its rungs as (layer, size, fn, work): fn is
# the timed step, and work maps its last result to the work counters.
# A rung's set-up runs when the generator reaches it, so the set-up of
# one rung is never timed with another.


def reference_rungs(ns):
    def run():
        rng = random.Random(0)
        return sorted(rng.random() for _ in range(REFERENCE_ITEMS))

    yield ("reference", {"sorted_floats": REFERENCE_ITEMS, "seed": 0}, run,
           lambda items: {"items": len(items)})


def asap_rungs(ns):
    ag = ns.build_mesh(4, 4)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    for m in ASAP_TASKS:
        tg = ns.random_task_graph(m, _density(m), seed=m)
        mapping = [t % 16 for t in range(m)]
        yield ("asap",
               {"mesh": [4, 4], "tasks": m, "density": _density(m), "seed": m},
               lambda: ns.asap_schedule(tg, mapping, shm, rg),
               lambda s: {"start_computations": s.start_computations,
                          "flows": len(s.flows), "makespan": s.makespan})


def greedy_rungs(ns):
    for m, side in GREEDY_SIZES:
        ag = ns.build_mesh(side, side)
        shm = ns.SystemHealthMap(ag)
        rg = ns.build_routing_graph(ag, ns.XY, shm)
        tg = ns.random_task_graph(m, _density(m), seed=m)
        yield ("greedy",
               {"mesh": [side, side], "tasks": m, "density": _density(m),
                "seed": m},
               lambda: ns.run_heuristic("greedy", tg, shm, rg),
               lambda r: {"evaluations": r.evaluations,
                          "makespan": r.schedule.makespan})


def _fault_links(ag, side):
    """Three distinct link ids, fixed per mesh side: the first two are
    the standing faults, the third the extra one."""
    return random.Random(f"bench-routing:{side}").sample(range(len(ag.links)), 3)


def _edges(rg):
    return sum(map(len, rg.succ))


def _rectangles(tables, n):
    return sum(len(tables.rectangles(t, d))
               for t in range(n) for d in tables.ports(t))


def routing_rungs(ns):
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

        yield ("graph", size, cold, lambda rg: {"edges": _edges(rg)})

        base = cold()

        def faulted():
            return base.without([("link", extra)])

        yield ("graph_fault", size, faulted, lambda rg: {"edges": _edges(rg)})

        base_tables = ns.build_region_tables(base, TABLE_BUDGET)
        yield ("tables_fault", size,
               lambda: ns.build_region_tables(faulted(), TABLE_BUDGET,
                                              prev=base_tables),
               lambda t: {"rectangles": _rectangles(t, n)})

        graphs = fresh(shm)
        yield ("tables_cold", size,
               lambda: ns.build_region_tables(graphs.pop(), TABLE_BUDGET),
               lambda t: {"rectangles": _rectangles(t, n)})

        prev = ns.build_region_tables(cold(), TABLE_BUDGET)
        graphs = fresh(after)
        yield ("tables_warm", size,
               lambda: ns.build_region_tables(graphs.pop(), TABLE_BUDGET,
                                              prev=prev),
               lambda t: {"rectangles": _rectangles(t, n)})

        graphs = fresh(shm)

        def all_routes():
            provider = ns.RouteProvider(graphs.pop(), ROUTE_SEED)
            return [provider.route(s, d) for s in range(n) for d in range(n)]

        yield ("routes", dict(size, seed=ROUTE_SEED), all_routes,
               lambda routes: {"routed": sum(r is not None for r in routes),
                               "links": sum(len(r.links) for r in routes if r)})


def simulate_rungs(ns):
    shmu = importlib.import_module(f"{ns.__name__}.shmu")
    run_heuristic = shmu.run_heuristic
    evaluations = []

    def counted(*args, **kwargs):
        result = run_heuristic(*args, **kwargs)
        evaluations[-1] += result.evaluations
        return result

    for scenario in SIMULATE_SCENARIOS:
        path = os.path.join(ROOT, "scenarios", scenario)
        for heuristic in SIMULATE_HEURISTICS:
            def run():
                script = ns.load_scenario(path, heuristic=heuristic)
                evaluations.append(0)
                shmu.run_heuristic = counted
                try:
                    return ns.Kernel(script).run()
                finally:
                    shmu.run_heuristic = run_heuristic

            yield ("simulate",
                   {"scenario": f"scenarios/{scenario}", "heuristic": heuristic},
                   run,
                   lambda r: {"evaluations": evaluations[-1],
                              "makespan": r.metrics.makespan,
                              "trace_lines": len(r.trace)})


def ladder(ns):
    """Every rung of the ladder, in order, for the package `ns`."""
    for rungs in (reference_rungs, asap_rungs, greedy_rungs, simulate_rungs,
                  routing_rungs):
        yield from rungs(ns)


def _load_tree(src, name):
    """The nocsim package in the source tree `src`, imported as `name`."""
    init = os.path.join(src, "nocsim", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="nocsim source tree to import (default: ./src)")
    ap.add_argument("--label", default="change",
                    help="key of this run in the output's runs object")
    ap.add_argument("--against", metavar="DIR",
                    help="another nocsim source tree to time in this "
                         "process, alternating with --src's")
    ap.add_argument("--out", required=True,
                    help="JSON file to record the run in, e.g. BENCH_15.json")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import nocsim as ns

    if args.against:
        other = _load_tree(os.path.abspath(args.against), "nocsim_against")
        rungs = [_paired_rung(this, against)
                 for this, against in zip(ladder(ns), ladder(other))]
    else:
        rungs = [_rung(*rung) for rung in ladder(ns)]

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

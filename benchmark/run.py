#!/usr/bin/env python3
"""The nocsim benchmark.

Run from the root of a nocsim checkout:

    python3 benchmark/run.py --workload fault_storm --seed 1 --seconds 55
    python3 benchmark/run.py --workload bundled --trace 1
    python3 benchmark/run.py --workload all

One workload runs in one process and one thread.  The seeded generator
in workloads.py makes a fixed set of scenario instances; they are
parsed and run through ``Kernel(script).run()`` one after another, a
closed loop with one client.  Every instance starts with an empty
mapping cache, as every user run does.  There is no warm-up beyond the
import, which set-up counts.

--trace 0 completes one pass over the set, then repeats passes until
--seconds have passed (skipping an instance whose first run would not
fit), and prints the end-to-end metrics: host seconds for set-up and
simulation and peak memory in the JSON, and in the text also the
median per-instance time and the simulated-cycle totals.  Those stay
out of the JSON: the simulated totals repeat exactly for a seed but
vary widely from seed to seed, and the per-instance median of a few
instances moves more with the shared machine's speed than the total
does.  --trace 1 makes one untraced and one traced pass and prints
the per-layer metrics from tracer.py.

Each run is checked: an instance that raises, breaks a metric
identity, reruns to different output, or differs from the digest
pinned for it in digests.json counts as failed.  The model has no
reference measurements, so no error figure is reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".benchmark-out")
PINS = os.path.join(HERE, "digests.json")
SETUP_REPS = 5
DEFAULT_SEED = 1

sys.path.insert(0, HERE)
from tracer import LAYERS, Tracer, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Spanned functions whose call count and self time are per-layer metrics.
_COUNTED = (
    "routing.build_routing_graph",
    "reachability.build_region_tables",
    "reachability.should_drop",
    "mapsched.run_heuristic",
    "mapsched.asap_schedule",
    "shmu.map_and_store",
    "shmu.map_and_deploy",
    "health.shm_tag",
)
# Entry points reported with their inclusive share of traced sim_s.
_ENTRY_POINTS = (
    "mapsched.run_heuristic",
    "reachability.build_region_tables",
    "shmu.map_and_store",
    "shmu.map_and_deploy",
)


# ---------------------------------------------------------------------------
# set-up


def import_nocsim():
    """Import the package afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "nocsim" or n.startswith("nocsim.")]:
        del sys.modules[name]
    return importlib.import_module("nocsim")


def set_up(workload, seed):
    """Import, generate the instances, parse them and construct their
    kernels.  Returns (seconds, nocsim, instances, scripts, kernels)."""
    t0 = time.perf_counter()
    ns = import_nocsim()
    instances = WORKLOADS[workload](seed)
    scripts = [inst.parse(ns.scenario) for inst in instances]
    kernels = [ns.simkernel.Kernel(s) for s in scripts]
    return time.perf_counter() - t0, ns, instances, scripts, kernels


# ---------------------------------------------------------------------------
# correctness


def _lines(items):
    return "\n".join(items) + ("\n" if items else "")


def output_digest(ns, result):
    """Digest of the files ``nocsim simulate --out`` writes plus the
    final region tables dump."""
    files = (
        ("metrics.txt", result.metrics.to_text()),
        ("trace.txt", _lines(result.trace)),
        ("decisions.log", _lines(result.decisions)),
        ("mapping.txt", ns.mapsched.dump_mapping(result.cmm.mapping) + "\n"
         + result.cmm.schedule.dump()),
        ("mpm.txt", result.mpm.dump()),
        ("shm.txt", result.shm.serialize()),
        ("regions.txt", result.tables.dump()),
    )
    h = hashlib.sha256()
    for name, text in files:
        h.update(f"{name}\0{text}\0".encode())
    return h.hexdigest()[:24]


def identity_problems(script, result):
    """Metric identities every run must keep; returns the broken ones."""
    m = result.metrics
    problems = []
    if m.tasks_completed + m.tasks_unfinished != len(script.tg):
        problems.append("completed + unfinished != tasks")
    if m.remaps != m.mpm_hits + m.mpm_misses:
        problems.append("remaps != hits + misses")
    if len(m.recovery_walls) != m.remaps:
        problems.append("one recovery wall per remap")
    for r in m.latency_reports:
        work = r.t_fetch + r.t_schd if r.hit else r.t_map_alg
        if r.t_rl != work + r.t_par_ext + r.t_par_map:
            problems.append("t_rl != sum of its components")
    return problems


def load_pins(instances):
    """Pinned digest per instance, None where none is pinned."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)["digests"]
    return [pins.get(inst.name) for inst in instances]


class Checker:
    """Counts runs and failed runs; remembers each instance's digest."""

    def __init__(self, pins):
        self.pins = pins
        self.digests = [None] * len(pins)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, i, *reasons):
        """Record one failed run of instance i."""
        self.failed += 1
        self.failures.extend(f"instance {i}: {why}" for why in reasons)

    def check(self, ns, i, script, result):
        digest = output_digest(ns, result)
        reasons = []
        if self.digests[i] is None:
            self.digests[i] = digest
            reasons = identity_problems(script, result)
            if self.pins[i] is not None and self.pins[i] != digest:
                reasons.append(f"digest {digest} != pinned {self.pins[i]}")
        elif self.digests[i] != digest:
            reasons.append(f"rerun digest {digest} != {self.digests[i]}")
        if reasons:
            self.fail(i, *reasons)


# ---------------------------------------------------------------------------
# measurement


def measure(ns, scripts, kernels, seconds, checker):
    """One full pass, then more passes until `seconds` are up; a repeat
    is skipped when the instance's first run would not fit.  Returns
    (per-instance host seconds of run(), first-pass results)."""
    n = len(scripts)
    samples = [[] for _ in range(n)]
    results = [None] * n
    deadline = time.perf_counter() + seconds
    rep = 0
    ran = True
    while ran and (rep == 0 or time.perf_counter() < deadline):
        ran = False
        for i in range(n):
            if rep and (not samples[i]
                        or time.perf_counter() + samples[i][0] > deadline):
                continue
            ran = True
            kernel = kernels[i] if rep == 0 else ns.simkernel.Kernel(scripts[i])
            checker.attempted += 1
            t0 = time.perf_counter()
            try:
                result = kernel.run()
            except Exception as exc:        # a failed run, counted
                checker.fail(i, f"{type(exc).__name__}: {exc}")
                continue
            samples[i].append(time.perf_counter() - t0)
            checker.check(ns, i, scripts[i], result)
            if results[i] is None:
                results[i] = result
        rep += 1
    return samples, results


def model_totals(results):
    """Simulated-cycle totals over the instances that ran."""
    done = [r for r in results if r is not None]
    return {
        "sim_makespan_cycles": sum(r.metrics.makespan for r in done),
        "recovery_wall_cycles": sum(sum(r.metrics.recovery_walls) for r in done),
        "tasks_unfinished": sum(r.metrics.tasks_unfinished for r in done),
        "trace_lines": sum(len(r.trace) for r in done),
        "mpm_hits": sum(r.metrics.mpm_hits for r in done),
        "mpm_misses": sum(r.metrics.mpm_misses for r in done),
        "stores": sum(r.metrics.stores for r in done),
    }


def run_untraced(args, ns, scripts, kernels, setup_s, checker):
    samples, results = measure(ns, scripts, kernels, args.seconds, checker)
    per_instance = [statistics.median(s) for s in samples if s]
    run_p50_s = statistics.median(per_instance) if per_instance else 0.0
    totals = model_totals(results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup_s, "sim_s": sum(per_instance),
               "peak_rss_mb": rss_mb}
    runs = sum(len(s) for s in samples)
    print(f"setup_s              {metrics['setup_s']:.4f} s (host)       "
          f"median of {SETUP_REPS} set-ups: import, generate, parse, "
          f"construct kernels")
    print(f"sim_s                {metrics['sim_s']:.4f} s (host)       "
          f"sum over {len(per_instance)} instances of the median "
          f"Kernel.run() time; {runs} runs timed")
    print(f"run_p50_s            {run_p50_s:.4f} s (host)       "
          f"median per-instance time, n={len(per_instance)} instances; "
          f"no higher percentile has ten samples beyond it")
    print(f"peak_rss_mb          {rss_mb:.1f} MB           "
          f"peak resident set of this process")
    for name in ("sim_makespan_cycles", "recovery_wall_cycles"):
        print(f"{name:<20} {totals[name]} cycles (simulated)   "
              f"sum over instances")
    print(f"tasks_unfinished     {totals['tasks_unfinished']} tasks (simulated)")
    print(f"failed_runs          {checker.failed} of {checker.attempted} runs")
    return metrics, END_TO_END


# ---------------------------------------------------------------------------
# traced run

PER_LAYER = (
    ("scenario.parse_s", "s"),
    ("graphs.build_s", "s"),
    *((f"{fn}.{kind}", unit) for fn in _COUNTED
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("reachability.build_region_tables.p50_ms", "ms"),
    ("mapsched.evaluations", "count"),
    ("mapsched.us_per_evaluation", "us"),
    ("mapsched.asap_schedule.p50_us", "us"),
    ("mapsched.asap_schedule.p99_us", "us"),
    ("mapsched.asap_schedule.unroutable_ratio", "ratio"),
    ("mapsched.route.calls", "count"),
    ("mapsched.route.hit_ratio", "ratio"),
    ("mapsched.route_provider.builds", "count"),
    ("shmu.mpm_hits", "count"),
    ("shmu.mpm_misses", "count"),
    ("shmu.hit_ratio", "ratio"),
    ("shmu.store_use_ratio", "ratio"),
    ("shmu.mpm_evictions", "count"),
    ("shmu.recovery_wall_cycles", "cycles"),
    ("health.serialize.calls", "count"),
    ("simkernel.self_s", "s"),
    ("simkernel.trace_lines", "count"),
    ("simkernel.host_us_per_trace_line", "us"),
    ("simkernel.sim_makespan_cycles", "cycles"),
    ("simkernel.tasks_unfinished", "count"),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    *((f"{fn}.share", "ratio") for fn in _ENTRY_POINTS),
    ("trace_overhead_ratio", "ratio"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def run_traced(args, ns, instances, scripts, kernels, checker):
    base_samples, _ = measure(ns, scripts, kernels, 0, checker)
    base_sim_s = sum(s[0] for s in base_samples if s)

    tracer = Tracer().install()
    try:
        traced = []
        for i, inst in enumerate(instances):
            tracer.instance = f"setup:{i}"
            script = inst.parse(ns.scenario)
            traced.append((script, ns.simkernel.Kernel(script)))
        tracer.reset_counts()
        results = [None] * len(traced)
        for i, (script, kernel) in enumerate(traced):
            tracer.instance = f"run:{i}"
            checker.attempted += 1
            try:
                results[i] = kernel.run()
            except Exception as exc:        # a failed run, counted
                checker.fail(i, f"traced {type(exc).__name__}: {exc}")
    finally:
        tracer.uninstall()
    for i, result in enumerate(results):
        if result is not None:
            digest = output_digest(ns, result)
            if digest != checker.digests[i]:
                checker.fail(i, f"traced digest {digest} != untraced "
                                f"{checker.digests[i]}")

    run = tracer.summary("run:")
    setup = tracer.summary("setup:")
    layer_self = tracer.layer_self("run:")
    counts = tracer.counts
    totals = model_totals(results)
    sim_s = run.get("simkernel.Kernel.run", {}).get("outer_s", 0.0)

    def get(name, key, default=0.0):
        return run.get(name, {}).get(key, default)

    m = {
        "scenario.parse_s": sum(v["outer_s"] for k, v in setup.items()
                                if k.startswith("scenario.")),
        "graphs.build_s": sum(v["outer_s"] for k, v in setup.items()
                              if k.startswith("graphs.")),
    }
    for fn in _COUNTED:
        m[f"{fn}.calls"] = get(fn, "calls", 0)
        m[f"{fn}.self_s"] = get(fn, "self_s")
    tables = get("reachability.build_region_tables", "durations", [])
    asap = get("mapsched.asap_schedule", "durations", [])
    m["reachability.build_region_tables.p50_ms"] = (
        percentile(tables, 50) * 1e3 if tables else 0.0)
    m["mapsched.evaluations"] = counts["evaluations"]
    m["mapsched.us_per_evaluation"] = _ratio(
        get("mapsched.run_heuristic", "outer_s") * 1e6, counts["evaluations"])
    m["mapsched.asap_schedule.p50_us"] = percentile(asap, 50) * 1e6 if asap else 0.0
    m["mapsched.asap_schedule.p99_us"] = percentile(asap, 99) * 1e6 if asap else 0.0
    m["mapsched.asap_schedule.unroutable_ratio"] = _ratio(
        get("mapsched.asap_schedule", "errors", {}).get("UnroutableFlow", 0),
        len(asap))
    m["mapsched.route.calls"] = counts["route.calls"]
    m["mapsched.route.hit_ratio"] = _ratio(counts["route.hits"],
                                           counts["route.calls"])
    m["mapsched.route_provider.builds"] = counts["route_provider.builds"]
    m["shmu.mpm_hits"] = totals["mpm_hits"]
    m["shmu.mpm_misses"] = totals["mpm_misses"]
    m["shmu.hit_ratio"] = _ratio(totals["mpm_hits"],
                                 totals["mpm_hits"] + totals["mpm_misses"])
    m["shmu.store_use_ratio"] = _ratio(totals["mpm_hits"], totals["stores"])
    m["shmu.mpm_evictions"] = counts["mpm.evictions"]
    m["shmu.recovery_wall_cycles"] = totals["recovery_wall_cycles"]
    m["health.serialize.calls"] = counts["serialize.calls"]
    m["simkernel.self_s"] = layer_self["simkernel"]
    m["simkernel.trace_lines"] = totals["trace_lines"]
    m["simkernel.host_us_per_trace_line"] = _ratio(sim_s * 1e6,
                                                   totals["trace_lines"])
    m["simkernel.sim_makespan_cycles"] = totals["sim_makespan_cycles"]
    m["simkernel.tasks_unfinished"] = totals["tasks_unfinished"]
    for layer in LAYERS:
        m[f"{layer}.share"] = _ratio(layer_self[layer], sim_s)
    for fn in _ENTRY_POINTS:
        m[f"{fn}.share"] = _ratio(get(fn, "outer_s"), sim_s)
    m["trace_overhead_ratio"] = _ratio(sim_s, base_sim_s)

    print(f"layer shares of traced sim_s = {sim_s:.4f} s over "
          f"{len(instances)} instances (untraced {base_sim_s:.4f} s, "
          f"overhead x{m['trace_overhead_ratio']:.3f})")
    print(f"  {'layer':<14}{'self_s':>10}{'share':>9}")
    for layer in LAYERS:
        print(f"  {layer:<14}{layer_self[layer]:>10.4f}"
              f"{m[f'{layer}.share']:>9.1%}")
    print("  entry points, inclusive time:")
    for fn in _ENTRY_POINTS:
        print(f"  {fn:<34}{get(fn, 'outer_s'):>10.4f}"
              f"{m[f'{fn}.share']:>9.1%}  calls={get(fn, 'calls', 0)}")
    print(f"  scenario.parse_s {m['scenario.parse_s']:.4f} s and graphs.build_s "
          f"{m['graphs.build_s']:.4f} s are set-up time, not part of sim_s")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.txt")
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    return m, PER_LAYER


# ---------------------------------------------------------------------------
# command line


def machine():
    return (f"python {platform.python_version()}, "
            f"os.cpu_count()={os.cpu_count()}, "
            f"nproc={len(os.sched_getaffinity(0))}, {platform.platform()}")


def run_workload(args):
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    print(f"# nocsim benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {machine()}")
    print("# closed loop, one client, one process, one thread; the mapping "
          "cache starts empty in every instance; no warm-up beyond the "
          "import, which setup_s counts")
    print("# host metrics are host seconds; simulated metrics are simulated "
          "cycles; the model is unvalidated, so no error figure is given")

    setups = []
    for _ in range(SETUP_REPS):
        dt, ns, instances, scripts, kernels = set_up(args.workload, args.seed)
        setups.append(dt)
    pins = load_pins(instances)
    checker = Checker(pins)
    pinned = sum(p is not None for p in pins)
    print(f"# {len(instances)} instances; output digests pinned for {pinned}; "
          "every instance is checked for metric identities and identical "
          "reruns")

    if args.trace:
        values, spec = run_traced(args, ns, instances, scripts, kernels,
                                  checker)
    else:
        values, spec = run_untraced(args, ns, scripts, kernels,
                                    statistics.median(setups), checker)
    for line in checker.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not checker.failed,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, one at a time, so that peak
    memory belongs to that workload alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"error: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "nocsim")):
        print(f"error: no nocsim package under {SRC}; run the benchmark from "
              "a nocsim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

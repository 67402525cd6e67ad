"""Seeded workload generators for the nocsim benchmark.

Each generator takes the workload seed and returns a list of
instances; the same seed always gives the same list.  An instance is
either a scenario dict (handed to ``nocsim.scenario.parse_scenario``)
or a bundled scenario file with overrides (handed to
``nocsim.scenario.load_scenario``).  The simulator sees nothing but
these inputs: every instance is run through
``nocsim.simkernel.Kernel(script).run()``, one after another, as a
closed loop with one client.

The parameters are fixed here, once.  A change that wants to shrink a
workload to hide a regression must edit this file, which shows.

BENCHMARK.json gates fault_storm and bundled only.  cold_remap and
predict_recover stay runnable by name (and under ``--workload all``)
for per-layer work on the mapper and the mapping cache, but their
sim_s moved by up to 27% (IQR over median) across ten seeds on a
shared 2-vCPU machine, more than a 0.25 bound can hold, so they are not
part of the gated set.
"""

import os
import random

SCENARIO_DIR = "scenarios"
BUNDLED_FILES = ("smoke.json", "regions.json", "burst_recovery.json")
HEURISTICS = ("greedy", "ils", "sa")


class Instance:
    """One simulation input: a scenario dict, or a bundled file path
    with load-time overrides.  The name identifies the content, so
    pinned output digests are looked up by it."""

    __slots__ = ("name", "data", "path", "overrides")

    def __init__(self, name, data=None, path=None, overrides=None):
        self.name = name
        self.data = data
        self.path = path
        self.overrides = overrides or {}

    def parse(self, scenario):
        """ScenarioScript for this instance, via the given
        ``nocsim.scenario`` module (looked up at call time so that a
        traced run sees its wrappers)."""
        if self.path is not None:
            return scenario.load_scenario(self.path, **self.overrides)
        return scenario.parse_scenario(self.data)


def _rng(workload, seed):
    return random.Random(f"nocsim-bench:{workload}:{seed}")


def _pe(tile):
    return {"kind": "pe", "tile": tile}


def _app(rng, tasks, edges):
    """Explicit random DAG with exactly `edges` edges (task ids give
    the direction).  A fixed edge count keeps the per-instance host time
    from following a binomial edge count: with "random" apps at density
    0.3 it ranged 0.19-0.61 s, mostly with the number of transfers."""
    pairs = [(i, j) for i in range(tasks) for j in range(i + 1, tasks)]
    return {
        "type": "explicit",
        "tasks": [{"id": t, "wcet": rng.randint(1, 20)} for t in range(tasks)],
        "edges": [[i, j, rng.randint(1, 10)]
                  for i, j in sorted(rng.sample(pairs, edges))],
    }


# Why: the mapper-scheduler workload.  Prediction is off (k=0), so
# every permanent fault that hits a used PE is a cache miss and a full
# greedy mapping run.  It loads `mapsched` (run_heuristic,
# asap_schedule, routes) and bypasses the `shmu` mapping cache.  On a
# 3x3 mesh ten tasks use most tiles, so most faults force a remap, and
# region tables stay a minor cost (on 4x4 with eight tasks they took
# more host time than the mapper).  Many small instances rather than a
# few large ones: one instance's host time varies by about 25%, and the
# per-seed total must not.
COLD_REMAP = dict(instances=100, mesh=[3, 3], turn_model="xy", tasks=10,
                  edges=10, faults=3, fault_window=(10, 150))


def cold_remap(seed):
    p = COLD_REMAP
    rng = _rng("cold_remap", seed)
    tiles = p["mesh"][0] * p["mesh"][1]
    out = []
    for i in range(p["instances"]):
        victims = rng.sample(range(tiles), p["faults"])
        times = sorted(rng.sample(range(*p["fault_window"]), p["faults"]))
        out.append(Instance(f"cold_remap@{seed}#{i}", data={
            "seed": rng.randrange(1 << 30),
            "application": _app(rng, p["tasks"], p["edges"]),
            "platform": {"mesh": p["mesh"], "turn_model": p["turn_model"]},
            "heuristic": {"name": "greedy", "cost": "makespan"},
            "prediction": {"k": 0, "mpm_capacity": 16},
            "injections": [
                {"time": t, "target": _pe(v), "persistence": "permanent"}
                for t, v in zip(times, victims)
            ],
        }))
    return out


# Why: the routing / reachability workload.  An adaptive turn model
# (west_first) on 8x8 makes RouteProvider draw seeded choices, and
# every permanent link or turn fault rebuilds the routing
# graph and the per-port rectangle tables of 64 tiles.  The app is
# small (6 tasks), so mapping is a minor cost: this is the "no change"
# workload for mapper work.  The fault mix is fixed (four links, two
# turns) so that every instance rebuilds the tables equally often.
FAULT_STORM = dict(instances=4, mesh=[8, 8], turn_model="west_first",
                   tasks=6, density=0.3, link_faults=4, turn_faults=2,
                   fault_window=(5, 200))

_TURNS_2D = 8                               # turn slots per 2D router


def fault_storm(seed):
    p = FAULT_STORM
    rng = _rng("fault_storm", seed)
    w, h = p["mesh"]
    tiles = w * h
    links = 2 * ((w - 1) * h + (h - 1) * w)
    out = []
    for i in range(p["instances"]):
        targets = [{"kind": "link", "link": link}
                   for link in rng.sample(range(links), p["link_faults"])]
        targets += [{"kind": "turn", "tile": rng.randrange(tiles),
                     "slot": rng.randrange(_TURNS_2D)}
                    for _ in range(p["turn_faults"])]
        rng.shuffle(targets)
        times = sorted(rng.randrange(*p["fault_window"]) for _ in targets)
        out.append(Instance(f"fault_storm@{seed}#{i}", data={
            "seed": rng.randrange(1 << 30),
            "application": {"type": "random", "tasks": p["tasks"],
                            "density": p["density"]},
            "platform": {"mesh": p["mesh"], "turn_model": p["turn_model"]},
            "heuristic": {"name": "greedy", "cost": "makespan"},
            "injections": [
                {"time": t, "target": tg, "persistence": "permanent"}
                for t, tg in zip(times, targets)
            ],
        }))
    return out


# Why: the prediction / mapping-cache workload, the opposite use of
# `shmu` from cold_remap on the same 3x3 platform.  Each of three tiles
# gets an intermittent burst, which makes the predictor store
# speculative mappings (cache writes; the burst's fourth event stores
# the same state again), and then a permanent fault on the same tile,
# which recovers from the cache (reads).  The capacity is below the
# three distinct health states stored per instance, so entries are
# evicted.  Same heuristic as cold_remap, so a change to the cache
# shows here alone.
PREDICT_RECOVER = dict(instances=80, mesh=[3, 3], turn_model="xy", tasks=8,
                       edges=8, tiles=3, burst=4, spacing=5, k=2,
                       mpm_capacity=2, gap=(30, 60))


def predict_recover(seed):
    p = PREDICT_RECOVER
    rng = _rng("predict_recover", seed)
    tiles = p["mesh"][0] * p["mesh"][1]
    out = []
    for i in range(p["instances"]):
        injections = []
        t = rng.randrange(*p["gap"])
        for victim in rng.sample(range(tiles), p["tiles"]):
            injections.append({
                "time": t, "target": _pe(victim),
                "persistence": {"kind": "intermittent", "count": p["burst"],
                                "spacing": p["spacing"]}})
            t += p["burst"] * p["spacing"] + rng.randrange(*p["gap"])
            injections.append({"time": t, "target": _pe(victim),
                               "persistence": "permanent"})
            t += rng.randrange(*p["gap"])
        out.append(Instance(f"predict_recover@{seed}#{i}", data={
            "seed": rng.randrange(1 << 30),
            "application": _app(rng, p["tasks"], p["edges"]),
            "platform": {"mesh": p["mesh"], "turn_model": p["turn_model"]},
            "heuristic": {"name": "greedy", "cost": "makespan"},
            "prediction": {"k": p["k"], "mpm_capacity": p["mpm_capacity"]},
            "injections": injections,
        }))
    return out


# Why: the repo's own example inputs, each under greedy, ILS and SA.
# SA, ILS, region-partitioned meshes, checker faults, north_last,
# requeue and aging run nowhere else in the benchmark.  Tables are on
# 3x3 and 4x4, so this is the "no change" workload for reachability
# work; SA dominates its host time.  The files keep their own scenario
# seeds and the workload seed only orders the nine runs: overriding the
# scenario seed moved one pass between 8.5 and 15 s of host time and
# its recovery walls by 25x (whether a fault hits the random app under
# SA), more than any spread bound could hold with nine runs per pass.
def bundled(seed):
    out = [Instance(f"{fname[:-5]}/{heuristic}",
                    path=os.path.join(SCENARIO_DIR, fname),
                    overrides={"heuristic": heuristic})
           for fname in BUNDLED_FILES for heuristic in HEURISTICS]
    _rng("bundled", seed).shuffle(out)
    return out


WORKLOADS = {
    "cold_remap": cold_remap,
    "fault_storm": fault_storm,
    "predict_recover": predict_recover,
    "bundled": bundled,
}

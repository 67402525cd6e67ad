"""Acceptance criteria, one test per criterion.

Each test prints a single "criterion N PASS" line on success (visible
with pytest -s); a failed assertion marks the criterion red.  Criteria
with a stated runtime cap assert the measured wall time too.
"""

import random
import statistics
import time

import networkx as nx

import nocsim as ns
from nocsim.reachability import build_region_tables, should_drop

import oracles
from conftest import chain_tg


def report(n, text):
    print(f"criterion {n} PASS: {text}")


MODELS = (ns.XY, ns.WEST_FIRST, ns.NORTH_LAST, ns.NEGATIVE_FIRST)


def test_criterion_01_deadlock_freedom_all_meshes():
    t0 = time.perf_counter()
    checked = 0
    for w in range(2, 9):
        for h in range(2, 9):
            ag = ns.build_mesh(w, h)
            shm = ns.SystemHealthMap(ag)
            every = (1 << len(ag)) - 1      # the reach bits of all tiles
            for model in MODELS:
                rg = ns.build_routing_graph(ag, model, shm)
                assert ns.is_deadlock_free(rg), (w, h, model.name)
                assert not oracles.has_cycle_dfs(rg), (w, h, model.name)
                reach = rg.reach_by_id()
                for s in range(len(ag)):
                    assert reach[rg.port_id(s, "L", "in")] == every, \
                        (w, h, model.name, s)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    report(1, f"{checked} healthy routing graphs acyclic with all-true "
              f"reachability in {elapsed:.1f}s")


def test_criterion_02_xy_unique_paths():
    ag = ns.build_mesh(4, 4)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    pairs = 0
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            assert len(oracles.nx_simple_paths(rg, src, dst)) == 1, (src, dst)
            pairs += 1
    assert pairs == 240
    report(2, "exactly one route for all 240 ordered pairs on 4x4 xy, "
              "by independent enumeration")


def _random_failures(rng, ag):
    faults = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            faults.append(("link", rng.randrange(len(ag.links))))
        else:
            faults.append(("turn", rng.randrange(len(ag.tiles)),
                           rng.randrange(8)))
    return faults


def _oracle_drop_table(rg):
    """Per-tile union of destinations some output port can still reach,
    computed with networkx only."""
    g = oracles.rg_to_nx(rg)
    reach = {}
    for tile in range(len(rg.ag.tiles)):
        union = set()
        for direction in rg.ag.directions():
            if rg.ag.neighbor(tile, direction) is None:
                continue
            start = rg.port(tile, direction, "out")
            seen = nx.descendants(g, start)
            union |= {n.tile for n in seen
                      if n.direction == "L" and n.kind == "out"}
        reach[tile] = union
    return reach


def test_criterion_03_drop_matches_path_oracle():
    t0 = time.perf_counter()
    ag = ns.build_mesh(4, 4)
    configs = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        shm = ns.SystemHealthMap(ag)
        for fault in _random_failures(rng, ag):
            shm.apply_fault(fault)
        rg = ns.build_routing_graph(ag, ns.XY, shm)
        exact = build_region_tables(rg, budget=16)
        coarse = build_region_tables(rg, budget=2)
        reach = _oracle_drop_table(rg)
        for src in range(16):
            for dst in range(16):
                if src == dst:
                    continue
                oracle_drop = dst not in reach[src]
                assert should_drop(exact, src, dst) == oracle_drop, \
                    (seed, src, dst)
                if not should_drop(coarse, src, dst):
                    # Acceptance at the coarse budget must be safe.
                    assert not oracle_drop, (seed, src, dst)
        configs += 1
    elapsed = time.perf_counter() - t0
    assert configs == 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"unconstrained tables equal the path oracle on 24000 pairs "
              f"over {configs} degraded meshes; budget-2 tables only ever "
              f"conservative ({elapsed:.1f}s)")


def test_criterion_04_remap_validity():
    t0 = time.perf_counter()
    ag = ns.build_mesh(4, 4)
    for i in range(50):
        seed = 2000 + i
        n = 9 + (i % 8)
        tg = ns.random_task_graph(n, 0.3, seed=seed)
        msu = ns.Msu(tg=tg, turn_model=ns.XY, seed=seed)
        shm0 = ns.SystemHealthMap(ag)
        mapping0, _, _ = ns.map_and_deploy(
            shm0, msu, ns.MpmMemory(16), ns.CurrentMappingMemory())
        victim = max(set(mapping0), key=mapping0.count)

        script = ns.ScenarioScript(
            seed=seed, tg=tg, ag=ag, turn_model=ns.XY,
            injections=(ns.Injection(time=1, location=("pe", victim),
                                     persistence="permanent"),))
        res = ns.run(script)

        remap_lines = [d for d in res.decisions if "action=remap" in d]
        assert len(remap_lines) == 1, (seed, res.decisions)
        assert victim not in res.cmm.mapping, seed
        rg = ns.build_routing_graph(ag, ns.XY, res.shm)
        for fp in res.cmm.schedule.flows:
            src = res.cmm.mapping[fp.src_task]
            dst = res.cmm.mapping[fp.dst_task]
            assert dst in oracles.nx_tile_reach(rg, src), \
                (seed, fp.src_task, fp.dst_task)
        ns.validate_mapping(tg, res.cmm.mapping, res.shm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    report(4, f"50 single-fault scenarios remapped off the broken tile with "
              f"routable flows and exactly one remap decision ({elapsed:.1f}s)")


def _assert_report_identities(r, cm):
    if r.hit:
        assert r.t_map_alg == 0
        assert r.t_fetch == cm.t_fetch
        assert r.t_rl == r.t_fetch + r.t_schd + r.t_par_ext + r.t_par_map
    else:
        assert r.t_fetch == 0 and r.t_schd == 0
        assert r.t_rl == r.t_map_alg + r.t_par_ext + r.t_par_map


def test_criterion_05_latency_accounting_and_speedup():
    ag = ns.build_mesh(3, 3)
    cm = ns.CostModel()
    pairs = 0
    for i in range(10):
        seed = 3000 + i
        tg = ns.random_task_graph(6 + (i % 4), 0.3, seed=seed)
        msu = ns.Msu(tg=tg, turn_model=ns.XY, seed=seed)
        shm0 = ns.SystemHealthMap(ag)
        mapping0, _, _ = ns.map_and_deploy(
            shm0, msu, ns.MpmMemory(16), ns.CurrentMappingMemory())
        victim = max(set(mapping0), key=mapping0.count)

        burst = ns.Injection(time=20, location=("pe", victim),
                             persistence=("intermittent", 3, 5))
        perm = ns.Injection(time=60, location=("pe", victim),
                            persistence="permanent")
        hit_run = ns.run(ns.ScenarioScript(seed=seed, tg=tg, ag=ag,
                                           turn_model=ns.XY,
                                           injections=(burst, perm)))
        miss_run = ns.run(ns.ScenarioScript(seed=seed, tg=tg, ag=ag,
                                            turn_model=ns.XY,
                                            injections=(perm,)))
        for res in (hit_run, miss_run):
            _assert_report_identities(res.initial_report, cm)
            for r in res.metrics.latency_reports:
                _assert_report_identities(r, cm)

        assert hit_run.metrics.mpm_hits == 1, seed
        assert miss_run.metrics.mpm_misses == 1, seed
        r_hit = hit_run.metrics.latency_reports[0]
        r_miss = miss_run.metrics.latency_reports[0]
        assert r_hit.hit and not r_miss.hit
        assert hit_run.cmm.mapping == miss_run.cmm.mapping, seed
        assert r_hit.t_rl < r_miss.t_rl, seed
        saving = r_miss.t_rl - r_hit.t_rl
        assert saving == r_miss.t_map_alg - (r_hit.t_fetch + r_hit.t_schd), seed
        pairs += 1
    report(5, f"hit/miss identities exact on every latency report and the "
              f"cache saved t_map_alg - (t_fetch + t_schd) cycles in all "
              f"{pairs} pairs")


def test_criterion_06_shm_restored_after_mpfs_pass():
    ag = ns.build_mesh(4, 4)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", 0))
    shm.set_aging(3, 40)
    before_text = shm.serialize()
    before_tag = ns.shm_tag(shm)

    tg = ns.random_task_graph(8, 0.3, seed=11)
    msu = ns.Msu(tg=tg, turn_model=ns.XY, seed=11)
    cfg = ns.ClassifierConfig()
    histories = {}
    for j, loc in enumerate([("pe", 5), ("link", 3), ("turn", 6, 6),
                             ("pe", 9)]):
        histories[loc] = [ns.FaultEvent(10 * j + t, loc) for t in (1, 2, 3)]
    predicted = ns.predict_mpfs(histories, 4, cfg)
    assert len(predicted) == 4

    mpm = ns.MpmMemory(16)
    stored = sum(1 for loc in predicted
                 if ns.map_and_store(shm, loc, msu, mpm) is not None)
    assert stored == 4
    assert shm.serialize() == before_text
    assert ns.shm_tag(shm) == before_tag
    report(6, "serialization and fault tag bit-identical after a k=4 "
              "speculative mapping pass")


def test_criterion_07_asap_linear_operation_count():
    ag = ns.build_mesh(4, 4)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    for m in (1, 10, 100, 1000):
        density = min(0.2, 20.0 / max(m, 1))
        tg = ns.random_task_graph(m, density, seed=m)
        mapping = [t % 16 for t in range(m)]
        sched = ns.asap_schedule(tg, mapping, shm, rg)
        assert sched.start_computations == m, m
    report(7, "scheduler start computations equal the task count for "
              "m in {1, 10, 100, 1000}")


def test_criterion_08_heuristic_quality():
    t0 = time.perf_counter()
    ag = ns.build_mesh(3, 3)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    ratios = []
    for i in range(30):
        seed = 4000 + i
        tg = ns.random_task_graph(9, 0.35, seed=seed)
        sg = ns.run_heuristic("greedy", tg, shm, rg).schedule
        ss = ns.run_heuristic("sa", tg, shm, rg, seed=seed).schedule
        g = ns.evaluate_cost(sg, ns.SCHEDULE_LENGTH)
        s = ns.evaluate_cost(ss, ns.SCHEDULE_LENGTH)
        ratios.append(g / s)
    med = statistics.median(ratios)
    assert med <= 1.5, f"median ratio {med:.3f}"

    ag2 = ns.build_mesh(2, 2)
    shm2 = ns.SystemHealthMap(ag2)
    rg2 = ns.build_routing_graph(ag2, ns.XY, shm2)
    generous = ns.SaParams(moves_per_temp=300)
    for i in range(12):
        m = 2 + (i % 3)
        tg = ns.random_task_graph(m, 0.5, seed=4100 + i)
        best = oracles.exhaustive_best_mapping(tg, shm2, rg2,
                                               ns.SCHEDULE_LENGTH)
        sched = ns.run_heuristic("sa", tg, shm2, rg2, sa_params=generous,
                                 seed=i).schedule
        assert ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH) == best, i
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(8, f"median greedy/annealing cost ratio {med:.3f} <= 1.5 over 30 "
              f"instances; annealing met the exhaustive optimum on all 12 "
              f"small instances ({elapsed:.1f}s)")


def test_criterion_09_lbdr_bits_match_rg_edges():
    from conftest import random_shm
    ag = ns.build_mesh(4, 4)
    for seed in range(1000):
        shm = random_shm(ag, seed, max_links=4, max_turns=6)
        rg = ns.build_routing_graph(ag, ns.XY, shm)
        for tile in range(16):
            cfg = ns.derive_lbdr_config(shm, ns.XY, tile)
            for d in ("N", "E", "W", "S"):
                out = rg.port(tile, d, "out")
                has_ext = any(b.tile != tile for b in rg.adj[out])
                assert bool(cfg.connectivity[d]) == has_ext, (seed, tile, d)
            for (a, b), bit in cfg.routing.items():
                edge = (rg.port(tile, b, "out")
                        in rg.adj[rg.port(tile, a, "in")])
                assert bool(bit) == edge, (seed, tile, a, b)
    report(9, "connectivity and routing bits bijective with routing-graph "
              "edges across 1000 random health states")


def test_criterion_10_byte_identical_reruns(tmp_path):
    import pathlib
    smoke = str(pathlib.Path(__file__).resolve().parent.parent
                / "scenarios" / "smoke.json")
    outs = []
    for _ in range(2):
        script = ns.load_scenario(smoke)
        res = ns.run(script)
        rg = ns.build_routing_graph(script.ag, script.turn_model, res.shm)
        tables = build_region_tables(rg, script.budget)
        outs.append((res.files(), tables.dump()))
    assert outs[0] == outs[1]
    report(10, "metrics, trace, decisions, mapping, cache, health map, and "
               "region dumps byte-identical across reruns")

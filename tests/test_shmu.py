import random

import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim.errors import (EmptyHistory, LengthMismatch, RangeError, UnknownTarget,
                           UnknownTile)
from nocsim.shmu import flow_elements

import oracles
from conftest import chain_tg


def ev(time, loc=("turn", 0, 1), retest=False):
    return ns.FaultEvent(time, loc, retest_persistent=retest)


CFG = ns.ClassifierConfig(window=1000, intermittent_threshold=3,
                          permanent_threshold=5)


# -- classification -----------------------------------------------------------


def test_classify_empty_history():
    with pytest.raises(EmptyHistory):
        ns.classify([], CFG)


def test_classify_single_event_transient():
    assert ns.classify([ev(10)], CFG) == ns.TRANSIENT


def test_classify_threshold_intermittent():
    events = [ev(10), ev(20), ev(30)]
    assert ns.classify(events, CFG) == ns.INTERMITTENT


def test_classify_threshold_permanent():
    events = [ev(10 * i) for i in range(5)]
    assert ns.classify(events, CFG) == ns.PERMANENT


def test_classify_retest_overrides_counts():
    assert ns.classify([ev(10, retest=True)], CFG) == ns.PERMANENT


def test_classify_reads_retest_off_the_last_latest_event():
    # Of two events at the latest time, the later one in the history
    # decides, as a stable sort by time leaves it last.
    assert ns.classify([ev(10, retest=True), ev(10)], CFG) == ns.TRANSIENT
    assert ns.classify([ev(10), ev(10, retest=True)], CFG) == ns.PERMANENT


def test_classify_window_expires_old_events():
    # Two old events fall outside the window of the latest one.
    events = [ev(0), ev(1), ev(5000)]
    assert ns.classify(events, CFG) == ns.TRANSIENT


def test_classify_unsorted_input_ok():
    events = [ev(30), ev(10), ev(20)]
    assert ns.classify(events, CFG) == ns.INTERMITTENT


def test_classifier_config_validation():
    with pytest.raises(RangeError):
        ns.ClassifierConfig(window=100, intermittent_threshold=5,
                            permanent_threshold=3).validate()


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(window=0), "window must be positive, got 0"),
    (dict(intermittent_threshold=5, permanent_threshold=3),
     "thresholds must satisfy permanent >= intermittent >= 2, got 3 and 5"),
], ids=["window", "thresholds"])
def test_classifier_config_fails_when_built(kwargs, fragment):
    # Checked in the constructor, not at the first classify of a run.
    with pytest.raises(RangeError) as exc:
        ns.ClassifierConfig(**kwargs)
    assert str(exc.value) == fragment


@pytest.mark.parametrize("call, fragment", [
    (lambda: ns.ClassifierConfig(window=0).validate(),
     "window must be positive, got 0"),
    (lambda: ns.severity(("pe", 0), "sporadic", None, None),
     "unknown fault class 'sporadic'"),
    (lambda: ns.predict_mpfs({}, -1, CFG),
     "prediction size must be >= 0, got -1"),
    (lambda: ns.MpmMemory(0), "capacity must be >= 1, got 0"),
], ids=["classifier-window", "severity-class", "prediction-size",
        "mpm-capacity"])
def test_shmu_settings_raise_range_error(call, fragment):
    with pytest.raises(RangeError) as exc:
        call()
    assert str(exc.value) == fragment


# -- degradation targets ---------------------------------------------------------


def test_degrade_plain_elements(mesh22):
    assert ns.degrade_targets(("pe", 1), mesh22) == [("pe", 1)]
    assert ns.degrade_targets(("turn", 2, 6), mesh22) == [("turn", 2, 6)]
    assert ns.degrade_targets(("link", 3), mesh22) == [("link", 3)]


def test_degrade_control_unit_kills_all_turns(mesh22):
    for unit in ("routing_logic", "arbiter", "fifo_control"):
        targets = ns.degrade_targets(("checker", 1, unit), mesh22)
        assert targets == [("turn", 1, s) for s in range(8)]


def test_degrade_datapath_kills_incident_links(mesh22):
    targets = ns.degrade_targets(("checker", 0, "datapath_parity"), mesh22)
    links = {l for kind, l in targets}
    expected = {l.id for l in mesh22.links if 0 in (l.src, l.dst)}
    assert links == expected
    assert all(kind == "link" for kind, _ in targets)


def test_degrade_unknown_unit(mesh22):
    with pytest.raises(UnknownTarget):
        ns.degrade_targets(("checker", 0, "coffee"), mesh22)


def test_degrade_non_int_tile(mesh22):
    with pytest.raises(UnknownTile):
        ns.degrade_targets(("pe", "3"), mesh22)


@pytest.mark.parametrize("location, error", [
    (("turn", 0, 99), UnknownTarget),
    (("turn", 0, "1"), UnknownTarget),
    (("link", "x"), UnknownTarget),
    (("link", 999), UnknownTarget),
    (("link", True), UnknownTarget),
    (("pe", -1), UnknownTile),
    ((), UnknownTarget),
    (None, UnknownTarget),
    (5, UnknownTarget),
    (("checker", 0), UnknownTarget),
], ids=["turn-slot-99", "turn-slot-str", "link-str", "link-999", "link-bool",
        "pe-negative", "empty", "none", "int", "checker-short"])
def test_degrade_rejects_what_apply_fault_rejects(mesh22, location, error):
    # One element check: degrade_targets, the severity policy over it
    # and apply_fault reject the same location with the same error.
    with pytest.raises(error) as exc:
        ns.degrade_targets(location, mesh22)
    with pytest.raises(error) as used:
        ns.severity(location, ns.PERMANENT, busy_cmm(mesh22), mesh22)
    with pytest.raises(error) as applied:
        ns.SystemHealthMap(mesh22).apply_fault(location)
    assert str(exc.value) == str(used.value) == str(applied.value)


# -- severity ----------------------------------------------------------------------


def busy_cmm(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    rg = ns.build_routing_graph(mesh22, ns.XY, shm)
    tg = chain_tg([5, 5], [2])
    mapping = [0, 1]
    sched = ns.asap_schedule(tg, mapping, shm, rg)
    return ns.CurrentMappingMemory(mapping=mapping, schedule=sched)


def test_severity_transient_ignored(mesh22):
    cmm = busy_cmm(mesh22)
    assert ns.severity(("pe", 0), ns.TRANSIENT, cmm, mesh22) == ns.IGNORE


def test_severity_intermittent_stores(mesh22):
    cmm = busy_cmm(mesh22)
    assert ns.severity(("pe", 0), ns.INTERMITTENT, cmm, mesh22) == \
        ns.REMAP_AND_STORE


def test_severity_permanent_on_hosting_pe(mesh22):
    cmm = busy_cmm(mesh22)
    assert ns.severity(("pe", 0), ns.PERMANENT, cmm, mesh22) == ns.REMAP


def test_severity_permanent_on_idle_pe(mesh22):
    cmm = busy_cmm(mesh22)
    assert ns.severity(("pe", 3), ns.PERMANENT, cmm, mesh22) == ns.IGNORE


def test_severity_permanent_on_used_link(mesh22):
    cmm = busy_cmm(mesh22)
    used = cmm.schedule.flows[0].links[0]
    assert ns.severity(("link", used), ns.PERMANENT, cmm, mesh22) == ns.REMAP
    unused = next(l.id for l in mesh22.links
                  if l.id not in cmm.schedule.flows[0].links)
    assert ns.severity(("link", unused), ns.PERMANENT, cmm, mesh22) == \
        ns.IGNORE


def test_severity_permanent_on_used_turn(mesh22):
    # Route 0 -> 1 goes straight east, so no turn is used anywhere.
    cmm = busy_cmm(mesh22)
    assert ns.severity(("turn", 1, 6), ns.PERMANENT, cmm, mesh22) == ns.IGNORE
    # A diagonal route turns at the intermediate router.
    shm = ns.SystemHealthMap(mesh22)
    rg = ns.build_routing_graph(mesh22, ns.XY, shm)
    tg = chain_tg([5, 5], [2])
    sched = ns.asap_schedule(tg, [0, 3], shm, rg)
    cmm2 = ns.CurrentMappingMemory(mapping=[0, 3], schedule=sched)
    assert ns.severity(("turn", 1, mesh22.turn_slot[("W", "N")]),
                       ns.PERMANENT, cmm2, mesh22) == ns.REMAP


@pytest.mark.parametrize("tile", range(4))
def test_severity_permanent_turn_remaps_only_where_a_flow_turns(mesh22, tile):
    # On 2x2 XY the one flow 0 -> 3 goes east to tile 1 and turns north
    # there, arriving on W and leaving on N: turn slot 6 of tile 1.
    shm = ns.SystemHealthMap(mesh22)
    rg = ns.build_routing_graph(mesh22, ns.XY, shm)
    sched = ns.asap_schedule(chain_tg([5, 5], [2]), [0, 3], shm, rg)
    cmm = ns.CurrentMappingMemory(mapping=[0, 3], schedule=sched)
    for slot in range(8):
        want = ns.REMAP if (tile, slot) == (1, 6) else ns.IGNORE
        assert ns.severity(("turn", tile, slot), ns.PERMANENT, cmm,
                           mesh22) == want


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_flow_turns_read_off_links_match_the_port_path(seed):
    # The turns taken per the route's links equal the turns on its port
    # path: an (a-in, b-out) step inside one router with (a, b) a slot.
    rng = random.Random(seed)
    if rng.random() < 0.3:
        ag = ns.build_mesh(rng.randint(2, 3), rng.randint(2, 3),
                           rng.randint(2, 3))
        model = ns.XYZ
    else:
        ag = ns.build_mesh(rng.randint(2, 5), rng.randint(2, 5))
        model = rng.choice([ns.XY, ns.WEST_FIRST, ns.NORTH_LAST,
                            ns.NEGATIVE_FIRST])
    slots = ag.turns
    shm = ns.SystemHealthMap(ag)
    for link in rng.sample(range(len(ag.links)), len(ag.links) // 5):
        shm.apply_fault(("link", link))
    rg = ns.build_routing_graph(ag, model, shm)
    routes = rg.route_provider(seed)
    tg = chain_tg([1, 1])
    for _ in range(4):
        src, dst = rng.sample(range(len(ag)), 2)
        route = routes.route(src, dst)
        if route is None:
            continue
        ports = oracles.route_ports(ag, route, src, dst)
        taken = {(a.tile, slots.index((a.direction, b.direction)))
                 for a, b in zip(ports, ports[1:])
                 if a.kind == "in" and b.kind == "out"
                 and (a.direction, b.direction) in slots}
        sched = ns.asap_schedule(tg, [src, dst], shm, rg, routes=routes)
        flow, = sched.flows
        assert flow.links == route.links
        elements = flow_elements(flow, ag)
        assert {(e[1], e[2]) for e in elements if e[0] == "turn"} == taken
        cmm = ns.CurrentMappingMemory(mapping=[src, dst], schedule=sched)
        for tile in range(len(ag)):
            for slot in range(len(slots)):
                assert ns.location_used(("turn", tile, slot), cmm, ag) == (
                    (tile, slot) in taken)


def test_severity_checker_units_follow_degradation(mesh22):
    cmm = busy_cmm(mesh22)
    # Datapath of tile 0 takes out the link the running flow uses.
    assert ns.severity(("checker", 0, "datapath_parity"), ns.PERMANENT,
                       cmm, mesh22) == ns.REMAP


# -- prediction ---------------------------------------------------------------------


def test_predict_empty():
    assert ns.predict_mpfs({}, 3, CFG) == []


def test_predict_single_intermittent_location():
    histories = {("turn", 0, 1): [ev(10), ev(20), ev(30)]}
    assert ns.predict_mpfs(histories, 1, CFG) == [("turn", 0, 1)]


def test_predict_ranks_by_rate():
    slow = [ns.FaultEvent(t, ("link", 0)) for t in (10, 400, 800)]
    fast = [ns.FaultEvent(t, ("link", 1)) for t in (700, 800, 850, 900)]
    histories = {("link", 0): slow, ("link", 1): fast}
    # Four events beat three within the same window.
    assert ns.predict_mpfs(histories, 1, CFG) == [("link", 1)]
    assert ns.predict_mpfs(histories, 2, CFG) == [("link", 1), ("link", 0)]


def test_predict_skips_transient_and_permanent():
    histories = {
        ("link", 0): [ev(10, ("link", 0))],
        ("link", 1): [ns.FaultEvent(10, ("link", 1), retest_persistent=True)],
        ("link", 2): [ns.FaultEvent(t, ("link", 2)) for t in (10, 20, 30)],
    }
    assert ns.predict_mpfs(histories, 5, CFG) == [("link", 2)]


# -- MPM ----------------------------------------------------------------------------


def test_mpm_store_lookup_roundtrip():
    mpm = ns.MpmMemory(4)
    mpm.store(ns.MpmEntry(tag=7, full_config="cfg-a", assignment=(0, 1)))
    assert mpm.lookup(7, "cfg-a").assignment == (0, 1)
    assert mpm.lookup(7, "cfg-b") is None          # config mismatch
    assert mpm.lookup(8, "cfg-a") is None


def test_mpm_eviction_least_recently_stored():
    mpm = ns.MpmMemory(2)
    mpm.store(ns.MpmEntry(1, "a", (0,)))
    mpm.store(ns.MpmEntry(2, "b", (0,)))
    mpm.store(ns.MpmEntry(3, "c", (0,)))
    assert mpm.lookup(1, "a") is None
    assert mpm.lookup(2, "b") is not None
    assert mpm.lookup(3, "c") is not None


def test_mpm_restore_refreshes_recency():
    mpm = ns.MpmMemory(2)
    mpm.store(ns.MpmEntry(1, "a", (0,)))
    mpm.store(ns.MpmEntry(2, "b", (0,)))
    mpm.store(ns.MpmEntry(1, "a", (9,)))           # refresh
    mpm.store(ns.MpmEntry(3, "c", (0,)))           # evicts tag 2
    assert mpm.lookup(2, "b") is None
    assert mpm.lookup(1, "a").assignment == (9,)


def test_mpm_dump_stable():
    mpm = ns.MpmMemory(2)
    mpm.store(ns.MpmEntry(0x10, "pe 0 B", (1, 2)))
    assert mpm.dump() == mpm.dump()
    assert "0000000000000010" in mpm.dump()


# -- store/deploy protocol -------------------------------------------------------------


def small_msu(seed=6):
    ag = ns.build_mesh(2, 2)
    tg = ns.build_task_graph(
        [ns.Task(0, 5), ns.Task(1, 5), ns.Task(2, 5)],
        {(0, 1): 2, (1, 2): 1})
    return ag, tg, ns.Msu(tg=tg, turn_model=ns.XY, seed=seed)


def test_map_and_store_leaves_shm_intact():
    ag, tg, msu = small_msu()
    shm = ns.SystemHealthMap(ag)
    before = shm.serialize()
    tag_before = ns.shm_tag(shm)
    mpm = ns.MpmMemory(4)
    entry = ns.map_and_store(shm, ("pe", 3), msu, mpm)
    assert entry is not None
    assert shm.serialize() == before
    assert ns.shm_tag(shm) == tag_before
    assert len(mpm) == 1


def test_map_and_store_infeasible_stores_nothing():
    ag = ns.build_mesh(1, 1)
    tg = ns.build_task_graph([ns.Task(0, 5)], {})
    msu = ns.Msu(tg=tg, turn_model=ns.XY)
    shm = ns.SystemHealthMap(ag)
    before = shm.serialize()
    mpm = ns.MpmMemory(4)
    assert ns.map_and_store(shm, ("pe", 0), msu, mpm) is None
    assert len(mpm) == 0
    assert shm.serialize() == before


def test_mpfs_pass_bounded_entries_and_clean_shm():
    ag, tg, msu = small_msu()
    shm = ns.SystemHealthMap(ag)
    before = shm.serialize()
    mpm = ns.MpmMemory(8)
    for loc in [("pe", 1), ("pe", 2)]:
        ns.map_and_store(shm, loc, msu, mpm)
    assert len(mpm) == 2
    assert shm.serialize() == before


def test_map_and_store_reuses_a_stored_state(monkeypatch):
    ag, tg, msu = small_msu()
    # A, B, A, C at capacity 2: storing A again refreshes it, so C
    # evicts B, exactly as when every state is mapped anew.
    locations = [("pe", 3), ("pe", 1), ("pe", 3), ("pe", 2)]
    cold = ns.MpmMemory(2)
    for loc in locations:
        hyp = ns.SystemHealthMap(ag)
        for fault in ns.degrade_targets(loc, ag):
            hyp.apply_fault(fault)
        result = msu.compute(hyp, msu.build_rg(hyp), ns.shm_tag(hyp))
        cold.store(ns.MpmEntry(ns.shm_tag(hyp), hyp.serialize(),
                               tuple(result.mapping)))

    calls = []
    run_heuristic = ns.shmu.run_heuristic

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_heuristic(*args, **kwargs)

    monkeypatch.setattr(ns.shmu, "run_heuristic", counted)
    shm = ns.SystemHealthMap(ag)
    before = shm.serialize()
    mpm = ns.MpmMemory(2)
    entries = [ns.map_and_store(shm, loc, msu, mpm) for loc in locations]
    assert len(calls) == 3                  # the second ("pe", 3) maps nothing
    assert entries[2] == entries[0]
    assert mpm.dump() == cold.dump()
    assert shm.serialize() == before


def test_deploy_miss_then_hit_latency_identities():
    ag, tg, msu = small_msu()
    shm = ns.SystemHealthMap(ag)
    mpm = ns.MpmMemory(4)
    cmm = ns.CurrentMappingMemory()

    m0, s0, r0 = ns.map_and_deploy(shm, msu, mpm, cmm)
    assert not r0.hit
    assert r0.t_rl == r0.t_map_alg + r0.t_par_ext + r0.t_par_map
    assert r0.t_fetch == 0 and r0.t_schd == 0
    # Initial deployment transfers every task.
    assert r0.t_par_map == msu.cost_model.par_map_per_move * len(tg)

    ns.map_and_store(shm, ("pe", 3), msu, mpm)
    shm.apply_fault(("pe", 3))
    m_hit, s_hit, r_hit = ns.map_and_deploy(shm, msu, mpm, cmm)
    assert r_hit.hit
    assert r_hit.t_map_alg == 0
    assert r_hit.t_fetch == msu.cost_model.t_fetch
    assert r_hit.t_schd == msu.cost_model.cycles_per_task * len(tg)
    assert r_hit.t_rl == (r_hit.t_fetch + r_hit.t_schd + r_hit.t_par_ext
                          + r_hit.t_par_map)

    # Same fault, cold cache: the miss path on an identical config.
    shm2 = ns.SystemHealthMap(ag)
    shm2.apply_fault(("pe", 3))
    cmm2 = ns.CurrentMappingMemory(mapping=m0, schedule=s0)
    m_miss, s_miss, r_miss = ns.map_and_deploy(shm2, msu, ns.MpmMemory(4),
                                               cmm2)
    assert not r_miss.hit
    assert m_miss == m_hit                        # seeded by the fault tag
    assert r_miss.t_rl == (r_miss.t_map_alg + r_miss.t_par_ext
                           + r_miss.t_par_map)
    assert r_hit.t_rl < r_miss.t_rl
    saving = r_miss.t_rl - r_hit.t_rl
    assert saving == r_miss.t_map_alg - (r_hit.t_fetch + r_hit.t_schd)
    # Frozen values for this instance (seed 6, defaults).
    assert (r0.t_map_alg, r0.t_par_map, r0.t_rl) == (280, 6, 291)
    assert r_hit.t_rl == 10
    assert (r_miss.t_map_alg, r_miss.t_rl) == (190, 195)
    assert saving == 185


def test_hit_schedule_matches_recomputed():
    ag, tg, msu = small_msu()
    shm = ns.SystemHealthMap(ag)
    mpm = ns.MpmMemory(4)
    cmm = ns.CurrentMappingMemory()
    ns.map_and_deploy(shm, msu, mpm, cmm)
    ns.map_and_store(shm, ("pe", 3), msu, mpm)
    shm.apply_fault(("pe", 3))
    mapping, sched, report = ns.map_and_deploy(shm, msu, mpm, cmm)
    rg = msu.build_rg(shm)
    again = ns.asap_schedule(tg, mapping, shm, rg, comm=msu.comm,
                             routes=msu.routes_for(rg))
    assert sched.task_times == again.task_times
    assert sched.flows == again.flows


def test_t_map_alg_matches_evaluation_count():
    ag, tg, msu = small_msu()
    shm = ns.SystemHealthMap(ag)
    result = msu.compute(shm, msu.build_rg(shm), ns.shm_tag(shm))
    report = ns.map_and_deploy(shm, msu, ns.MpmMemory(2),
                               ns.CurrentMappingMemory())[2]
    assert report.t_map_alg == result.evaluations * msu.cost_model.cycles_per_eval


def test_extract_partial_mapping():
    assert ns.shmu.extract_partial_mapping([0, 1, 2, 3], [0, 1, 5, 3]) == \
        ((2, 5),)
    assert ns.shmu.extract_partial_mapping([1, 1], [1, 1]) == ()
    assert ns.shmu.extract_partial_mapping([0, 0], [1, 1]) == ((0, 1), (1, 1))
    with pytest.raises(LengthMismatch):
        ns.shmu.extract_partial_mapping([0], [0, 1])

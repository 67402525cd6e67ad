import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import nocsim as ns
from nocsim.errors import (
    InfeasibleInstance,
    LengthMismatch,
    NoHealthyPE,
    RangeError,
    SemanticError,
    UnknownTile,
    UnroutableFlow,
)
from nocsim.rng import derive_seed

import oracles
from conftest import chain_tg, random_shm, two_regions


def platform(w, h, faults=()):
    ag = ns.build_mesh(w, h)
    shm = ns.SystemHealthMap(ag)
    for f in faults:
        shm.apply_fault(f)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    return ag, shm, rg


# -- routes ------------------------------------------------------------------


def test_route_provider_shortest_paths(mesh44):
    shm = ns.SystemHealthMap(mesh44)
    rg = ns.build_routing_graph(mesh44, ns.WEST_FIRST, shm)
    routes = ns.RouteProvider(rg, seed=5)
    for src, dst in ((0, 15), (3, 12), (5, 10)):
        route = routes.route(src, dst)
        sx, sy = mesh44.coords(src)
        dx, dy = mesh44.coords(dst)
        assert route.hops == abs(sx - dx) + abs(sy - dy) + 1
        assert len(route.links) == route.hops - 1


def test_route_provider_deterministic_per_pair(mesh44):
    shm = ns.SystemHealthMap(mesh44)
    rg = ns.build_routing_graph(mesh44, ns.WEST_FIRST, shm)
    a = ns.RouteProvider(rg, seed=9)
    b = ns.RouteProvider(rg, seed=9)
    pairs = [(0, 15), (15, 0), (2, 13), (7, 8)]
    assert [a.route(s, d).links for s, d in pairs] == \
        [b.route(s, d).links for s, d in pairs]
    # Query order must not change choices.
    c = ns.RouteProvider(rg, seed=9)
    for s, d in reversed(pairs):
        c.route(s, d)
    assert [c.route(s, d).links for s, d in pairs] == \
        [a.route(s, d).links for s, d in pairs]


def test_route_none_when_unroutable():
    ag, shm, rg = platform(2, 2, [("link", 0)])
    shm.apply_fault(("link", ns.build_mesh(2, 2).link(0, "E").id))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    routes = ns.RouteProvider(rg)
    assert routes.route(0, 3) is None


# -- ASAP ---------------------------------------------------------------------


def test_asap_colocated_chain():
    ag, shm, rg = platform(2, 1)
    tg = chain_tg([10, 10], [2])
    s = ns.asap_schedule(tg, [0, 0], shm, rg)
    assert s.task_times == ((0, 0, 10), (0, 10, 20))
    assert s.makespan == 20
    assert not s.flows


def test_asap_remote_chain_latency_model():
    # One link between the tiles: two routers traversed, two payload
    # units, so the data lands 2 + 2 cycles after injection.
    ag, shm, rg = platform(2, 1)
    tg = chain_tg([10, 10], [2])
    s = ns.asap_schedule(tg, [0, 1], shm, rg)
    assert s.task_times[1] == (1, 14, 24)
    assert s.makespan == 24
    flow = s.flows[0]
    assert flow.injection == 10 and flow.delivery == 14
    assert len(flow.links) == 1


def test_asap_unroutable_flow():
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", ag.link(0, "E").id))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    tg = chain_tg([5, 5], [1])
    with pytest.raises(UnroutableFlow) as exc:
        ns.asap_schedule(tg, [0, 3], shm, rg)
    assert exc.value.src == 0 and exc.value.dst == 3


def test_asap_release_respected():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 5, release=7)], {})
    s = ns.asap_schedule(tg, [0], shm, rg)
    assert s.task_times[0] == (0, 7, 12)


def test_asap_pe_serializes_tasks():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 5), ns.Task(1, 5)], {})
    s = ns.asap_schedule(tg, [0, 0], shm, rg)
    assert s.task_times == ((0, 0, 5), (0, 5, 10))


def test_asap_aging_scales_execution():
    ag, shm, rg = platform(2, 1)
    shm.set_aging(0, 50)
    tg = ns.build_task_graph([ns.Task(0, 10)], {})
    s = ns.asap_schedule(tg, [0], shm, rg)
    assert s.task_times[0] == (0, 0, 20)


def test_asap_link_contention_bumps_injection():
    # Two transfers leaving tile 0 eastward at the same time must
    # serialize on the shared link.
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph(
        [ns.Task(0, 10), ns.Task(1, 10), ns.Task(2, 50), ns.Task(3, 50)],
        {(0, 2): 3, (1, 3): 3},
    )
    s = ns.asap_schedule(tg, [0, 0, 1, 1], shm, rg)
    f_a, f_b = sorted(s.flows, key=lambda f: f.injection)
    busy = s.link_busy[f_a.links[0]]
    assert len(busy) == 2
    (s1, e1), (s2, e2) = sorted(busy)
    assert s2 >= e1                      # no overlap on the wire


@given(st.integers(0, 10**5))
@settings(max_examples=25)
def test_link_busy_groups_flow_intervals(seed):
    # Twelve tasks on the two end tiles of a 3x1 row: the transfers
    # share the same two links, so placements almost always contend.
    ag, shm, rg = platform(3, 1)
    tg = ns.random_task_graph(12, 0.4, seed=seed)
    rng = random.Random(seed)
    mapping = [rng.choice((0, 2)) for _ in range(len(tg))]
    s = ns.asap_schedule(tg, mapping, shm, rg)
    assume(any(f.injection > s.task_times[f.src_task][2] for f in s.flows))
    expected = {}
    for f in s.flows:
        for link, start, end in f.intervals:
            expected.setdefault(link, []).append((start, end))
    assert list(s.link_busy) == sorted(expected)
    assert s.link_busy == {l: tuple(iv) for l, iv in expected.items()}
    for iv in s.link_busy.values():
        ordered = sorted(iv)
        assert all(e1 <= s2 for (_, e1), (s2, _) in zip(ordered, ordered[1:]))


def test_asap_counter_counts_each_task_once():
    for m in (1, 10, 100):
        ag, shm, rg = platform(4, 4)
        tg = ns.random_task_graph(m, 0.2, seed=m)
        mapping = [t % 16 for t in range(m)]
        s = ns.asap_schedule(tg, mapping, shm, rg)
        assert s.start_computations == m


def test_asap_base_time_and_finished():
    ag, shm, rg = platform(2, 1)
    tg = chain_tg([10, 10], [2])
    s = ns.asap_schedule(tg, [0, 1], shm, rg, base_time=100, finished={0})
    assert s.task_times[0] == (0, 100, 100)
    assert s.retained == frozenset({0})
    # The retained producer re-sends its output from base_time.
    assert s.flows[0].injection >= 100
    assert s.task_times[1][1] == s.flows[0].delivery


def test_validate_mapping_errors():
    ag, shm, rg = platform(2, 1)
    tg = chain_tg([5, 5])
    with pytest.raises(LengthMismatch):
        ns.validate_mapping(tg, [0], shm)
    with pytest.raises(UnknownTile):
        ns.validate_mapping(tg, [0, 9], shm)
    shm.apply_fault(("pe", 1))
    with pytest.raises(SemanticError):
        ns.validate_mapping(tg, [0, 1], shm)


# -- costs ---------------------------------------------------------------------


def test_cost_single_task():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 10)], {})
    s = ns.asap_schedule(tg, [0], shm, rg)
    assert ns.evaluate_cost(s, ns.SCHEDULE_LENGTH) == 10


def test_cost_traffic_balance_equal_links_zero():
    ag, shm, rg = platform(3, 1)
    tg = ns.build_task_graph(
        [ns.Task(0, 5), ns.Task(1, 5), ns.Task(2, 5), ns.Task(3, 5)],
        {(0, 1): 2, (2, 3): 2},
    )
    s = ns.asap_schedule(tg, [0, 1, 1, 2], shm, rg)
    used = [sum(e - st_ for st_, e in iv) for iv in s.link_busy.values()]
    assert len(set(used)) == 1
    assert ns.evaluate_cost(s, ns.TRAFFIC_BALANCE) == 0.0


def test_cost_utilization_balance_example():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 10), ns.Task(1, 30)], {})
    s = ns.asap_schedule(tg, [0, 1], shm, rg)
    assert ns.evaluate_cost(s, ns.UTILIZATION_BALANCE) == 10.0
    assert ns.evaluate_cost(s, ns.TRAFFIC_BALANCE) == 0.0
    # Unequal task counts: PE 0 runs 10 + 10 cycles, PE 1 runs 30, so the
    # busy totals are 20 and 30, stddev 5; a per-task constant moves it.
    tg = ns.build_task_graph([ns.Task(0, 10), ns.Task(1, 10), ns.Task(2, 30)], {})
    s = ns.asap_schedule(tg, [0, 0, 1], shm, rg)
    assert s.task_times == ((0, 0, 10), (0, 10, 20), (1, 0, 30))
    assert ns.evaluate_cost(s, ns.UTILIZATION_BALANCE) == 5.0
    search = ns.mapsched._Search(tg, shm, rg, ns.UTILIZATION_BALANCE, None,
                                 ns.CommModel(), None)
    assert search.evaluate([0, 0, 1]) == 5.0


def test_cost_unknown_kind():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 1)], {})
    s = ns.asap_schedule(tg, [0], shm, rg)
    with pytest.raises(RangeError):
        ns.evaluate_cost(s, "nope")


# -- initial mappings -------------------------------------------------------------


def test_initial_first_fit_round_robin():
    ag, shm, rg = platform(2, 2)
    tg = ns.build_task_graph([ns.Task(i, 5) for i in range(4)], {})
    assert oracles.initial_mapping(tg, shm) == [0, 1, 2, 3]


def test_initial_single_task():
    ag, shm, rg = platform(1, 1)
    tg = ns.build_task_graph([ns.Task(0, 5)], {})
    assert oracles.initial_mapping(tg, shm) == [0]


def test_initial_random_deterministic():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(7, 0.3, seed=2)
    a = oracles.initial_mapping(tg, shm, policy="random", seed=44)
    b = oracles.initial_mapping(tg, shm, policy="random", seed=44)
    assert a == b


def test_initial_skips_unusable():
    ag, shm, rg = platform(2, 2)
    shm.apply_fault(("pe", 0))
    shm.set_aging(1, 100)
    tg = ns.build_task_graph([ns.Task(i, 5) for i in range(4)], {})
    mapping = oracles.initial_mapping(tg, shm)
    assert set(mapping) <= {2, 3}


def test_no_healthy_pe():
    ag, shm, rg = platform(1, 1)
    shm.apply_fault(("pe", 0))
    with pytest.raises(NoHealthyPE):
        ns.usable_tiles(shm)


@given(st.integers(0, 10**6), st.sampled_from(ns.mapsched.INITIAL_POLICIES),
       st.booleans())
@settings(max_examples=100)
def test_search_start_matches_reference(seed, policy, clustered):
    """A search's start, expanded to tasks, is the reference initial
    mapping drawn from derive_seed(seed, "initial"), on the usable tiles
    only: broken and aged-out PEs take no unit."""
    rng = random.Random(seed)
    ag = ns.build_mesh(rng.randint(1, 4), rng.randint(1, 4))
    shm = random_shm(ag, seed, max_links=0, max_turns=0, max_pes=2)
    for tile in rng.sample(range(len(ag)), rng.randint(0, len(ag) // 2)):
        shm.set_aging(tile, rng.choice((30, 100)))
    assume(any(shm.pe_usable(t) for t in range(len(ag))))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    tg = ns.random_task_graph(rng.randint(1, 12), 0.3, seed=seed)
    ctg = ns.cluster_tasks(tg, rng.randint(1, len(tg))) if clustered else None
    search = ns.mapsched._Search(tg, shm, rg, ns.SCHEDULE_LENGTH, ctg, None,
                                 None, policy, seed)
    assert ns.mapsched._expand(search.units, search.start, len(tg)) == \
        oracles.initial_mapping(tg, shm, policy, derive_seed(seed, "initial"), ctg)


# -- heuristics ---------------------------------------------------------------------


def test_greedy_descends_from_initial():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(9, 0.4, seed=7)
    start = oracles.initial_mapping(tg, shm)
    s0 = ns.asap_schedule(tg, start, shm, rg)
    r = ns.run_heuristic("greedy", tg, shm, rg)
    mapping, sched = r.mapping, r.schedule
    assert ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH) <= \
        ns.evaluate_cost(s0, ns.SCHEDULE_LENGTH)
    ns.validate_mapping(tg, mapping, shm)


def test_greedy_single_pe_forced():
    ag, shm, rg = platform(1, 1)
    tg = chain_tg([4, 6, 2])
    r = ns.run_heuristic("greedy", tg, shm, rg)
    mapping, sched = r.mapping, r.schedule
    assert mapping == [0, 0, 0]
    assert ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH) == 12


def test_two_tasks_two_pes_utilization_zero():
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph([ns.Task(0, 10), ns.Task(1, 10)], {})
    sched = ns.run_heuristic("greedy", tg, shm, rg,
                             cost=ns.UTILIZATION_BALANCE).schedule
    assert ns.evaluate_cost(sched, ns.UTILIZATION_BALANCE) == 0.0


def test_ils_beats_or_matches_greedy():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(9, 0.4, seed=7)
    sg = ns.run_heuristic("greedy", tg, shm, rg).schedule
    si = ns.run_heuristic("ils", tg, shm, rg, iterations=5).schedule
    assert ns.evaluate_cost(si, ns.SCHEDULE_LENGTH) <= \
        ns.evaluate_cost(sg, ns.SCHEDULE_LENGTH)


def test_ils_deterministic():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(8, 0.4, seed=13)
    a = ns.run_heuristic("ils", tg, shm, rg, iterations=4, seed=5)
    b = ns.run_heuristic("ils", tg, shm, rg, iterations=4, seed=5)
    assert a.mapping == b.mapping


def test_ils_keeps_its_best_when_a_round_has_no_feasible_start():
    # Only mappings that split tasks 0 and 1 meet task 2's deadline, so
    # no one-tile start is feasible: a round whose perturbation is
    # infeasible is skipped, and the first descent's mapping is returned.
    ag, shm, rg = platform(2, 1)
    tg = ns.build_task_graph(
        [ns.Task(0, 10), ns.Task(1, 10),
         ns.Task(2, 2, criticality=ns.CRITICAL, slack=16)],
        {(0, 2): 1, (1, 2): 1})
    for iterations in (0, 1, 2, 10):
        r = ns.run_heuristic("ils", tg, shm, rg, iterations=iterations, seed=1)
        assert r.mapping == [0, 1, 0]


def test_sa_deterministic():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(8, 0.4, seed=13)
    a = ns.run_heuristic("sa", tg, shm, rg, seed=5)
    b = ns.run_heuristic("sa", tg, shm, rg, seed=5)
    assert a.mapping == b.mapping


def test_sa_matches_exhaustive_optimum():
    ag, shm, rg = platform(2, 2)
    tg = chain_tg([5, 3, 7, 2], [2, 1, 3])
    best = oracles.exhaustive_best_mapping(tg, shm, rg, ns.SCHEDULE_LENGTH)
    sched = ns.run_heuristic("sa", tg, shm, rg, seed=3).schedule
    assert ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH) == best


def test_sa_tiny_t0_acts_as_descent():
    ag, shm, rg = platform(3, 3)
    tg = ns.random_task_graph(7, 0.4, seed=21)
    start = oracles.initial_mapping(tg, shm)
    s0 = ns.asap_schedule(tg, start, shm, rg)
    params = ns.SaParams(t0=1e-9)
    sched = ns.run_heuristic("sa", tg, shm, rg, sa_params=params,
                             seed=2).schedule
    assert ns.evaluate_cost(sched, ns.SCHEDULE_LENGTH) <= \
        ns.evaluate_cost(s0, ns.SCHEDULE_LENGTH)


def test_sa_without_units_draws_no_move():
    """An empty application has no unit to move; its draw loop would
    never end (getrandbits(0) is 0), so SA returns the empty mapping."""
    ag, shm, rg = platform(2, 2)
    tg = ns.build_task_graph([], {})
    r = ns.run_heuristic("sa", tg, shm, rg, sa_params=ns.SaParams(t0=1.0))
    assert r.mapping == [] and r.evaluations == 1


@pytest.mark.parametrize("field, value", [
    ("alpha", 1.0), ("alpha", 1.5), ("alpha", 0.0),
    ("tmin_ratio", 0.0), ("tmin_ratio", 1.0),
])
def test_sa_params_reject_a_schedule_that_never_cools(field, value):
    # With alpha >= 1 the temperature never falls to tmin, so
    # run_heuristic("sa", ...) would never return.  The scenario parser
    # checks documents; SaParams checks library callers too.
    with pytest.raises(RangeError, match=field):
        ns.SaParams(**{field: value})


def test_heuristic_avoids_broken_pe():
    ag, shm, rg = platform(2, 2)
    shm.apply_fault(("pe", 2))
    tg = ns.random_task_graph(6, 0.4, seed=4)
    mapping = ns.run_heuristic("greedy", tg, shm, rg).mapping
    assert 2 not in mapping


def test_infeasible_instance_when_nothing_fits():
    # A critical task whose deadline no PE can meet.
    ag, shm, rg = platform(1, 1)
    tg = ns.build_task_graph(
        [ns.Task(0, 10, criticality=ns.CRITICAL, slack=5)], {})
    with pytest.raises(InfeasibleInstance):
        ns.run_heuristic("greedy", tg, shm, rg)


def test_deadline_filters_slow_tiles():
    ag = ns.build_mesh(2, 1)
    shm = ns.SystemHealthMap(ag)
    shm.set_aging(0, 60)                  # tile 0 runs 2.5x slower
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    tg = ns.build_task_graph(
        [ns.Task(0, 10, criticality=ns.CRITICAL, slack=12)], {})
    mapping = ns.run_heuristic("greedy", tg, shm, rg).mapping
    assert mapping == [1]


def test_clustered_units_stay_together():
    ag, shm, rg = platform(2, 2)
    tg = chain_tg([4, 4, 4, 4], [9, 1, 9])
    ctg = ns.cluster_tasks(tg, 2)
    result = ns.run_heuristic("greedy", tg, shm, rg, ctg=ctg)
    for cluster in ctg.clusters:
        tiles = {result.mapping[t] for t in cluster}
        assert len(tiles) == 1


def test_run_heuristic_reports_evaluations():
    ag, shm, rg = platform(2, 2)
    tg = chain_tg([3, 3])
    result = ns.run_heuristic("greedy", tg, shm, rg)
    assert result.evaluations >= len(ns.usable_tiles(shm))


def test_dump_mapping_shape():
    text = ns.dump_mapping([2, 0, 1])
    assert text.splitlines() == [
        "task 0 -> tile 2", "task 1 -> tile 0", "task 2 -> tile 1"]


@given(st.integers(0, 10**5))
@settings(max_examples=15)
def test_greedy_valid_on_random_instances(seed):
    ag = ns.build_mesh(3, 3)
    shm = random_shm(ag, seed, max_links=2, max_turns=2, max_pes=2)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    tg = ns.random_task_graph(6, 0.4, seed=seed)
    try:
        r = ns.run_heuristic("greedy", tg, shm, rg)
    except (InfeasibleInstance, NoHealthyPE):
        return
    mapping, sched = r.mapping, r.schedule
    ns.validate_mapping(tg, mapping, shm)
    for f in sched.flows:
        assert ns.RouteProvider(rg).route(f.src_tile, f.dst_tile) is not None


# -- route provider memo ------------------------------------------------------


def test_route_provider_memoised_per_graph_and_seed(mesh44):
    shm = ns.SystemHealthMap(mesh44)
    rg = ns.build_routing_graph(mesh44, ns.WEST_FIRST, shm)
    assert rg.route_provider(7) is rg.route_provider(7)
    assert rg.route_provider(7) is not rg.route_provider(8)
    other = ns.build_routing_graph(mesh44, ns.WEST_FIRST, shm)
    assert other.route_provider(7) is not rg.route_provider(7)
    fresh = ns.RouteProvider(rg, seed=7)
    for src, dst in itertools.product(range(16), repeat=2):
        assert rg.route_provider(7).route(src, dst) == fresh.route(src, dst)


def test_route_rejects_tiles_outside_the_mesh(mesh22):
    rg = ns.build_routing_graph(mesh22, ns.XY, ns.SystemHealthMap(mesh22))
    provider = rg.route_provider()
    for src, dst in ((-1, 0), (0, -1), (4, 0), (0, 4)):
        with pytest.raises(UnknownTile):
            provider.route(src, dst)
    assert provider.rows == [None] * 4


def test_msu_routes_for_reuses_the_graphs_provider(mesh33):
    tg = chain_tg([3, 3])
    msu = ns.Msu(tg=tg, turn_model=ns.WEST_FIRST, seed=4)
    shm = ns.SystemHealthMap(mesh33)
    rg = msu.build_rg(shm)
    assert msu.routes_for(rg) is msu.routes_for(rg)
    assert msu.routes_for(msu.build_rg(shm)) is not msu.routes_for(rg)


def test_route_rows_ask_each_pair_once(mesh44, monkeypatch):
    shm = ns.SystemHealthMap(mesh44)
    for fault in (("link", 3), ("link", 17), ("turn", 5, 2)):
        shm.apply_fault(fault)
    rg = ns.build_routing_graph(mesh44, ns.XY, shm)
    provider = rg.route_provider(5)
    asked = []
    route = provider.route

    def counting(src, dst):
        asked.append((src, dst))
        return route(src, dst)

    monkeypatch.setattr(provider, "route", counting)
    tg = ns.random_task_graph(8, 0.5, seed=11)
    comm = ns.CommModel(unit_link_cycles=2, router_delay=3)
    tiles = (0, 3, 5, 12)
    rng = random.Random(2)
    # Two searches and a schedule share the provider's rows.
    feasible = []
    for _ in range(2):
        search = ns.mapsched._Search(tg, shm, rg, ns.SCHEDULE_LENGTH, None,
                                     comm, provider)
        for _ in range(30):
            cand = [rng.choice(tiles) for _ in range(len(tg))]
            if search.evaluate(cand) is not None:
                feasible.append(cand)
    assert asked and len(asked) == len(set(asked))
    before = len(asked)
    ns.asap_schedule(tg, feasible[-1], shm, rg, comm=comm, routes=provider)
    assert len(asked) == before
    rows = provider.rows
    sources = {src for src, _ in asked}
    assert sources <= set(tiles)
    assert all(rows[t] is None for t in range(len(mesh44)) if t not in sources)
    fresh = ns.RouteProvider(rg, seed=5)
    for src, dst in asked:
        want = fresh.route(src, dst)
        if want is None:
            assert rows[src][dst] == ()
        else:
            assert rows[src][dst] == want
    assert any(fresh.route(*pair) is None for pair in asked)


# -- differential checks against the reference scheduler ----------------------


def schedule_inputs(seed, critical=False):
    """A contended random instance: a small mesh with faults and aging,
    a DAG mapped onto some tiles, and random resume and comm settings."""
    rng = random.Random(seed)
    ag = ns.build_mesh(rng.randint(2, 4), rng.randint(2, 4))
    shm = random_shm(ag, seed, max_links=2, max_turns=1, max_pes=1)
    for tile in rng.sample(range(len(ag)), rng.randint(0, 2)):
        shm.set_aging(tile, rng.choice((10, 25, 60, 100)))
    usable = [t for t in range(len(ag)) if shm.pe_usable(t)]
    assume(usable)
    rg = ns.build_routing_graph(ag, rng.choice((ns.XY, ns.WEST_FIRST)), shm)
    tg = ns.random_task_graph(rng.randint(1, 20), rng.choice((0.2, 0.4, 0.7)),
                              seed=seed)
    if critical:
        kinds = [ns.CRITICAL] + [ns.NON_CRITICAL] * 4
        tasks = [ns.Task(t.id, t.wcet, release=rng.randint(0, 5),
                         criticality=rng.choice(kinds), slack=rng.randint(0, 400))
                 for t in tg.tasks]
        tg = ns.build_task_graph(tasks, tg.edges)
    # Few tiles make links contended; all tiles make many busy links
    # and PEs, where the order of the cost sums shows in the floats.
    tiles = rng.sample(usable, min(len(usable), rng.choice((1, 2, 3, 16))))
    mapping = [rng.choice(tiles) for _ in range(len(tg))]
    comm = ns.CommModel(unit_link_cycles=rng.choice((0, 1, 1, 3)),
                        router_delay=rng.choice((0, 1, 1, 2)))
    return tg, shm, rg, mapping, comm, rng


def _outcome(fn):
    try:
        return fn()
    except UnroutableFlow as exc:
        return ("unroutable", exc.src, exc.dst)


@given(st.integers(0, 10**6))
@settings(max_examples=150)
def test_asap_schedule_matches_reference(seed):
    tg, shm, rg, mapping, comm, rng = schedule_inputs(seed)
    finished = set(rng.sample(range(len(tg)), rng.randint(0, len(tg) // 2)))
    base_time = rng.choice((0, 0, 17))
    routes = rg.route_provider(rng.randrange(4))
    args = (tg, mapping, shm, rg)
    kw = dict(comm=comm, routes=routes, base_time=base_time, finished=finished)
    new = _outcome(lambda: ns.asap_schedule(*args, **kw))
    ref = _outcome(lambda: oracles.asap_schedule(*args, **kw))
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert new.dump() == ref.dump()
    assert new.flows == ref.flows
    assert new.task_times == ref.task_times
    assert new.makespan == ref.makespan
    assert new.start_computations == ref.start_computations
    assert new.retained == ref.retained
    for kind in ns.mapsched.COST_KINDS:
        got, want = ns.evaluate_cost(new, kind), oracles.schedule_cost(ref, kind)
        assert got == want and type(got) is type(want), kind


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=150)
def test_cost_only_evaluation_matches_reference(seed, clustered):
    tg, shm, rg, mapping, comm, rng = schedule_inputs(seed, critical=True)
    ctg = ns.cluster_tasks(tg, rng.randint(1, len(tg))) if clustered else None
    routes = rg.route_provider(rng.randrange(4))
    for kind in ns.mapsched.COST_KINDS:
        search = ns.mapsched._Search(tg, shm, rg, kind, ctg, comm, routes)
        unit_tiles = [mapping[min(members)] for members in search.units]
        expanded = ns.mapsched._expand(search.units, unit_tiles, len(tg))
        got = search.evaluate(unit_tiles)
        want = oracles.evaluate_candidate(tg, expanded, shm, rg, comm, routes, kind)
        assert got == want and type(got) is type(want), kind
        assert search.evaluations == 1


def test_cost_only_sums_in_reference_order():
    # Many busy links and PEs with uneven loads: here the population
    # stddev's float result depends on the order of the sums, so the
    # cost-only path must add in the order the definitions give.
    ag, shm, rg = platform(4, 4)
    shm.set_aging(5, 30)
    order_sensitive = 0
    for seed in range(40):
        rng = random.Random(seed)
        tg = ns.random_task_graph(20, 0.4, seed=seed)
        mapping = [rng.randrange(16) for _ in range(len(tg))]
        sched = oracles.asap_schedule(tg, mapping, shm, rg)
        for kind in ns.mapsched.COST_KINDS:
            search = ns.mapsched._Search(tg, shm, rg, kind, None,
                                         ns.CommModel(), None)
            assert search.evaluate(mapping) == oracles.schedule_cost(sched, kind), \
                (seed, kind)
        busy = [sum(e - s for s, e in iv) for iv in sched.link_busy.values()]
        order_sensitive += oracles.pstdev(busy) != oracles.pstdev(busy[::-1])
    assert order_sensitive >= 10


def _counting_passes(search):
    """Counts the ASAP passes `search` runs, in the returned list."""
    passes = []
    run = search.run

    def counted(*args, **kwargs):
        passes.append(1)
        return run(*args, **kwargs)

    search.run = counted
    return passes


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60)
def test_moved_unit_shortcut_matches_full_pass(seed, clustered):
    # scenarios/regions.json's split of a 4x4 mesh: no route crosses
    # from the west half to the east half, so many one-unit moves break
    # a transfer, through an edge into the moved unit or out of it.
    rng = random.Random(seed)
    ag = ns.build_mesh(4, 4)
    shm = random_shm(ag, seed, max_links=3, max_turns=0, max_pes=2)
    assume(any(shm.pe_usable(t) for t in range(len(ag))))
    rg = ns.build_routing_graph(ag, ns.XY, shm,
                                regions=two_regions(ag, ns.WEST_FIRST, ns.XY))
    tg = ns.random_task_graph(rng.randint(2, 10), rng.choice((0.2, 0.4, 0.7)),
                              seed=seed)
    if rng.random() < 0.5:
        tasks = [ns.Task(t.id, t.wcet, criticality=rng.choice(
                     (ns.CRITICAL, ns.NON_CRITICAL)), slack=rng.randint(10, 200))
                 for t in tg.tasks]
        tg = ns.build_task_graph(tasks, tg.edges)
    ctg = ns.cluster_tasks(tg, rng.randint(1, len(tg))) if clustered else None
    comm = ns.CommModel(unit_link_cycles=rng.choice((0, 1, 3)),
                        router_delay=rng.choice((0, 1, 2)))
    cost = rng.choice(ns.mapsched.COST_KINDS)
    seed_routes = rng.randrange(4)

    def search_of(routes):
        return ns.mapsched._Search(tg, shm, rg, cost, ctg, comm, routes)

    search = search_of(rg.route_provider(seed_routes))
    passes = _counting_passes(search)
    half = rng.choice((search.tiles, [t for t in search.tiles if t % 4 < 2]))
    try:
        base, _ = search.feasible_start(
            [rng.choice(half or search.tiles) for _ in search.units])
    except InfeasibleInstance:
        assume(False)
    routes = ns.RouteProvider(rg, seed_routes)
    for u in range(len(search.units)):
        for tile in search.tiles:
            if tile == base[u]:
                continue
            cand = list(base)
            cand[u] = tile
            mapping = ns.mapsched._expand(search.units, cand, len(tg))
            unroutable = any(mapping[a] != mapping[b]
                             and routes.route(mapping[a], mapping[b]) is None
                             for a, b in tg.edges)
            before, ran = search.evaluations, len(passes)
            got = search.evaluate(cand, u)
            assert search.evaluations == before + 1
            # A move that breaks a route is rejected without a pass.
            assert len(passes) - ran == (0 if unroutable else 1)
            fresh = search_of(ns.RouteProvider(rg, seed_routes))
            want = fresh.evaluate(cand)
            assert fresh.evaluations == 1
            assert got == want and type(got) is type(want), (u, tile)
            assert want is None or not unroutable


def test_cost_only_deadline_is_inclusive():
    # Finishing exactly at release + slack meets the deadline.
    ag, shm, rg = platform(2, 1)
    for slack, want in ((10, 10), (9, None)):
        tg = ns.build_task_graph(
            [ns.Task(0, 10, release=3, criticality=ns.CRITICAL, slack=slack),
             ns.Task(1, 4)], {(0, 1): 2})
        search = ns.mapsched._Search(tg, shm, rg, ns.SCHEDULE_LENGTH, None,
                                     ns.CommModel(), None)
        got = search.evaluate([0, 1])
        assert got == oracles.evaluate_candidate(
            tg, [0, 1], shm, rg, ns.CommModel(), None, ns.SCHEDULE_LENGTH)
        assert got == (None if want is None else 21)


def _oracle_search(monkeypatch, shm, rg):
    """Make every heuristic score its candidates with the reference
    scheduler and the public cost function."""
    def evaluate(search, unit_tiles, moved=None):
        search.evaluations += 1
        mapping = ns.mapsched._expand(search.units, unit_tiles, len(search.tg))
        return oracles.evaluate_candidate(search.tg, mapping, shm, rg, search.comm,
                                          search.routes, search.cost)
    monkeypatch.setattr(ns.mapsched._Search, "evaluate", evaluate)


FF, RANDOM = "first_fit", "random"
SEARCH_CASES = [
    # (heuristic, mesh side, turn model, tasks, cost, clusters, seed,
    # initial policy); a [left, right] list of turn models splits the
    # mesh into two regions with no route between them, so many one-unit
    # moves break a route.
    ("greedy", 3, ns.XY, 8, ns.SCHEDULE_LENGTH, None, 1, FF),
    ("greedy", 3, ns.WEST_FIRST, 9, ns.TRAFFIC_BALANCE, None, 2, FF),
    ("greedy", 4, ns.WEST_FIRST, 10, ns.UTILIZATION_BALANCE, 5, 3, FF),
    ("ils", 3, ns.XY, 8, ns.SCHEDULE_LENGTH, None, 4, FF),
    ("ils", 3, ns.WEST_FIRST, 9, ns.TRAFFIC_BALANCE, 4, 5, FF),
    ("sa", 3, ns.XY, 8, ns.SCHEDULE_LENGTH, None, 6, FF),
    ("sa", 3, ns.WEST_FIRST, 9, ns.UTILIZATION_BALANCE, None, 7, FF),
    ("sa", 4, ns.XY, 9, ns.TRAFFIC_BALANCE, 6, 8, FF),
    ("sa", 4, [ns.WEST_FIRST, ns.XY], 10, ns.SCHEDULE_LENGTH, None, 9, FF),
    ("ils", 3, ns.XY, 9, ns.SCHEDULE_LENGTH, 3, 10, RANDOM),
]


@pytest.mark.parametrize("case", SEARCH_CASES, ids=[
    f"{c[0]}-{c[4]}-{c[6]}" + ("" if c[7] == FF else f"-{c[7]}")
    for c in SEARCH_CASES])
def test_heuristics_match_reference_driven_search(monkeypatch, case):
    name, side, model, m, cost, k, seed, initial_policy = case
    ag = ns.build_mesh(side, side)
    shm = random_shm(ag, seed, max_links=2, max_turns=1, max_pes=1)
    shm.set_aging(seed % len(ag), 40)
    regions = None
    if isinstance(model, list):
        regions = two_regions(ag, *model)
        model = model[0]
    rg = ns.build_routing_graph(ag, model, shm, regions=regions)
    tg = ns.random_task_graph(m, 0.4, seed=seed)
    ctg = ns.cluster_tasks(tg, k) if k else None
    kw = dict(cost=cost, ctg=ctg, seed=seed, iterations=3,
              initial_policy=initial_policy, routes=rg.route_provider(seed),
              sa_params=ns.SaParams(alpha=0.8, moves_per_temp=30))
    got = ns.run_heuristic(name, tg, shm, rg, **kw)
    with monkeypatch.context() as mp:
        _oracle_search(mp, shm, rg)
        want = ns.run_heuristic(name, tg, shm, rg, **kw)
    assert got.mapping == want.mapping
    assert got.evaluations == want.evaluations
    assert got.schedule.dump() == want.schedule.dump()
    ref = oracles.asap_schedule(tg, want.mapping, shm, rg, routes=kw["routes"])
    assert got.schedule.dump() == ref.dump()


class _MoveLog:
    """A stand-in search for _run_sa: every unit starts off the tiles,
    so every draw is a move, and evaluate logs the move and rejects it."""

    def __init__(self, n_units, tiles):
        self.units, self.tiles, self.moves = [None] * n_units, tiles, []

    def feasible_start(self, start):
        return start, 1.0

    def evaluate(self, assign, u):
        self.moves.append((u, assign[u]))


@settings(max_examples=10)
@given(st.integers(0, 2**64))
def test_sa_draws_match_randrange_and_choice(seed):
    """_run_sa draws with getrandbits in the stdlib's rejection loop; for
    every size 1..70 of the units and of the tiles, its moves must be
    what randrange(units) and choice(tiles) draw from the same stream."""
    params = ns.SaParams(t0=1.0, alpha=0.5, moves_per_temp=20, tmin_ratio=0.1)
    for n in range(1, 71):
        tiles = list(range(100, 171 - n))
        search = _MoveLog(n, tiles)
        ns.mapsched._run_sa(search, [-1] * n, seed, 0, params)
        rng = random.Random(derive_seed(seed, "sa"))
        # Four temperature levels (1, 1/2, 1/4, 1/8 > 1/10) of 20 moves.
        assert search.moves == [(rng.randrange(n), rng.choice(tiles))
                                for _ in range(4 * 20)]

"""Derived routing graphs: RoutingGraph.without against cold builds, cold
builds against the edge gating table, the derived graphs the kernel and
the mapping store use, and the bit-row rectangle cover on meshes larger
than the oracle differential draws."""

import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim.errors import UnknownTarget, UnknownTile

import oracles
from conftest import two_regions


# name -> (turn model, 3D mesh?, region factory or None)
MODEL_CASES = {
    "xy": (ns.XY, False, None),
    "west_first": (ns.WEST_FIRST, False, None),
    "north_last": (ns.NORTH_LAST, False, None),
    "negative_first": (ns.NEGATIVE_FIRST, False, None),
    "all_turns": (ns.custom_turn_model(ns.TURN_SLOTS_2D), False, None),
    "regions": (ns.XY, False,
                lambda ag: two_regions(ag, ns.XY, ns.WEST_FIRST)),
    "xyz_3x3x2": (ns.XYZ, True, None),
}


def _random_location(ag, rng):
    """A fault location of any kind, checker units included."""
    kinds = ["pe", "turn", "checker"] + (["link"] if ag.links else [])
    kind = rng.choice(kinds)
    tile = rng.randrange(len(ag))
    if kind == "pe":
        return ("pe", tile)
    if kind == "turn":
        return ("turn", tile, rng.randrange(len(ag.turns)))
    if kind == "link":
        return ("link", rng.randrange(len(ag.links)))
    return ("checker", tile, rng.choice(ns.CHECKER_UNITS))


def _assert_same_graph(derived, cold, budget, seed, tables):
    """`derived` equals `cold`, and `tables`, built along the chain of
    derived graphs with prev= as the kernel builds them, equal a cold
    build's tables."""
    assert derived.succ == cold.succ
    assert derived.reach_by_id() == cold.reach_by_id()
    assert ns.is_deadlock_free(derived) == ns.is_deadlock_free(cold)
    cold_dump = ns.build_region_tables(cold, budget).dump()
    assert ns.build_region_tables(derived, budget).dump() == cold_dump
    assert tables.dump() == cold_dump
    if seed is None:
        return
    mine, theirs = derived.route_provider(seed), cold.route_provider(seed)
    for src, dst in itertools.product(range(len(derived.ag)), repeat=2):
        assert mine.route(src, dst) == theirs.route(src, dst), (src, dst)


def _check_chain(ag, model, regions, locations, budget, seed):
    """Derive a graph location by location and check every graph of the
    chain, the healthy one first, against a cold build, routes under
    one routing seed (none when `seed` is None): each parent has then
    routed every pair with the seed its child is checked under."""
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, model, shm, regions)
    tables = ns.build_region_tables(rg, budget)
    _assert_same_graph(rg, ns.build_routing_graph(ag, model, shm, regions),
                       budget, seed, tables)
    for location in locations:
        targets = ns.degrade_targets(location, ag)
        for fault in targets:
            shm.apply_fault(fault)
        rg = rg.without(targets)
        tables = ns.build_region_tables(rg, budget, prev=tables)
        cold = ns.build_routing_graph(ag, model, shm, regions)
        _assert_same_graph(rg, cold, budget, seed, tables)


def _check_fault_sequence(case, data, locate):
    """A chain of 1 to 5 faults on a drawn mesh, each new location drawn
    by locate(ag, rng)."""
    model, is_3d, regions_of = MODEL_CASES[case]
    if is_3d:
        ag = ns.build_mesh(3, 3, 2)
    else:
        ag = ns.build_mesh(data.draw(st.integers(1, 5), label="w"),
                           data.draw(st.integers(1, 5), label="h"))
    regions = regions_of(ag) if regions_of else None
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    budget = data.draw(st.integers(1, 4), label="budget")
    seed = data.draw(st.integers(0, 3), label="routing seed")
    locations = []
    for _ in range(rng.randint(1, 5)):
        # Now and then break an element again.
        if locations and rng.random() < 0.25:
            locations.append(rng.choice(locations))
        else:
            locations.append(locate(ag, rng))
    _check_chain(ag, model, regions, locations, budget, seed)


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
@settings(max_examples=20)
@given(data=st.data())
def test_without_equals_cold_build(case, data):
    """A graph derived fault by fault equals a cold build of the same
    health state: adjacency, views, reach bits, tables and routes."""
    _check_fault_sequence(case, data, _random_location)


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
@settings(max_examples=10)
@given(data=st.data())
def test_without_equals_cold_build_on_pe_faults(case, data):
    """The same for sequences of PE faults alone, which delete only the
    faulted tiles' local-port edges."""
    _check_fault_sequence(case, data,
                          lambda ag, rng: ("pe", rng.randrange(len(ag))))


@pytest.mark.parametrize("side", [8, 12])
def test_without_equals_cold_build_on_large_west_first_meshes(side):
    """Link, turn and PE faults, again and again on one chain, on meshes
    larger than the drawn ones: reach bits, deadlock flag and the
    tables built with prev= equal cold builds'."""
    ag = ns.build_mesh(side, side)
    rng = random.Random(f"large-west-first:{side}")
    locations = []
    for _ in range(8):
        locations.append(("link", rng.randrange(len(ag.links))))
        locations.append(("turn", rng.randrange(len(ag)),
                          ag.turn_slot[rng.choice(sorted(ns.WEST_FIRST.allowed))]))
    locations.insert(5, ("pe", rng.randrange(len(ag))))
    locations.insert(11, ("pe", rng.randrange(len(ag))))
    _check_chain(ag, ns.WEST_FIRST, None, locations, 4, seed=None)


def _edges(rg):
    return {(a, b) for a, succs in oracles.port_adj(rg).items() for b in succs}


@pytest.mark.parametrize("case", sorted(MODEL_CASES))
@settings(max_examples=20)
@given(data=st.data())
def test_cold_build_follows_the_gating_table(case, data):
    """A cold build of a faulted state keeps exactly the healthy build's
    edges whose gating element is not broken, and adds none."""
    model, is_3d, regions_of = MODEL_CASES[case]
    if is_3d:
        ag = ns.build_mesh(3, 3, 2)
    else:
        ag = ns.build_mesh(data.draw(st.integers(1, 5), label="w"),
                           data.draw(st.integers(1, 5), label="h"))
    regions = regions_of(ag) if regions_of else None
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    healthy = _edges(ns.build_routing_graph(ag, model, ns.SystemHealthMap(ag),
                                            regions))
    shm = ns.SystemHealthMap(ag)
    broken = set()
    for _ in range(rng.randint(0, 8)):
        for fault in ns.degrade_targets(_random_location(ag, rng), ag):
            shm.apply_fault(fault)
            broken.add(fault)
    faulted = _edges(ns.build_routing_graph(ag, model, shm, regions))
    assert faulted <= healthy
    for a, b in healthy:
        gate = oracles.edge_label(ag, a, b)
        assert ((a, b) in faulted) == (gate not in broken), (a, b, gate)


def test_without_leaves_the_source_graph():
    ag = ns.build_mesh(3, 3)
    rg = ns.build_routing_graph(ag, ns.WEST_FIRST, ns.SystemHealthMap(ag))
    succ = rg.succ
    derived = rg.without([("link", 0), ("pe", 4), ("turn", 2, 6)])
    assert rg.succ == succ
    assert derived.succ != succ
    assert rg.without([]).succ == succ


def test_without_rejects_unknown_element():
    ag = ns.build_mesh(2, 2)
    rg = ns.build_routing_graph(ag, ns.XY, ns.SystemHealthMap(ag))
    with pytest.raises(UnknownTarget):
        rg.without([("router", 0)])


@pytest.mark.parametrize("fault, error", [
    (("pe", -1), UnknownTile),
    (("pe", True), UnknownTile),
    (("pe", 7), UnknownTile),
    (("link", -1), UnknownTarget),
    (("link", 99), UnknownTarget),
    (("turn", 0, 99), UnknownTarget),
], ids=["pe-negative", "pe-bool", "pe-7", "link-negative", "link-99",
        "turn-slot-99"])
def test_without_rejects_a_bad_id(fault, error):
    # A negative or bool id used to index another port or link, and an
    # id past the end raised a raw IndexError.
    ag = ns.build_mesh(2, 2)
    rg = ns.build_routing_graph(ag, ns.XY, ns.SystemHealthMap(ag))
    rg.reach_by_id()
    succ = rg.succ
    with pytest.raises(error):
        rg.without([("link", 0), fault])
    assert rg.succ is succ


def test_port_ids_follow_port_order():
    """Ascending ids are (tile, direction, kind) order with directions
    as the mesh lists them, then L."""
    for ag in (ns.build_mesh(2, 3), ns.build_mesh(2, 2, 2)):
        rg = ns.build_routing_graph(ag, ns.XYZ if ag.is_3d else ns.XY,
                                    ns.SystemHealthMap(ag))
        order = {d: i for i, d in enumerate(ag.directions() + ("L",))}
        nodes = oracles.ports(rg)
        keys = [(n.tile, order[n.direction], n.kind) for n in nodes]
        assert keys == sorted(keys)
        for i, node in enumerate(nodes):
            assert rg.port_id(*node) == i


# -- derived graphs in the kernel and the mapping store ------------------------


def test_kernel_graph_equals_cold_build_after_faults():
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("smoke.json", "regions.json", "burst_recovery.json"):
        kernel = ns.Kernel(ns.load_scenario(str(path / name)))
        result = kernel.run()
        cold = kernel.script.build_rg(kernel.shm)
        assert kernel.rg.succ == cold.succ, name
        assert result.tables.dump() == \
            ns.build_region_tables(cold, kernel.script.budget).dump(), name


def test_map_and_store_derives_from_the_given_graph(monkeypatch):
    ag = ns.build_mesh(3, 3)
    tg = ns.random_task_graph(6, 0.4, seed=3)
    msu = ns.Msu(tg=tg, turn_model=ns.WEST_FIRST, seed=11)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", ag.link(4, "E").id))
    locations = [("pe", 4), ("link", ag.link(1, "N").id), ("turn", 4, 0),
                 ("checker", 3, "arbiter"), ("checker", 5, "datapath_parity"),
                 ("pe", 4)]

    cold = ns.MpmMemory(4)
    cold_entries = [ns.map_and_store(shm, loc, msu, cold) for loc in locations]

    rg = msu.build_rg(shm)
    builds = []
    build = ns.shmu.build_routing_graph
    monkeypatch.setattr(ns.shmu, "build_routing_graph",
                        lambda *args: builds.append(args) or build(*args))
    before = shm.serialize()
    mpm = ns.MpmMemory(4)
    entries = [ns.map_and_store(shm, loc, msu, mpm, rg=rg) for loc in locations]
    assert builds == []
    assert entries == cold_entries
    assert mpm.dump() == cold.dump()
    assert shm.serialize() == before


# -- the work a derived graph does ---------------------------------------------


def _counted(monkeypatch, name):
    """Argument tuples of the calls to routing.<name>, patched for the
    test."""
    calls = []
    fn = getattr(ns.routing, name)
    monkeypatch.setattr(ns.routing, name,
                        lambda *args: calls.append(args) or fn(*args))
    return calls


def test_kernel_runs_one_dfs_pass(monkeypatch):
    """A west_first run with permanent link, turn and PE faults and an
    intermittent burst runs the depth-first pass once, on the cold
    graph, and propagates over all of it; each permanent fault's graph
    propagates from the one before's bits over a suffix of its order,
    and the prediction step's hypothetical graphs never ask."""
    script = ns.parse_scenario({
        "seed": 5,
        "application": {"type": "random", "tasks": 6, "density": 0.3},
        "platform": {"mesh": [4, 4], "turn_model": "west_first"},
        "heuristic": {"name": "greedy", "cost": "makespan"},
        "prediction": {"k": 2, "mpm_capacity": 8},
        "injections": [
            {"time": 20, "target": {"kind": "link", "link": 7},
             "persistence": "permanent"},
            {"time": 40, "target": {"kind": "pe", "tile": 9},
             "persistence": {"kind": "intermittent", "count": 3,
                             "spacing": 6}},
            {"time": 90, "target": {"kind": "turn", "tile": 5,
                                    "slot": ["E", "N"]},
             "persistence": "permanent"},
            {"time": 120, "target": {"kind": "pe", "tile": 10},
             "persistence": "permanent"},
        ],
    })
    passes = _counted(monkeypatch, "_dfs_postorder")
    propagations = _counted(monkeypatch, "_propagate")
    stores = []
    store = ns.simkernel.map_and_store
    monkeypatch.setattr(ns.simkernel, "map_and_store",
                        lambda *args, **kw: stores.append(1) or store(*args, **kw))
    kernel = ns.Kernel(script)
    result = kernel.run()
    assert stores, "the burst should make the predictor store mappings"
    assert result.metrics.stores > 0
    assert len(passes) == 1
    # (succ, P, bits, order, start, acyclic): one cold propagation from
    # position 0, then one per permanent fault from a later position.
    starts = [args[4] for args in propagations]
    assert len(starts) == 4
    assert starts[0] == 0 and all(0 < s < len(propagations[0][3])
                                  for s in starts[1:])
    assert all(args[5] for args in propagations)
    assert result.tables.dump() == ns.build_region_tables(
        script.build_rg(kernel.shm), script.budget).dump()


def test_map_and_store_graphs_run_no_reach_pass(monkeypatch):
    ag = ns.build_mesh(4, 4)
    msu = ns.Msu(tg=ns.random_task_graph(6, 0.4, seed=2),
                 turn_model=ns.WEST_FIRST, seed=4)
    shm = ns.SystemHealthMap(ag)
    rg = msu.build_rg(shm)
    rg.reach_by_id()
    passes = _counted(monkeypatch, "_dfs_postorder")
    propagations = _counted(monkeypatch, "_propagate")
    mpm = ns.MpmMemory(8)
    for location in [("pe", 5), ("link", 3), ("turn", 6, 4)]:
        assert ns.map_and_store(shm, location, msu, mpm, rg=rg) is not None
    assert passes == [] and propagations == []


def test_fault_that_breaks_the_only_cycle_flips_deadlock_freedom(monkeypatch):
    """On a cyclic custom model the derived graph runs its own
    depth-first pass: breaking the one cycle (a ring over all four
    links turning the same way) makes it acyclic, as a cold build of
    the same state is."""
    ag = ns.build_mesh(2, 2)
    model = ns.custom_turn_model([("N", "E"), ("S", "W"), ("E", "S"),
                                  ("W", "N")])
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, model, shm)
    assert not ns.is_deadlock_free(rg)
    tables = ns.build_region_tables(rg, 2)
    fault = ("link", ag.link(0, "E").id)
    shm.apply_fault(fault)
    cold = ns.build_routing_graph(ag, model, shm)
    passes = _counted(monkeypatch, "_dfs_postorder")
    derived = rg.without([fault])
    tables = ns.build_region_tables(derived, 2, prev=tables)
    assert len(passes) == 1
    assert passes[0][0] is derived.succ
    assert ns.is_deadlock_free(derived)
    _assert_same_graph(derived, cold, 2, 0, tables)


# -- bit-row cover on larger meshes ------------------------------------------------


@pytest.mark.parametrize("dims,density,seed", [
    ((12, 12), 0.3, 1),
    ((12, 12), 0.7, 2),
    ((12, 12), 0.95, 3),
    ((4, 4, 3), 0.4, 4),
    ((4, 4, 3), 0.8, 5),
])
def test_cover_matches_oracle_on_larger_meshes(dims, density, seed):
    rng = random.Random(seed)
    cells = {c for c in itertools.product(*(range(d) for d in dims))
             if rng.random() < density}
    bits = oracles.tile_bits(cells, dims)
    for budget in (1, 4, 8):
        assert ns.cover_rectangles(bits, dims, budget) == \
            oracles.cover_rectangles(cells, dims, budget)

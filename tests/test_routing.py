import collections
import itertools

import pytest
from hypothesis import given, strategies as st

import nocsim as ns
from nocsim.errors import RangeError

import oracles
from conftest import random_shm, two_regions


def healthy_rg(w, h, model=None, depth=None):
    ag = ns.build_mesh(w, h, depth)
    model = model or (ns.XYZ if depth else ns.XY)
    return ns.build_routing_graph(ag, model, ns.SystemHealthMap(ag))


# -- turn slots and models ---------------------------------------------------


def test_turn_slot_canon():
    """The slot numbering is a data format (scenario `slot` indices,
    shm.txt lines, the configuration-tag preimage): every index of
    both tables is pinned."""
    assert ns.TURN_SLOTS_2D == (
        ("N", "E"), ("N", "W"), ("S", "E"), ("S", "W"),
        ("E", "N"), ("E", "S"), ("W", "N"), ("W", "S"),
    )
    assert ns.TURN_SLOTS_3D == ns.TURN_SLOTS_2D + (
        ("N", "U"), ("N", "D"), ("S", "U"), ("S", "D"),
        ("E", "U"), ("E", "D"), ("W", "U"), ("W", "D"),
        ("U", "N"), ("U", "E"), ("U", "W"), ("U", "S"),
        ("D", "N"), ("D", "E"), ("D", "W"), ("D", "S"),
    )
    assert len(ns.TURN_SLOTS_2D) == 8
    assert len(ns.TURN_SLOTS_3D) == 24
    assert ns.TURN_SLOTS_2D[6] == ("W", "N")
    assert ns.build_mesh(2, 2).turn_slot[("W", "N")] == 6


def test_xy_allowed_set():
    assert set(ns.XY.allowed) == {("E", "N"), ("E", "S"), ("W", "N"), ("W", "S")}


def test_west_first_allowed_set():
    assert set(ns.WEST_FIRST.allowed) == set(ns.TURN_SLOTS_2D) - {
        ("N", "W"), ("S", "W")}


def test_north_last_allowed_set():
    assert set(ns.NORTH_LAST.allowed) == set(ns.TURN_SLOTS_2D) - {
        ("S", "E"), ("S", "W")}


def test_negative_first_allowed_set():
    assert set(ns.NEGATIVE_FIRST.allowed) == set(ns.TURN_SLOTS_2D) - {
        ("S", "W"), ("W", "S")}


def test_model_lookup():
    assert ns.turn_model_by_name("xy") is ns.XY
    assert ns.turn_model_by_name("xyz", is_3d=True) is ns.XYZ
    with pytest.raises(RangeError):
        ns.turn_model_by_name("nope")


def test_custom_model_rejects_non_turn():
    with pytest.raises(RangeError):
        ns.custom_turn_model([("N", "S")])


# -- construction ------------------------------------------------------------


def test_rg_node_counts():
    assert len(healthy_rg(2, 2).nodes) == 4 * 10
    rg3 = healthy_rg(2, 2, depth=2)
    assert len(rg3.nodes) == 8 * 14


def external_edges(rg):
    return [(a, b) for a, dsts in rg.adj.items() for b in dsts
            if a.tile != b.tile]


def test_rg_2x2_external_edges():
    assert len(external_edges(healthy_rg(2, 2))) == 8


def test_rg_broken_link_removes_one_external_edge():
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", ag.link(0, "E").id))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    assert len(external_edges(rg)) == 7
    assert len(rg.nodes) == 40


def test_healthy_rgs_acyclic_all_models():
    for model in (ns.XY, ns.WEST_FIRST, ns.NORTH_LAST, ns.NEGATIVE_FIRST):
        for w, h in ((2, 2), (3, 3), (3, 2)):
            rg = healthy_rg(w, h, model)
            assert ns.is_deadlock_free(rg)
            assert not oracles.has_cycle_dfs(rg)


def test_named_models_acyclic_on_every_small_mesh():
    """The ground for parsing no graph for a named model: every named 2D
    model on every mesh up to 8x8, each split of such a mesh into two
    regions under every named base model (a region takes a named model
    or the base), and xyz on every mesh up to 4x4x3 give acyclic
    healthy graphs."""
    named = sorted(ns.routing.TURN_MODELS_2D.values())
    graphs = 0
    for w, h in itertools.product(range(1, 9), repeat=2):
        ag = ns.build_mesh(w, h)
        shm = ns.SystemHealthMap(ag)
        for base in named:
            assert ns.is_deadlock_free(ns.build_routing_graph(ag, base, shm))
            graphs += 1
            for halves in itertools.product(named + [None], repeat=2):
                regions = two_regions(ag, *halves)
                assert ns.is_deadlock_free(
                    ns.build_routing_graph(ag, base, shm, regions)), \
                    (w, h, base.name, halves)
                graphs += 1
    for dims in itertools.product(range(1, 5), range(1, 5), range(1, 4)):
        ag = ns.build_mesh(*dims)
        assert ns.is_deadlock_free(
            ns.build_routing_graph(ag, ns.XYZ, ns.SystemHealthMap(ag))), dims
        graphs += 1
    assert graphs == 64 * 4 * 26 + 48


def test_fully_adaptive_2x2_cyclic():
    ag = ns.build_mesh(2, 2)
    model = ns.custom_turn_model(list(ns.TURN_SLOTS_2D))
    rg = ns.build_routing_graph(ag, model, ns.SystemHealthMap(ag))
    assert not ns.is_deadlock_free(rg)
    assert oracles.has_cycle_dfs(rg)


def test_1x1_rg_trivially_acyclic():
    rg = healthy_rg(1, 1)
    assert ns.is_deadlock_free(rg)


# -- paths ---------------------------------------------------------------------


def test_xy_2x2_unique_diagonal_path():
    rg = healthy_rg(2, 2)
    paths = oracles.nx_simple_paths(rg, 0, 3)
    assert len(paths) == 1
    assert tuple(dict.fromkeys(n.tile for n in paths[0])) == (0, 1, 3)


def test_xy_broken_east_link_no_path():
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", ag.link(0, "E").id))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    assert oracles.nx_simple_paths(rg, 0, 3) == []
    assert oracles.nx_simple_paths(rg, 0, 1) == []


def test_self_route_single_trivial_path():
    rg = healthy_rg(2, 2)
    paths = oracles.nx_simple_paths(rg, 2, 2)
    assert len(paths) == 1
    assert len(paths[0]) == 2


def test_broken_turn_blocks_diagonal():
    # Breaking the turn "arrived from the west side, leave north" at the
    # intermediate router severs the only XY route to the diagonal tile.
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("turn", 1, ag.turn_slot[("W", "N")]))
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    assert oracles.nx_simple_paths(rg, 0, 3) == []
    assert oracles.nx_tile_reach(rg, 0) == {0, 1, 2}


@pytest.mark.parametrize("dims, src, dst, count", [
    ((2, 2), 0, 3, 2), ((2, 2), 1, 2, 2), ((2, 2), 0, 0, 3),
    ((3, 2), 0, 5, 8)], ids=["2x2-0-3", "2x2-1-2", "2x2-0-0", "3x2-0-5"])
def test_find_paths_matches_oracle_on_a_cyclic_model(dims, src, dst, count):
    # Every turn allowed: the graph has cycles, yet each pair has a
    # finite set of simple routes, counted by the networkx oracle.
    ag = ns.build_mesh(*dims)
    model = ns.custom_turn_model(ns.TURN_SLOTS_2D)
    rg = ns.build_routing_graph(ag, model, ns.SystemHealthMap(ag))
    assert not ns.is_deadlock_free(rg)
    assert len(oracles.nx_simple_paths(rg, src, dst)) == count


@given(st.integers(0, 10**6))
def test_xy_at_most_one_path_under_faults(seed):
    ag = ns.build_mesh(3, 3)
    shm = random_shm(ag, seed)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    for src, dst in ((0, 8), (3, 5), (6, 2)):
        assert len(oracles.nx_simple_paths(rg, src, dst)) <= 1


# -- reachability ----------------------------------------------------------------
# Row s of the all-pairs reachability matrix is the reach bits of s's
# local-in port.


def test_reachability_matrix_healthy_all_true(mesh44):
    rg = ns.build_routing_graph(mesh44, ns.XY, ns.SystemHealthMap(mesh44))
    reach = rg.reach_by_id()
    assert all(reach[rg.port_id(s, "L", "in")] == (1 << 16) - 1
               for s in range(16))


def test_reachability_matrix_broken_east_link(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.apply_fault(("link", mesh22.link(0, "E").id))
    rg = ns.build_routing_graph(mesh22, ns.XY, shm)
    expected_rows = {0: {0, 2}, 1: {0, 1, 2, 3}, 2: {0, 1, 2, 3},
                     3: {0, 1, 2, 3}}
    assert {s: oracles.nx_tile_reach(rg, s) for s in range(4)} == expected_rows


def test_reachability_matrix_1x1():
    rg = healthy_rg(1, 1)
    assert rg.reach_by_id()[rg.port_id(0, "L", "in")] == 1


# The index is checked on acyclic planar models, a cyclic model that
# allows all eight turns, a drawn subset of the eight turns (a model of
# None), a 3D mesh and a mesh without ports.  The drawn subsets give
# cycles of many shapes, so the propagation's fixpoint path runs.
INDEX_CASES = {
    "xy_4x4": ((4, 4), ns.XY),
    "west_first_4x3": ((4, 3), ns.WEST_FIRST),
    "north_last_3x3": ((3, 3), ns.NORTH_LAST),
    "all_turns_3x3": ((3, 3), ns.custom_turn_model(ns.TURN_SLOTS_2D)),
    "drawn_turns_4x3": ((4, 3), None),
    "xyz_3x3x2": ((3, 3, 2), ns.XYZ),
    "xy_1x1": ((1, 1), ns.XY),
}
DRAWN_TURNS = st.sets(st.sampled_from(ns.TURN_SLOTS_2D))


@pytest.mark.parametrize("case", sorted(INDEX_CASES))
@given(seed=st.integers(0, 10**6), turns=DRAWN_TURNS)
def test_reach_index_matches_oracles(case, seed, turns):
    dims, model = INDEX_CASES[case]
    if model is None:
        model = ns.custom_turn_model(sorted(turns))
    ag = ns.build_mesh(*dims)
    shm = random_shm(ag, seed, max_links=3 if ag.links else 0, max_pes=2)
    rg = ns.build_routing_graph(ag, model, shm)
    n = len(ag)
    reach = rg.reach_by_id()
    for i, node in enumerate(rg.nodes):
        assert {t for t in range(n) if reach[i] >> t & 1} == \
            oracles.nx_reach(rg, node)


def test_reach_index_memoised():
    rg = healthy_rg(3, 3)
    assert rg.reach_by_id() is rg.reach_by_id()


ALL_TURNS = ns.custom_turn_model(ns.TURN_SLOTS_2D)
# name -> (turn model, or None for a drawn subset of the eight turns,
#          regions' (left, right) models or None, 3D mesh?)
DEADLOCK_CASES = {
    "xy": (ns.XY, None, False),
    "west_first": (ns.WEST_FIRST, None, False),
    "north_last": (ns.NORTH_LAST, None, False),
    "negative_first": (ns.NEGATIVE_FIRST, None, False),
    "all_turns": (ALL_TURNS, None, False),
    "drawn_turns": (None, None, False),
    "regions_xy_west_first": (ns.XY, (ns.XY, ns.WEST_FIRST), False),
    "regions_xy_all_turns": (ns.XY, (ns.XY, ALL_TURNS), False),
    "xyz": (ns.XYZ, None, True),
}


@pytest.mark.parametrize("case", sorted(DEADLOCK_CASES))
@given(data=st.data())
def test_deadlock_free_matches_cycle_oracle(case, data):
    """is_deadlock_free, read off the depth-first pass, agrees with an
    independent three-colour DFS on random faulted graphs."""
    model, halves, is_3d = DEADLOCK_CASES[case]
    if model is None:
        model = ns.custom_turn_model(sorted(data.draw(DRAWN_TURNS,
                                                      label="turns")))
    if is_3d:
        ag = ns.build_mesh(data.draw(st.integers(1, 3), label="w"),
                           data.draw(st.integers(1, 3), label="h"), 2)
    else:
        ag = ns.build_mesh(data.draw(st.integers(1, 5), label="w"),
                           data.draw(st.integers(1, 5), label="h"))
    regions = two_regions(ag, *halves) if halves else None
    shm = random_shm(ag, data.draw(st.integers(0, 10**6), label="seed"),
                     max_links=4 if ag.links else 0, max_turns=12, max_pes=2)
    rg = ns.build_routing_graph(ag, model, shm, regions)
    assert ns.is_deadlock_free(rg) == (not oracles.has_cycle_dfs(rg))


@given(st.integers(0, 10**6))
def test_rg_monotone_under_extra_faults(seed):
    """Breaking more elements never adds routing-graph edges."""
    ag = ns.build_mesh(3, 3)
    shm = random_shm(ag, seed)
    rg_a = ns.build_routing_graph(ag, ns.XY, shm)
    shm.apply_fault(("link", seed % len(ag.links)))
    shm.apply_fault(("turn", seed % 9, seed % 8))
    rg_b = ns.build_routing_graph(ag, ns.XY, shm)
    edges_a = {(a, b) for a, ds in rg_a.adj.items() for b in ds}
    edges_b = {(a, b) for a, ds in rg_b.adj.items() for b in ds}
    assert edges_b <= edges_a


# -- the edge gating table ---------------------------------------------------

# name -> (mesh dims, turn model, (left, right) models of conftest's
# two_regions or None)
GATING_CASES = {
    "xy": ((4, 3), ns.XY, None),
    "west_first": ((4, 3), ns.WEST_FIRST, None),
    "north_last": ((4, 3), ns.NORTH_LAST, None),
    "negative_first": ((4, 3), ns.NEGATIVE_FIRST, None),
    "xyz_3x3x2": ((3, 3, 2), ns.XYZ, None),
    "custom": ((3, 3), ns.custom_turn_model(
        [("N", "E"), ("E", "S"), ("S", "W"), ("W", "N"), ("E", "N")]), None),
    "two_regions": ((4, 3), ns.XY, (ns.XY, ns.WEST_FIRST)),
}


def _port_edges(rg):
    return {(a, b) for a, succs in rg.adj.items() for b in succs}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", sorted(GATING_CASES))
def test_edges_follow_the_gating_table(case, seed):
    """The port edges of a cold build, labelled by the gating table in
    the routing module's docstring: every mesh direction passes straight
    through every router; a healthy PE gates all 2k + 1 of its local
    edges, a healthy turn its one edge where the tile's model allows it,
    a healthy link its one edge inside a region; a broken element gates
    none.  rg.without([e]) removes exactly the edges e gates."""
    dims, model, halves = GATING_CASES[case]
    ag = ns.build_mesh(*dims)
    shm = random_shm(ag, seed, max_pes=2)
    regions = two_regions(ag, *halves) if halves else None
    rg = ns.build_routing_graph(ag, model, shm, regions)
    edges = _port_edges(rg)
    gated = collections.defaultdict(set)
    for a, b in edges:
        gated[oracles.edge_label(ag, a, b)].add((a, b))

    def half(tile):                         # conftest.two_regions' split
        return ag.coords(tile)[0] < ag.dims[0] // 2

    k = len(ag.directions())
    expected = {}
    for t in range(len(ag)):
        expected[("pe", t)] = 2 * k + 1
        tile_model = model if halves is None else halves[not half(t)]
        for turn, slot in ag.turn_slot.items():
            expected[("turn", t, slot)] = int(tile_model.allows(*turn))
    for link in ag.links:
        expected[("link", link.id)] = int(
            halves is None or half(link.src) == half(link.dst))
    assert len(gated.pop("straight")) == k * len(ag)
    assert not set(gated) & shm.broken
    assert {e: len(gated[e]) for e in gated} == {
        e: n for e, n in expected.items() if n and e not in shm.broken}
    for element in expected:
        derived = _port_edges(rg.without([element]))
        assert derived == edges - gated.get(element, set()), element


# -- regions ------------------------------------------------------------------


def region_filter_4x4():
    ag = ns.build_mesh(4, 4)
    labels = {t.id: ("left" if t.coords[0] < 2 else "right") for t in ag.tiles}
    models = {"left": ns.XY, "right": ns.WEST_FIRST}
    return ag, ns.partition(ag, labels, models)


def test_region_partition_cuts_cross_edges():
    ag, regions = region_filter_4x4()
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm, regions=regions)
    left = [t.id for t in ag.tiles if t.coords[0] < 2]
    right = [t.id for t in ag.tiles if t.coords[0] >= 2]
    for s in left:
        reach = oracles.nx_tile_reach(rg, s)
        assert reach.isdisjoint(right)
    # Within each region everything still routes.
    for s in left:
        assert set(left) <= oracles.nx_tile_reach(rg, s)
    for s in right:
        assert set(right) <= oracles.nx_tile_reach(rg, s)


def test_single_region_equals_unpartitioned(mesh33):
    labels = {t.id: "all" for t in mesh33.tiles}
    regions = ns.partition(mesh33, labels, {"all": ns.XY})
    shm = ns.SystemHealthMap(mesh33)
    rg_a = ns.build_routing_graph(mesh33, ns.XY, shm)
    rg_b = ns.build_routing_graph(mesh33, ns.XY, shm, regions=regions)
    assert rg_a.adj == rg_b.adj


def test_isolated_tile_region(mesh33):
    labels = {t.id: "main" for t in mesh33.tiles}
    labels[4] = "island"
    regions = ns.partition(mesh33, labels, {"main": ns.XY, "island": ns.XY})
    shm = ns.SystemHealthMap(mesh33)
    rg = ns.build_routing_graph(mesh33, ns.XY, shm, regions=regions)
    assert oracles.nx_tile_reach(rg, 4) == {4}
    for s in (0, 1, 2, 3, 5, 6, 7, 8):
        assert 4 not in oracles.nx_tile_reach(rg, s)

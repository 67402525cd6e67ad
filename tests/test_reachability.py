import itertools
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim import reachability
from nocsim.errors import RegionBudgetError, SemanticError

import oracles
from conftest import random_shm


def broken_east_rg():
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("link", ag.link(0, "E").id))
    return ns.build_routing_graph(ag, ns.XY, shm)


def healthy_rg(w, h):
    ag = ns.build_mesh(w, h)
    return ns.build_routing_graph(ag, ns.XY, ns.SystemHealthMap(ag))


# -- unreachable sets --------------------------------------------------------


def test_unreachable_healthy_east_port():
    # The east output serves both eastern tiles; the northern tile is
    # not reachable through it because vertical-to-horizontal turns are
    # forbidden, so it shows up in the raw per-port set.
    rg = healthy_rg(2, 2)
    assert oracles.unreachable_oracle(rg, 0, "E") == {2}


def test_unreachable_broken_east_link_north_port():
    rg = broken_east_rg()
    assert oracles.unreachable_oracle(rg, 0, "N") == {1, 3}


def test_unreachable_broken_east_link_east_port_dangles():
    rg = broken_east_rg()
    assert oracles.unreachable_oracle(rg, 0, "E") == {1, 2, 3}


# -- rectangle covers -----------------------------------------------------------


def test_cover_column_is_one_rectangle():
    rects = ns.cover_rectangles(oracles.tile_bits({(1, 0), (1, 1)}, (2, 2)),
                                (2, 2), 4)
    assert rects == (ns.Rectangle((1, 0), (1, 1)),)


def test_cover_empty():
    assert ns.cover_rectangles(0, (2, 2), 4) == ()


def test_cover_merge_to_budget_overapproximates():
    rects = ns.cover_rectangles(oracles.tile_bits({(0, 0), (1, 1)}, (2, 2)),
                                (2, 2), 1)
    assert rects == (ns.Rectangle((0, 0), (1, 1)),)
    assert rects[0].area() == 4


def test_cover_budget_zero_rejected():
    with pytest.raises(RegionBudgetError):
        ns.cover_rectangles(1, (2, 2), 0)


def test_rectangle_contains():
    r = ns.Rectangle((1, 0), (2, 2))
    assert r.contains((1, 0)) and r.contains((2, 2)) and r.contains((1, 1))
    assert not r.contains((0, 0)) and not r.contains((3, 1))


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_cover_is_sound_and_within_budget(seed, budget):
    """Every destination is covered, never more rectangles than the
    budget, and with a generous budget the cover is exact."""
    rng = random.Random(seed)
    w, h = rng.randint(2, 5), rng.randint(2, 5)
    cells = {(rng.randrange(w), rng.randrange(h))
             for _ in range(rng.randint(1, w * h))}
    bits = oracles.tile_bits(cells, (w, h))
    rects = ns.cover_rectangles(bits, (w, h), budget)
    assert len(rects) <= budget
    assert all(any(r.contains(c) for r in rects) for c in cells)
    generous = ns.cover_rectangles(bits, (w, h), w * h)
    covered = {(x, y) for x in range(w) for y in range(h)
               if any(r.contains((x, y)) for r in generous)}
    assert covered == cells


@settings(max_examples=200)
@given(st.data())
def test_cover_matches_oracle(data):
    """The summed-area-table cover picks exactly the rectangles of the
    exhaustive one, merges included."""
    dims = data.draw(st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3)),
    ))
    density = data.draw(st.floats(0, 1))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    cells = {c for c in itertools.product(*(range(d) for d in dims))
             if rng.random() < density}
    budget = data.draw(st.integers(1, 8))
    assert ns.cover_rectangles(oracles.tile_bits(cells, dims), dims, budget) \
        == oracles.cover_rectangles(cells, dims, budget)


def test_cover_deterministic():
    bits = oracles.tile_bits({(0, 0), (2, 1), (1, 2), (2, 2), (0, 2)}, (3, 3))
    assert ns.cover_rectangles(bits, (3, 3), 2) == \
        ns.cover_rectangles(bits, (3, 3), 2)


# -- port tables and the drop filter ----------------------------------------------


BROKEN_EAST_DUMP = """\
budget 4
tile 0 E: (0, 1)-(1, 1) (1, 0)-(1, 0)
tile 0 N: (1, 0)-(1, 1)
tile 1 N: (0, 0)-(0, 1)
tile 1 W: (1, 1)-(1, 1)
tile 2 E: (0, 0)-(0, 0)
tile 2 S: (1, 0)-(1, 1)
tile 3 S: (0, 0)-(0, 1)
tile 3 W: (1, 0)-(1, 0)
tile 0 local: ok
tile 1 local: ok
tile 2 local: ok
tile 3 local: ok
"""


def test_tables_dump_fixture():
    tables = ns.build_region_tables(broken_east_rg(), 4)
    assert tables.dump() == BROKEN_EAST_DUMP


def test_should_drop_healthy_never():
    tables = ns.build_region_tables(healthy_rg(3, 3), 4)
    for s in range(9):
        for d in range(9):
            assert not ns.should_drop(tables, s, d)


def test_should_drop_broken_east():
    tables = ns.build_region_tables(broken_east_rg(), 4)
    assert ns.should_drop(tables, 0, 3)
    assert ns.should_drop(tables, 0, 1)
    assert not ns.should_drop(tables, 2, 3)
    assert not ns.should_drop(tables, 0, 2)


def test_should_drop_self_uses_local_loop():
    rg = healthy_rg(2, 2)
    tables = ns.build_region_tables(rg, 4)
    assert not ns.should_drop(tables, 1, 1)
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    shm.apply_fault(("pe", 1))
    rg2 = ns.build_routing_graph(ag, ns.XY, shm)
    tables2 = ns.build_region_tables(rg2, 4)
    assert ns.should_drop(tables2, 1, 1)


def test_budget_one_single_rectangle_per_port():
    tables = ns.build_region_tables(broken_east_rg(), 1)
    for tile in range(4):
        for d in tables.ports(tile):
            assert len(tables.rectangles(tile, d)) <= 1


@settings(max_examples=30)
@given(st.integers(0, 10**6), st.booleans())
def test_ports_are_the_tiles_sorted_table_keys(seed, is_3d):
    """ports(tile) reads the mesh's directions; it must list what a scan
    of the table's (tile, direction) keys, sorted, lists."""
    rng = random.Random(seed)
    dims = [rng.randint(1, 4), rng.randint(1, 4)] + ([rng.randint(1, 3)] if is_3d else [])
    ag = ns.build_mesh(*dims)
    model = ns.XYZ if is_3d else rng.choice(
        (ns.XY, ns.WEST_FIRST, ns.NORTH_LAST, ns.NEGATIVE_FIRST))
    rg = ns.build_routing_graph(ag, model, random_shm(ag, seed, max_pes=1))
    tables = ns.build_region_tables(rg, rng.randint(1, 4))
    for tile in range(len(ag) + 1):
        assert tables.ports(tile) == sorted(d for (t, d) in tables._rects if t == tile)


@given(st.integers(0, 10**6))
def test_drop_conservative_at_tight_budget(seed):
    """A tight budget may drop reachable destinations but must never
    accept unreachable ones."""
    ag = ns.build_mesh(4, 4)
    shm = random_shm(ag, seed, max_links=3, max_turns=3)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    tight = ns.build_region_tables(rg, 2)
    for src in range(16):
        for dst in range(16):
            if src == dst:
                continue
            truth = oracles.drop_oracle(rg, src, dst)
            if truth:
                assert ns.should_drop(tight, src, dst)


# -- table reuse across fault rebuilds ----------------------------------------------

REGIONS = ns.load_scenario(str(pathlib.Path(__file__).resolve().parent.parent
                               / "scenarios" / "regions.json"))
PLATFORMS = {
    "xy_4x4": (ns.build_mesh(4, 4), ns.XY, None),
    "west_first_5x4": (ns.build_mesh(5, 4), ns.WEST_FIRST, None),
    "xyz_3x3x2": (ns.build_mesh(3, 3, 2), ns.XYZ, None),
    "regions_json": (REGIONS.ag, REGIONS.turn_model, REGIONS.regions),
}


def _apply_random_fault(shm, rng):
    ag = shm.ag
    kind = rng.choice(("link", "turn", "pe"))
    if kind == "link":
        shm.apply_fault(("link", rng.randrange(len(ag.links))))
    elif kind == "turn":
        slot = rng.randrange(len(ag.turns))
        shm.apply_fault(("turn", rng.randrange(len(ag)), slot))
    else:
        shm.apply_fault(("pe", rng.randrange(len(ag))))


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@settings(max_examples=15)
@given(seed=st.integers(0, 10**6), budget=st.integers(1, 4))
def test_reuse_matches_cold_build(platform, seed, budget):
    """Tables built from the previous step's tables after each of a
    seeded sequence of permanent faults equal a cold build."""
    ag, model, regions = PLATFORMS[platform]
    rng = random.Random(seed)
    shm = ns.SystemHealthMap(ag)
    tables = None
    for _ in range(6):
        _apply_random_fault(shm, rng)
        rg = ns.build_routing_graph(ag, model, shm, regions)
        tables = ns.build_region_tables(rg, budget, prev=tables)
        assert tables.dump() == ns.build_region_tables(rg, budget).dump()


def test_reuse_only_same_platform_and_budget(monkeypatch):
    ag = ns.build_mesh(4, 4)
    twin = ns.build_mesh(4, 4)
    rgs = []
    for mesh in (ag, twin):
        shm = ns.SystemHealthMap(mesh)
        shm.apply_fault(("link", mesh.link(5, "E").id))
        shm.apply_fault(("turn", 10, 4))
        rgs.append(ns.build_routing_graph(mesh, ns.XY, shm))
    rg, twin_rg = rgs
    tight = ns.build_region_tables(rg, 1)
    cold = ns.build_region_tables(rg, 8)
    # Past the budget line the two dumps differ, so a wrong reuse shows.
    assert tight.dump().split("\n", 1)[1] != cold.dump().split("\n", 1)[1]
    # A build covers each distinct unreachable set once.
    sets = len({frozenset(oracles.unreachable_oracle(rg, t, d))
                for t in range(len(ag)) for d in tight.ports(t)})

    calls = []
    cover = reachability.cover_rectangles
    monkeypatch.setattr(reachability, "cover_rectangles",
                        lambda *args: calls.append(args) or cover(*args))
    assert ns.build_region_tables(rg, 1, prev=tight).dump() == tight.dump()
    assert calls == []
    assert ns.build_region_tables(rg, 8, prev=tight).dump() == cold.dump()
    assert len(calls) == sets
    twin_tables = ns.build_region_tables(twin_rg, 1, prev=tight)
    assert len(calls) == 2 * sets
    assert twin_tables.dump() == tight.dump()


# -- region partition ------------------------------------------------------------


def test_partition_default_label(mesh33):
    # An unlabelled tile falls in the "default" region and takes its model.
    regions = ns.partition(mesh33, {4: "island"},
                           {"island": ns.XY, "default": ns.WEST_FIRST})
    assert regions.turn_model_for(4) is ns.XY
    assert regions.turn_model_for(0) is ns.WEST_FIRST
    assert regions.crosses(3, 4)
    assert not regions.crosses(0, 1)


def test_partition_unknown_model_region():
    ag = ns.build_mesh(2, 2)
    with pytest.raises(SemanticError):
        ns.partition(ag, {0: "a"}, {"b": ns.XY})

import random

import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim.errors import (
    DimensionMismatch,
    RangeError,
    UnknownTarget,
    UnknownTile,
    ValidationError,
)

from conftest import random_shm


# -- read/write and faults -----------------------------------------------------


def test_fresh_map_all_healthy(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    assert all(("pe", t) not in shm.broken for t in range(4))
    assert all(shm.link_healthy(l) for l in range(8))
    assert all(shm.turn_healthy(t, s) for t in range(4) for s in range(8))


def test_apply_fault_idempotent(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.apply_fault(("pe", 3))
    once = shm.serialize()
    shm.apply_fault(("pe", 3))
    assert shm.serialize() == once
    assert ("pe", 3) in shm.broken


def test_apply_fault_kinds(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.apply_fault(("turn", 1, 6))
    shm.apply_fault(("link", 0))
    assert not shm.turn_healthy(1, 6)
    assert not shm.link_healthy(0)
    assert shm.turn_healthy(1, 5)


def test_apply_fault_unknown_target(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    with pytest.raises(UnknownTile):
        shm.apply_fault(("pe", 99))
    with pytest.raises(UnknownTarget):
        shm.apply_fault(("widget", 0))
    with pytest.raises(UnknownTarget):
        shm.apply_fault(("turn", 0, 99))
    with pytest.raises(UnknownTarget):
        shm.apply_fault(("link", 99))


@pytest.mark.parametrize("fault, error", [
    (("pe", "3"), UnknownTile),
    (("pe", 1.5), UnknownTile),
    (("pe", True), UnknownTile),
    (("turn", 0, "1"), UnknownTarget),
    (("turn", None, 1), UnknownTile),
    (("link", True), UnknownTarget),
    (("turn", 0, False), UnknownTarget),
], ids=["pe-str", "pe-float", "pe-bool", "turn-slot-str", "turn-tile-none",
        "link-bool", "turn-slot-bool"])
def test_apply_fault_rejects_non_int_element(mesh22, fault, error):
    # A tile, turn slot or link id must be an int (not a bool); anything
    # else is an unknown target, not a raw TypeError or a broken element.
    shm = ns.SystemHealthMap(mesh22)
    with pytest.raises(error):
        shm.apply_fault(fault)
    assert shm.broken == set()


# One platform per shape, each with its healthy routing graph.
ELEMENT_PLATFORMS = [
    (ag, ns.build_routing_graph(ag, model, ns.SystemHealthMap(ag)), model)
    for ag, model in ((ns.build_mesh(2, 2), ns.WEST_FIRST),
                      (ns.build_mesh(3, 2), ns.XY),
                      (ns.build_mesh(2, 2, 2), ns.XYZ))
]
ELEMENT_IDS = st.one_of(st.integers(-3, 30), st.integers(), st.booleans(),
                        st.text(max_size=2), st.none())


def _element_outcome(call):
    """The ValidationError subclass `call` raises, or None."""
    try:
        call()
    except ValidationError as exc:
        return type(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_element_check_for_map_degrade_and_without(data):
    """apply_fault, degrade_targets and RoutingGraph.without accept the
    same elements and reject the rest with the same error, never a raw
    exception, and a rejected call changes no state."""
    ag, rg, model = data.draw(st.sampled_from(ELEMENT_PLATFORMS))
    valid = ([("pe", t) for t in range(len(ag))]
             + [("turn", t, s) for t in range(len(ag))
                for s in range(len(ag.turns))]
             + [("link", l) for l in range(len(ag.links))])
    shaped = st.builds(lambda kind, ids: (kind, *ids),
                       st.sampled_from(["pe", "turn", "link", "router", ""]),
                       st.lists(ELEMENT_IDS, max_size=3))
    element = data.draw(st.one_of(st.sampled_from(valid), shaped,
                                  st.sampled_from([(), None, 5, "pe"])))
    shm = ns.SystemHealthMap(ag)
    succ = rg.succ
    outcomes = {_element_outcome(lambda: shm.apply_fault(element)),
                _element_outcome(lambda: ns.degrade_targets(element, ag)),
                _element_outcome(lambda: rg.without([element]))}
    assert len(outcomes) == 1, (element, outcomes)
    assert rg.succ is succ
    if outcomes == {None}:
        assert shm.broken == {element}
        assert ns.degrade_targets(element, ag) == [element]
        assert rg.without([element]).succ == \
            ns.build_routing_graph(ag, model, shm).succ
    else:
        assert shm.broken == set()


# -- aging ---------------------------------------------------------------------


def test_aging_zero_keeps_wcet(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    assert shm.effective_wcet(0, 10) == 10


def test_aging_fifty_doubles_wcet(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.set_aging(0, 50)
    assert shm.effective_wcet(0, 10) == 20


def test_aging_rounds_up(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.set_aging(0, 25)
    # 10 / 0.75 = 13.33..., execution time is whole cycles
    assert shm.effective_wcet(0, 10) == 14


def test_aging_hundred_unusable(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.set_aging(2, 100)
    assert ("pe", 2) not in shm.broken
    assert not shm.pe_usable(2)
    assert ns.usable_tiles(shm) == [0, 1, 3]


def test_aging_range_checked(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    with pytest.raises(RangeError):
        shm.set_aging(0, 101)
    with pytest.raises(RangeError):
        shm.set_aging(0, -1)


# -- snapshot/restore and serialization ------------------------------------------


def test_snapshot_restore_round_trip(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.set_aging(1, 30)
    snap = shm.snapshot()
    before = shm.serialize()
    shm.apply_fault(("pe", 0))
    shm.apply_fault(("link", 2))
    shm.apply_fault(("turn", 3, 1))
    assert shm.serialize() != before
    shm.restore(snap)
    assert shm.serialize() == before
    shm.restore(snap)
    assert shm.serialize() == before


def test_restore_rejects_other_mesh(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    other = ns.SystemHealthMap(ns.build_mesh(3, 3))
    with pytest.raises(DimensionMismatch):
        shm.restore(other.snapshot())


@given(st.data())
def test_snapshot_is_the_health_state(data):
    """Maps reaching one state by different fault orders, repeats and
    aging histories have equal (and equally hashed) snapshots and equal
    text; one more broken element or aging step makes both differ."""
    ag = ns.build_mesh(3, 3)
    element = st.one_of(
        st.tuples(st.just("pe"), st.integers(0, 8)),
        st.tuples(st.just("turn"), st.integers(0, 8), st.integers(0, 7)),
        st.tuples(st.just("link"), st.integers(0, len(ag.links) - 1)),
    )
    faults = data.draw(st.lists(element, max_size=10), label="faults")
    aging = data.draw(st.dictionaries(st.integers(0, 8), st.integers(0, 99),
                                      max_size=3), label="aging")
    a, b = ns.SystemHealthMap(ag), ns.SystemHealthMap(ag)
    for fault in faults:
        a.apply_fault(fault)
    for tile, percent in aging.items():
        a.set_aging(tile, percent)
        b.set_aging(tile, percent + 1)
    for fault in data.draw(st.permutations(faults + faults[:3]),
                           label="order"):
        b.apply_fault(fault)
    for tile, percent in aging.items():
        b.set_aging(tile, percent)
    assert a.snapshot() == b.snapshot()
    assert hash(a.snapshot()) == hash(b.snapshot())
    assert a.serialize() == b.serialize()

    extra = data.draw(element.filter(lambda e: e not in set(faults)),
                      label="extra")
    b.apply_fault(extra)
    assert a.snapshot() != b.snapshot()
    assert a.serialize() != b.serialize()
    b.restore(a.snapshot())
    assert a.snapshot() == b.snapshot()
    b.set_aging(4, a.aging(4) + 1)
    assert a.snapshot() != b.snapshot()
    assert a.serialize() != b.serialize()


def test_serialize_is_canonical_text(mesh22):
    text = ns.SystemHealthMap(mesh22).serialize()
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0].startswith("pe 0 ")
    kinds = [l.split()[0] for l in lines]
    assert kinds == sorted(kinds, key=("pe", "turn", "link", "aging").index)
    assert len([k for k in kinds if k == "pe"]) == 4
    assert len([k for k in kinds if k == "turn"]) == 32
    assert len([k for k in kinds if k == "link"]) == 8
    assert len([k for k in kinds if k == "aging"]) == 4


def test_tag_equal_for_equal_maps(mesh22):
    a = ns.SystemHealthMap(mesh22)
    b = ns.SystemHealthMap(mesh22)
    a.apply_fault(("pe", 1))
    b.apply_fault(("pe", 1))
    assert ns.shm_tag(a) == ns.shm_tag(b)


def test_tag_round_trip_restores(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    snap = shm.snapshot()
    tag0 = ns.shm_tag(shm)
    shm.apply_fault(("turn", 2, 4))
    assert ns.shm_tag(shm) != tag0
    shm.restore(snap)
    assert ns.shm_tag(shm) == tag0


def test_tag_single_flip_corpus(mesh44):
    """1000 random configurations, each compared against itself with one
    extra turn flip: no tag collisions."""
    rng = random.Random(99)
    for _ in range(1000):
        shm = random_shm(mesh44, rng.randrange(10**9))
        base = ns.shm_tag(shm)
        tile = rng.randrange(16)
        slot = rng.randrange(8)
        if not shm.turn_healthy(tile, slot):
            continue
        shm.apply_fault(("turn", tile, slot))
        assert ns.shm_tag(shm) != base


# -- LBDR --------------------------------------------------------------------------


def test_lbdr_corner_connectivity(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    cfg = ns.derive_lbdr_config(shm, ns.XY, 0)
    assert cfg.connectivity == {"N": 1, "E": 1, "W": 0, "S": 0}


def test_lbdr_xy_routing_bits(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    cfg = ns.derive_lbdr_config(shm, ns.XY, 0)
    expected = {
        ("E", "N"): 1, ("E", "S"): 1, ("W", "N"): 1, ("W", "S"): 1,
        ("N", "E"): 0, ("N", "W"): 0, ("S", "E"): 0, ("S", "W"): 0,
    }
    assert cfg.routing == expected


def test_lbdr_turn_fault_masks_one_bit(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.apply_fault(("turn", 0, mesh22.turn_slot[("E", "N")]))
    cfg = ns.derive_lbdr_config(shm, ns.XY, 0)
    assert cfg.routing[("E", "N")] == 0
    assert cfg.routing[("E", "S")] == 1


def test_lbdr_broken_link_clears_connectivity(mesh22):
    shm = ns.SystemHealthMap(mesh22)
    shm.apply_fault(("link", mesh22.link(0, "E").id))
    cfg = ns.derive_lbdr_config(shm, ns.XY, 0)
    assert cfg.connectivity["E"] == 0
    assert cfg.connectivity["N"] == 1


@given(st.integers(0, 10**6))
def test_lbdr_bits_match_rg_edges(seed):
    """Connectivity bits match external edges, routing bits match turn
    edges, for every tile of a randomly degraded mesh.  On a 3D mesh
    the bits are the planar slice and match the planar edges."""
    for dims, model in (((3, 3), ns.XY), ((3, 3, 2), ns.XYZ)):
        ag = ns.build_mesh(*dims)
        shm = random_shm(ag, seed, max_links=4, max_turns=6)
        rg = ns.build_routing_graph(ag, model, shm)
        for tile in range(len(ag)):
            cfg = ns.derive_lbdr_config(shm, model, tile)
            for d in ("N", "E", "W", "S"):
                out = rg.port(tile, d, "out")
                has_ext = any(b.tile != tile for b in rg.adj[out])
                assert bool(cfg.connectivity[d]) == has_ext
            assert len(cfg.routing) == 8
            for (a, b), bit in cfg.routing.items():
                edge = rg.port(tile, b, "out") in rg.adj[rg.port(tile, a, "in")]
                assert bool(bit) == edge

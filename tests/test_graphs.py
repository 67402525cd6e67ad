import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim.errors import (
    CycleError,
    DanglingEdgeError,
    InfeasibleK,
    RangeError,
    ZeroDimensionError,
)

import oracles
from conftest import chain_tg


# -- task graphs -----------------------------------------------------------


def test_two_task_chain():
    tg = chain_tg([10, 10], [2])
    assert tg.topological_order() == (0, 1)
    assert tg.edges[(0, 1)] == 2
    assert len(tg) == 2


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        ns.build_task_graph([ns.Task(0, 10), ns.Task(1, 10)],
                            {(0, 1): 1, (1, 0): 1})


def test_cycle_error_names_tasks():
    with pytest.raises(CycleError, match=r"\[0, 1\]"):
        ns.build_task_graph([ns.Task(0, 1), ns.Task(1, 1)],
                            {(0, 1): 1, (1, 0): 1})


def test_ids_must_be_dense():
    with pytest.raises(RangeError):
        ns.build_task_graph([ns.Task(0, 1), ns.Task(2, 1)], {})


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdgeError):
        ns.build_task_graph([ns.Task(0, 1)], {(0, 5): 1})


def test_self_edge_rejected():
    with pytest.raises(CycleError):
        ns.build_task_graph([ns.Task(0, 1)], {(0, 0): 1})


@pytest.mark.parametrize("call, fragment", [
    (lambda: ns.build_task_graph([ns.Task(0, 0)], {}),
     "task 0: wcet must be positive, got 0"),
    (lambda: ns.build_task_graph([ns.Task(0, 1, release=-1)], {}),
     "task 0: release must be >= 0, got -1"),
    (lambda: ns.build_task_graph([ns.Task(0, 1, criticality="urgent")], {}),
     "task 0: unknown criticality 'urgent'"),
    (lambda: ns.build_task_graph(
        [ns.Task(0, 1, criticality=ns.CRITICAL, slack=-2)], {}),
     "task 0: slack must be >= 0, got -2"),
    (lambda: ns.build_task_graph([ns.Task(0, 1), ns.Task(1, 1)], {(0, 1): 0}),
     "edge (0, 1): weight must be positive, got 0"),
    (lambda: ns.random_task_graph(0, 0.5, 1),
     "task count must be positive, got 0"),
    (lambda: ns.random_task_graph(3, 1.5, 1),
     "density must be in [0, 1], got 1.5"),
    (lambda: ns.cluster_tasks(ns.random_task_graph(3, 0.5, 1), 2, "spectral"),
     "unknown clustering heuristic 'spectral'"),
    # A cell past a row's end used to cover the next row's tile, one
    # past the mesh to be dropped, and a negative one to raise ValueError.
    (lambda: ns.cover_rectangles({(2, 0)}, (2, 2), 4),
     "cell (2, 0) is outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles({(5, 0)}, (2, 2), 4),
     "cell (5, 0) is outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles({(0, 2)}, (2, 2), 4),
     "cell (0, 2) is outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles({(-1, 0)}, (2, 2), 4),
     "cell (-1, 0) is outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles({(0, 0, 1)}, (2, 2), 4),
     "cell (0, 0, 1) is outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles(1 << 9, (2, 2), 4),
     "tile bitset names a tile outside the (2, 2) mesh"),
    (lambda: ns.cover_rectangles(-1, (2, 2), 4),
     "tile bitset names a tile outside the (2, 2) mesh"),
], ids=["wcet", "release", "criticality", "slack", "edge-weight",
        "random-count", "random-density", "cluster-heuristic",
        "cover-cell-past-row", "cover-cell-past-mesh-x",
        "cover-cell-past-mesh-y", "cover-cell-negative", "cover-cell-layer",
        "cover-bits-past-mesh", "cover-bits-negative"])
def test_graph_field_checks_raise_range_error(call, fragment):
    with pytest.raises(RangeError) as exc:
        call()
    assert str(exc.value) == fragment


def test_topological_order_is_topological():
    tg = ns.random_task_graph(9, 0.4, seed=42)
    order = tg.topological_order()
    pos = {t: i for i, t in enumerate(order)}
    assert all(pos[a] < pos[b] for (a, b) in tg.edges)


def test_random_task_graph_seed_42_acyclic():
    tg = ns.random_task_graph(9, 0.3, seed=42)
    assert len(tg) == 9
    # Independent check: Kahn order exists per networkx.
    import networkx as nx
    g = nx.DiGraph()
    g.add_nodes_from(range(9))
    g.add_edges_from(tg.edges)
    assert nx.is_directed_acyclic_graph(g)


def test_random_single_task():
    tg = ns.random_task_graph(1, 0.9, seed=1)
    assert len(tg) == 1 and not tg.edges


def test_random_zero_density():
    tg = ns.random_task_graph(9, 0.0, seed=3)
    assert not tg.edges


def test_random_determinism():
    a = ns.random_task_graph(12, 0.5, seed=77)
    b = ns.random_task_graph(12, 0.5, seed=77)
    assert a.tasks == b.tasks and a.edges == b.edges


@given(st.integers(2, 12), st.floats(0, 1), st.integers(0, 10**6))
def test_random_task_graph_edges_respect_ranges(n, density, seed):
    tg = ns.random_task_graph(n, density, seed, wcet_range=(3, 7),
                              weight_range=(2, 4))
    assert all(3 <= t.wcet <= 7 for t in tg.tasks)
    assert all(2 <= w <= 4 for w in tg.edges.values())
    assert all(a < b for (a, b) in tg.edges)


# -- clustering ------------------------------------------------------------


def test_cluster_chain_example():
    tg = chain_tg([1, 1, 1], [5, 1])
    ctg = ns.cluster_tasks(tg, 2)
    assert set(ctg.clusters) == {frozenset({0, 1}), frozenset({2})}
    assert sum(ctg.edges.values()) == 1
    assert sum(ctg.edges.values()) == oracles.best_partitions(tg, 2)


def test_cluster_singletons():
    tg = chain_tg([1, 1, 1], [5, 1])
    ctg = ns.cluster_tasks(tg, 3)
    assert all(len(c) == 1 for c in ctg.clusters)
    assert sum(ctg.edges.values()) == sum(tg.edges.values())


def test_cluster_all_in_one():
    tg = chain_tg([1, 1, 1], [5, 1])
    ctg = ns.cluster_tasks(tg, 1)
    assert len(ctg.clusters) == 1
    assert not ctg.edges


def test_cluster_infeasible_k():
    tg = chain_tg([1, 1])
    with pytest.raises(InfeasibleK):
        ns.cluster_tasks(tg, 3)
    with pytest.raises(InfeasibleK):
        ns.cluster_tasks(tg, 0)


@given(st.integers(3, 8), st.integers(0, 10**6))
def test_cluster_weight_conservation(n, seed):
    tg = ns.random_task_graph(n, 0.5, seed)
    k = max(1, n // 2)
    ctg = ns.cluster_tasks(tg, k)
    assert len(ctg.clusters) == k
    # Every task in exactly one cluster.
    seen = sorted(t for c in ctg.clusters for t in c)
    assert seen == list(range(n))
    # Inter-cluster edge weight plus intra weight equals total weight.
    intra = sum(
        w for (a, b), w in tg.edges.items()
        if ctg.task_cluster[a] == ctg.task_cluster[b]
    )
    assert intra + sum(ctg.edges.values()) == sum(tg.edges.values())


def test_local_search_not_worse_than_merge():
    for seed in range(6):
        tg = ns.random_task_graph(8, 0.5, seed)
        merged = ns.cluster_tasks(tg, 3, heuristic="greedy-merge")
        improved = ns.cluster_tasks(tg, 3, heuristic="local-search", seed=seed)
        assert sum(improved.edges.values()) <= sum(merged.edges.values())


def test_local_search_moves_a_task_off_greedy_merge():
    # The one instance of 1,620 probed (6-50 tasks, density 0.1-0.6, k
    # of 2, 3 or 5, seeds 0-29) where local search changes greedy-merge's
    # result: task 5 moves from {4, 5} into {0, 1, 3}.
    tg = ns.random_task_graph(6, 0.3, 27)
    merged = ns.cluster_tasks(tg, 3, "greedy-merge", 27)
    moved = ns.cluster_tasks(tg, 3, "local-search", 27)
    assert (sum(merged.edges.values()), merged.clusters) == \
        (20, (frozenset({0, 1, 3}), frozenset({2}), frozenset({4, 5})))
    assert (sum(moved.edges.values()), moved.clusters) == \
        (18, (frozenset({0, 1, 3, 5}), frozenset({2}), frozenset({4})))


@settings(max_examples=60)
@given(n=st.integers(1, 24), density=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
       top=st.sampled_from([1, 2, 10]), data=st.data())
def test_clusters_match_resumming_oracle(n, density, top, data):
    """Kept pair weights and move deltas pick the clusters that
    re-summing every weight picks, ties included (a top weight of 1 or
    2 makes many)."""
    tg = ns.random_task_graph(n, density, data.draw(st.integers(0, 10**6)),
                              weight_range=(1, top))
    k = data.draw(st.integers(1, n), label="k")
    heuristic = data.draw(st.sampled_from(["greedy-merge", "local-search"]))
    seed = data.draw(st.integers(0, 10**6), label="seed")
    assert ns.cluster_tasks(tg, k, heuristic, seed).clusters == \
        oracles.cluster_tasks(tg, k, heuristic, seed)


# -- meshes ------------------------------------------------------------------


def test_mesh_2x2_counts(mesh22):
    assert len(mesh22.tiles) == 4
    assert len(mesh22.links) == 8


def test_mesh_1x1():
    ag = ns.build_mesh(1, 1)
    assert len(ag.tiles) == 1 and len(ag.links) == 0


def test_mesh_2x2x2_counts():
    ag = ns.build_mesh(2, 2, 2)
    assert len(ag.tiles) == 8
    assert len(ag.links) == 24
    assert ag.is_3d


def test_mesh_zero_dimension():
    with pytest.raises(ZeroDimensionError):
        ns.build_mesh(0, 3)


def test_tile_ids_row_major(mesh33):
    assert mesh33.coords(4) == (1, 1)
    assert mesh33.coords(2) == (2, 0)
    assert mesh33.coords(6) == (0, 2)


def test_neighbors(mesh33):
    assert mesh33.neighbor(4, "N") == 7
    assert mesh33.neighbor(4, "S") == 1
    assert mesh33.neighbor(4, "E") == 5
    assert mesh33.neighbor(4, "W") == 3
    assert mesh33.neighbor(2, "E") is None


def test_links_match_neighbors(mesh33):
    for tile in range(9):
        for d in mesh33.directions():
            n = mesh33.neighbor(tile, d)
            link = mesh33.link(tile, d)
            if n is None:
                assert link is None
            else:
                assert link.src == tile and link.dst == n
                assert link.direction == d


def test_3d_vertical_neighbors():
    ag = ns.build_mesh(2, 2, 2)
    assert ag.neighbor(0, "U") == 4
    assert ag.neighbor(4, "D") == 0
    assert ag.neighbor(4, "U") is None

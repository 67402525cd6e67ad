"""Independent reference implementations used to check the library.

Everything here is deliberately written against a different substrate
(networkx digraphs, brute-force enumeration) than the code under test,
so the two sides can disagree when one is wrong.
"""

import itertools
import math
import random
import weakref

import networkx as nx

import nocsim as ns
from nocsim.errors import RegionBudgetError, UnroutableFlow
from nocsim.graphs import OPPOSITE
from nocsim.mapsched import (
    CommModel,
    FlowPlan,
    Schedule,
    validate_mapping,
)
from nocsim.reachability import Rectangle
from nocsim.routing import RouteProvider


_NX_GRAPHS = weakref.WeakKeyDictionary()   # routing graph -> its digraph


def rg_to_nx(rg):
    """The routing graph as a networkx digraph; routing graphs are
    immutable, so each is converted once."""
    g = _NX_GRAPHS.get(rg)
    if g is None:
        g = _NX_GRAPHS[rg] = nx.DiGraph()
        g.add_nodes_from(rg.nodes)
        for src, dsts in rg.adj.items():
            for dst in dsts:
                g.add_edge(src, dst)
    return g


def has_cycle_dfs(rg):
    """Three-color depth-first cycle detector, recursion-free, written
    against rg.adj directly."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in rg.nodes}
    for root in rg.nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(rg.adj.get(root, ())))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(rg.adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def edge_label(ag, a, b):
    """The health element gating edge a -> b (PortNodes), or "straight"
    for a straight pass, read off the ports alone per the gating table in
    the routing module's docstring; exactly one rule must match."""
    inside = a.tile == b.tile and (a.kind, b.kind) == ("in", "out")
    turn = (a.direction, b.direction)
    link = ag.link(a.tile, a.direction)
    labels = []
    if (inside and a.direction in ag.directions()
            and b.direction == OPPOSITE[a.direction]):
        labels.append("straight")
    if inside and "L" in turn:
        labels.append(("pe", a.tile))
    if inside and turn in ag.turn_slot:
        labels.append(("turn", a.tile, ag.turn_slot[turn]))
    if (a.tile != b.tile and link is not None
            and (a.kind, link.dst, b.direction, b.kind)
            == ("out", b.tile, OPPOSITE[a.direction], "in")):
        labels.append(("link", link.id))
    assert len(labels) == 1, (a, b, labels)
    return labels[0]


def nx_simple_paths(rg, src, dst, cutoff=None):
    """All local-in(src) to local-out(dst) simple paths, skipping paths
    that eject at an intermediate tile."""
    g = rg_to_nx(rg)
    a, b = rg.port(src, "L", "in"), rg.port(dst, "L", "out")
    out = []
    for path in nx.all_simple_paths(g, a, b, cutoff=cutoff):
        if any(p.direction == "L" and p.tile not in (src, dst)
               for p in path[1:-1]):
            continue
        out.append(path)
    return out


def nx_reach(rg, start):
    """Tiles whose local-out is reachable from port node `start`."""
    seen = nx.descendants(rg_to_nx(rg), start) | {start}
    return {n.tile for n in seen if n.direction == "L" and n.kind == "out"}


def nx_port_reach(rg, tile, direction):
    """Tiles whose local-out is reachable from (tile, direction, out)."""
    return nx_reach(rg, rg.port(tile, direction, "out"))


def nx_tile_reach(rg, src):
    return nx_reach(rg, rg.port(src, "L", "in"))


def unreachable_oracle(rg, tile, direction):
    """The unreachable set of an output port, as the region tables cover
    it: destinations other than the tile itself with no routing-graph
    path from the port."""
    reach = nx_port_reach(rg, tile, direction)
    all_tiles = {t.id for t in rg.ag.tiles}
    return (all_tiles - reach) - {tile}


def drop_oracle(rg, src, dst):
    """Reference for should_drop with an unconstrained budget: drop iff
    no output port of src reaches dst, and self-traffic iff the local
    loop is missing."""
    if src == dst:
        g = rg_to_nx(rg)
        return not g.has_edge(rg.port(src, "L", "in"),
                              rg.port(src, "L", "out"))
    for direction in rg.ag.directions():
        if rg.ag.neighbor(src, direction) is None:
            continue
        if dst in nx_port_reach(rg, src, direction):
            return False
    return True


# The rectangle cover as first written: it tries every box over the
# occupied coordinates and tests containment on materialised cell sets.
# The library's summed-area-table cover must choose the same rectangles.


def cover_rectangles(dest_set, dims, budget):
    """Cover a destination set (tile coords) with at most `budget`
    rectangles.

    First an exact cover: repeatedly extract the largest rectangle fully
    inside the remaining set (ties: lexicographically smallest corners).
    If that exceeds the budget, repeatedly merge the pair with the
    smallest bounding box (ties by the lowest tile id of the box
    corners), which may over-approximate but never under-approximate.
    """
    cells = {_norm_coords(c) for c in dest_set}
    if not cells:
        return ()
    if budget < 1:
        raise RegionBudgetError(
            f"budget {budget} cannot cover {len(cells)} destinations"
        )
    dims3 = dims if len(dims) == 3 else (dims[0], dims[1], 1)

    rects = []
    remaining = set(cells)
    while remaining:
        rects.append(_largest_rectangle(remaining, dims3))
        remaining -= _cells_of(rects[-1])

    def corner_tile(coords):
        x, y, z = coords
        return x + y * dims3[0] + z * dims3[0] * dims3[1]

    while len(rects) > budget:
        best = None
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                box = rects[i].bounding(rects[j])
                key = (box.area(), corner_tile(box.lo), corner_tile(box.hi))
                if best is None or key < best[0]:
                    best = (key, i, j, box)
        _, i, j, box = best
        rects[i] = box
        del rects[j]

    if len(dims) == 2:
        rects = [Rectangle(r.lo[:2], r.hi[:2]) for r in rects]
    return tuple(rects)


def _norm_coords(coords):
    return coords if len(coords) == 3 else (coords[0], coords[1], 0)


def _cells_of(rect):
    (x1, y1, z1), (x2, y2, z2) = rect.lo, rect.hi
    return {
        (x, y, z)
        for x in range(x1, x2 + 1)
        for y in range(y1, y2 + 1)
        for z in range(z1, z2 + 1)
    }


def _largest_rectangle(cells, dims3):
    """Largest box fully contained in `cells`; deterministic ties."""
    best = None
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    zs = sorted({c[2] for c in cells})
    for x1 in xs:
        for x2 in (x for x in xs if x >= x1):
            for y1 in ys:
                for y2 in (y for y in ys if y >= y1):
                    for z1 in zs:
                        for z2 in (z for z in zs if z >= z1):
                            rect = Rectangle((x1, y1, z1), (x2, y2, z2))
                            if rect.area() > len(cells):
                                continue
                            if best is not None and rect.area() < best.area():
                                continue
                            if not _cells_of(rect) <= cells:
                                continue
                            if (
                                best is None
                                or rect.area() > best.area()
                                or (rect.area() == best.area() and (rect.lo, rect.hi) < (best.lo, best.hi))
                            ):
                                best = rect
    return best


def exhaustive_best_mapping(tg, shm, rg, cost, comm=None):
    """Minimum cost over every mapping of tasks to usable tiles."""
    tiles = ns.usable_tiles(shm)
    best = None
    for mapping in itertools.product(tiles, repeat=len(tg)):
        try:
            schedule = ns.asap_schedule(tg, list(mapping), shm, rg, comm=comm)
        except ns.UnroutableFlow:
            continue
        c = schedule_cost(schedule, cost)
        if best is None or c < best:
            best = c
    return best


def best_partitions(tg, k):
    """Minimum inter-cluster weight over every partition into exactly
    k non-empty clusters."""
    ids = [t.id for t in tg.tasks]

    def parts(seq, k):
        if not seq:
            if k == 0:
                yield []
            return
        head, rest = seq[0], seq[1:]
        for p in parts(rest, k):
            for i in range(len(p)):
                yield [c | {head} if i == j else c for j, c in enumerate(p)]
        for p in parts(rest, k - 1):
            yield p + [{head}]

    best = None
    for partition in parts(ids, k):
        task_cluster = {}
        for i, cluster in enumerate(partition):
            for t in cluster:
                task_cluster[t] = i
        cut = sum(w for (a, b), w in tg.edges.items()
                  if task_cluster[a] != task_cluster[b])
        if best is None or cut < best:
            best = cut
    return best


def cluster_tasks(tg, k, heuristic="greedy-merge", seed=0):
    """The clusters of graphs.cluster_tasks, as a canonical tuple of
    frozensets, by re-summing weights: every pair's weight from all
    edges in each merge round, and the whole cut for every candidate
    move of the local search."""
    groups = [{i} for i in range(len(tg))]
    while len(groups) > k:
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                w = _inter_weight(tg, groups[i], groups[j])
                key = (-w, min(groups[i]), min(groups[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        groups[i] |= groups[j]
        del groups[j]
    if heuristic == "local-search":
        groups = _local_search(tg, groups, seed)
    return tuple(sorted((frozenset(g) for g in groups), key=min))


def _inter_weight(tg, ga, gb):
    w = 0
    for (a, b), weight in tg.edges.items():
        if (a in ga and b in gb) or (a in gb and b in ga):
            w += weight
    return w


def _cut_of(tg, groups):
    owner = {}
    for gi, g in enumerate(groups):
        for t in g:
            owner[t] = gi
    return sum(w for (a, b), w in tg.edges.items() if owner[a] != owner[b])


def _local_search(tg, groups, seed, rounds=50):
    rng = random.Random(seed)
    groups = [set(g) for g in groups]
    best_cut = _cut_of(tg, groups)
    for _ in range(rounds):
        improved = False
        tasks = list(range(len(tg)))
        rng.shuffle(tasks)
        for t in tasks:
            src = next(i for i, g in enumerate(groups) if t in g)
            if len(groups[src]) == 1:
                continue
            for dst in range(len(groups)):
                if dst == src:
                    continue
                groups[src].remove(t)
                groups[dst].add(t)
                cut = _cut_of(tg, groups)
                if cut < best_cut:
                    best_cut = cut
                    src = dst
                    improved = True
                else:
                    groups[dst].remove(t)
                    groups[src].add(t)
        if not improved:
            break
    return groups


def pstdev(values):
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def schedule_cost(schedule, kind):
    """Each cost kind from its definition over a built Schedule, without
    the library's cost routine.  The population stddev is taken as the
    library takes it (same sums, same order, math.sqrt), so equal inputs
    give equal floats."""
    executed = [times for tid, times in enumerate(schedule.task_times)
                if tid not in schedule.retained]
    if kind == ns.SCHEDULE_LENGTH:
        last = max((f for _, _, f in executed), default=schedule.base_time)
        return last - schedule.base_time
    if kind == ns.TRAFFIC_BALANCE:
        per_link = {}
        for flow in schedule.flows:
            for link, s, e in flow.intervals:
                per_link[link] = per_link.get(link, 0) + (e - s)
        return pstdev(per_link[l] for l in sorted(per_link) if per_link[l] > 0)
    if kind == ns.UTILIZATION_BALANCE:
        per_pe = {}                 # in order of each PE's first executed task
        for tile, s, f in executed:
            per_pe[tile] = per_pe.get(tile, 0) + (f - s)
        return pstdev(v for v in per_pe.values() if v > 0)
    raise ValueError(f"unknown cost kind {kind!r}")


# -- ASAP scheduling -----------------------------------------------------------
# The scheduler as it was before link busy lists were kept sorted: every
# placement scans each link's intervals in insertion order.  Kept
# verbatim as the reference for the bisecting core in nocsim.mapsched.


def asap_schedule(tg, mapping, shm, rg, comm=None, routes=None, base_time=0,
                  finished=None):
    """Single-pass as-soon-as-possible schedule for `mapping`.

    Tasks listed in `finished` are pinned as zero-length sources at
    base_time on their mapped tile (used when resuming after a remap);
    everything else executes.  Raises UnroutableFlow when a transfer
    between mapped tiles has no route.
    """
    comm = comm or CommModel()
    routes = routes or RouteProvider(rg)
    finished = frozenset(finished or ())
    validate_mapping(tg, mapping, shm)

    n = len(tg)
    task_times = [None] * n
    pe_free = {}
    link_busy = {}
    flows = []
    computations = 0

    for b in tg.topological_order():
        computations += 1
        tile_b = mapping[b]
        if b in finished:
            task_times[b] = (tile_b, base_time, base_time)
            continue

        data_ready = base_time
        for a in tg.predecessors(b):
            tile_a = mapping[a]
            finish_a = task_times[a][2]
            weight = tg.edges[(a, b)]
            if tile_a == tile_b:
                arrival = finish_a
            else:
                route = routes.route(tile_a, tile_b)
                if route is None:
                    raise UnroutableFlow(tile_a, tile_b)
                flow = _place_flow(a, b, tile_a, tile_b, weight, route,
                                   finish_a, comm, link_busy)
                flows.append(flow)
                arrival = flow.delivery
            data_ready = max(data_ready, arrival)

        task = tg.task(b)
        start = max(task.release, data_ready, pe_free.get(tile_b, base_time), base_time)
        finish = start + shm.effective_wcet(tile_b, task.wcet)
        pe_free[tile_b] = finish
        task_times[b] = (tile_b, start, finish)

    executed = [task_times[t][2] for t in range(n) if t not in finished]
    makespan = max(executed) if executed else base_time
    return Schedule(
        task_times=tuple(task_times),
        flows=tuple(flows),
        start_computations=computations,
        base_time=base_time,
        retained=finished,
        makespan=makespan,
    )


def _place_flow(a, b, tile_a, tile_b, weight, route, injection, comm, link_busy):
    """Earliest contention-free placement of one transfer.

    The head needs router_delay per router; the body holds link i for
    weight x unit_link_cycles starting i router delays after injection.
    Contended links push the injection later (earliest-fit)."""
    r = comm.router_delay
    hold = weight * comm.unit_link_cycles
    t = injection
    if hold > 0:
        while True:
            bumped = False
            for i, link in enumerate(route.links, start=1):
                s = t + i * r
                for (cs, ce) in link_busy.get(link, ()):
                    if cs < s + hold and ce > s:
                        t = ce - i * r
                        bumped = True
                        break
                if bumped:
                    break
            if not bumped:
                break
    intervals = []
    for i, link in enumerate(route.links, start=1):
        s = t + i * r
        if hold > 0:
            link_busy.setdefault(link, []).append((s, s + hold))
            intervals.append((link, s, s + hold))
    delivery = t + route.hops * r + hold
    return FlowPlan(a, b, tile_a, tile_b, route.links, t, delivery,
                    tuple(intervals))


def evaluate_candidate(tg, mapping, shm, rg, comm, routes, cost):
    """Candidate evaluation as the heuristics scored it before cost-only
    evaluation: the reference Schedule, the deadline check and the
    reference cost.  None for an infeasible candidate."""
    try:
        schedule = asap_schedule(tg, mapping, shm, rg, comm=comm, routes=routes)
    except UnroutableFlow:
        return None
    for task in tg.tasks:
        if task.criticality == ns.CRITICAL and task.slack is not None:
            if schedule.task_times[task.id][2] > task.release + task.slack:
                return None
    return schedule_cost(schedule, cost)

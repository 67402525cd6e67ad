"""Independent reference implementations used to check the library.

Everything here is deliberately written against a different substrate
(networkx digraphs, brute-force enumeration) than the code under test,
so the two sides can disagree when one is wrong.
"""

import itertools
import math
import random
import weakref
from typing import NamedTuple

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
from nocsim.rng import derive_seed
from nocsim.routing import Route, RouteProvider


# -- port decoding -------------------------------------------------------------
# The library names a port only by its int id.  These decoders rebuild
# the (tile, direction, kind) each id stands for from the layout the
# routing module documents: per tile, an in and an out port for each of
# the mesh's directions in order, then for L.


class Port(NamedTuple):
    tile: int
    direction: str
    kind: str                               # "in" or "out"


_PORT_ADJ = weakref.WeakKeyDictionary()    # routing graph -> its port_adj
_NX_GRAPHS = weakref.WeakKeyDictionary()   # routing graph -> its digraph


def ports(rg):
    """The Port of every node id of `rg`, ascending."""
    return tuple(Port(t, d, k) for t in range(len(rg.ag))
                 for d in rg.ag.directions() + ("L",) for k in ("in", "out"))


def port_adj(rg):
    """dict Port -> tuple of successor Ports, decoded from rg.succ."""
    adj = _PORT_ADJ.get(rg)
    if adj is None:
        nodes = ports(rg)
        assert len(nodes) == len(rg.succ)
        adj = _PORT_ADJ[rg] = {nodes[i]: tuple(nodes[j] for j in succs)
                               for i, succs in enumerate(rg.succ)}
    return adj


def port(rg, tile, direction, kind):
    """The Port (tile, direction, kind), which must be a node of `rg`."""
    node = Port(tile, direction, kind)
    assert node in port_adj(rg), node
    return node


def route_ports(ag, route, src, dst):
    """The port path of a src -> dst route, rebuilt from its link ids:
    local-in(src), then per link its d-out port and the opposite(d)-in
    port on its far side, then local-out(dst)."""
    path = [Port(src, "L", "in")]
    for link_id in route.links:
        link = ag.links[link_id]
        path += [Port(link.src, link.direction, "out"),
                 Port(link.dst, OPPOSITE[link.direction], "in")]
    return path + [Port(dst, "L", "out")]


def port_by_port_walk(self, src, dst):
    """RouteProvider._walk as it was before it stepped once per router:
    one step per port, a choice among the successors one hop closer at
    every port, on `self`'s distance table and seed.  The pair's row
    entry: () or its Route."""
    dist = self._dist_to(dst)
    P = self._P
    node = src * P + self._local
    left = dist[node]
    if left < 0:
        return ()
    succ = self.succ
    link_of = self._links
    rng = None
    links = []
    while left > 0:
        left -= 1
        step = [n for n in succ[node] if dist[n] == left]
        if len(step) == 1:
            nxt = step[0]
        else:
            if rng is None:
                rng = random.Random(derive_seed(self.seed, f"route:{src}:{dst}"))
            nxt = rng.choice(step)
        if nxt // P != node // P:
            links.append(link_of[node])
        node = nxt
    return Route(tuple(links), len(links) + 1)


def rg_to_nx(rg):
    """The routing graph as a networkx digraph over Ports; routing
    graphs are immutable, so each is converted once."""
    g = _NX_GRAPHS.get(rg)
    if g is None:
        g = _NX_GRAPHS[rg] = nx.DiGraph()
        adj = port_adj(rg)
        g.add_nodes_from(adj)
        for src, dsts in adj.items():
            for dst in dsts:
                g.add_edge(src, dst)
    return g


def has_cycle_dfs(rg):
    """Three-color depth-first cycle detector, recursion-free, written
    against port_adj directly."""
    WHITE, GREY, BLACK = 0, 1, 2
    adj = port_adj(rg)
    color = {n: WHITE for n in adj}
    for root in adj:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False


def edge_label(ag, a, b):
    """The health element gating edge a -> b (Ports), or "straight"
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
    a, b = port(rg, src, "L", "in"), port(rg, dst, "L", "out")
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
    return nx_reach(rg, port(rg, tile, direction, "out"))


def nx_tile_reach(rg, src):
    return nx_reach(rg, port(rg, src, "L", "in"))


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
        return not g.has_edge(port(rg, src, "L", "in"),
                              port(rg, src, "L", "out"))
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


def tile_bits(cells, dims):
    """The tile-id bitset of a set of coords on a build_mesh mesh of
    `dims`: bit x + (y + z*h)*w per cell."""
    w, h = dims[0], dims[1]
    d = dims[2] if len(dims) == 3 else 1
    bits = 0
    for x, y, z in map(_norm_coords, cells):
        assert 0 <= x < w and 0 <= y < h and 0 <= z < d, (x, y, z)
        bits |= 1 << (x + (y + z * h) * w)
    return bits


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


def initial_mapping(tg, shm, policy="first_fit", seed=0, ctg=None):
    """The task mapping a search starts from: "first_fit" deals units
    (ctg's clusters, else single tasks) onto the usable tiles
    round-robin by id; "random" draws each unit's tile with
    random.Random(seed).choice.  run_heuristic draws from
    derive_seed(its seed, "initial")."""
    units = ctg.clusters if ctg is not None else [(t,) for t in range(len(tg))]
    tiles = [t for t in range(len(shm.ag)) if shm.pe_usable(t)]
    if policy == "first_fit":
        unit_tiles = [tiles[i % len(tiles)] for i in range(len(units))]
    else:
        assert policy == "random", policy
        rng = random.Random(seed)
        unit_tiles = [rng.choice(tiles) for _ in units]
    mapping = [None] * len(tg)
    for members, tile in zip(units, unit_tiles):
        for t in members:
            mapping[t] = tile
    return mapping


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

    return min(cut_weight(tg, partition) for partition in parts(ids, k))


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


def cut_weight(tg, groups):
    """Total weight of the task edges whose ends lie in different
    groups (sets of task ids that partition the tasks)."""
    owner = {}
    for gi, g in enumerate(groups):
        for t in g:
            owner[t] = gi
    return sum(w for (a, b), w in tg.edges.items() if owner[a] != owner[b])


def _local_search(tg, groups, seed, rounds=50):
    rng = random.Random(seed)
    groups = [set(g) for g in groups]
    best_cut = cut_weight(tg, groups)
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
                cut = cut_weight(tg, groups)
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
    squares = 0.0                           # left to right, on every version
    for v in values:
        squares += (v - mean) ** 2
    return math.sqrt(squares / len(values))


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

        task = tg.tasks[b]
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

"""Port-level routing graphs and turn models.

Every router contributes one node per port and side: 5 in + 5 out for a
2D router (N/E/W/S/L), 7 + 7 for 3D.  A directed edge means a packet may
move between those ports, so a path local-in(src) .. local-out(dst) is a
legal route and an acyclic graph cannot deadlock.

Turn naming convention used everywhere in this package: a turn (a, b)
means "arrived on the a input port, leaves through the b output port".
A packet traveling east arrives on its next router's W port, so the
classic "east-then-north" turn is written (W, N) here.  The turn slots
and their order belong to the platform (graphs.TURN_SLOTS_2D/3D, read
as ag.turns), as do the directions the port slots follow
(ag.directions()).  Connection kinds and their gating:

  local-in -> d-out   injection        needs a healthy PE
  d-in -> local-out   ejection         needs a healthy PE
  local-in -> local-out self-delivery  needs a healthy PE
  d-in -> opposite(d)-out straight     always present when the router is
  (a, b), a ortho b   90-degree turn   needs the turn model to allow it
                                       and the turn's health slot
  d-out -> neighbor opposite(d)-in     needs a healthy link (and, with
                                       regions, both ends in one region)

Nodes are numbered tile * P + port slot (RoutingGraph.port_id), in
(tile, direction, kind) order, and the graph is a tuple of sorted
successor-id tuples; the ids are the only form of a port.  The
reachability index, the route search and the region tables run on
them.  Each question about a graph has one structure: one depth-first
pass orders the nodes and tells whether the graph is acyclic
(is_deadlock_free), one propagation loop along that order gives the
reach index (reach_by_id), and the graph's RouteProvider keeps every
route it computed in its rows, which the scheduler reads directly.  A
row entry is the Route itself: its link ids and its hop count.  The
links fix the port path, since each link joins its d-out port to the
opposite(d)-in port of the next router.  Every edge is gated by at most
one health element, so a broken element only deletes edges, and _gated
is the only code that maps an element to the edges it gates.  A cold
build is the structural graph (mesh, turn model, regions; each tile's
edges are tile 0's, shifted) minus the health map's broken set through
without; a permanent fault derives the graph of the faulted state from
the one before the same way.

A derived graph also derives its reach bits.  `without` records the
tails of the edges it really deletes.  From an acyclic parent with
reach bits, the derived graph takes those bits and the parent's order
(never the parent), and its first reach_by_id runs the loop only from
the earliest tail on.  In a reverse topological order every ancestor of
a tail comes after it, so the nodes before the earliest tail reach no
deleted edge and keep their bits.  Deleting edges keeps a graph acyclic
and its order reverse topological, so the rule chains over any sequence
of PE, link and turn faults.  A graph derived from a cyclic parent
(custom turn models), or from one without reach bits, runs its own
depth-first pass: a deletion can break a cycle and so flip
is_deadlock_free.
"""

import random
from typing import NamedTuple

from .errors import RangeError
from .graphs import OPPOSITE, TURN_SLOTS_2D, TURN_SLOTS_3D
from .rng import derive_seed


class TurnModel(NamedTuple):
    """A named set of allowed (arrival port, output port) turns."""

    name: str
    allowed: frozenset

    def allows(self, a, b):
        return (a, b) in self.allowed


def _model(name, allowed):
    return TurnModel(name, frozenset(allowed))


# Allowed turn sets in arrival-port convention.  Derived from the usual
# travel-direction definitions: a packet traveling t arrives on port
# opposite(t), so travel turn t->u becomes port turn (opposite(t), u).
# XY: traffic moves horizontally first; only horizontal arrivals may
# turn vertically.  West-first: no turn may enter the west direction.
# North-last: nothing turns out of northbound travel (S arrivals).
# Negative-first: no turn from a positive travel direction (E, N) into
# a negative one (W, S).
XY = _model("xy", [("E", "N"), ("E", "S"), ("W", "N"), ("W", "S")])
WEST_FIRST = _model("west_first", [
    ("N", "E"), ("S", "E"), ("E", "N"), ("E", "S"), ("W", "N"), ("W", "S"),
])
NORTH_LAST = _model("north_last", [
    ("N", "E"), ("N", "W"), ("E", "N"), ("E", "S"), ("W", "N"), ("W", "S"),
])
NEGATIVE_FIRST = _model("negative_first", [
    ("N", "E"), ("N", "W"), ("S", "E"), ("E", "N"), ("E", "S"), ("W", "N"),
])
# Dimension-ordered model for 3D meshes: x, then y, then z.
XYZ = _model("xyz", list(XY.allowed) + [
    ("W", "U"), ("W", "D"), ("E", "U"), ("E", "D"),
    ("N", "U"), ("N", "D"), ("S", "U"), ("S", "D"),
])

TURN_MODELS_2D = {m.name: m for m in (XY, WEST_FIRST, NORTH_LAST, NEGATIVE_FIRST)}
TURN_MODELS_3D = {"xyz": XYZ}


def turn_model_by_name(name, is_3d=False):
    table = TURN_MODELS_3D if is_3d else TURN_MODELS_2D
    if not isinstance(name, str) or name not in table:
        raise RangeError(
            f"unknown turn model {name!r} for {'3D' if is_3d else '2D'}; "
            f"choices: {sorted(table)}"
        )
    return table[name]


def custom_turn_model(pairs, is_3d=False):
    """Turn model from explicit (arrival, output) pairs; each pair must
    be one of the canonical turn slots.  Deadlock freedom is not implied
    and should be checked with is_deadlock_free."""
    slots = set(TURN_SLOTS_3D if is_3d else TURN_SLOTS_2D)
    pairs = [tuple(p) for p in pairs]
    for p in pairs:
        if p not in slots:
            raise RangeError(f"not a turn slot: {p}")
    return _model("custom", pairs)


def _port_slots(ag):
    """Node ids are tile * P + slot[direction] + (kind == "out"), where
    P is twice the port count.  Slots follow the mesh's direction
    order, then L, so ascending ids are in (tile, direction, kind)
    order."""
    return {d: 2 * i for i, d in enumerate(ag.directions() + ("L",))}


class RoutingGraph:
    """Immutable port graph over int node ids with sorted adjacency."""

    def __init__(self, ag, succ):
        self.ag = ag
        self.succ = succ                    # tuple of sorted id tuples, by id
        self.slots = _port_slots(ag)
        self.ports_per_tile = 2 * len(self.slots)
        self._reach = None                  # memoised reach bitsets, by id
        self._postorder = None              # (DFS postorder, acyclic flag)
        self._inherit = None                # (parent reach, deleted tails)
        self._providers = {}                # seed -> memoised RouteProvider

    def port_id(self, tile, direction, kind):
        return tile * self.ports_per_tile + self.slots[direction] + (kind == "out")

    def _dfs(self):
        """(depth-first postorder, acyclic flag), memoised or inherited."""
        if self._postorder is None:
            self._postorder = _dfs_postorder(self.succ)
        return self._postorder

    def reach_by_id(self):
        """Reachability index: per node id, the bitset (int, bit d =
        tile d) of the tiles whose local-out the node reaches, itself
        included.

        The rule: a node reaches what its successors reach, and a
        local-out also its own tile.  _propagate applies it along the
        depth-first postorder, where a node's successors all come first
        save the target of a back edge (an edge into a node on the DFS
        stack, which closes a cycle), so on an acyclic graph one pass is
        exact.  On a cyclic graph the loop starts from the local-out
        bits and repeats until a pass changes nothing.  The bits never
        exceed the reach sets, and after pass p they hold every tile
        reached along a path with fewer than p back edges; a simple path
        takes each of the b back edges once at most, so b + 1 passes
        reach the least fixpoint, the reach sets, and one more confirms
        it.  A derived graph starts from its acyclic parent's bits at
        its earliest deleted edge's tail (module docstring).
        """
        if self._reach is None:
            order, acyclic = self._dfs()
            P = self.ports_per_tile
            if self._inherit is None:
                bits, start = [0] * len(self.succ), 0
                bits[P - 1::P] = [1 << t for t in range(len(self.ag))]
            else:
                reach, tails = self._inherit
                self._inherit = None
                bits = list(reach)
                start = min(map(order.index, tails), default=len(order))
            self._reach = _propagate(self.succ, P, bits, order, start, acyclic)
        return self._reach

    def route_provider(self, seed=0):
        """The RouteProvider for `seed`, built once per graph: its
        distance tables and routes are then shared by every caller."""
        provider = self._providers.get(seed)
        if provider is None:
            provider = self._providers[seed] = RouteProvider(self, seed)
        return provider

    def without(self, faults):
        """This graph minus the _gated edges of `faults`, health-map
        elements that ArchitectureGraph.check_element checks, as
        SystemHealthMap.apply_fault does.  build_routing_graph takes its
        structural graph through it, so on the cold build of a health
        state the result is the cold build of that state with `faults`
        applied.  An edge already absent (a broken element, a turn the
        model forbids, a link across regions) stays absent, so deletions
        commute and the order of `faults` does not matter.  Deleting
        entries keeps every list sorted.

        An acyclic graph with reach bits hands them, its order and the
        deleted edges' tails to the result (module docstring)."""
        succ = list(self.succ)
        tails = []
        for fault in faults:
            for i, j in _gated(self.ag, self.slots, self.ag.check_element(fault)):
                if j in succ[i]:
                    k = succ[i].index(j)
                    succ[i] = succ[i][:k] + succ[i][k + 1:]
                    tails.append(i)
        derived = RoutingGraph(self.ag, tuple(succ))
        if self._reach is not None and self._postorder[1]:
            derived._postorder = self._postorder
            derived._inherit = (self._reach, tails)
        return derived


def _gated(ag, slots, element):
    """The (tail id, head id) edges a checked health element gates: a
    PE its tile's self-delivery, injection and ejection edges, a turn
    slot its a-in -> b-out edge, a link its d-out -> opposite(d)-in edge
    on the neighbour.  The only code that maps an element to edges."""
    P = 2 * len(slots)
    if element[0] == "link":
        link = ag.links[element[1]]
        return [(link.src * P + slots[link.direction] + 1,
                 link.dst * P + slots[OPPOSITE[link.direction]])]
    base = element[1] * P
    if element[0] == "turn":
        a, b = ag.turns[element[2]]
        return [(base + slots[a], base + slots[b] + 1)]
    local = base + slots["L"]
    return ([(local, base + slots[d] + 1) for d in slots]
            + [(base + slots[d], local + 1) for d in ag.directions()])


def _dfs_postorder(succ):
    """(node ids in depth-first postorder, whether the graph is acyclic).
    An edge into a node still on the DFS stack closes a cycle; without
    one the graph is acyclic and its postorder reverse topological."""
    state = [0] * len(succ)                 # 0 unvisited, 1 on stack, 2 done
    order, acyclic = [], True
    for root in range(len(succ)):
        if state[root]:
            continue
        state[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if not state[nxt]:
                    state[nxt] = 1
                    work.append((nxt, iter(succ[nxt])))
                    break
                if state[nxt] == 1:
                    acyclic = False
            else:
                work.pop()
                state[node] = 2
                order.append(node)
    return order, acyclic


def _propagate(succ, P, bits, order, start, acyclic):
    """Apply the reach rule to `bits` in place along `order` from
    position `start`: a local-out keeps its bit (its own tile's), every
    other node gets the OR of its successors' bits.  One pass when the
    graph is acyclic, else passes until one changes nothing (reach_by_id
    has the proof).  Returns `bits`."""
    while True:
        before = None if acyclic else list(bits)
        for k in range(start, len(order)):
            node = order[k]
            if node % P == P - 1:           # a local-out keeps its own bit
                continue
            acc = 0
            for nxt in succ[node]:
                acc |= bits[nxt]
            bits[node] = acc
        if acyclic or bits == before:
            return bits


def build_routing_graph(ag, turn_model, shm, regions=None):
    """Port graph induced by the platform, the turn model(s) and the
    current health state: the structural graph, built without reading
    health, minus the elements in `shm.broken` (RoutingGraph.without).

    `regions`, when given, supplies a per-tile turn model and suppresses
    external edges between tiles of different regions.
    """
    slots = _port_slots(ag)
    P = 2 * len(slots)
    common = [(slots[d], slots[OPPOSITE[d]] + 1) for d in ag.directions()]
    common += _gated(ag, slots, ("pe", 0))
    template = {}                           # turn model -> tile 0's edges
    succ = [[] for _ in range(len(ag) * P)]
    ids = list(range(len(succ)))            # one shared int per head id
    for t in range(len(ag)):
        model = turn_model
        if regions is not None:
            model = regions.turn_model_for(t) or turn_model
        edges = template.get(model)
        if edges is None:
            edges = template[model] = common + [
                e for slot, turn in enumerate(ag.turns) if model.allows(*turn)
                for e in _gated(ag, slots, ("turn", 0, slot))]
        base = t * P
        for i, j in edges:
            succ[base + i].append(ids[base + j])

    for link in ag.links:
        if regions is None or not regions.crosses(link.src, link.dst):
            for i, j in _gated(ag, slots, ("link", link.id)):
                succ[i].append(ids[j])

    return RoutingGraph(ag, tuple(tuple(sorted(s)) for s in succ)).without(
        shm.broken)


def is_deadlock_free(rg):
    """True iff the port graph is acyclic (Dally & Seitz): read off the
    graph's memoised depth-first pass, which finds no back edge."""
    return rg._dfs()[1]


class RouteProvider:
    """Deterministic route choice on a routing graph.

    Shortest port paths only; where several shortest continuations
    exist (adaptive turn models) one is drawn uniformly from a per
    (src, dst) sub-stream, so the choice does not depend on evaluation
    order.  The sub-stream is seeded at the pair's first choice; a pair
    that has none never draws.

    A walk chooses only at in-side ports.  An in port's successors are
    out ports of its router, and a d-out port has one successor at
    most, its link's far in port (none when the link is broken or cut
    by regions; such a port reaches no tile, so no walk picks it).  So
    from a d-out the walk takes its link without a choice, and draws
    what a walk that chose at every port would draw.

    Routes are kept in rows: rows[src][dst] is None until the pair is
    first routed, then () when it has no route, else its Route.  A
    source's row is made on its first use, so a large mesh allocates
    only the rows its callers touch.  The scheduler reads the
    rows directly and calls route() only for an entry that is still
    None, so each pair is computed once per provider.  Holds the graph's
    platform, adjacency and link id per port, not the graph: graphs
    memoise their providers, and a reference back would keep every
    replaced graph alive until the cycle collector runs."""

    def __init__(self, rg, seed=0):
        self.ag = rg.ag
        self.succ = rg.succ
        self.seed = seed
        self._P = rg.ports_per_tile
        self._local = rg.slots["L"]
        # link id per d-out port id, None for every other port
        self._links = links = [None] * len(rg.succ)
        for link in rg.ag.links:
            links[rg.port_id(link.src, link.direction, "out")] = link.id
        self._rev = [[] for _ in rg.succ]
        for node, succs in enumerate(rg.succ):
            for nxt in succs:
                self._rev[nxt].append(node)
        self._dist = {}                     # dst tile -> hops by id, -1 unreachable
        self.rows = [None] * len(rg.ag)     # src tile -> route row, or None

    def _dist_to(self, dst):
        dist = self._dist.get(dst)
        if dist is not None:
            return dist
        goal = dst * self._P + self._local + 1
        rev = self._rev
        dist = [-1] * len(rev)
        dist[goal] = 0
        frontier = [goal]
        hops = 0
        while frontier:
            hops += 1
            nxt_frontier = []
            for node in frontier:
                for prev in rev[node]:
                    if dist[prev] < 0:
                        dist[prev] = hops
                        nxt_frontier.append(prev)
            frontier = nxt_frontier
        self._dist[dst] = dist
        return dist

    def route(self, src, dst):
        """The pair's Route, or None when unroutable, from its row
        entry; the entry is computed on the first request."""
        self.ag.check_tile(src)
        self.ag.check_tile(dst)
        row = self.rows[src]
        if row is None:
            row = self.rows[src] = [None] * len(self.rows)
        entry = row[dst]
        if entry is None:
            entry = row[dst] = self._walk(src, dst)
        return entry or None

    def _walk(self, src, dst):
        """The pair's row entry: () or its Route.  Walks a shortest path
        from src's local-in one router per step: pick an out port one
        hop closer (drawing when several are), then, unless it is dst's
        local-out, take its link to the next router's in port."""
        dist = self._dist_to(dst)
        node = src * self._P + self._local
        left = dist[node]
        if left < 0:
            return ()
        succ = self.succ
        link_of = self._links
        rng = None
        links = []
        while True:
            left -= 1
            step = [n for n in succ[node] if dist[n] == left]
            if len(step) == 1:
                out = step[0]
            else:
                if rng is None:
                    rng = random.Random(derive_seed(self.seed, f"route:{src}:{dst}"))
                out = rng.choice(step)
            if not left:                    # dst's local-out
                return Route(tuple(links), len(links) + 1)
            links.append(link_of[out])
            node = succ[out][0]
            left -= 1


class Route(NamedTuple):
    links: tuple                            # link ids, source to destination
    hops: int                               # routers on the route

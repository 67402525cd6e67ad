"""Port-level routing graphs and turn models.

Every router contributes one node per port and side: 5 in + 5 out for a
2D router (N/E/W/S/L), 7 + 7 for 3D.  A directed edge means a packet may
move between those ports, so a path local-in(src) .. local-out(dst) is a
legal route and an acyclic graph cannot deadlock.

Turn naming convention used everywhere in this package: a turn (a, b)
means "arrived on the a input port, leaves through the b output port".
A packet traveling east arrives on its next router's W port, so the
classic "east-then-north" turn is written (W, N) here.  Connection
kinds and their gating:

  local-in -> d-out   injection        needs a healthy PE
  d-in -> local-out   ejection         needs a healthy PE
  local-in -> local-out self-delivery  needs a healthy PE
  d-in -> opposite(d)-out straight     always present when the router is
  (a, b), a ortho b   90-degree turn   needs the turn model to allow it
                                       and the turn's health slot
  d-out -> neighbor opposite(d)-in     needs a healthy link (and, with
                                       regions, both ends in one region)
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

from .errors import RangeError, UnknownTile
from .graphs import DIRS_2D, DIRS_3D, OPPOSITE
from .rng import derive_seed

# Canonical turn slot order.  The first eight are the planar turns and
# double as the layout of per-router turn health and routing bits.
TURN_SLOTS_2D = (
    ("N", "E"), ("N", "W"), ("S", "E"), ("S", "W"),
    ("E", "N"), ("E", "S"), ("W", "N"), ("W", "S"),
)
TURN_SLOTS_3D = TURN_SLOTS_2D + (
    ("N", "U"), ("N", "D"), ("S", "U"), ("S", "D"),
    ("E", "U"), ("E", "D"), ("W", "U"), ("W", "D"),
    ("U", "N"), ("U", "E"), ("U", "W"), ("U", "S"),
    ("D", "N"), ("D", "E"), ("D", "W"), ("D", "S"),
)
TURN_INDEX_2D = {t: i for i, t in enumerate(TURN_SLOTS_2D)}
TURN_INDEX_3D = {t: i for i, t in enumerate(TURN_SLOTS_3D)}


def turn_slots(is_3d):
    return TURN_SLOTS_3D if is_3d else TURN_SLOTS_2D


def turn_index(turn, is_3d):
    table = TURN_INDEX_3D if is_3d else TURN_INDEX_2D
    if turn not in table:
        raise RangeError(f"not a turn: {turn}")
    return table[turn]


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
    if name not in table:
        raise RangeError(
            f"unknown turn model {name!r} for {'3D' if is_3d else '2D'}; "
            f"choices: {sorted(table)}"
        )
    return table[name]


def custom_turn_model(pairs, is_3d=False):
    """Turn model from explicit (arrival, output) pairs; each pair must
    be one of the canonical turn slots.  Deadlock freedom is not implied
    and should be checked with is_deadlock_free."""
    slots = set(turn_slots(is_3d))
    pairs = [tuple(p) for p in pairs]
    for p in pairs:
        if p not in slots:
            raise RangeError(f"not a turn slot: {p}")
    return _model("custom", pairs)


class PortNode(NamedTuple):
    tile: int
    direction: str
    kind: str                               # "in" or "out"


_DIR_ORDER = {d: i for i, d in enumerate(("N", "E", "W", "S", "U", "D", "L"))}


def node_key(node):
    return (node.tile, _DIR_ORDER[node.direction], node.kind)


class RoutingGraph:
    """Immutable port graph with deterministic (sorted) adjacency."""

    def __init__(self, ag, nodes, adj):
        self.ag = ag
        self.nodes = nodes                  # tuple of PortNode, sorted
        self.adj = adj                      # dict PortNode -> tuple of PortNode
        self._reach = None                  # memoised reach_bits()
        self._providers = {}                # seed -> memoised RouteProvider

    def local_in(self, tile):
        return PortNode(self.ag.check_tile(tile), "L", "in")

    def local_out(self, tile):
        return PortNode(self.ag.check_tile(tile), "L", "out")

    def port(self, tile, direction, kind):
        node = PortNode(tile, direction, kind)
        if node not in self.adj:
            raise UnknownTile(f"no port node {node}")
        return node

    def successors(self, node):
        return self.adj.get(node, ())

    def reachable_from(self, node):
        """All nodes reachable from `node` (itself included)."""
        seen = {node}
        stack = [node]
        while stack:
            for nxt in self.adj.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def reach_bits(self):
        """Reachability index: node -> bitset (int, bit d = tile d) of
        the tiles whose local-out the node reaches, itself included.

        Computed once per graph by one pass over the strongly connected
        components (iterative Tarjan).  Tarjan completes a component
        only after every component it has an edge into, so its bitset
        is its own local-outs OR its successors' bitsets; that is exact
        on cyclic graphs as well as acyclic ones.
        """
        if self._reach is None:
            self._reach = _reach_bits(self.nodes, self.adj)
        return self._reach

    def route_provider(self, seed=0):
        """The RouteProvider for `seed`, built once per graph: its
        distance tables and routes are then shared by every caller."""
        provider = self._providers.get(seed)
        if provider is None:
            provider = self._providers[seed] = RouteProvider(self, seed)
        return provider


def _reach_bits(nodes, adj):
    index = {}                              # node -> DFS visit number
    low = {}
    bits = {}
    scc_stack = []
    on_stack = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        scc_stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    scc_stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(adj[nxt])))
                    break
                if nxt in on_stack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] != index[node]:
                    continue
                members = []
                while True:
                    m = scc_stack.pop()
                    on_stack.discard(m)
                    members.append(m)
                    if m == node:
                        break
                acc = 0
                for m in members:
                    if m.direction == "L" and m.kind == "out":
                        acc |= 1 << m.tile
                    for nxt in adj[m]:
                        # Successors inside this component have no entry
                        # yet; all others belong to finished components.
                        acc |= bits.get(nxt, 0)
                for m in members:
                    bits[m] = acc
    return bits


def build_routing_graph(ag, turn_model, shm, regions=None):
    """Port graph induced by the platform, the turn model(s) and the
    current health state.

    `regions`, when given, supplies a per-tile turn model and suppresses
    external edges between tiles of different regions.
    `shm` is read through pe_healthy / turn_healthy / link_healthy.
    """
    dirs = ag.directions()
    is_3d = ag.is_3d
    adj = {}
    nodes = []
    for tile in ag.tiles:
        for d in dirs + ("L",):
            for kind in ("in", "out"):
                node = PortNode(tile.id, d, kind)
                nodes.append(node)
                adj[node] = []

    for tile in ag.tiles:
        t = tile.id
        model = turn_model
        if regions is not None:
            model = regions.turn_model_for(t) or turn_model

        if shm.pe_healthy(t):
            for d in dirs:
                adj[PortNode(t, "L", "in")].append(PortNode(t, d, "out"))
                adj[PortNode(t, d, "in")].append(PortNode(t, "L", "out"))
            adj[PortNode(t, "L", "in")].append(PortNode(t, "L", "out"))

        for d in dirs:
            adj[PortNode(t, d, "in")].append(PortNode(t, OPPOSITE[d], "out"))

        for slot, (a, b) in enumerate(turn_slots(is_3d)):
            if model.allows(a, b) and shm.turn_healthy(t, slot):
                adj[PortNode(t, a, "in")].append(PortNode(t, b, "out"))

    for link in ag.links:
        if not shm.link_healthy(link.id):
            continue
        if regions is not None and regions.crosses(link.src, link.dst):
            continue
        src = PortNode(link.src, link.direction, "out")
        dst = PortNode(link.dst, OPPOSITE[link.direction], "in")
        adj[src].append(dst)

    nodes.sort(key=node_key)
    adj = {n: tuple(sorted(adj[n], key=node_key)) for n in nodes}
    return RoutingGraph(ag, tuple(nodes), adj)


def is_deadlock_free(rg):
    """True iff the port graph is acyclic (iterative three-color DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in rg.nodes}
    for root in rg.nodes:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(rg.adj[root]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return False
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(rg.adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return True


def find_paths(rg, src, dst, limit=None):
    """All simple port paths local-in(src) .. local-out(dst), in
    lexicographic order of the visited tile id sequence.  `limit` caps
    the number of paths returned."""
    start = rg.local_in(src)
    goal = rg.local_out(dst)
    paths = []
    path = [start]
    on_path = {start}

    def dfs(node):
        if limit is not None and len(paths) >= limit:
            return
        if node == goal:
            paths.append(tuple(path))
            return
        for nxt in rg.adj[node]:
            if nxt in on_path:
                continue
            # Only the goal tile's local-out ends a route.
            if nxt.direction == "L" and nxt.kind == "out" and nxt != goal:
                continue
            path.append(nxt)
            on_path.add(nxt)
            dfs(nxt)
            path.pop()
            on_path.remove(nxt)

    dfs(start)
    paths.sort(key=lambda p: (tuple(n.tile for n in p), p))
    if limit is not None:
        paths = paths[:limit]
    return paths


def reachability_matrix(rg):
    """matrix[s][d] is True iff some route s -> d exists; the diagonal
    reflects local self-delivery (healthy PE)."""
    n = len(rg.ag)
    reach = rg.reach_bits()
    rows = []
    for s in range(n):
        bits = reach[rg.local_in(s)]
        rows.append([bool(bits >> d & 1) for d in range(n)])
    return rows


class RouteProvider:
    """Deterministic route choice on a routing graph.

    Shortest port paths only; where several shortest continuations
    exist (adaptive turn models) one is drawn uniformly from a per
    (src, dst) sub-stream, so the choice does not depend on evaluation
    order.  Routes are cached.  Holds the graph's platform and adjacency,
    not the graph: graphs memoise their providers, and a reference back
    would keep every replaced graph alive until the cycle collector
    runs."""

    def __init__(self, rg, seed=0):
        self.ag = rg.ag
        self.adj = rg.adj
        self.seed = seed
        self._rev = {n: [] for n in rg.nodes}
        for node, succs in rg.adj.items():
            for nxt in succs:
                self._rev[nxt].append(node)
        self._dist = {}                     # dst tile -> {node: hops to local-out}
        self._routes = {}                   # (src, dst) -> Route or None

    def _dist_to(self, dst):
        if dst in self._dist:
            return self._dist[dst]
        goal = PortNode(self.ag.check_tile(dst), "L", "out")
        dist = {goal: 0}
        frontier = [goal]
        while frontier:
            nxt_frontier = []
            for node in frontier:
                for prev in self._rev[node]:
                    if prev not in dist:
                        dist[prev] = dist[node] + 1
                        nxt_frontier.append(prev)
            frontier = nxt_frontier
        self._dist[dst] = dist
        return dist

    def route(self, src, dst):
        """Route(ports, links, hops) or None when unroutable."""
        key = (src, dst)
        if key in self._routes:
            return self._routes[key]
        dist = self._dist_to(dst)
        node = PortNode(self.ag.check_tile(src), "L", "in")
        if node not in dist:
            self._routes[key] = None
            return None
        rng = random.Random(derive_seed(self.seed, f"route:{src}:{dst}"))
        ports = [node]
        links = []
        while dist[node] > 0:
            step = [n for n in self.adj[node] if dist.get(n, -1) == dist[node] - 1]
            nxt = step[0] if len(step) == 1 else rng.choice(step)
            if nxt.tile != node.tile:
                links.append(self.ag.link(node.tile, node.direction).id)
            ports.append(nxt)
            node = nxt
        route = Route(tuple(ports), tuple(links), len(links) + 1)
        self._routes[key] = route
        return route


@dataclass(frozen=True)
class Route:
    ports: tuple
    links: tuple
    hops: int                               # routers on the route

"""Application task graphs and mesh architecture graphs.

The application side is a weighted DAG of tasks (optionally coarsened
into clusters before mapping); the platform side is a 2D or 3D mesh of
tiles joined by directed links.

The platform owns its vocabulary: an ArchitectureGraph decides once
whether it is 2D or 3D, and every other layer reads its directions
(directions()), its turn slots (turns, in the canonical TURN_SLOTS_2D or
TURN_SLOTS_3D order defined here) and a turn's slot (turn_slot) from it.
It also owns the health-element vocabulary: check_element is the one
check that ("pe", tile), ("turn", tile, slot) or ("link", link_id)
names an element of this mesh, for the health map, degrade_targets and
RoutingGraph.without alike.
"""

import heapq
import random
from dataclasses import dataclass, field

from .errors import (
    CycleError,
    DanglingEdgeError,
    InfeasibleK,
    RangeError,
    UnknownTarget,
    UnknownTile,
    ZeroDimensionError,
)

CRITICAL = "critical"
NON_CRITICAL = "non-critical"
CRITICALITIES = (CRITICAL, NON_CRITICAL)

# Direction names shared with the routing layer.  Order matters: it is the
# canonical order for connectivity bits and link enumeration.
DIRS_2D = ("N", "E", "W", "S")
DIRS_3D = ("N", "E", "W", "S", "U", "D")
OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E", "U": "D", "D": "U", "L": "L"}
DIR_VECTORS = {
    "N": (0, 1, 0),
    "S": (0, -1, 0),
    "E": (1, 0, 0),
    "W": (-1, 0, 0),
    "U": (0, 0, 1),
    "D": (0, 0, -1),
}

# Canonical turn slot order; a turn (a, b) arrives on port a and leaves
# through port b (routing's convention).  The order is a data format:
# scenario `slot` indices, shm.txt lines and the configuration-tag
# preimage use it.  The first eight are the planar turns and double as
# the layout of per-router LBDR routing bits.
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


@dataclass(frozen=True)
class Task:
    """One schedulable unit of the application.

    `slack`, when set on a critical task, defines its deadline as
    release + slack; mapping candidates violating it are rejected.
    """

    id: int
    wcet: int
    release: int = 0
    criticality: str = NON_CRITICAL
    slack: int = None


class TaskGraph:
    """Immutable weighted DAG of tasks.

    Task ids are dense (0..m-1) so mappings can be plain lists indexed
    by task id.  Edge weights model communication volume.
    """

    def __init__(self, tasks, edges, _order):
        self.tasks = tasks                  # tuple of Task, index == id
        self.edges = edges                  # dict (src, dst) -> weight
        self._topo = _order                 # tuple of task ids
        self._preds = {t.id: [] for t in tasks}
        self._succs = {t.id: [] for t in tasks}
        for (a, b) in sorted(edges):
            self._preds[b].append(a)
            self._succs[a].append(b)

    def __len__(self):
        return len(self.tasks)

    def predecessors(self, task_id):
        return self._preds[task_id]

    def successors(self, task_id):
        return self._succs[task_id]

    def topological_order(self):
        return self._topo


def build_task_graph(tasks, edges):
    """Validate and assemble a TaskGraph.

    tasks: iterable of Task (ids must be exactly 0..m-1, wcet > 0).
    edges: mapping (src, dst) -> weight.
    """
    tasks = sorted(tasks, key=lambda t: t.id)
    ids = [t.id for t in tasks]
    if ids != list(range(len(tasks))):
        raise RangeError(f"task ids must be dense 0..{len(tasks) - 1}, got {ids}")
    for t in tasks:
        if t.wcet <= 0:
            raise RangeError(f"task {t.id}: wcet must be positive, got {t.wcet}")
        if t.release < 0:
            raise RangeError(f"task {t.id}: release must be >= 0, got {t.release}")
        if t.criticality not in CRITICALITIES:
            raise RangeError(f"task {t.id}: unknown criticality {t.criticality!r}")
        if t.slack is not None and t.slack < 0:
            raise RangeError(f"task {t.id}: slack must be >= 0, got {t.slack}")

    known = set(range(len(tasks)))
    for (a, b), w in edges.items():
        if a not in known or b not in known:
            raise DanglingEdgeError(f"edge ({a}, {b}) references a missing task")
        if a == b:
            raise CycleError(f"self edge on task {a}")
        if w <= 0:
            raise RangeError(f"edge ({a}, {b}): weight must be positive, got {w}")

    order = _topological_order(len(tasks), edges)
    return TaskGraph(tuple(tasks), dict(edges), order)


def _topological_order(n, edges):
    """Kahn's algorithm; ties broken by task id. Raises CycleError."""
    indeg = [0] * n
    succs = {i: [] for i in range(n)}
    for (a, b) in edges:
        indeg[b] += 1
        succs[a].append(b)
    ready = sorted(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        ready.sort()
        node = ready.pop(0)
        order.append(node)
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                ready.append(nxt)
    if len(order) != n:
        stuck = sorted(i for i in range(n) if indeg[i] > 0)
        raise CycleError(f"dependency cycle through tasks {stuck}")
    return tuple(order)


def random_task_graph(n, density, seed, wcet_range=(1, 20), weight_range=(1, 10)):
    """Random layered-free DAG: each pair (i, j), i < j, becomes an edge
    with probability `density`; edge direction follows task id order so
    the result is acyclic by construction.  Deterministic for a seed.
    """
    if type(n) is not int:
        raise RangeError(f"task count must be an int, got {n!r}")
    if n <= 0:
        raise RangeError(f"task count must be positive, got {n}")
    if not 0.0 <= density <= 1.0:
        raise RangeError(f"density must be in [0, 1], got {density}")
    rng = random.Random(seed)
    tasks = [Task(i, rng.randint(*wcet_range)) for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges[(i, j)] = rng.randint(*weight_range)
    return build_task_graph(tasks, edges)


# ---------------------------------------------------------------------------
# Clustering


class ClusteredTaskGraph:
    """Coarsened view of a TaskGraph: clusters are mapped as units.

    Holds the task graph and the partition only; the mapper derives
    the edges between units from the task graph (mapsched._Search).
    """

    def __init__(self, tg, clusters):
        self.tg = tg
        self.clusters = clusters            # tuple of frozenset, canonical order


def _canonical_clusters(groups):
    groups = [frozenset(g) for g in groups if g]
    return tuple(sorted(groups, key=min))


def cluster_tasks(tg, k, heuristic="greedy-merge", seed=0):
    """Partition tasks into exactly k non-empty clusters, minimizing the
    total weight of inter-cluster edges.

    heuristic: "greedy-merge" repeatedly merges the cluster pair joined
    by the heaviest inter-cluster weight; "local-search" refines that
    result with seeded single-task moves.
    """
    m = len(tg)
    if not 1 <= k <= m:
        raise InfeasibleK(f"cluster count must be in 1..{m}, got {k}")

    groups = _merge(tg, k)
    if heuristic == "local-search":
        groups = _local_search(tg, groups, seed)
    elif heuristic != "greedy-merge":
        raise RangeError(f"unknown clustering heuristic {heuristic!r}")

    return ClusteredTaskGraph(tg, _canonical_clusters(groups))


def _edge_weights(tg):
    """Per task, dict neighbour task -> weight of the edge between
    them, in either direction."""
    adj = [{} for _ in range(len(tg))]
    for (a, b), w in tg.edges.items():
        adj[a][b] = adj[b][a] = w
    return adj


def _merge(tg, k):
    """Groups, by smallest task id, after merging singletons down to k.
    Each merge joins the pair with the lowest key (-weight between
    them, smaller smallest id, larger smallest id), so with no weight
    left the two groups with the lowest smallest ids.  A group is named
    by its smallest id, which a merge keeps; the weights between groups
    are kept and updated on each merge, and a heap of keys skips those
    a merge made stale."""
    weight = _edge_weights(tg)              # group -> {group: weight}
    members = {t: {t} for t in range(len(tg))}
    alive = list(range(len(tg)))            # group names, ascending
    heap = [(-w, a, b) for a, ws in enumerate(weight) for b, w in ws.items()
            if a < b]
    heapq.heapify(heap)
    while len(alive) > k:
        while heap:
            w, a, b = heapq.heappop(heap)
            if a in members and b in members and weight[a][b] == -w:
                break
        else:
            a, b = alive[:2]
        members[a] |= members.pop(b)
        alive.remove(b)
        into = weight[a]
        into.pop(b, None)
        for c, w in weight[b].items():
            if c != a:
                del weight[c][b]
                into[c] = weight[c][a] = into.get(c, 0) + w
                heapq.heappush(heap, (-into[c], min(a, c), max(a, c)))
        weight[b] = None
    return [members[a] for a in alive]


# At most this many shuffled passes of local-search clustering.
LOCAL_SEARCH_ROUNDS = 50


def _local_search(tg, groups, seed):
    """Move single tasks between clusters while the cut improves.

    Moves that would empty a cluster are skipped (k is fixed).  Moving
    t from S to D lowers the cut by w(t, D) - w(t, S - {t}), w being
    the weight of t's edges into a group, so a move is taken iff t
    weighs more towards D than towards the rest of its own group."""
    rng = random.Random(seed)
    groups = [set(g) for g in groups]
    owner = [0] * len(tg)
    for gi, g in enumerate(groups):
        for t in g:
            owner[t] = gi
    adj = _edge_weights(tg)
    for _ in range(LOCAL_SEARCH_ROUNDS):
        improved = False
        tasks = list(range(len(tg)))
        rng.shuffle(tasks)
        for t in tasks:
            src = owner[t]
            if len(groups[src]) == 1:
                continue
            towards = [0] * len(groups)     # group -> w(t, group - {t})
            for u, w in adj[t].items():
                towards[owner[u]] += w
            for dst in range(len(groups)):
                if dst != src and towards[dst] > towards[src]:
                    groups[src].remove(t)
                    groups[dst].add(t)
                    owner[t] = src = dst
                    improved = True
        if not improved:
            break
    return groups


# ---------------------------------------------------------------------------
# Platform


@dataclass(frozen=True)
class Tile:
    id: int
    coords: tuple


@dataclass(frozen=True)
class Link:
    """One directed mesh link. `direction` is the output port at `src`;
    the arrival port at `dst` is the opposite direction."""

    id: int
    src: int
    dst: int
    direction: str


class ArchitectureGraph:
    """Mesh of tiles (router plus processing element each)."""

    def __init__(self, dims, tiles, links):
        self.dims = dims                    # (w, h) or (w, h, d)
        self.tiles = tiles                  # tuple of Tile, index == id
        self.links = links                  # tuple of Link, index == id
        self.turns = TURN_SLOTS_3D if self.is_3d else TURN_SLOTS_2D
        self.turn_slot = {t: i for i, t in enumerate(self.turns)}
        self._link_at = {(link.src, link.direction): link for link in links}

    def __len__(self):
        return len(self.tiles)

    @property
    def is_3d(self):
        return len(self.dims) == 3

    def directions(self):
        return DIRS_3D if self.is_3d else DIRS_2D

    def check_tile(self, tile_id):
        """`tile_id` if it is an int (not a bool) naming a tile."""
        if type(tile_id) is not int or not 0 <= tile_id < len(self.tiles):
            raise UnknownTile(f"tile {tile_id!r} outside mesh of {len(self.tiles)}")
        return tile_id

    def check_element(self, element):
        """`element` if it is a health element of this mesh: ("pe",
        tile), ("turn", tile, slot) or ("link", link_id), every id an int
        (not a bool) in range.  A bad tile raises UnknownTile, anything
        else UnknownTarget."""
        kind = element[0] if isinstance(element, tuple) and element else None
        if kind == "pe" and len(element) == 2:
            self.check_tile(element[1])
        elif kind == "turn" and len(element) == 3:
            self.check_tile(element[1])
            if type(element[2]) is not int or not 0 <= element[2] < len(self.turns):
                raise UnknownTarget(
                    f"turn slot {element[2]!r} outside 0..{len(self.turns) - 1}")
        elif kind == "link" and len(element) == 2:
            n = len(self.links)
            if type(element[1]) is not int or not 0 <= element[1] < n:
                raise UnknownTarget(f"link {element[1]!r} outside 0..{n - 1}")
        else:
            raise UnknownTarget(f"not a health-map element: {element!r}")
        return element

    def coords(self, tile_id):
        return self.tiles[self.check_tile(tile_id)].coords

    def neighbor(self, tile_id, direction):
        """Neighbor tile id in `direction`, or None at the boundary."""
        return getattr(self.link(tile_id, direction), "dst", None)

    def link(self, tile_id, direction):
        """Outgoing link from tile in `direction`, or None at the boundary."""
        return self._link_at.get((tile_id, direction))


def build_mesh(width, height, depth=None):
    """Regular 2D (or, with depth, 3D) mesh with bidirectional links
    between lattice neighbors.  Link ids are assigned in (tile id,
    direction order) so enumeration is canonical.
    """
    dims = (width, height) if depth is None else (width, height, depth)
    if any(type(d) is not int for d in dims):
        raise RangeError(f"mesh dimensions must be ints, got {dims}")
    if any(d <= 0 for d in dims):
        raise ZeroDimensionError(f"mesh dimensions must be positive, got {dims}")

    w, h = width, height
    d = depth if depth is not None else 1
    tiles = []
    for z in range(d):
        for y in range(h):
            for x in range(w):
                tid = x + y * w + z * w * h
                coords = (x, y) if depth is None else (x, y, z)
                tiles.append(Tile(tid, coords))

    dirs = DIRS_3D if depth is not None else DIRS_2D
    links = []
    for tile in tiles:
        x, y = tile.coords[0], tile.coords[1]
        z = tile.coords[2] if depth is not None else 0
        for direction in dirs:
            dx, dy, dz = DIR_VECTORS[direction]
            nx, ny, nz = x + dx, y + dy, z + dz
            if 0 <= nx < w and 0 <= ny < h and 0 <= nz < d:
                dst = nx + ny * w + nz * w * h
                links.append(Link(len(links), tile.id, dst, direction))

    return ArchitectureGraph(dims, tuple(tiles), tuple(links))

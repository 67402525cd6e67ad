"""Per-output unreachable-destination tracking.

For every (tile, output port) the routing graph induces a set of
destinations that port can no longer deliver to.  The sets are read off
the routing graph's reachability index (RoutingGraph.reach_bits), one
pass over the graph that gives every port node the bitset of tiles it
reaches.  Each set is stored compressed as at most `budget`
axis-aligned rectangles (two inclusive corners), found with a
summed-area table.  Compression may only over-approximate: a packet
whose destination is covered on every output port of its source is
dropped at injection instead of wandering, and a false positive merely
drops a packet conservatively, never forwards one into a dead end.

A table keeps each port's exact set.  A rebuild after a fault is given
the previous table and copies the rectangles of every port whose set
did not change; the cover depends on the set, the mesh and the budget
alone, so only the changed ports are covered again.
"""

from dataclasses import dataclass

from .errors import RangeError, RegionBudgetError, SemanticError, UnknownPort
from .routing import PortNode

_PORT_DIRS = ("N", "E", "W", "S", "U", "D")


@dataclass(frozen=True)
class Rectangle:
    """Inclusive axis-aligned box; works for 2D and 3D coords."""

    lo: tuple
    hi: tuple

    def contains(self, coords):
        return all(l <= c <= h for l, c, h in zip(self.lo, coords, self.hi))

    def area(self):
        size = 1
        for l, h in zip(self.lo, self.hi):
            size *= h - l + 1
        return size

    def bounding(self, other):
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Rectangle(lo, hi)


def unreachable_set(rg, tile, direction):
    """Destinations (tile ids, excluding `tile` itself) with no routing
    graph path from this output port to their local-out node.

    Only neighbor-backed directions are ports; asking about a boundary
    direction (or a 1x1 mesh, which has none) raises UnknownPort.
    """
    ag = rg.ag
    ag.check_tile(tile)
    if direction not in _PORT_DIRS or ag.neighbor(tile, direction) is None:
        raise UnknownPort(f"tile {tile} has no {direction} output port")
    return set(_tiles_of(_unreachable_bits(rg, tile, direction)))


def _unreachable_bits(rg, tile, direction):
    everyone = (1 << len(rg.ag)) - 1
    reach = rg.reach_bits()[PortNode(tile, direction, "out")]
    return everyone & ~reach & ~(1 << tile)


def _tiles_of(bits):
    """Tile ids of a bitset, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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
        rects.append(_largest_rectangle(remaining))
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


def _largest_rectangle(cells):
    """Largest box fully contained in `cells`; ties go to the smallest
    (lo, hi).

    Candidates are boxes over the occupied coordinates, visited with
    x1, x2, y1, y2, z1, z2 nested in that order.  Containment is one
    lookup in a 3D summed-area table over the cells' bounding box: a
    box lies inside `cells` iff it holds as many cells as its volume.
    A box that is not contained stays so when it grows, so a miss ends
    the widening it was reached by, and a loop whose boxes cannot reach
    the best area so far ends early; what that skips cannot be chosen.
    """
    xs = sorted({c[0] for c in cells})
    ys = sorted({c[1] for c in cells})
    zs = sorted({c[2] for c in cells})
    ox, oy, oz = xs[0], ys[0], zs[0]
    # sat[x + y*sx + z*sxy] counts the cells with all three coordinates
    # (shifted by the origin) below x, y and z.
    sx, sy = xs[-1] - ox + 2, ys[-1] - oy + 2
    sxy = sx * sy
    sat = [0] * (sxy * (zs[-1] - oz + 2))
    for x, y, z in cells:
        sat[(x - ox + 1) + (y - oy + 1) * sx + (z - oz + 1) * sxy] = 1
    for i in range(1, len(sat)):
        if i % sx:
            sat[i] += sat[i - 1]
    for i in range(sx, len(sat)):
        if i % sxy >= sx:
            sat[i] += sat[i - sx]
    for i in range(sxy, len(sat)):
        sat[i] += sat[i - sxy]

    n = len(cells)
    zspan = zs[-1] - oz + 1
    best_area = 0
    best = None
    for x1 in xs:
        if (xs[-1] - x1 + 1) * (sy - 1) * zspan < best_area:
            break
        a1 = x1 - ox
        for x2 in (x for x in xs if x >= x1):
            b1 = x2 - ox + 1
            dx = x2 - x1 + 1
            widen_x = False
            for y1 in ys:
                if dx * (ys[-1] - y1 + 1) * zspan < best_area:
                    widen_x = True          # a wider x2 may still win
                    break
                a2 = (y1 - oy) * sx
                for y2 in (y for y in ys if y >= y1):
                    dxy = dx * (y2 - y1 + 1)
                    if dxy > n:
                        break
                    b2 = (y2 - oy + 1) * sx
                    widen_y = False
                    for z1 in zs:
                        a3 = (z1 - oz) * sxy
                        for z2 in (z for z in zs if z >= z1):
                            area = dxy * (z2 - z1 + 1)
                            if area > n:
                                break
                            b3 = (z2 - oz + 1) * sxy
                            inside = (sat[b1 + b2 + b3] - sat[a1 + b2 + b3]
                                      - sat[b1 + a2 + b3] - sat[b1 + b2 + a3]
                                      + sat[a1 + a2 + b3] + sat[a1 + b2 + a3]
                                      + sat[b1 + a2 + a3] - sat[a1 + a2 + a3])
                            if inside != area:
                                break
                            widen_y = True
                            box = ((x1, y1, z1), (x2, y2, z2))
                            if area > best_area or (area == best_area and box < best):
                                best_area = area
                                best = box
                    if not widen_y:
                        break
                    widen_x = True
            if not widen_x:
                break
    return Rectangle(*best)


class PortRegionTable:
    """Compressed unreachable-destination rectangles for every
    neighbor-backed output port, plus local deliverability per tile."""

    def __init__(self, ag, budget, rects, local_ok, unreach=None):
        self.ag = ag
        self.budget = budget
        self._rects = rects                 # (tile, dir) -> tuple of Rectangle
        self._local_ok = local_ok           # tile -> bool
        self._unreach = unreach or {}       # (tile, dir) -> exact tile bitset

    def ports(self, tile):
        return sorted(d for (t, d) in self._rects if t == tile)

    def rectangles(self, tile, direction):
        if (tile, direction) not in self._rects:
            raise UnknownPort(f"tile {tile} has no {direction} output port")
        return self._rects[(tile, direction)]

    def covered(self, tile, direction, dst):
        coords = self.ag.coords(dst)
        return any(r.contains(coords) for r in self.rectangles(tile, direction))

    def local_ok(self, tile):
        return self._local_ok[self.ag.check_tile(tile)]

    def dump(self):
        lines = [f"budget {self.budget}"]
        for (tile, direction) in sorted(self._rects, key=lambda k: (k[0], k[1])):
            rects = self._rects[(tile, direction)]
            body = " ".join(f"{r.lo}-{r.hi}" for r in rects) if rects else "-"
            lines.append(f"tile {tile} {direction}: {body}")
        for tile in range(len(self.ag)):
            lines.append(f"tile {tile} local: {'ok' if self._local_ok[tile] else 'broken'}")
        return "\n".join(lines) + "\n"


def build_region_tables(rg, budget=4, prev=None):
    """Tables for every tile and neighbor-backed output direction of the
    routing graph's platform.

    `prev`, the tables of an earlier graph of the same platform and
    budget, lends its rectangles to every port whose unreachable set is
    unchanged; the cover depends on nothing else, so the result is the
    same as a cold build.  Any other `prev` is ignored.
    """
    if budget < 1:
        raise RegionBudgetError(f"rectangle budget must be >= 1, got {budget}")
    ag = rg.ag
    reuse = prev is not None and prev.ag is ag and prev.budget == budget
    rects = {}
    unreach = {}
    local_ok = []
    for tile in range(len(ag)):
        for direction in ag.directions():
            if ag.neighbor(tile, direction) is None:
                continue
            key = (tile, direction)
            bits = unreach[key] = _unreachable_bits(rg, tile, direction)
            if reuse and prev._unreach.get(key) == bits:
                rects[key] = prev._rects[key]
            else:
                coords = {ag.coords(d) for d in _tiles_of(bits)}
                rects[key] = cover_rectangles(coords, ag.dims, budget)
        local_ok.append(rg.local_out(tile) in rg.adj[rg.local_in(tile)])
    return PortRegionTable(ag, budget, rects, local_ok, unreach)


def should_drop(tables, src, dst):
    """True iff no output port of `src` can deliver to `dst` (self
    delivery counts as the local port).  Over-approximate only: a True
    may be conservative after compression, a False never is wrong at
    the per-port level."""
    ag = tables.ag
    ag.check_tile(src)
    ag.check_tile(dst)
    if src == dst:
        return not tables.local_ok(src)
    for direction in tables.ports(src):
        if not tables.covered(src, direction, dst):
            return False
    return True


# ---------------------------------------------------------------------------
# Region partitioning


class RegionFilter:
    """Consumed by build_routing_graph: suppresses external edges that
    cross region borders and assigns each region its own turn model."""

    def __init__(self, labels, turn_models):
        self._labels = labels               # tile -> label
        self._models = turn_models          # label -> TurnModel or None

    def label_of(self, tile):
        return self._labels[tile]

    def crosses(self, src, dst):
        return self._labels[src] != self._labels[dst]

    def turn_model_for(self, tile):
        return self._models.get(self._labels[tile])


def partition(ag, labels, turn_models=None):
    """Build the routing-graph edge filter for a region assignment.

    labels: dict tile id -> region label; missing tiles get "default".
    turn_models: optional dict label -> TurnModel override.
    """
    full = {}
    for t in range(len(ag)):
        full[t] = labels.get(t, "default")
    for t in labels:
        ag.check_tile(t)
    models = dict(turn_models or {})
    known = set(full.values())
    for label in models:
        if label not in known:
            raise SemanticError(f"turn model for unknown region {label!r}")
    return RegionFilter(full, models)

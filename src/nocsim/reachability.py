"""Per-output unreachable-destination tracking.

For every (tile, output port) the routing graph induces a set of
destinations that port can no longer deliver to.  The sets are read off
the routing graph's reachability index (RoutingGraph.reach_by_id), one
pass over the graph that gives every port node the bitset of tiles it
reaches.  Each set is stored compressed as at most `budget`
axis-aligned rectangles (two inclusive corners), found on the set's row
masks: the x bits of each mesh row, ANDed over a range of rows, give
the boxes that range holds.  Compression may only over-approximate: a
packet whose destination is covered on every output port of its source
is dropped at injection instead of wandering, and a false positive
merely drops a packet conservatively, never forwards one into a dead
end.

A table keeps its port list and its graph's reach bits (the list, not
the graph).  A rebuild after a fault is given the previous table,
walks its port list and copies the rectangles of every port whose reach
bits did not change; a port's set depends on its bits alone, and the
cover on the set, the mesh and the budget alone, so only the changed
ports are covered again.  Within one build, ports with equal sets share
one cover.
"""

from dataclasses import dataclass

from .errors import RangeError, RegionBudgetError, SemanticError, UnknownPort


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


def _unreachable_bits(reach, tile, n):
    """The tiles other than `tile`, of `n`, missing from a port's reach
    bitset."""
    return ((1 << n) - 1) & ~reach & ~(1 << tile)


def cover_rectangles(dest_set, dims, budget):
    """Cover a destination set with at most `budget` rectangles.

    `dest_set` is an iterable of tile coords, or an int whose bit
    x + (y + z*h)*w is set for each destination (w, h = dims[:2]): the
    tile-id bitset of a mesh built by build_mesh.

    First an exact cover: repeatedly extract the largest rectangle fully
    inside the remaining set (ties: lexicographically smallest corners).
    If that exceeds the budget, repeatedly merge the pair with the
    smallest bounding box (ties by the lowest tile id of the box
    corners), which may over-approximate but never under-approximate.
    A cell or bit outside the mesh raises RangeError.
    """
    w, h = dims[0], dims[1]
    dims3 = dims if len(dims) == 3 else (w, h, 1)
    if isinstance(dest_set, int):
        bits = dest_set
    else:
        bits = 0
        for c in dest_set:
            x, y, z = c[0], c[1], (c[2] if len(c) == 3 else 0)
            if not (0 <= x < w and 0 <= y < h and 0 <= z < dims3[2]):
                raise RangeError(f"cell {c} is outside the {dims} mesh")
            bits |= 1 << (x + (y + z * h) * w)
    if bits < 0 or bits >> (w * h * dims3[2]):
        raise RangeError(f"tile bitset names a tile outside the {dims} mesh")
    if not bits:
        return ()
    if budget < 1:
        raise RegionBudgetError(
            f"budget {budget} cannot cover {bits.bit_count()} destinations"
        )

    rects = _exact_cover(bits, dims3)

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


def _exact_cover(bits, dims3):
    """Largest boxes, one after another, until none of the tile bitset
    `bits` (bit x + (y + z*h)*w per cell) is left.

    The set is held as row masks, rows[z*h + y] = the x bits of row
    (y, z).  A box over rows y1..y2 of layers z1..z2 lies inside the set
    iff its x bits are set in the AND of those rows.  A chosen box is
    subtracted by clearing its x bits in its rows.
    """
    w, h, d = dims3
    full = (1 << w) - 1
    rows = [bits >> (r * w) & full for r in range(h * d)]
    rects = []
    while True:
        box = _largest_box(rows, h, d)
        if box is None:
            return rects
        (x1, y1, z1), (x2, y2, z2) = box
        keep = ~(((1 << (x2 - x1 + 1)) - 1) << x1)
        for z in range(z1, z2 + 1):
            for y in range(y1, y2 + 1):
                rows[z * h + y] &= keep
        rects.append(Rectangle(*box))


def _largest_box(rows, h, d):
    """Largest box inside the row-mask set, as (lo, hi) corners; ties go
    to the smallest (lo, hi).  None when the set is empty.

    For each range of layers z1..z2 and rows y1..y2, the AND of its rows
    holds the x positions a box over that range may span.  At one range
    only the first longest run of ones can win: a shorter run has less
    area, and a later run of equal length a larger x1.  Three cuts keep
    every largest box:
      - a row y1 whose row above holds all its bits starts none, since
        the box one row taller has the same x span and more area;
      - widening a range only clears bits and shortens runs, so a range
        whose set bits, or whose longest run, times the widest y span
        still open, fall short of the best area ends its widening;
      - the run is found again only when the AND changed.
    """
    best_area = 0
    best = None
    for z1 in range(d):
        layer = rows[z1 * h:(z1 + 1) * h]
        for z2 in range(z1, d):
            if z2 > z1:
                above = rows[z2 * h:(z2 + 1) * h]
                layer = [a & b for a, b in zip(layer, above)]
            if not any(layer):
                break
            dz = z2 - z1 + 1
            for y1 in range(h):
                m = layer[y1]
                if not m or (y1 and layer[y1 - 1] & m == m):
                    continue
                span = (h - y1) * dz
                last = 0
                for y2 in range(y1, h):
                    if y2 > y1:
                        m &= layer[y2]
                        if not m:
                            break
                    if m != last:
                        if m.bit_count() * span < best_area:
                            break
                        # After k - 1 steps, bit x of run is set iff
                        # x..x+k-1 are all set in m.
                        last = run = m
                        k = 1
                        while True:
                            longer = run & (run >> 1)
                            if not longer:
                                break
                            run = longer
                            k += 1
                        if k * span < best_area:
                            break
                        x1 = (run & -run).bit_length() - 1
                    area = k * (y2 - y1 + 1) * dz
                    if area < best_area:
                        continue
                    box = ((x1, y1, z1), (x1 + k - 1, y2, z2))
                    if area > best_area or box < best:
                        best_area = area
                        best = box
    return best


class PortRegionTable:
    """Compressed unreachable-destination rectangles for every
    neighbor-backed output port, plus local deliverability per tile."""

    def __init__(self, ag, budget, rects, local_ok, ports, reach):
        self.ag = ag
        self.budget = budget
        self._rects = rects                 # (tile, dir) -> tuple of Rectangle
        self._local_ok = local_ok           # tile -> bool
        self._ports = ports                 # out-port id per _rects key, in order
        self._reach = reach                 # the graph's reach bits, by id

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


def build_region_tables(rg, budget, prev=None):
    """Tables for every tile and neighbor-backed output direction of the
    routing graph's platform.

    `prev`, the tables of an earlier graph of the same platform and
    budget, lends its port list, and its rectangles to every port whose
    reach bits are unchanged; a port's set depends on its reach bits
    alone and the cover on the set, the mesh and the budget, so the
    result is the same as a cold build.  Any other `prev` is ignored.
    """
    if budget < 1:
        raise RegionBudgetError(f"rectangle budget must be >= 1, got {budget}")
    ag = rg.ag
    reach = rg.reach_by_id()
    if prev is not None and prev.ag is ag and prev.budget == budget:
        keys = old_rects = prev._rects
        ports, old_reach = prev._ports, prev._reach
    else:
        keys = [(tile, d) for tile in range(len(ag)) for d in ag.directions()
                if ag.neighbor(tile, d) is not None]
        ports = tuple(rg.port_id(tile, d, "out") for tile, d in keys)
        old_reach = None
    rects = {}
    covers = {}                             # unreachable set -> its cover
    for key, port in zip(keys, ports):
        bits = reach[port]
        if old_reach is not None and old_reach[port] == bits:
            rects[key] = old_rects[key]
            continue
        unreach = _unreachable_bits(bits, key[0], len(ag))
        cover = covers.get(unreach)
        if cover is None:
            cover = covers[unreach] = cover_rectangles(unreach, ag.dims, budget)
        rects[key] = cover
    local_ok = [rg.port_id(t, "L", "out") in rg.succ[rg.port_id(t, "L", "in")]
                for t in range(len(ag))]
    return PortRegionTable(ag, budget, rects, local_ok, ports, reach)


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

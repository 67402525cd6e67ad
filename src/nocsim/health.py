"""System health map: the set of broken health elements, plus a per-PE
aging byte.

A health element is ("pe", tile), ("turn", tile, slot) or ("link",
link_id), the one vocabulary that degrade_targets, apply_fault,
RoutingGraph.without and flow_elements share;
ArchitectureGraph.check_element is its one check.  The writer and the
checked readers (turn_healthy, link_healthy) call it, while
pe_usable and effective_wcet, on the scoring path, do not.  The map
holds `broken`, the set of elements that have failed; every other
element is healthy.  The map has a single writer (the fault-management
unit); the mapping/scheduling side reads `broken` and the reader
operations and never writes.  A snapshot is exactly that state (the
mesh dimensions, the broken set frozen, the aging bytes), so equal
states give equal, hashable snapshots.  The canonical text
serialization fixes the element order (tiles ascending, turn slots in
the platform's canonical order, ag.turns from graphs.TURN_SLOTS_2D/3D,
links ascending, aging bytes) and is the preimage of the 64-bit
configuration tag.
"""

import hashlib
from dataclasses import dataclass

from .errors import DimensionMismatch, RangeError
from .graphs import DIRS_2D, TURN_SLOTS_2D


@dataclass(frozen=True)
class ShmSnapshot:
    """Frozen copy of a health map's full state."""

    dims: tuple
    broken: frozenset
    aging: tuple


class SystemHealthMap:
    """Mutable health state for one platform."""

    def __init__(self, ag):
        self.ag = ag
        self.broken = set()                 # broken health elements
        self._aging = [0] * len(ag)

    # -- readers -----------------------------------------------------------

    def turn_healthy(self, tile, slot):
        return self.ag.check_element(("turn", tile, slot)) not in self.broken

    def link_healthy(self, link_id):
        return self.ag.check_element(("link", link_id)) not in self.broken

    def pe_usable(self, tile):
        """Usable for mapping work: healthy and not fully aged out."""
        return ("pe", tile) not in self.broken and self._aging[tile] < 100

    def effective_wcet(self, tile, wcet):
        """Worst-case cycles of a task on this tile after the aging
        frequency decrement; rounded up to whole cycles."""
        dec = self._aging[tile]
        if dec >= 100:
            raise RangeError(f"tile {tile} fully aged out, no effective wcet")
        return -(-wcet * 100 // (100 - dec))

    def serialize(self):
        """Canonical text form; identical states serialize identically."""
        b = self.broken
        tiles = range(len(self.ag))
        slots = range(len(self.ag.turns))
        lines = [f"pe {t} {'B' if ('pe', t) in b else 'H'}" for t in tiles]
        lines += [f"turn {t} {s} {'B' if ('turn', t, s) in b else 'H'}"
                  for t in tiles for s in slots]
        lines += [f"link {l} {'B' if ('link', l) in b else 'H'}"
                  for l in range(len(self.ag.links))]
        lines += [f"aging {t} {a}" for t, a in enumerate(self._aging)]
        return "\n".join(lines) + "\n"

    def snapshot(self):
        return ShmSnapshot(self.ag.dims, frozenset(self.broken),
                           tuple(self._aging))

    # -- writer operations -------------------------------------------------

    def apply_fault(self, fault):
        """Mark one element Broken.  Idempotent.  fault is one of
        ("pe", tile), ("turn", tile, slot), ("link", link_id)."""
        self.broken.add(self.ag.check_element(fault))

    def set_aging(self, tile, percent):
        """Record the frequency decrement (0..100) of a tile's PE."""
        self.ag.check_tile(tile)
        if type(percent) is not int or not 0 <= percent <= 100:
            raise RangeError(f"aging decrement must be an int in 0..100, got {percent!r}")
        self._aging[tile] = percent

    def restore(self, snap):
        """Reset the state to a snapshot taken from the same platform."""
        if snap.dims != self.ag.dims:
            raise DimensionMismatch(
                f"snapshot for mesh {snap.dims} does not fit mesh {self.ag.dims}"
            )
        self.broken = set(snap.broken)
        self._aging = list(snap.aging)


def shm_tag(shm):
    """64-bit tag of the canonical serialization.  Collisions are
    possible in principle, so cache consumers must verify against the
    stored full configuration."""
    return config_tag(shm.serialize())


def config_tag(full_config):
    """shm_tag of the health map whose serialization is `full_config`."""
    digest = hashlib.blake2b(full_config.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Per-router routing bits


@dataclass(frozen=True)
class LbdrConfig:
    """Connectivity and routing bits of one router.

    connectivity: dir -> bit, 1 iff the outgoing link in that direction
    exists and is healthy.  routing: (arrival port, output port) -> bit,
    1 iff the turn is allowed by the turn model and its health slot is
    intact.  Straight-through and local connections carry no bits.
    """

    tile: int
    connectivity: dict
    routing: dict


def derive_lbdr_config(shm, turn_model, tile):
    """Planar routing bits of `tile` under `turn_model` and the current
    health state.  On 3D platforms this is the planar slice."""
    ag = shm.ag
    ag.check_tile(tile)
    connectivity = {}
    for d in DIRS_2D:
        link = ag.link(tile, d)
        connectivity[d] = 1 if (link is not None and shm.link_healthy(link.id)) else 0
    routing = {}
    for slot, (a, b) in enumerate(TURN_SLOTS_2D):
        allowed = turn_model.allows(a, b) and shm.turn_healthy(tile, slot)
        routing[(a, b)] = 1 if allowed else 0
    return LbdrConfig(tile, connectivity, routing)

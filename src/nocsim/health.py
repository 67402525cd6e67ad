"""System health map: one binary health value per processing element,
per router turn, and per directed link, plus a per-PE aging byte.

The map has a single writer (the fault-management unit); the
mapping/scheduling side reads the SystemHealthMap directly and calls
only its reader operations.  The canonical text serialization fixes the
element order (tiles ascending, turn slots in canonical order, links
ascending, aging bytes) and is the preimage of the 64-bit configuration
tag.
"""

import hashlib
from dataclasses import dataclass

from .errors import DimensionMismatch, RangeError, UnknownTarget
from .routing import turn_slots

HEALTHY = True
BROKEN = False


@dataclass(frozen=True)
class ShmSnapshot:
    """Frozen copy of a health map's full state."""

    dims: tuple
    pe: tuple
    turns: tuple
    links: tuple
    aging: tuple


class SystemHealthMap:
    """Mutable health state for one platform."""

    def __init__(self, ag):
        self.ag = ag
        n = len(ag)
        self._slots = turn_slots(ag.is_3d)
        self._pe = [HEALTHY] * n
        self._turns = [[HEALTHY] * len(self._slots) for _ in range(n)]
        self._links = [HEALTHY] * len(ag.links)
        self._aging = [0] * n

    # -- readers -----------------------------------------------------------

    def pe_healthy(self, tile):
        self.ag.check_tile(tile)
        return self._pe[tile]

    def turn_healthy(self, tile, slot):
        self.ag.check_tile(tile)
        if not 0 <= slot < len(self._slots):
            raise UnknownTarget(f"turn slot {slot} outside 0..{len(self._slots) - 1}")
        return self._turns[tile][slot]

    def link_healthy(self, link_id):
        self._check_link(link_id)
        return self._links[link_id]

    def aging(self, tile):
        self.ag.check_tile(tile)
        return self._aging[tile]

    def pe_usable(self, tile):
        """Usable for mapping work: healthy and not fully aged out."""
        return self._pe[tile] and self._aging[tile] < 100

    def effective_wcet(self, tile, wcet):
        """Worst-case cycles of a task on this tile after the aging
        frequency decrement; rounded up to whole cycles."""
        dec = self._aging[tile]
        if dec >= 100:
            raise RangeError(f"tile {tile} fully aged out, no effective wcet")
        return -(-wcet * 100 // (100 - dec))

    def serialize(self):
        """Canonical text form; identical states serialize identically."""
        lines = []
        for t in range(len(self.ag)):
            lines.append(f"pe {t} {'H' if self._pe[t] else 'B'}")
        for t in range(len(self.ag)):
            for s in range(len(self._slots)):
                lines.append(f"turn {t} {s} {'H' if self._turns[t][s] else 'B'}")
        for l in range(len(self._links)):
            lines.append(f"link {l} {'H' if self._links[l] else 'B'}")
        for t in range(len(self.ag)):
            lines.append(f"aging {t} {self._aging[t]}")
        return "\n".join(lines) + "\n"

    def snapshot(self):
        return ShmSnapshot(
            dims=self.ag.dims,
            pe=tuple(self._pe),
            turns=tuple(tuple(row) for row in self._turns),
            links=tuple(self._links),
            aging=tuple(self._aging),
        )

    # -- writer operations -------------------------------------------------

    def apply_fault(self, fault):
        """Mark one element Broken.  Idempotent.  fault is one of
        ("pe", tile), ("turn", tile, slot), ("link", link_id)."""
        kind = fault[0] if isinstance(fault, tuple) and fault else None
        if kind == "pe" and len(fault) == 2:
            self.ag.check_tile(fault[1])
            self._pe[fault[1]] = BROKEN
        elif kind == "turn" and len(fault) == 3:
            tile, slot = fault[1], fault[2]
            self.ag.check_tile(tile)
            if not 0 <= slot < len(self._slots):
                raise UnknownTarget(
                    f"turn slot {slot} outside 0..{len(self._slots) - 1}"
                )
            self._turns[tile][slot] = BROKEN
        elif kind == "link" and len(fault) == 2:
            self._check_link(fault[1])
            self._links[fault[1]] = BROKEN
        else:
            raise UnknownTarget(f"not a health-map element: {fault!r}")

    def set_aging(self, tile, percent):
        """Record the frequency decrement (0..100) of a tile's PE."""
        self.ag.check_tile(tile)
        if not isinstance(percent, int) or not 0 <= percent <= 100:
            raise RangeError(f"aging decrement must be an int in 0..100, got {percent!r}")
        self._aging[tile] = percent

    def restore(self, snap):
        """Reset the state to a snapshot taken from the same platform."""
        n = len(self.ag)
        ok = (
            snap.dims == self.ag.dims
            and len(snap.pe) == n
            and len(snap.turns) == n
            and all(len(row) == len(self._slots) for row in snap.turns)
            and len(snap.links) == len(self._links)
            and len(snap.aging) == n
        )
        if not ok:
            raise DimensionMismatch(
                f"snapshot for mesh {snap.dims} does not fit mesh {self.ag.dims}"
            )
        self._pe = list(snap.pe)
        self._turns = [list(row) for row in snap.turns]
        self._links = list(snap.links)
        self._aging = list(snap.aging)

    def _check_link(self, link_id):
        if not isinstance(link_id, int) or not 0 <= link_id < len(self._links):
            raise UnknownTarget(f"link {link_id!r} outside 0..{len(self._links) - 1}")


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

    def dump(self):
        c = self.connectivity
        conn = " ".join(f"C_{d.lower()}={c[d]}" for d in ("N", "E", "W", "S"))
        rout = " ".join(
            f"R_{a.lower()}{b.lower()}={bit}" for (a, b), bit in sorted(self.routing.items())
        )
        return f"tile {self.tile}: {conn} {rout}"


def derive_lbdr_config(shm, turn_model, tile):
    """Planar routing bits of `tile` under `turn_model` and the current
    health state.  On 3D platforms this is the planar slice."""
    ag = shm.ag
    ag.check_tile(tile)
    connectivity = {}
    for d in ("N", "E", "W", "S"):
        link = ag.link(tile, d)
        connectivity[d] = 1 if (link is not None and shm.link_healthy(link.id)) else 0
    routing = {}
    for slot, (a, b) in enumerate(turn_slots(False)):
        allowed = turn_model.allows(a, b) and shm.turn_healthy(tile, slot)
        routing[(a, b)] = 1 if allowed else 0
    return LbdrConfig(tile, connectivity, routing)

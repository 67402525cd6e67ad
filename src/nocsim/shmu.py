"""Fault management: classify checker events, decide severity, predict
locations about to fail for good, and keep precomputed mappings ready.

The manager is the single writer of the health map.  A permanent fault
is recorded there and triggers a remap when the broken element carries
current work.  Intermittent faults trigger precomputation: each of the
top predicted locations is applied to a copy of the health map (the
live map is only read), mapped, and the result is stored in a
fixed-capacity memory keyed by a 64-bit tag of the health-map
serialization (verified against the stored full configuration on
lookup, so hash collisions cannot deploy a wrong mapping).  When the
predicted fault later turns permanent the stored assignment is fetched
and only rescheduled, which is much cheaper than running the mapping
heuristic again.  Each decision forms that key once (_lookup) and seeds
the heuristic from its tag.  Msu holds the mapper's settings; a
simkernel.ScenarioScript extends it and is accepted wherever it is.
Msu.schedule is the only code that schedules a mapping with the MSU's
transfer model and routes, for the hit path and the kernel alike.

Reconfiguration latency is accounted in virtual cycles:
  miss: t_rl = t_map_alg + t_par_ext + t_par_map
  hit:  t_rl = t_fetch + t_schd + t_par_ext + t_par_map
with t_map_alg = candidate evaluations x cycles_per_eval and
t_schd = task count x cycles_per_task.  A LatencyReport is given only
the terms of its case (the rest default to 0) and sums t_rl itself.
"""

from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import EmptyHistory, LengthMismatch, RangeError, UnknownTarget
from .errors import InfeasibilityError
from .graphs import OPPOSITE
from .health import SystemHealthMap, config_tag
from .mapsched import (CommModel, SaParams, SCHEDULE_LENGTH, asap_schedule,
                       run_heuristic)
from .rng import derive_seed
from .routing import build_routing_graph

TRANSIENT = "transient"
INTERMITTENT = "intermittent"
PERMANENT = "permanent"

IGNORE = "ignore"
REMAP = "remap"
REMAP_AND_STORE = "remap_and_store"

CHECKER_UNITS = ("routing_logic", "arbiter", "fifo_control", "datapath_parity")
_CONTROL_UNITS = ("routing_logic", "arbiter", "fifo_control")


@dataclass(frozen=True)
class FaultEvent:
    """One checker report.  `retest_persistent` marks a location that
    keeps failing its retest, the immediate permanent signature."""

    time: int
    location: tuple
    retest_persistent: bool = False


@dataclass(frozen=True)
class ClassifierConfig:
    window: int = 10000
    intermittent_threshold: int = 3
    permanent_threshold: int = 8

    def __post_init__(self):
        if self.window <= 0:
            raise RangeError(f"window must be positive, got {self.window}")
        if not self.permanent_threshold >= self.intermittent_threshold >= 2:
            raise RangeError(
                "thresholds must satisfy permanent >= intermittent >= 2, got "
                f"{self.permanent_threshold} and {self.intermittent_threshold}"
            )


def classify(history, config):
    """Transient, intermittent, or permanent from one location's event
    history: permanent on a persistent retest failure or at least
    permanent_threshold events inside the trailing window, intermittent
    at intermittent_threshold, transient otherwise."""
    if not history:
        raise EmptyHistory("no events recorded for this location")
    # The last of the latest events, as the stable sort leaves it.
    if sorted(history, key=lambda e: e.time)[-1].retest_persistent:
        return PERMANENT
    recent = _recent(history, config.window)
    if recent >= config.permanent_threshold:
        return PERMANENT
    if recent >= config.intermittent_threshold:
        return INTERMITTENT
    return TRANSIENT


def _recent(history, window):
    """The count of events at or after the latest time minus `window`."""
    latest = max(e.time for e in history)
    return sum(1 for e in history if e.time >= latest - window)


def degrade_targets(location, ag):
    """Health-map elements broken when `location` fails permanently.

    PE, turn, and link locations map to themselves, once
    ArchitectureGraph.check_element accepts them.  Checker units have
    no individual health slot: a broken control unit (routing logic,
    arbiter, fifo control) takes out every turn of its router; a broken
    datapath takes out every link touching the tile.
    """
    if (isinstance(location, tuple) and len(location) == 3
            and location[0] == "checker"):
        tile, unit = location[1], location[2]
        ag.check_tile(tile)
        if unit in _CONTROL_UNITS:
            return [("turn", tile, s) for s in range(len(ag.turns))]
        if unit == "datapath_parity":
            return [
                ("link", l.id) for l in ag.links if l.src == tile or l.dst == tile
            ]
        raise UnknownTarget(f"unknown checker unit {unit!r}")
    return [ag.check_element(location)]


def flow_elements(flow, ag):
    """The health-map elements `flow` (a FlowPlan) needs: the PEs at its
    ends, the links of its route and the turns it takes.  A link l1
    enters router l1.dst on port opposite(l1.direction) and the next
    link l2 leaves through port l2.direction; two ports at a right angle
    are a turn of that router, two opposite ones a straight pass."""
    steps = [ag.links[l] for l in flow.links]
    turns = [(l1.dst, ag.turn_slot.get((OPPOSITE[l1.direction], l2.direction)))
             for l1, l2 in zip(steps, steps[1:])]
    return ({("pe", flow.src_tile), ("pe", flow.dst_tile)}
            | {("link", l) for l in flow.links}
            | {("turn", t, slot) for t, slot in turns if slot is not None})


def location_used(location, cmm, ag):
    """Does the current deployment run anything over this location?"""
    if cmm.mapping is None:
        return False
    faults = degrade_targets(location, ag)
    return (any(f[0] == "pe" and f[1] in cmm.mapping for f in faults)
            or any(not flow_elements(f, ag).isdisjoint(faults)
                   for f in cmm.schedule.flows))


def severity(location, fault_class, cmm, ag):
    """Action for a classified fault: transients are ignored, a
    permanent fault forces a remap only when the element carries
    current work, an intermittent one triggers precomputation."""
    if fault_class == TRANSIENT:
        return IGNORE
    if fault_class == INTERMITTENT:
        return REMAP_AND_STORE
    if fault_class == PERMANENT:
        return REMAP if location_used(location, cmm, ag) else IGNORE
    raise RangeError(f"unknown fault class {fault_class!r}")


def predict_mpfs(histories, k, config):
    """Most-probable-fault set: locations currently classified as
    intermittent, ranked by event rate in the trailing window
    (descending, ties by location id), truncated to k."""
    if k < 0:
        raise RangeError(f"prediction size must be >= 0, got {k}")
    ranked = []
    for location in sorted(histories):
        history = histories[location]
        if not history:
            continue
        if classify(history, config) != INTERMITTENT:
            continue
        ranked.append((-_recent(history, config.window), location))
    ranked.sort()
    return [loc for _, loc in ranked[:k]]


# ---------------------------------------------------------------------------
# Precomputed-mapping memory


@dataclass(frozen=True)
class MpmEntry:
    tag: int
    full_config: str                        # serialized health map
    assignment: tuple                       # tile per task id


class MpmMemory:
    """Fixed-capacity store of precomputed mappings, evicting the least
    recently stored entry; one entry per tag, newer overwrites."""

    def __init__(self, capacity):
        if capacity < 1:
            raise RangeError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries = OrderedDict()

    def __len__(self):
        return len(self._entries)

    def store(self, entry):
        if entry.tag in self._entries:
            del self._entries[entry.tag]
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[entry.tag] = entry

    def lookup(self, tag, full_config):
        """The entry for `tag`, or None; a tag collision (stored
        configuration differs) is a miss, never a wrong hit."""
        entry = self._entries.get(tag)
        if entry is None or entry.full_config != full_config:
            return None
        return entry

    def dump(self):
        lines = [f"capacity {self.capacity} entries {len(self._entries)}"]
        for tag, entry in self._entries.items():
            assign = " ".join(str(t) for t in entry.assignment)
            broken = sum(
                1 for line in entry.full_config.splitlines() if line.endswith(" B")
            )
            lines.append(f"{tag:016x} broken={broken} assignment {assign}")
        return "\n".join(lines) + "\n"


@dataclass
class CurrentMappingMemory:
    """The deployed mapping and schedule."""

    mapping: list = None
    schedule: object = None


@dataclass(frozen=True)
class CostModel:
    """Virtual-cycle constants of the reconfiguration latency model."""

    cycles_per_eval: int = 10
    cycles_per_task: int = 1
    t_fetch: int = 2
    t_par_ext: int = 5
    par_map_per_move: int = 2
    detection_latency: int = 1


@dataclass(frozen=True)
class LatencyReport:
    """One decision's reconfiguration latency: the terms of its case,
    each 0 unless given, and t_rl, their sum, computed here."""

    hit: bool
    t_map_alg: int = 0
    t_fetch: int = 0
    t_schd: int = 0
    t_par_ext: int = 0
    t_par_map: int = 0
    t_rl: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "t_rl", self.t_map_alg + self.t_fetch
                           + self.t_schd + self.t_par_ext + self.t_par_map)


def extract_partial_mapping(old, new):
    """Assignments that changed, as sorted (task, new tile) pairs."""
    if len(old) != len(new):
        raise LengthMismatch(
            f"mappings differ in length: {len(old)} vs {len(new)}"
        )
    return tuple((t, new[t]) for t in range(len(new)) if old[t] != new[t])


@dataclass
class Msu:
    """Mapping/scheduling context: the application, platform policy and
    heuristic configuration the fault manager calls into."""

    tg: object
    turn_model: object
    ctg: object = None
    regions: object = None
    heuristic: str = "greedy"
    cost: str = SCHEDULE_LENGTH
    comm: CommModel = field(default_factory=CommModel)
    cost_model: CostModel = field(default_factory=CostModel)
    iterations: int = 10
    sa_params: SaParams = field(default_factory=SaParams)
    initial_policy: str = "first_fit"
    seed: int = 0

    def build_rg(self, shm):
        return build_routing_graph(shm.ag, self.turn_model, shm, self.regions)

    def routes_for(self, rg):
        return rg.route_provider(derive_seed(self.seed, "routing"))

    def schedule(self, shm, rg, mapping, base_time=0, finished=()):
        """ASAP schedule of `mapping` on `rg`, from `base_time`, with the
        `finished` tasks retained (see mapsched.asap_schedule)."""
        return asap_schedule(self.tg, mapping, shm, rg, comm=self.comm,
                             routes=self.routes_for(rg), base_time=base_time,
                             finished=finished)

    def compute(self, shm, rg, tag):
        """Run the configured heuristic for the health state `shm`,
        whose routing graph is `rg` and whose tag is `tag`.

        The heuristic sub-stream is derived from the tag, so the same
        fault configuration always yields the same mapping no matter
        when it is computed (precomputation or live)."""
        return run_heuristic(
            self.heuristic,
            self.tg,
            shm,
            rg,
            cost=self.cost,
            ctg=self.ctg,
            comm=self.comm,
            routes=self.routes_for(rg),
            seed=derive_seed(self.seed, f"mapsched:{tag:016x}"),
            initial_policy=self.initial_policy,
            iterations=self.iterations,
            sa_params=self.sa_params,
        )


def _lookup(shm, mpm):
    """The health state's key (serialization, tag) and its entry or None."""
    full_config = shm.serialize()
    tag = config_tag(full_config)
    return full_config, tag, mpm.lookup(tag, full_config)


def map_and_store(shm, location, msu, mpm, rg=None):
    """Precompute for `location` failing permanently: apply the fault to
    a copy of the health map `shm`, map, and store.  `shm` is only read.

    `rg`, the routing graph of the current health state, is optional:
    with it, the hypothetical state's graph is derived from it
    (RoutingGraph.without) instead of built cold.

    When the memory already holds the hypothetical state, its entry is
    stored again (refreshing its age) without mapping anew: the
    serialization covers all the state Msu.compute reads, and the
    heuristic's seed comes from the tag, so a new run would return
    the same assignment.

    Returns the stored MpmEntry, or None when the hypothetical state
    admits no feasible mapping (a warning case, nothing stored)."""
    targets = degrade_targets(location, shm.ag)
    hypo = SystemHealthMap(shm.ag)
    hypo.restore(shm.snapshot())
    for fault in targets:
        hypo.apply_fault(fault)
    full_config, tag, entry = _lookup(hypo, mpm)
    if entry is None:
        try:
            result = msu.compute(hypo, rg.without(targets) if rg is not None
                                 else msu.build_rg(hypo), tag)
        except InfeasibilityError:
            return None
        entry = MpmEntry(tag, full_config, tuple(result.mapping))
    mpm.store(entry)
    return entry


def map_and_deploy(shm, msu, mpm, cmm, rg=None):
    """Mapping for the current health state, from the precomputed
    memory when possible, plus its reconfiguration latency report.

    Updates the current-mapping memory.  Raises InfeasibilityError
    when no feasible mapping exists (caller decides the policy)."""
    _, tag, entry = _lookup(shm, mpm)
    rg = rg or msu.build_rg(shm)
    cm = msu.cost_model
    m = len(msu.tg)

    if entry is not None:
        mapping = list(entry.assignment)
        schedule = msu.schedule(shm, rg, mapping)
        terms = dict(t_fetch=cm.t_fetch, t_schd=m * cm.cycles_per_task)
    else:
        result = msu.compute(shm, rg, tag)
        mapping, schedule = result.mapping, result.schedule
        terms = dict(t_map_alg=result.evaluations * cm.cycles_per_eval)

    old = cmm.mapping if cmm.mapping is not None else [None] * m
    moves = extract_partial_mapping(old, mapping)
    report = LatencyReport(hit=entry is not None, t_par_ext=cm.t_par_ext,
                           t_par_map=cm.par_map_per_move * len(moves), **terms)
    cmm.mapping = list(mapping)
    cmm.schedule = schedule
    return mapping, schedule, report

"""Task-to-tile mapping and ASAP scheduling.

A mapping is a plain list: index task id, value tile id.  The scheduler
does one topological pass computing each task's start exactly once
(Schedule.start_computations counts them).  One object, _AsapPass,
prepares that pass once (a step table of (task, release, ((pred,
hold), ...)) in topological order, the per-tile cycle table, transfer
model, route provider) and runs it per mapping: asap_schedule builds one
over the mapped tiles, and a search is one over the usable tiles, which
scores its candidates and then builds its winner's schedule.  Data
transfers occupy route links and are serialized where links are
contended (earliest-fit).  The pass keeps each link's busy intervals as
one sorted flat lane [s0, e0, s1, e1, ...], the format _cost reads.  A
probe on a lane that ends by its start cannot conflict and an insert
there appends; otherwise a probe bisects to the one interval it can
hit, O(log I) in the I intervals on the link, but after a conflict it
steps past each gap too short for the body, linear in the intervals
skipped (about 127 per transfer on a 1000-task 4x4 schedule).  Tasks
sharing a processing element are serialized too.

Routes are read from the route provider's rows, rows[src][dst], which
every search and asap_schedule call given that provider shares: each
tile pair is routed once per provider, and placement unpacks a row
entry, the pair's Route, without hashing a (src, dst) key.  A FlowPlan
keeps a transfer's tasks, tiles, link ids and times, not its ports: the
links tell which turns it takes (shmu.flow_elements).

Heuristics (steepest-descent, iterated local search, simulated
annealing) share one single-move neighborhood and are deterministic
given their inputs and seed.  With a clustered application the move
unit is the whole cluster; tasks inherit their cluster's tile.
Candidates are scored by the same pass and the one cost routine, _cost,
without building a Schedule; only the winner's is built.  A search
starts from its initial policy's unit assignment.  Descent and
annealing score each one-unit move in place on one assignment list and
undo it; annealing draws its moves with the stdlib's randrange/choice
rejection loop, inlined, so its stream is theirs.  Where some pair of
usable tiles has no route (the provider's distance columns tell), a
one-unit move from a feasible assignment that breaks a route is
rejected from the moved unit's cross-unit edges alone, without a pass;
it still counts as an evaluation.  Where every pair routes, no move can
break one, and that check is skipped."""

import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from .errors import (
    InfeasibleInstance,
    LengthMismatch,
    NoHealthyPE,
    RangeError,
    SemanticError,
    UnroutableFlow,
)
from .graphs import CRITICAL
from .rng import derive_seed
from .routing import RouteProvider  # noqa: F401  (part of this module's API)


@dataclass(frozen=True)
class CommModel:
    """Cycle costs of one data transfer: weight x unit_link_cycles of
    serialization plus router_delay per router on the route (source and
    destination routers included)."""

    unit_link_cycles: int = 1
    router_delay: int = 1


@dataclass(frozen=True)
class FlowPlan:
    """One scheduled data transfer between two mapped tasks."""

    src_task: int
    dst_task: int
    src_tile: int
    dst_tile: int
    links: tuple                            # link ids, source to destination
    injection: int
    delivery: int
    intervals: tuple                        # ((link, start, end), ...)


@dataclass(frozen=True)
class Schedule:
    """Result of one ASAP pass."""

    task_times: tuple                       # (tile, start, finish) per task id
    flows: tuple
    start_computations: int
    base_time: int
    retained: frozenset                     # tasks not re-executed this pass
    makespan: int

    @property
    def link_busy(self):
        """link -> ((start, end), ...) over all flows, sorted by link;
        each link's intervals in placement order."""
        busy = {}
        for flow in self.flows:
            for link, s, e in flow.intervals:
                busy.setdefault(link, []).append((s, e))
        return {l: tuple(iv) for l, iv in sorted(busy.items())}

    def dump(self):
        lines = ["task tile start finish"]
        for tid, (tile, start, finish) in enumerate(self.task_times):
            mark = " retained" if tid in self.retained else ""
            lines.append(f"{tid} {tile} {start} {finish}{mark}")
        lines.append("link busy-intervals")
        for link, intervals in self.link_busy.items():
            body = " ".join(f"[{s},{e})" for s, e in intervals)
            lines.append(f"{link} {body}")
        return "\n".join(lines) + "\n"


def validate_mapping(tg, mapping, shm):
    if len(mapping) != len(tg):
        raise LengthMismatch(
            f"mapping has {len(mapping)} entries for {len(tg)} tasks"
        )
    for task_id, tile in enumerate(mapping):
        shm.ag.check_tile(tile)
        if not shm.pe_usable(tile):
            raise SemanticError(f"task {task_id} mapped to unusable tile {tile}")


def asap_schedule(tg, mapping, shm, rg, comm=None, routes=None, base_time=0,
                  finished=None):
    """Single-pass as-soon-as-possible schedule for `mapping`.

    Tasks listed in `finished` are pinned as zero-length sources at
    base_time on their mapped tile (used when resuming after a remap);
    everything else executes.  Raises UnroutableFlow when a transfer
    between mapped tiles has no route.
    """
    validate_mapping(tg, mapping, shm)
    return _AsapPass(tg, shm, rg, set(mapping), comm, routes).schedule(
        mapping, base_time, frozenset(finished or ()))


class _AsapPass:
    """The ASAP pass shared by asap_schedule and candidate evaluation,
    with everything no mapping changes prepared once: the step table,
    which holds per task in topological order (task, release, ((pred,
    hold), ...)) with hold = weight x unit_link_cycles, each task's
    cycles on each of `tiles` after aging (wcet[tile], None for other
    tiles), the transfer model and the route provider, whose rows the
    pass reads, routing a pair not yet in them.

    Lanes: run returns busy, per link id None if the link is unused,
    else its busy intervals in time order as one flat list [s0, e0, s1,
    e1, ...].  That is this pass's lane format, and _cost reads it."""

    def __init__(self, tg, shm, rg, tiles, comm=None, routes=None):
        self.tg = tg
        self.comm = comm or CommModel()
        self.routes = routes or rg.route_provider()
        unit = self.comm.unit_link_cycles
        self.steps = [
            (b, tg.tasks[b].release,
             tuple((a, tg.edges[(a, b)] * unit) for a in tg.predecessors(b)))
            for b in tg.topological_order()]
        self.rows = self.routes.rows
        self.router_delay = self.comm.router_delay
        self.wcet = [None] * len(shm.ag)
        for tile in tiles:
            self.wcet[tile] = [shm.effective_wcet(tile, t.wcet) for t in tg.tasks]
        self.n_links = len(shm.ag.links)

    def run(self, mapping, base_time=0, finished=frozenset(), records=None):
        """Walks the step table, less the `finished` tasks, and computes
        each start once: the latest of release, PE free time and data
        arrivals (an unroutable pair raises UnroutableFlow).  Returns
        the per-task start and finish lists and the busy lanes.  When
        `records` is a list, appends
        (src task, dst task, src tile, dst tile, hold, Route, injection)
        to it per transfer.

        A transfer's head needs router_delay per router; its body holds
        link i for hold cycles from i router delays after injection.
        Placement is earliest-fit: a conflict on some link moves the
        injection past the conflicting interval, and past any later
        ones on that link whose gaps are too short for the body; then
        the check restarts at the first link.  Every time skipped
        conflicts on that link, so the result is the earliest
        conflict-free injection.  Intervals on one link never overlap,
        so their flat list is sorted and one bisection finds the only
        interval that can conflict.  An unused link, or one whose last
        interval ends at or before the probe's start, needs none.  After
        a conflict-free pass each interval is appended to a lane that
        ends by its start, and otherwise inserted where a bisection puts
        it, which is where the probe found room: a route never repeats a
        link, so no lane changes between the check and the insert.
        """
        wcet = self.wcet
        routes = self.routes
        r = self.router_delay
        rows = self.rows
        steps = self.steps
        start = [base_time] * len(steps)
        finish = [base_time] * len(steps)
        pe_free = [base_time] * len(wcet)
        busy = [None] * self.n_links
        if finished:
            steps = [step for step in steps if step[0] not in finished]
        for b, release, preds in steps:
            tile_b = mapping[b]
            ready = pe_free[tile_b]
            if release > ready:
                ready = release
            for a, hold in preds:
                tile_a = mapping[a]
                t = finish[a]
                if tile_a != tile_b:
                    row = rows[tile_a]
                    entry = row and row[tile_b]
                    if not entry:
                        if entry is None:
                            routes.route(tile_a, tile_b)
                            entry = rows[tile_a][tile_b]
                        if not entry:
                            raise UnroutableFlow(tile_a, tile_b)
                    links, hops = entry
                    if hold > 0:
                        while True:
                            s = t
                            for link in links:
                                s += r
                                lane = busy[link]
                                if lane is None or lane[-1] <= s:
                                    continue
                                k = bisect_right(lane, s)
                                if k & 1 or lane[k] < s + hold:
                                    k |= 1      # end of the conflicting interval
                                    # Skip on while the gap after it is too short.
                                    last = len(lane) - 1
                                    while k < last and lane[k + 1] < lane[k] + hold:
                                        k += 2
                                    t += lane[k] - s
                                    break
                            else:
                                break
                        s = t
                        for link in links:
                            s += r
                            lane = busy[link]
                            if lane is None:
                                busy[link] = [s, s + hold]
                            elif lane[-1] <= s:
                                lane += (s, s + hold)
                            else:
                                k = bisect_right(lane, s)
                                lane[k:k] = (s, s + hold)
                    if records is not None:
                        records.append((a, b, tile_a, tile_b, hold, entry, t))
                    t += hops * r + hold
                if t > ready:
                    ready = t
            start[b] = ready
            finish[b] = pe_free[tile_b] = ready + wcet[tile_b][b]
        return start, finish, busy

    def schedule(self, mapping, base_time=0, finished=frozenset()):
        """The pass's Schedule: its task times and a FlowPlan per
        transfer."""
        records = []
        start, finish, _ = self.run(mapping, base_time, finished, records)
        r = self.router_delay
        flows = []
        for a, b, tile_a, tile_b, hold, (links, hops), t in records:
            intervals = tuple(
                (link, t + i * r, t + i * r + hold)
                for i, link in enumerate(links, start=1)
            ) if hold > 0 else ()
            flows.append(FlowPlan(a, b, tile_a, tile_b, links, t,
                                  t + hops * r + hold, intervals))
        executed = [finish[t] for t in range(len(self.tg)) if t not in finished]
        return Schedule(
            task_times=tuple(zip(mapping, start, finish)),
            flows=tuple(flows),
            start_computations=len(self.steps),
            base_time=base_time,
            retained=finished,
            makespan=max(executed) if executed else base_time,
        )


# ---------------------------------------------------------------------------
# Cost functions

SCHEDULE_LENGTH = "schedule_length"
TRAFFIC_BALANCE = "traffic_balance"
UTILIZATION_BALANCE = "utilization_balance"
COST_KINDS = (SCHEDULE_LENGTH, TRAFFIC_BALANCE, UTILIZATION_BALANCE)
# Short names a scenario or the command line may give for a cost kind.
COST_ALIASES = {
    "makespan": SCHEDULE_LENGTH,
    "traffic": TRAFFIC_BALANCE,
    "util": UTILIZATION_BALANCE,
}


def _pstdev(values):
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    # Added left to right, as sum() added floats before Python 3.12 made
    # it compensated, so a cost is one float on every Python version.
    squares = 0.0
    for v in values:
        squares += (v - mean) ** 2
    return math.sqrt(squares / len(values))


def _cost(kind, tiles, start, finish, busy, base_time=0):
    """The only definition of each cost kind.  tiles, start, finish: each
    executed task's, in id order; busy: per link id None or its lane in
    _AsapPass's format, [start, end, ...].  schedule_length: last finish
    - base_time; traffic_balance: population stddev of busy cycles over
    used links, in id order; utilization_balance: the same over used
    PEs."""
    if kind == SCHEDULE_LENGTH:
        return max(finish, default=base_time) - base_time
    if kind == TRAFFIC_BALANCE:
        used = [sum(lane[1::2]) - sum(lane[::2]) for lane in busy if lane]
    elif kind == UTILIZATION_BALANCE:
        per_pe = {}
        for tile, s, f in zip(tiles, start, finish):
            per_pe[tile] = per_pe.get(tile, 0) + (f - s)
        used = [b for b in per_pe.values() if b > 0]
    else:
        raise RangeError(f"unknown cost function {kind!r}; choices: {COST_KINDS}")
    return _pstdev(used)


def evaluate_cost(schedule, kind):
    """The cost `kind` of a built schedule (see _cost)."""
    run = [times for tid, times in enumerate(schedule.task_times)
           if tid not in schedule.retained]
    tiles, start, finish = zip(*run) if run else ((), (), ())
    busy = [[t for iv in ivs for t in iv] for ivs in schedule.link_busy.values()]
    return _cost(kind, tiles, start, finish, busy, schedule.base_time)


# ---------------------------------------------------------------------------
# Heuristics


@dataclass(frozen=True)
class SaParams:
    """Annealing knobs.  t0 defaults to the initial cost; tmin is
    tmin_ratio x t0; each temperature level tries moves_per_temp
    single-unit moves and cools geometrically by alpha."""

    t0: float = None
    alpha: float = 0.97
    moves_per_temp: int = 100
    tmin_ratio: float = 1e-3

    def __post_init__(self):
        # Cooling by alpha reaches tmin only for both in (0, 1).
        for name in ("alpha", "tmin_ratio"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise RangeError(f"SaParams.{name} must be in (0, 1), got {value!r}")


@dataclass
class HeuristicResult:
    mapping: list
    schedule: Schedule
    evaluations: int


def usable_tiles(shm):
    tiles = [t for t in range(len(shm.ag)) if shm.pe_usable(t)]
    if not tiles:
        raise NoHealthyPE("no usable processing element")
    return tiles


INITIAL_POLICIES = ("first_fit", "random")


def _units(tg, ctg):
    if ctg is None:
        return [frozenset((i,)) for i in range(len(tg))]
    if ctg.tg is not tg:
        raise SemanticError("clustered graph built from a different task graph")
    return list(ctg.clusters)


def _expand(units, unit_tiles, n_tasks):
    mapping = [None] * n_tasks
    for members, tile in zip(units, unit_tiles):
        for t in members:
            mapping[t] = tile
    return mapping


class _Search(_AsapPass):
    """Shared candidate evaluation for all heuristics: the ASAP pass
    prepared over the usable tiles, the critical deadlines, and per
    unit its cross-unit edges as (source unit, destination unit) pairs,
    both directions, each pair once.  The route provider's rows outlive
    the search.  Candidates only ever place units on usable tiles, so
    they need no per-candidate validation, and neither does the winner
    the search's own pass schedules.

    `start` is the unit assignment a heuristic starts from:
    "first_fit" deals units onto the usable tiles round-robin by id;
    "random" draws each unit's tile from derive_seed(seed, "initial")."""

    def __init__(self, tg, shm, rg, cost, ctg, comm, routes,
                 initial_policy="first_fit", seed=0):
        if cost not in COST_KINDS:
            raise RangeError(f"unknown cost function {cost!r}; choices: {COST_KINDS}")
        self.cost = cost
        self.units = _units(tg, ctg)
        self.clustered = ctg is not None
        self.tiles = tiles = usable_tiles(shm)
        if initial_policy == "first_fit":
            self.start = [tiles[i % len(tiles)] for i in range(len(self.units))]
        elif initial_policy == "random":
            rng = random.Random(derive_seed(seed, "initial"))
            self.start = [rng.choice(tiles) for _ in self.units]
        else:
            raise RangeError(f"unknown initial mapping policy {initial_policy!r}")
        super().__init__(tg, shm, rg, tiles, comm, routes)
        self.deadlines = [(t.id, t.release + t.slack) for t in tg.tasks
                          if t.criticality == CRITICAL and t.slack is not None]
        unit_of = _expand(self.units, range(len(self.units)), len(tg))
        cross = [{} for _ in self.units]    # insertion-ordered pair sets
        for a, b in tg.edges:
            ua, ub = unit_of[a], unit_of[b]
            if ua != ub:
                cross[ua][ua, ub] = cross[ub][ua, ub] = None
        self.cross = [tuple(pairs) for pairs in cross]
        # A move can break a route only where some pair of tiles has none.
        self.check_moves = not self.routes.connects(self.tiles)
        self.evaluations = 0

    def evaluate(self, unit_tiles, moved=None):
        """The candidate's cost (see _cost), or None when it is
        infeasible (unroutable transfer or missed critical deadline).

        `moved` names the one unit in which `unit_tiles` differs from a
        feasible assignment (descend's and _run_sa's moves).  Only that
        unit's cross-unit edges can then lack a route, so, on a search
        whose usable tiles do not all route to each other, they are
        checked against the provider's rows first, and a candidate that
        breaks one is rejected without a pass.  Either way the call
        counts as one evaluation."""
        self.evaluations += 1
        if moved is not None and self.check_moves:
            routes = self.routes
            rows = routes.rows
            for ua, ub in self.cross[moved]:
                src, dst = unit_tiles[ua], unit_tiles[ub]
                if src != dst:
                    row = rows[src]
                    entry = row and row[dst]
                    if entry is None:
                        entry = routes.route(src, dst)
                    if not entry:
                        return None
        if self.clustered:
            mapping = _expand(self.units, unit_tiles, len(self.tg))
        else:
            mapping = unit_tiles
        try:
            start, finish, busy = self.run(mapping)
        except UnroutableFlow:
            return None
        for task, deadline in self.deadlines:
            if finish[task] > deadline:
                return None
        return _cost(self.cost, mapping, start, finish, busy)

    def feasible_start(self, unit_tiles):
        """The given start if feasible, else bounded probing: all units
        on one tile, each usable tile in turn (a one-tile assignment has
        no transfers, so only deadlines can still fail)."""
        cost = self.evaluate(unit_tiles)
        if cost is not None:
            return unit_tiles, cost
        for tile in self.tiles:
            cand = [tile] * len(self.units)
            cost = self.evaluate(cand)
            if cost is not None:
                return cand, cost
        raise InfeasibleInstance(
            "no feasible assignment found by bounded probing"
        )

    def descend(self, unit_tiles, cost):
        """Steepest descent with the single-unit-move neighborhood.  Each
        move is scored in place on one copy of `unit_tiles` and undone."""
        unit_tiles = list(unit_tiles)
        while True:
            best_move = None
            for u in range(len(self.units)):
                here = unit_tiles[u]
                for tile in self.tiles:
                    if tile == here:
                        continue
                    unit_tiles[u] = tile
                    c = self.evaluate(unit_tiles, u)
                    if c is not None and c < cost and (
                        best_move is None or c < best_move[0]
                    ):
                        best_move = (c, u, tile)
                unit_tiles[u] = here
            if best_move is None:
                return unit_tiles, cost
            cost, u, tile = best_move
            unit_tiles[u] = tile


def run_heuristic(name, tg, shm, rg, cost=SCHEDULE_LENGTH, ctg=None, comm=None,
                  routes=None, seed=0, initial_policy="first_fit",
                  iterations=10, sa_params=None):
    """Dispatch a mapping heuristic from the search's `initial_policy`
    start; returns HeuristicResult with the number of candidate
    evaluations performed (the mapping effort unit of the
    reconfiguration cost model).  Candidates are scored without building
    a Schedule; the search's pass builds the winner's once at the end."""
    search = _Search(tg, shm, rg, cost, ctg, comm, routes, initial_policy, seed)
    run = HEURISTICS.get(name)
    if run is None:
        raise RangeError(f"unknown heuristic {name!r}; "
                         f"choices: {', '.join(HEURISTICS)}")
    assign = run(search, search.start, seed, iterations, sa_params or SaParams())
    mapping = _expand(search.units, assign, len(tg))
    return HeuristicResult(mapping, search.schedule(mapping), search.evaluations)


def _run_greedy(search, start, seed, iterations, sa_params):
    return search.descend(*search.feasible_start(start))[0]


def _run_ils(search, start, seed, iterations, sa_params):
    rng = random.Random(derive_seed(seed, "ils"))
    best_assign, best_cost = search.descend(*search.feasible_start(start))
    strength = -(-len(search.units) // 4)   # ceil(units / 4)
    for _ in range(iterations):
        cand = list(best_assign)
        for u in rng.sample(range(len(search.units)), strength):
            cand[u] = rng.choice(search.tiles)
        c = search.evaluate(cand)
        if c is None:
            try:
                cand, c = search.feasible_start(cand)
            except InfeasibleInstance:
                continue                    # keep the best found so far
        cand, c = search.descend(cand, c)
        if c < best_cost:
            best_assign, best_cost = cand, c
    return best_assign


def _run_sa(search, start, seed, iterations, params):
    """Simulated annealing (Kirkpatrick et al., Science 1983).  Each
    move draws its unit and its tile with the rejection loop of the
    stdlib's randrange(n) and choice(seq), getrandbits(n.bit_length())
    until below n, inlined, so the stream is theirs.  The move is scored
    in place on the one current assignment and undone when rejected."""
    rng = random.Random(derive_seed(seed, "sa"))
    getrandbits = rng.getrandbits
    assign, cost = search.feasible_start(start)
    assign = list(assign)
    best_assign, best_cost = list(assign), cost
    evaluate = search.evaluate
    tiles = search.tiles
    n_units, n_tiles = len(search.units), len(tiles)
    k_units, k_tiles = n_units.bit_length(), n_tiles.bit_length()

    t0 = params.t0 if params.t0 is not None else float(cost)
    if t0 <= 0 or not n_units:              # no units: no move to draw
        return search.descend(assign, cost)[0]
    tmin = params.tmin_ratio * t0
    temp = t0
    while temp > tmin:
        for _ in range(params.moves_per_temp):
            u = getrandbits(k_units)
            while u >= n_units:
                u = getrandbits(k_units)
            i = getrandbits(k_tiles)
            while i >= n_tiles:
                i = getrandbits(k_tiles)
            here, tile = assign[u], tiles[i]
            if tile == here:
                continue
            assign[u] = tile
            c = evaluate(assign, u)
            if c is not None:
                delta = c - cost
                if delta <= 0 or rng.random() < math.exp(-delta / temp):
                    cost = c
                    if c < best_cost:
                        best_assign, best_cost = list(assign), c
                    continue
            assign[u] = here
        temp *= params.alpha
    return best_assign


# The heuristic names run_heuristic dispatches on, each to a search
# taking (search, start, seed, iterations, sa_params) and returning the
# best unit assignment it found.  The scenario parser and the command
# line take their choices from here.
HEURISTICS = {"greedy": _run_greedy, "ils": _run_ils, "sa": _run_sa}


def dump_mapping(mapping):
    lines = [f"task {tid} -> tile {tile}" for tid, tile in enumerate(mapping)]
    return "\n".join(lines) + "\n"

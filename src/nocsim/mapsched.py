"""Task-to-tile mapping and ASAP scheduling.

A mapping is a plain list: index task id, value tile id.  The scheduler
does one topological pass computing each task's start exactly once, so
the number of start computations is linear in the task count (an
operation counter on the result makes that checkable).  Its work is
not: data transfers occupy route links and are serialized where links
are contended, and each placement scans the busy intervals already on
its links, so the whole pass grows roughly cubically with the task
count.  Tasks sharing a processing element are serialized too.

Heuristics (steepest-descent, iterated local search, simulated
annealing) share one single-move neighborhood and are deterministic
given their inputs and seed.  With a clustered application the move
unit is the whole cluster; tasks inherit their cluster's tile.
"""

import math
import random
from dataclasses import dataclass, field

from .errors import (
    InfeasibleInstance,
    LengthMismatch,
    NoHealthyPE,
    RangeError,
    SemanticError,
    UnroutableFlow,
)
from .graphs import CRITICAL, OPPOSITE
from .rng import derive_seed


@dataclass(frozen=True)
class CommModel:
    """Cycle costs of one data transfer: weight x unit_link_cycles of
    serialization plus router_delay per router on the route (source and
    destination routers included)."""

    unit_link_cycles: int = 1
    router_delay: int = 1


class RouteProvider:
    """Deterministic route choice on a routing graph.

    Shortest port paths only; where several shortest continuations
    exist (adaptive turn models) one is drawn uniformly from a per
    (src, dst) sub-stream, so the choice does not depend on evaluation
    order.  Routes are cached."""

    def __init__(self, rg, seed=0):
        self.rg = rg
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
        goal = self.rg.local_out(dst)
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
        node = self.rg.local_in(src)
        if node not in dist:
            self._routes[key] = None
            return None
        rng = random.Random(derive_seed(self.seed, f"route:{src}:{dst}"))
        ports = [node]
        links = []
        while dist[node] > 0:
            step = [n for n in self.rg.adj[node] if dist.get(n, -1) == dist[node] - 1]
            nxt = step[0] if len(step) == 1 else rng.choice(step)
            if nxt.tile != node.tile:
                links.append(self.rg.ag.link(node.tile, node.direction).id)
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


@dataclass(frozen=True)
class FlowPlan:
    """One scheduled data transfer between two mapped tasks."""

    src_task: int
    dst_task: int
    src_tile: int
    dst_tile: int
    weight: int
    links: tuple
    ports: tuple
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
        for link in sorted(self.link_busy):
            body = " ".join(f"[{s},{e})" for s, e in self.link_busy[link])
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

        task = tg.task(b)
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
    return FlowPlan(a, b, tile_a, tile_b, weight, route.links, route.ports,
                    t, delivery, tuple(intervals))


# ---------------------------------------------------------------------------
# Cost functions

SCHEDULE_LENGTH = "schedule_length"
TRAFFIC_BALANCE = "traffic_balance"
UTILIZATION_BALANCE = "utilization_balance"
COST_KINDS = (SCHEDULE_LENGTH, TRAFFIC_BALANCE, UTILIZATION_BALANCE)


def _pstdev(values):
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def evaluate_cost(schedule, kind):
    """schedule_length: last finish.  traffic_balance: population
    stddev of busy cycles over used links.  utilization_balance: the
    same over used processing elements."""
    if kind == SCHEDULE_LENGTH:
        return schedule.makespan - schedule.base_time
    if kind == TRAFFIC_BALANCE:
        busy = [sum(e - s for s, e in iv) for iv in schedule.link_busy.values()]
        return _pstdev([b for b in busy if b > 0])
    if kind == UTILIZATION_BALANCE:
        per_pe = {}
        for tid, (tile, start, finish) in enumerate(schedule.task_times):
            if tid not in schedule.retained:
                per_pe[tile] = per_pe.get(tile, 0) + (finish - start)
        return _pstdev([b for b in per_pe.values() if b > 0])
    raise RangeError(f"unknown cost function {kind!r}; choices: {COST_KINDS}")


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


def initial_mapping(tg, shm, policy="first_fit", seed=0, ctg=None):
    """Starting assignment: "first_fit" deals units onto usable tiles
    round-robin by id; "random" draws each unit's tile from `seed`."""
    units = _units(tg, ctg)
    tiles = usable_tiles(shm)
    if policy == "first_fit":
        unit_tiles = [tiles[i % len(tiles)] for i in range(len(units))]
    elif policy == "random":
        rng = random.Random(seed)
        unit_tiles = [rng.choice(tiles) for _ in units]
    else:
        raise RangeError(f"unknown initial mapping policy {policy!r}")
    return _expand(units, unit_tiles, len(tg))


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


def _deadline_ok(tg, schedule):
    for task in tg.tasks:
        if task.criticality == CRITICAL and task.slack is not None:
            finish = schedule.task_times[task.id][2]
            if finish > task.release + task.slack:
                return False
    return True


class _Search:
    """Shared candidate evaluation for all heuristics."""

    def __init__(self, tg, shm, rg, cost, ctg, comm, routes):
        self.tg = tg
        self.shm = shm
        self.rg = rg
        self.cost = cost
        self.units = _units(tg, ctg)
        self.comm = comm
        self.routes = routes or RouteProvider(rg)
        self.tiles = usable_tiles(shm)
        self.evaluations = 0

    def evaluate(self, unit_tiles):
        """(cost, schedule) or None when the candidate is infeasible
        (unroutable transfer or missed critical deadline)."""
        self.evaluations += 1
        mapping = _expand(self.units, unit_tiles, len(self.tg))
        try:
            schedule = asap_schedule(self.tg, mapping, self.shm, self.rg,
                                     comm=self.comm, routes=self.routes)
        except UnroutableFlow:
            return None
        if not _deadline_ok(self.tg, schedule):
            return None
        return evaluate_cost(schedule, self.cost), schedule

    def feasible_start(self, unit_tiles):
        """The given start if feasible, else bounded probing: all units
        on one tile, each usable tile in turn (a one-tile assignment has
        no transfers, so only deadlines can still fail)."""
        result = self.evaluate(unit_tiles)
        if result is not None:
            return unit_tiles, result
        for tile in self.tiles:
            cand = [tile] * len(self.units)
            result = self.evaluate(cand)
            if result is not None:
                return cand, result
        raise InfeasibleInstance(
            "no feasible assignment found by bounded probing"
        )

    def descend(self, unit_tiles, result):
        """Steepest descent with the single-unit-move neighborhood."""
        cost, schedule = result
        while True:
            best_move = None
            for u in range(len(self.units)):
                here = unit_tiles[u]
                for tile in self.tiles:
                    if tile == here:
                        continue
                    cand = list(unit_tiles)
                    cand[u] = tile
                    r = self.evaluate(cand)
                    if r is not None and r[0] < cost and (
                        best_move is None or r[0] < best_move[0]
                    ):
                        best_move = (r[0], cand, r[1])
            if best_move is None:
                return unit_tiles, (cost, schedule)
            cost, unit_tiles, schedule = best_move


def _tiles_of(units, mapping):
    return [mapping[min(members)] for members in units]


def run_heuristic(name, tg, shm, rg, cost=SCHEDULE_LENGTH, ctg=None, comm=None,
                  routes=None, seed=0, initial=None, initial_policy="first_fit",
                  iterations=10, sa_params=None):
    """Dispatch a mapping heuristic; returns HeuristicResult with the
    number of candidate evaluations performed (the mapping effort unit
    of the reconfiguration cost model)."""
    comm = comm or CommModel()
    search = _Search(tg, shm, rg, cost, ctg, comm, routes)
    if initial is None:
        initial = initial_mapping(tg, shm, policy=initial_policy,
                                  seed=derive_seed(seed, "initial"), ctg=ctg)
    start = _tiles_of(search.units, initial)

    if name == "greedy":
        assign, result = search.feasible_start(start)
        assign, result = search.descend(assign, result)
    elif name == "ils":
        assign, result = _run_ils(search, start, seed, iterations)
    elif name == "sa":
        assign, result = _run_sa(search, start, seed, sa_params or SaParams())
    else:
        raise RangeError(f"unknown heuristic {name!r}; choices: greedy, ils, sa")

    mapping = _expand(search.units, assign, len(tg))
    return HeuristicResult(mapping, result[1], search.evaluations)


def map_greedy(tg, shm, rg, cost=SCHEDULE_LENGTH, **kw):
    """Steepest-descent mapping; returns (mapping, schedule)."""
    r = run_heuristic("greedy", tg, shm, rg, cost=cost, **kw)
    return r.mapping, r.schedule


def map_ils(tg, shm, rg, cost=SCHEDULE_LENGTH, iterations=10, seed=0, **kw):
    """Iterated local search; returns the best (mapping, schedule)."""
    r = run_heuristic("ils", tg, shm, rg, cost=cost, iterations=iterations,
                      seed=seed, **kw)
    return r.mapping, r.schedule


def map_sa(tg, shm, rg, cost=SCHEDULE_LENGTH, sa_params=None, seed=0, **kw):
    """Simulated annealing; returns the best (mapping, schedule)."""
    r = run_heuristic("sa", tg, shm, rg, cost=cost, sa_params=sa_params,
                      seed=seed, **kw)
    return r.mapping, r.schedule


def _run_ils(search, start, seed, iterations):
    rng = random.Random(derive_seed(seed, "ils"))
    assign, result = search.feasible_start(start)
    best_assign, best_result = search.descend(assign, result)
    strength = -(-len(search.units) // 4)   # ceil(units / 4)
    for _ in range(iterations):
        cand = list(best_assign)
        for u in rng.sample(range(len(search.units)), strength):
            cand[u] = rng.choice(search.tiles)
        r = search.evaluate(cand)
        if r is None:
            cand, r = search.feasible_start(cand)
        cand, r = search.descend(cand, r)
        if r[0] < best_result[0]:
            best_assign, best_result = cand, r
    return best_assign, best_result


def _run_sa(search, start, seed, params):
    rng = random.Random(derive_seed(seed, "sa"))
    assign, result = search.feasible_start(start)
    cost = result[0]
    best_assign, best_result = list(assign), result

    t0 = params.t0 if params.t0 is not None else float(cost)
    if t0 <= 0:
        return search.descend(assign, result)
    tmin = params.tmin_ratio * t0
    temp = t0
    while temp > tmin:
        for _ in range(params.moves_per_temp):
            u = rng.randrange(len(search.units))
            tile = rng.choice(search.tiles)
            if tile == assign[u]:
                continue
            cand = list(assign)
            cand[u] = tile
            r = search.evaluate(cand)
            if r is None:
                continue
            delta = r[0] - cost
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                assign, (cost, _) = cand, r
                if r[0] < best_result[0]:
                    best_assign, best_result = list(cand), r
        temp *= params.alpha
    return best_assign, best_result


def dump_mapping(mapping):
    lines = [f"task {tid} -> tile {tile}" for tid, tile in enumerate(mapping)]
    return "\n".join(lines) + "\n"

"""Deterministic discrete-event simulation of the full fault loop:
checker events feed the health map, classification picks a severity,
permanent faults rebuild the routing graph and the per-port
unreachability tables, and remaps redeploy the application.

Event ordering is total: (time, kind priority, insertion order) with
fault events before aging before flow events before task completions at
the same timestamp.  Identical scripts therefore produce identical
traces, metrics, and dumps byte for byte.

Execution replays the deployed plan.  A remap ordered at detection time
halts the old plan: tasks finished by then keep their results (unless
their host PE broke), everything else restarts on the new mapping once
reconfiguration has taken its virtual t_rl cycles.  In-flight transfers
crossing the broken element are dropped or requeued per policy; other
halted transfers are re-sent by the new plan.
"""

import heapq
from dataclasses import dataclass, field

from .errors import InfeasibilityError, SemanticError
from .health import SystemHealthMap
from .mapsched import CommModel, SaParams, asap_schedule
from .reachability import build_region_tables, should_drop
from .shmu import (
    INTERMITTENT,
    PERMANENT,
    REMAP,
    TRANSIENT,
    ClassifierConfig,
    CostModel,
    CurrentMappingMemory,
    FaultEvent,
    classify,
    degrade_targets,
    map_and_deploy,
    map_and_store,
    Msu,
    MpmMemory,
    predict_mpfs,
    severity,
)

# Event kind priorities at equal timestamps.
_FAULT, _AGING, _FLOW, _TASK = 0, 1, 2, 3

DROP = "drop"
REQUEUE = "requeue"


@dataclass(frozen=True)
class Injection:
    """One scripted fault.  persistence is "transient", "permanent", or
    ("intermittent", count, spacing) for a burst."""

    time: int
    location: tuple
    persistence: object


@dataclass(frozen=True)
class AgingUpdate:
    time: int
    tile: int
    percent: int


@dataclass
class ScenarioScript:
    """Everything one simulation run needs, already validated."""

    seed: int
    tg: object
    ag: object
    turn_model: object
    ctg: object = None
    regions: object = None
    heuristic: str = "greedy"
    cost: str = "schedule_length"
    initial_policy: str = "first_fit"
    iterations: int = 10
    sa_params: SaParams = field(default_factory=SaParams)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    comm: CommModel = field(default_factory=CommModel)
    cost_model: CostModel = field(default_factory=CostModel)
    budget: int = 4
    prediction_k: int = 2
    mpm_capacity: int = 16
    severed_policy: str = DROP
    injections: tuple = ()
    aging: tuple = ()


@dataclass
class Metrics:
    makespan: int = 0
    tasks_completed: int = 0
    tasks_unfinished: int = 0
    flows_delivered: int = 0
    flows_dropped: int = 0
    flows_requeued: int = 0
    remaps: int = 0
    stores: int = 0
    mpm_hits: int = 0
    mpm_misses: int = 0
    recovery_walls: tuple = ()
    latency_reports: tuple = ()
    link_busy: dict = field(default_factory=dict)

    def to_text(self):
        lines = [
            f"makespan {self.makespan}",
            f"tasks_completed {self.tasks_completed}",
            f"tasks_unfinished {self.tasks_unfinished}",
            f"flows_delivered {self.flows_delivered}",
            f"flows_dropped {self.flows_dropped}",
            f"flows_requeued {self.flows_requeued}",
            f"remaps {self.remaps}",
            f"stores {self.stores}",
            f"mpm_hits {self.mpm_hits}",
            f"mpm_misses {self.mpm_misses}",
        ]
        for i, wall in enumerate(self.recovery_walls):
            lines.append(f"recovery_wall {i} {wall}")
        for i, r in enumerate(self.latency_reports):
            lines.append(
                f"latency_report {i} hit={int(r.hit)} t_map_alg={r.t_map_alg} "
                f"t_fetch={r.t_fetch} t_schd={r.t_schd} t_par_ext={r.t_par_ext} "
                f"t_par_map={r.t_par_map} t_rl={r.t_rl}"
            )
        for link in sorted(self.link_busy):
            lines.append(f"link_busy {link} {self.link_busy[link]}")
        return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    metrics: Metrics
    trace: list
    decisions: list
    shm: object
    tables: object
    mpm: object
    cmm: object
    initial_report: object


class _FlowState:
    __slots__ = ("plan", "gen", "injected_at", "outcome", "cut_at")

    def __init__(self, plan, gen):
        self.plan = plan
        self.gen = gen
        self.injected_at = None
        self.outcome = None                 # delivered|dropped|severed|requeued|halted
        self.cut_at = None


def expand_injection(injection):
    """Checker events for one scripted fault: a transient yields one
    event, a burst one per repeat, a permanent one event flagged as a
    persistent retest failure."""
    p = injection.persistence
    if p == "transient":
        return [FaultEvent(injection.time, injection.location)]
    if p == "permanent":
        return [FaultEvent(injection.time, injection.location,
                           retest_persistent=True)]
    if isinstance(p, tuple) and len(p) == 3 and p[0] == "intermittent":
        _, count, spacing = p
        return [
            FaultEvent(injection.time + i * spacing, injection.location)
            for i in range(count)
        ]
    raise SemanticError(f"unknown persistence {p!r}")


class Kernel:
    """One simulation run.  Build, then call run() once."""

    def __init__(self, script):
        self.script = script
        self.tg = script.tg
        self.ag = script.ag
        self.shm = SystemHealthMap(self.ag)
        self.msu = Msu.from_script(script)
        self.mpm = MpmMemory(script.mpm_capacity)
        self.cmm = CurrentMappingMemory()
        self.classifier = script.classifier
        self.rg = None
        self.tables = None
        self.histories = {}
        self.trace = []
        self.decisions = []
        self.metrics = Metrics()
        self._heap = []
        self._seq = 0
        self._gen = 0
        self._initial_report = None
        self._flows = []
        self._completed = {}                # task -> finish time
        self._cancelled = set()
        self._plan_tasks = {}               # task -> (tile, start, finish) current plan
        self._reports = []                  # LatencyReport per remap

    # -- plumbing ------------------------------------------------------------

    def _push(self, time, prio, payload):
        heapq.heappush(self._heap, (time, prio, self._seq, payload))
        self._seq += 1

    def _log(self, time, line):
        self.trace.append(f"{time} {line}")

    def _decide(self, time, line):
        self.decisions.append(f"{time} {line}")

    # -- setup ---------------------------------------------------------------

    def inject(self, injection):
        """Queue the checker events of one scripted fault."""
        for event in expand_injection(injection):
            report_at = event.time + self.script.cost_model.detection_latency
            self._push(report_at, _FAULT, ("fault", event))

    def _rebuild_tables(self, faults=()):
        """Routing graph and region tables for the current health state.
        The first graph is built cold; each later one is the previous
        graph minus the edges of the newly applied `faults`."""
        if self.rg is None:
            self.rg = self.msu.build_rg(self.shm)
        else:
            self.rg = self.rg.without(faults)
        self.tables = build_region_tables(self.rg, self.script.budget,
                                          prev=self.tables)

    def drop_check_at_injection(self, src_tile, dst_tile):
        """Injection-time firewall: drop when no output of the source
        can reach the destination under the current tables."""
        return should_drop(self.tables, src_tile, dst_tile)

    def _deploy_plan(self, base_time, finished):
        """Replace the executing plan: schedule the not-yet-finished
        tasks on the current mapping from base_time on."""
        self._gen += 1
        plan = asap_schedule(
            self.tg,
            self.cmm.mapping,
            self.shm,
            self.rg,
            comm=self.script.comm,
            routes=self.msu.routes_for(self.rg),
            base_time=base_time,
            finished=finished,
        )
        self._plan_tasks = {}
        for tid, (tile, start, finish) in enumerate(plan.task_times):
            if tid in finished or tid in self._cancelled:
                continue
            self._plan_tasks[tid] = (tile, start, finish)
            self._push(finish, _TASK, ("task", self._gen, tid, tile, start, finish))
        for fp in plan.flows:
            if fp.dst_task in self._cancelled or fp.dst_task in finished:
                continue
            state = _FlowState(fp, self._gen)
            self._flows.append(state)
            self._push(fp.injection, _FLOW, ("flow_inject", self._gen, state))
            self._push(fp.delivery, _FLOW, ("flow_deliver", self._gen, state))
        return plan

    # -- fault pipeline --------------------------------------------------------

    def _on_fault(self, now, event):
        history = self.histories.setdefault(event.location, [])
        history.append(event)
        fclass = classify(history, self.classifier)

        targets = degrade_targets(event.location, self.ag)
        if fclass == PERMANENT and all(
            not self._element_healthy(f) for f in targets
        ):
            self._decide(now, f"event {_loc(event.location)} class={fclass} "
                              f"severity=ignore action=already-recorded")
            return

        sev = severity(event.location, fclass, self.cmm, self.ag)
        if fclass == TRANSIENT:
            self._decide(now, f"event {_loc(event.location)} class={fclass} "
                              f"severity={sev} action=none")
            return

        if fclass == INTERMITTENT:
            stored = 0
            for loc in predict_mpfs(self.histories, self.script.prediction_k,
                                    self.classifier):
                entry = map_and_store(self.shm, loc, self.msu, self.mpm,
                                      rg=self.rg)
                if entry is not None:
                    stored += 1
                    self._log(now, f"store {_loc(loc)} tag={entry.tag:016x}")
                else:
                    self._log(now, f"store {_loc(loc)} infeasible")
            self.metrics.stores += stored
            self._decide(now, f"event {_loc(event.location)} class={fclass} "
                              f"severity={sev} action=stored:{stored}")
            return

        # Permanent: record, rebuild routing state, then maybe remap.
        for fault in targets:
            self.shm.apply_fault(fault)
        self._rebuild_tables(targets)
        self._log(now, f"shm_update {_loc(event.location)}")
        self._sever_in_flight(now, targets)

        if sev != REMAP:
            self._decide(now, f"event {_loc(event.location)} class={fclass} "
                              f"severity={sev} action=tables-rebuilt")
            return

        finished = set(self._halt_plan(now))
        try:
            mapping, schedule, report = map_and_deploy(
                self.shm, self.msu, self.mpm, self.cmm, rg=self.rg
            )
        except InfeasibilityError as exc:
            # No feasible remap: abandon the tasks pinned to broken PEs.
            pinned = [t for t, (tile, _, _) in self._plan_tasks.items()
                      if t not in self._completed
                      and not self.shm.pe_usable(tile)]
            self._cancel(now, pinned)
            self._decide(now, f"event {_loc(event.location)} class={fclass} "
                              f"severity={sev} action=infeasible ({exc})")
            return

        self._reports.append(report)
        deploy_at = now + report.t_rl
        self._deploy_plan(deploy_at, finished)
        self._decide(
            now,
            f"event {_loc(event.location)} class={fclass} severity={sev} "
            f"action=remap hit={int(report.hit)} t_rl={report.t_rl} "
            f"deploy_at={deploy_at}",
        )
        self._log(now, f"remap hit={int(report.hit)} t_rl={report.t_rl}")
        self._log(deploy_at, f"deploy gen={self._gen}")

    def _element_healthy(self, fault):
        if fault[0] == "pe":
            return self.shm.pe_healthy(fault[1])
        if fault[0] == "turn":
            return self.shm.turn_healthy(fault[1], fault[2])
        return self.shm.link_healthy(fault[1])

    def _halt_plan(self, now):
        """Stop the executing plan; tasks finished by `now` on a still
        usable PE keep their results.  Returns {task: finish}."""
        finished = dict(self._completed)
        for t in list(finished):
            tile = self.cmm.mapping[t]
            if not self.shm.pe_usable(tile):
                del finished[t]
                del self._completed[t]
                self._log(now, f"results_lost task={t} tile={tile}")
        for state in self._flows:
            if state.gen != self._gen or state.outcome is not None:
                continue
            if state.injected_at is not None:
                state.outcome = "halted"
                state.cut_at = now
                self.metrics.flows_requeued += 1
        return finished

    def _sever_in_flight(self, now, faults):
        """Transfers crossing a newly broken element while in flight are
        dropped (counted) or requeued, per policy."""
        broken_links = {f[1] for f in faults if f[0] == "link"}
        broken_pes = {f[1] for f in faults if f[0] == "pe"}
        for state in self._flows:
            if state.gen != self._gen or state.outcome is not None:
                continue
            if state.injected_at is None:
                continue
            fp = state.plan
            crosses = bool(broken_links.intersection(fp.links)) or (
                fp.dst_tile in broken_pes or fp.src_tile in broken_pes
            )
            if not crosses:
                continue
            state.cut_at = now
            if self.script.severed_policy == REQUEUE:
                state.outcome = "requeued"
                self.metrics.flows_requeued += 1
            else:
                state.outcome = "severed"
                self.metrics.flows_dropped += 1
            self._log(now, f"flow_severed {fp.src_task}->{fp.dst_task}")

    def _cancel(self, now, tasks):
        """Abandon `tasks` and every successor that has not completed;
        the rest keeps running."""
        lost = set(tasks)
        frontier = list(lost)
        while frontier:
            t = frontier.pop()
            for s in self.tg.successors(t):
                if s not in lost and s not in self._completed:
                    lost.add(s)
                    frontier.append(s)
        self._cancelled |= lost
        for t in sorted(lost):
            self._log(now, f"task_cancelled task={t}")

    # -- event loop ------------------------------------------------------------

    def run(self):
        for update in sorted(self.script.aging, key=lambda u: (u.time, u.tile)):
            if update.time <= 0:
                self.shm.set_aging(update.tile, update.percent)
                self._log(0, f"aging tile={update.tile} percent={update.percent}")
            else:
                self._push(update.time, _AGING, ("aging", update))

        self._rebuild_tables()
        mapping, schedule, initial_report = map_and_deploy(
            self.shm, self.msu, self.mpm, self.cmm, rg=self.rg
        )
        self._initial_report = initial_report
        self._log(0, f"deploy gen=1 initial t_rl={initial_report.t_rl}")
        self._decide(0, f"initial deploy t_rl={initial_report.t_rl}")
        self._deploy_plan(0, frozenset())

        for injection in self.script.injections:
            self.inject(injection)

        while self._heap:
            time, prio, _, payload = heapq.heappop(self._heap)
            kind = payload[0]
            if kind == "fault":
                self._on_fault(time, payload[1])
            elif kind == "aging":
                update = payload[1]
                self.shm.set_aging(update.tile, update.percent)
                self._log(time, f"aging tile={update.tile} percent={update.percent}")
            elif kind == "flow_inject":
                self._on_flow_inject(time, payload)
            elif kind == "flow_deliver":
                self._on_flow_deliver(time, payload)
            elif kind == "task":
                self._on_task(time, payload)

        return self._finish()

    def _on_flow_inject(self, time, payload):
        _, gen, state = payload
        if gen != self._gen or state.outcome is not None:
            return
        fp = state.plan
        if fp.src_task in self._cancelled:
            state.outcome = "cancelled"
            return
        if self.drop_check_at_injection(fp.src_tile, fp.dst_tile):
            state.outcome = "dropped"
            self.metrics.flows_dropped += 1
            self._log(time, f"flow_drop {fp.src_task}->{fp.dst_task} "
                            f"src_tile={fp.src_tile} dst_tile={fp.dst_tile}")
            self._cancel(time, [fp.dst_task])
            return
        state.injected_at = time
        self._log(time, f"flow_inject {fp.src_task}->{fp.dst_task} "
                        f"links={','.join(map(str, fp.links))}")

    def _on_flow_deliver(self, time, payload):
        _, gen, state = payload
        if gen != self._gen or state.outcome is not None:
            return
        if state.injected_at is None:
            return
        state.outcome = "delivered"
        self.metrics.flows_delivered += 1
        fp = state.plan
        self._log(time, f"flow_deliver {fp.src_task}->{fp.dst_task}")

    def _on_task(self, time, payload):
        _, gen, tid, tile, start, finish = payload
        if gen != self._gen or tid in self._cancelled or tid in self._completed:
            return
        self._completed[tid] = finish
        self._log(time, f"task_finish task={tid} tile={tile} "
                        f"start={start} finish={finish}")

    def _finish(self):
        busy = {}
        for state in self._flows:
            if state.outcome == "delivered":
                cut = None
            elif state.outcome in ("severed", "requeued", "halted"):
                cut = state.cut_at
            else:
                continue
            for (link, s, e) in state.plan.intervals:
                end = e if cut is None else min(e, cut)
                if end > s:
                    busy[link] = busy.get(link, 0) + (end - s)
        self.metrics.link_busy = busy
        self.metrics.makespan = max(self._completed.values(), default=0)
        self.metrics.tasks_completed = len(self._completed)
        self.metrics.tasks_unfinished = len(self.tg) - len(self._completed)
        reports = self._reports
        self.metrics.remaps = len(reports)
        self.metrics.mpm_hits = sum(r.hit for r in reports)
        self.metrics.mpm_misses = len(reports) - self.metrics.mpm_hits
        self.metrics.recovery_walls = tuple(r.t_rl for r in reports)
        self.metrics.latency_reports = tuple(reports)
        return RunResult(
            metrics=self.metrics,
            trace=self.trace,
            decisions=self.decisions,
            shm=self.shm,
            tables=self.tables,
            mpm=self.mpm,
            cmm=self.cmm,
            initial_report=self._initial_report,
        )


def _loc(location):
    return ":".join(str(p) for p in location)


def run(script):
    """Execute one scenario; returns a RunResult."""
    return Kernel(script).run()

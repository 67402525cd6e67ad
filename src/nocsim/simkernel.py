"""Deterministic discrete-event simulation of the full fault loop:
checker events feed the health map, classification picks a severity,
permanent faults rebuild the routing graph and the per-port
unreachability tables, and remaps redeploy the application.  A
ScenarioScript extends shmu.Msu, so the script itself is the mapper's Msu.

Event ordering is total: (time, kind priority, insertion order) with
fault events before aging before flow events before task completions at
the same timestamp.  Identical scripts therefore produce identical
traces, metrics, and dumps byte for byte.

Execution replays the deployed plan, a Schedule the MSU built: at time
0 map_and_deploy's (Kernel.deploy, which `nocsim map` runs too), after
a remap Msu.schedule's from its deploy time.  A remap ordered at
detection time halts the old plan: tasks finished by then keep their
results (unless their host PE broke), everything else restarts on the
new mapping once reconfiguration has taken its virtual t_rl cycles.
In-flight transfers crossing the broken element are dropped or
requeued per policy; other halted transfers are re-sent by the new
plan.

A run is recorded as one list, Kernel.events, of (time, kind, *fields)
tuples; trace.txt and decisions.log are rendered from it through LINES
when read, and the Metrics counters are counted off it.  Every planned
transfer ends with exactly one outcome, recorded by Kernel._settle as
that flow's event: delivered (flows_delivered); dropped at the filter,
or severed under the drop policy (flows_dropped); requeued under the
requeue policy, or halted in flight by a remap (flows_requeued);
cancelled with its source task, or superseded unsent by a new plan (not
counted).  An injected transfer (its outcome is in _HELD) adds the
cycles it held each link to link_busy: its whole interval when
delivered, the part before its outcome's time otherwise.
"""

import heapq
from collections import Counter
from dataclasses import dataclass, field, fields

from .errors import (InfeasibilityError, RangeError, RegionBudgetError,
                     SemanticError)
from .health import SystemHealthMap
from .mapsched import dump_mapping
from .reachability import build_region_tables, should_drop
from .shmu import (
    INTERMITTENT,
    PERMANENT,
    REMAP,
    TRANSIENT,
    ClassifierConfig,
    CurrentMappingMemory,
    FaultEvent,
    classify,
    degrade_targets,
    flow_elements,
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
SEVERED_POLICIES = (DROP, REQUEUE)
# The outcomes of an injected transfer, which held its links.
_HELD = frozenset(("delivered", "severed", "requeued", "halted"))


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


@dataclass(kw_only=True)
class ScenarioScript(Msu):
    """Everything one simulation run needs, already validated: the MSU
    settings it inherits from Msu, and here the ones the MSU does not read."""

    ag: object
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    budget: int = 4
    prediction_k: int = 2
    mpm_capacity: int = 16
    severed_policy: str = DROP
    injections: tuple = ()
    aging: tuple = ()

    def __post_init__(self):
        if self.severed_policy not in SEVERED_POLICIES:
            raise RangeError(f"severed_policy must be one of "
                             f"{SEVERED_POLICIES}, got {self.severed_policy!r}")
        if self.prediction_k < 0:
            raise RangeError(
                f"prediction size must be >= 0, got {self.prediction_k}")
        if self.budget < 1:
            raise RegionBudgetError(
                f"rectangle budget must be >= 1, got {self.budget}")


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
        # The int counters in field order, then the per-item lines.
        lines = [f"{f.name} {getattr(self, f.name)}"
                 for f in fields(self) if f.type is int]
        for i, wall in enumerate(self.recovery_walls):
            lines.append(f"recovery_wall {i} {wall}")
        for i, r in enumerate(self.latency_reports):
            terms = " ".join(f"{f.name}={int(getattr(r, f.name))}"
                             for f in fields(r))
            lines.append(f"latency_report {i} {terms}")
        for link in sorted(self.link_busy):
            lines.append(f"link_busy {link} {self.link_busy[link]}")
        return "\n".join(lines) + "\n"


# Event kind -> (its trace.txt line, its decisions.log line), or None:
# str.format templates over the event's fields, rendered after its time.
_ACTION = "event {0} class={1} severity={2} action="
LINES = {
    "initial": ("deploy gen=1 initial t_rl={0.t_rl}",      # (LatencyReport,)
                "initial deploy t_rl={0.t_rl}"),
    "aging": ("aging tile={0} percent={1}", None),
    "store": ("store {0} tag={1:016x}", None),
    "store_infeasible": ("store {0} infeasible", None),
    "shm_update": ("shm_update {0}", None),
    "deploy": ("deploy gen={0}", None),
    "results_lost": ("results_lost task={0} tile={1}", None),
    "task_cancelled": ("task_cancelled task={0}", None),
    "task_finish": ("task_finish task={0} tile={1} start={2} finish={3}", None),
    # A flow's injection and its outcome: (FlowPlan, ...).
    "inject": ("flow_inject {0.src_task}->{0.dst_task} links={1}", None),
    "delivered": ("flow_deliver {0.src_task}->{0.dst_task}", None),
    "dropped": ("flow_drop {0.src_task}->{0.dst_task} "
                "src_tile={0.src_tile} dst_tile={0.dst_tile}", None),
    "severed": ("flow_severed {0.src_task}->{0.dst_task}", None),
    "requeued": ("flow_severed {0.src_task}->{0.dst_task}", None),
    **dict.fromkeys(("halted", "cancelled", "superseded"), (None, None)),
    # Decisions, named by their action: (location, class, severity, ...),
    # the location as format_location writes it.
    "already-recorded": (None, _ACTION + "already-recorded"),
    "none": (None, _ACTION + "none"),
    "stored": (None, _ACTION + "stored:{3}"),
    "tables-rebuilt": (None, _ACTION + "tables-rebuilt"),
    "infeasible": (None, _ACTION + "infeasible ({3})"),
    "remap": ("remap hit={3.hit:d} t_rl={3.t_rl}",     # + (report, deploy_at)
              _ACTION + "remap hit={3.hit:d} t_rl={3.t_rl} deploy_at={4}"),
}


def format_location(location):
    """A fault location as the logs show it: pe:3, turn:4:6."""
    return ":".join(map(str, location))


def render(events, column):
    """One log's lines: column 0 for trace.txt, 1 for decisions.log."""
    return [f"{e[0]} {LINES[e[1]][column].format(*e[2:])}"
            for e in events if LINES[e[1]][column] is not None]


@dataclass
class RunResult:
    metrics: Metrics
    events: list
    shm: object
    tables: object
    mpm: object
    cmm: object

    trace = property(lambda self: render(self.events, 0))
    decisions = property(lambda self: render(self.events, 1))

    def files(self):
        """What `nocsim simulate --out` writes, {file name: text} in
        writing order: metrics.txt (Metrics.to_text); trace.txt and
        decisions.log (the logs rendered from events, each line
        newline-terminated); mapping.txt (the final mapping, a blank line,
        and cmm.schedule: that mapping's ASAP schedule from time 0, not
        the plan the kernel replayed from a remap's deploy time); mpm.txt
        (the mapping memory); shm.txt (the health map)."""
        return {
            "metrics.txt": self.metrics.to_text(),
            "trace.txt": "".join(f"{line}\n" for line in self.trace),
            "decisions.log": "".join(f"{line}\n" for line in self.decisions),
            "mapping.txt": dump_mapping(self.cmm.mapping) + "\n"
                           + self.cmm.schedule.dump(),
            "mpm.txt": self.mpm.dump(),
            "shm.txt": self.shm.serialize(),
        }


class _FlowState:
    __slots__ = ("plan", "injected", "outcome")

    def __init__(self, plan):
        self.plan = plan
        self.injected = False
        self.outcome = None                 # set once, by Kernel._settle


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
    """One simulation run.  Build, then call run(), or only deploy(), once."""

    def __init__(self, script):
        self.script = script
        self.tg = script.tg
        self.ag = script.ag
        self.shm = SystemHealthMap(self.ag)
        self.mpm = MpmMemory(script.mpm_capacity)
        self.cmm = CurrentMappingMemory()
        self.rg = None
        self.tables = None
        self.histories = {}
        self.events = []
        self.metrics = Metrics()
        self._heap = []
        self._seq = 0
        self._gen = 0
        self._plan = None                   # the running Schedule
        self._flows = []                    # _FlowState of the running plan
        self._completed = {}                # task -> finish time
        self._cancelled = set()

    # -- plumbing ------------------------------------------------------------

    def _push(self, time, prio, handler, *args):
        """Queue handler(time, *args); seq breaks ties, so handlers are
        never compared."""
        heapq.heappush(self._heap, (time, prio, self._seq, handler, args))
        self._seq += 1

    def _log(self, time, kind, *fields):
        self.events.append((time, kind, *fields))

    def _settle(self, state, outcome, now):
        """End one flow: set its outcome and record it as its event."""
        state.outcome = outcome
        self._log(now, outcome, state.plan)

    # -- setup ---------------------------------------------------------------

    def _rebuild_tables(self, faults=()):
        """Routing graph and region tables for the current health state.
        The first graph is built cold; each later one is the previous
        graph minus the edges of the newly applied `faults`."""
        if self.rg is None:
            self.rg = self.script.build_rg(self.shm)
        else:
            self.rg = self.rg.without(faults)
        self.tables = build_region_tables(self.rg, self.script.budget,
                                          prev=self.tables)

    def _deploy_plan(self, plan):
        """Execute `plan`, a Schedule of the current mapping, from its base
        time on: every task it does not retain runs.  The replaced plan's
        flows that were never sent are superseded."""
        for state in self._flows:
            if state.outcome is None:
                self._settle(state, "superseded", plan.base_time)
        self._gen += 1
        self._plan = plan
        for tid, (tile, start, finish) in enumerate(plan.task_times):
            if tid in plan.retained or tid in self._cancelled:
                continue
            self._push(finish, _TASK, self._on_task, self._gen, tid, tile,
                       start, finish)
        self._flows = []
        for fp in plan.flows:
            if fp.dst_task in self._cancelled:
                continue
            state = _FlowState(fp)
            self._flows.append(state)
            self._push(fp.injection, _FLOW, self._on_flow_inject, state)
            self._push(fp.delivery, _FLOW, self._on_flow_deliver, state)

    # -- fault pipeline --------------------------------------------------------

    def _on_fault(self, now, event):
        """Classify one fault report, act on it, and record the decision
        as an event named by its action."""
        where = format_location(event.location)
        history = self.histories.setdefault(event.location, [])
        history.append(event)
        fclass = classify(history, self.script.classifier)
        targets = degrade_targets(event.location, self.ag)
        if fclass == PERMANENT and self.shm.broken.issuperset(targets):
            return self._log(now, "already-recorded", where, fclass, "ignore")

        sev = severity(event.location, fclass, self.cmm, self.ag)
        if fclass == TRANSIENT:
            return self._log(now, "none", where, fclass, sev)

        if fclass == INTERMITTENT:
            stored = 0
            for loc in predict_mpfs(self.histories, self.script.prediction_k,
                                    self.script.classifier):
                entry = map_and_store(self.shm, loc, self.script, self.mpm,
                                      rg=self.rg)
                if entry is not None:
                    stored += 1
                    self._log(now, "store", format_location(loc), entry.tag)
                else:
                    self._log(now, "store_infeasible", format_location(loc))
            return self._log(now, "stored", where, fclass, sev, stored)

        # Permanent: record, rebuild routing state, then maybe remap.
        for fault in targets:
            self.shm.apply_fault(fault)
        self._rebuild_tables(targets)
        self._log(now, "shm_update", where)
        self._sever_in_flight(now, targets)

        if sev != REMAP:
            return self._log(now, "tables-rebuilt", where, fclass, sev)

        finished = set(self._halt_plan(now))
        try:
            *_, report = map_and_deploy(self.shm, self.script, self.mpm,
                                        self.cmm, rg=self.rg)
        except InfeasibilityError as exc:
            # No feasible remap: abandon the tasks pinned to broken PEs.
            pinned = [t for t, (tile, _, _) in enumerate(self._plan.task_times)
                      if t not in self._plan.retained | self._completed.keys()
                      and not self.shm.pe_usable(tile)]
            self._cancel(now, pinned)
            return self._log(now, "infeasible", where, fclass, sev, str(exc))

        deploy_at = now + report.t_rl
        self._deploy_plan(self.script.schedule(
            self.shm, self.rg, self.cmm.mapping, deploy_at, finished))
        self._log(now, "remap", where, fclass, sev, report, deploy_at)
        self._log(deploy_at, "deploy", self._gen)

    def _halt_plan(self, now):
        """Stop the executing plan; tasks finished by `now` on a still
        usable PE keep their results.  Returns {task: finish}."""
        finished = dict(self._completed)
        for t in list(finished):
            tile = self.cmm.mapping[t]
            if not self.shm.pe_usable(tile):
                del finished[t]
                del self._completed[t]
                self._log(now, "results_lost", t, tile)
        for state in self._flows:
            if state.injected and state.outcome is None:
                self._settle(state, "halted", now)
        return finished

    def _sever_in_flight(self, now, faults):
        """Transfers crossing a newly broken element (a link or turn on
        their route, or the PE at either end) while in flight are
        dropped (counted) or requeued, per policy."""
        outcome = ("requeued" if self.script.severed_policy == REQUEUE
                   else "severed")
        for state in self._flows:
            fp = state.plan
            if (state.injected and state.outcome is None
                    and not flow_elements(fp, self.ag).isdisjoint(faults)):
                self._settle(state, outcome, now)

    def _cancel(self, now, tasks):
        """Abandon `tasks` and every successor that has not completed;
        the rest keeps running.  Tasks already abandoned are skipped."""
        lost = set(tasks) - self._cancelled
        frontier = list(lost)
        while frontier:
            t = frontier.pop()
            for s in self.tg.successors(t):
                if (s not in lost and s not in self._completed
                        and s not in self._cancelled):
                    lost.add(s)
                    frontier.append(s)
        self._cancelled |= lost
        for t in sorted(lost):
            self._log(now, "task_cancelled", t)

    # -- event loop ------------------------------------------------------------

    def deploy(self):
        """Time 0: apply the aging due by then (queue the rest), build the
        first routing graph and tables, map, and start the mapping's
        schedule.  Returns map_and_deploy's (mapping, schedule, report)."""
        for update in sorted(self.script.aging, key=lambda u: (u.time, u.tile)):
            if update.time <= 0:
                self._on_aging(0, update)
            else:
                self._push(update.time, _AGING, self._on_aging, update)
        self._rebuild_tables()
        mapping, schedule, report = map_and_deploy(
            self.shm, self.script, self.mpm, self.cmm, rg=self.rg)
        self._log(0, "initial", report)
        self._deploy_plan(schedule)
        return mapping, schedule, report

    def run(self):
        self.deploy()
        latency = self.script.cost_model.detection_latency
        for injection in self.script.injections:
            for event in expand_injection(injection):
                self._push(event.time + latency, _FAULT, self._on_fault, event)

        while self._heap:
            time, _, _, handler, args = heapq.heappop(self._heap)
            handler(time, *args)

        return self._finish()

    def _on_aging(self, time, update):
        self.shm.set_aging(update.tile, update.percent)
        self._log(time, "aging", update.tile, update.percent)

    def _on_flow_inject(self, time, state):
        if state.outcome is not None:
            return
        fp = state.plan
        if fp.src_task in self._cancelled:
            self._settle(state, "cancelled", time)
            return
        if should_drop(self.tables, fp.src_tile, fp.dst_tile):
            self._settle(state, "dropped", time)
            self._cancel(time, [fp.dst_task])
            return
        state.injected = True
        self._log(time, "inject", fp, ",".join(map(str, fp.links)))

    def _on_flow_deliver(self, time, state):
        # Still open means injected: the inject event always comes first.
        if state.outcome is None:
            self._settle(state, "delivered", time)

    def _on_task(self, time, gen, tid, tile, start, finish):
        if gen != self._gen or tid in self._cancelled or tid in self._completed:
            return
        self._completed[tid] = finish
        self._log(time, "task_finish", tid, tile, start, finish)

    def _finish(self):
        busy = self.metrics.link_busy
        for e in self.events:
            if e[1] in _HELD:
                for link, s, end in e[2].intervals:
                    if e[1] != "delivered":
                        end = min(end, e[0])
                    if end > s:
                        busy[link] = busy.get(link, 0) + (end - s)
        self.metrics.makespan = max(self._completed.values(), default=0)
        self.metrics.tasks_completed = len(self._completed)
        self.metrics.tasks_unfinished = len(self.tg) - len(self._completed)
        n = Counter(e[1] for e in self.events)
        self.metrics.flows_delivered = n["delivered"]
        self.metrics.flows_dropped = n["dropped"] + n["severed"]
        self.metrics.flows_requeued = n["requeued"] + n["halted"]
        self.metrics.stores = n["store"]
        reports = tuple(e[5] for e in self.events if e[1] == "remap")
        self.metrics.remaps = len(reports)
        self.metrics.mpm_hits = sum(r.hit for r in reports)
        self.metrics.mpm_misses = len(reports) - self.metrics.mpm_hits
        self.metrics.recovery_walls = tuple(r.t_rl for r in reports)
        self.metrics.latency_reports = reports
        return RunResult(
            metrics=self.metrics,
            events=self.events,
            shm=self.shm,
            tables=self.tables,
            mpm=self.mpm,
            cmm=self.cmm,
        )


def run(script):
    """Execute one scenario; returns a RunResult."""
    return Kernel(script).run()

import dataclasses

import pytest

import nocsim as ns

from conftest import chain_tg


def script(tg, ag, **kw):
    kw.setdefault("seed", 1)
    kw.setdefault("turn_model", ns.XY)
    return ns.ScenarioScript(tg=tg, ag=ag, **kw)


# -- injection expansion -------------------------------------------------------


def test_expand_transient_single_event():
    events = ns.expand_injection(
        ns.Injection(time=5, location=("pe", 1), persistence="transient"))
    assert len(events) == 1
    assert events[0].time == 5
    assert events[0].location == ("pe", 1)
    assert not events[0].retest_persistent


def test_expand_intermittent_burst():
    events = ns.expand_injection(
        ns.Injection(time=500, location=("link", 2),
                     persistence=("intermittent", 3, 100)))
    assert [e.time for e in events] == [500, 600, 700]
    assert all(e.location == ("link", 2) for e in events)
    assert not any(e.retest_persistent for e in events)


def test_expand_permanent_sets_retest():
    events = ns.expand_injection(
        ns.Injection(time=9, location=("turn", 4, 6), persistence="permanent"))
    assert len(events) == 1
    assert events[0].retest_persistent


# -- fault-free baseline ---------------------------------------------------------


def test_fault_free_matches_static_schedule(mesh33):
    tg = chain_tg([5, 5, 5], [2, 1])
    res = ns.run(script(tg, mesh33))
    m = res.metrics
    assert m.makespan == 15
    assert (m.remaps, m.flows_dropped, m.flows_requeued) == (0, 0, 0)
    assert m.tasks_completed == 3 and m.tasks_unfinished == 0

    shm = ns.SystemHealthMap(mesh33)
    msu = ns.Msu(tg=tg, turn_model=ns.XY, seed=1)
    mapping, sched, report = ns.map_and_deploy(
        shm, msu, ns.MpmMemory(16), ns.CurrentMappingMemory())
    assert sched.makespan == m.makespan
    assert res.cmm.mapping == mapping
    initial, = [e[2] for e in res.events if e[1] == "initial"]
    assert initial == report
    assert report.t_rl == 741


def test_run_function_equals_kernel_class(mesh33):
    tg = chain_tg([5, 5, 5], [2, 1])
    a = ns.run(script(tg, mesh33))
    b = ns.Kernel(script(tg, mesh33)).run()
    assert a.trace == b.trace
    assert a.metrics.to_text() == b.metrics.to_text()


def test_flow_timing_and_link_busy(mesh22):
    # Spread mapping [0, 1, 2]: flow 0->1 over the east link, 1->2 west+north.
    tg = chain_tg([5, 5, 5], [2, 1])
    res = ns.run(script(tg, mesh22, seed=2, cost="utilization_balance"))
    assert res.cmm.mapping == [0, 1, 2]
    assert "5 flow_inject 0->1 links=1" in res.trace
    assert "9 flow_deliver 0->1" in res.trace
    assert "18 flow_deliver 1->2" in res.trace
    assert res.metrics.makespan == 23
    assert res.metrics.flows_delivered == 2
    assert res.metrics.link_busy == {1: 2, 3: 1, 0: 1}
    text = res.metrics.to_text()
    assert "link_busy 0 1\nlink_busy 1 2\nlink_busy 3 1" in text
    assert text.startswith("makespan 23\ntasks_completed 3\n")


# -- permanent fault on a hosting tile ----------------------------------------------


def hosting_fault_run(mesh33, **kw):
    tg = chain_tg([5, 5, 5], [2, 1])
    inj = ns.Injection(time=7, location=("pe", 1), persistence="permanent")
    return ns.run(script(tg, mesh33, injections=(inj,), **kw))


def test_permanent_fault_triggers_single_remap(mesh33):
    res = hosting_fault_run(mesh33)
    m = res.metrics
    assert m.remaps == 1 and m.mpm_misses == 1 and m.mpm_hits == 0
    remap_lines = [d for d in res.decisions if "action=remap" in d]
    assert remap_lines == [
        "8 event pe:1 class=permanent severity=remap "
        "action=remap hit=0 t_rl=651 deploy_at=659"]
    assert m.recovery_walls == (651,)
    assert m.latency_reports[0].hit is False
    # Results computed on the broken tile are discarded and redone.
    assert "8 results_lost task=0 tile=1" in res.trace
    assert m.makespan == 659 + 15
    assert m.tasks_completed == 3 and m.tasks_unfinished == 0
    assert 1 not in res.cmm.mapping


def test_unused_element_rebuilds_tables_without_remap(mesh33):
    tg = chain_tg([5, 5, 5], [2, 1])
    lid = next(l.id for l in mesh33.links if l.src == 7 and l.dst == 8)
    injections = (
        ns.Injection(time=7, location=("link", lid), persistence="permanent"),
        ns.Injection(time=30, location=("link", lid), persistence="permanent"),
    )
    res = ns.run(script(tg, mesh33, injections=injections))
    assert res.metrics.remaps == 0
    assert res.metrics.makespan == 15            # undisturbed
    assert f"8 event link:{lid} class=permanent severity=ignore " \
           f"action=tables-rebuilt" in res.decisions
    assert f"31 event link:{lid} class=permanent severity=ignore " \
           f"action=already-recorded" in res.decisions
    assert not res.shm.link_healthy(lid)


# -- prediction pays off ----------------------------------------------------------


def test_intermittent_burst_then_permanent_hits_mpm(mesh33):
    tg = chain_tg([5, 5, 5], [2, 1])
    burst = ns.Injection(time=20, location=("pe", 1),
                         persistence=("intermittent", 3, 5))
    perm = ns.Injection(time=60, location=("pe", 1), persistence="permanent")
    hit_run = ns.run(script(tg, mesh33, injections=(burst, perm)))
    hm = hit_run.metrics
    assert hm.stores == 1 and hm.mpm_hits == 1 and hm.mpm_misses == 0
    assert "21 event pe:1 class=transient severity=ignore action=none" \
        in hit_run.decisions
    assert "31 event pe:1 class=intermittent severity=remap_and_store " \
           "action=stored:1" in hit_run.decisions
    assert hm.latency_reports[0].hit is True
    assert hm.latency_reports[0].t_rl == 16

    miss_run = ns.run(script(tg, mesh33, injections=(perm,)))
    mm = miss_run.metrics
    assert mm.mpm_hits == 0 and mm.mpm_misses == 1
    assert mm.latency_reports[0].t_rl == 651
    assert hm.latency_reports[0].t_rl < mm.latency_reports[0].t_rl
    # Both runs settle on the same repaired placement.
    assert hit_run.cmm.mapping == miss_run.cmm.mapping


def test_prediction_with_no_spare_tile_stores_nothing():
    # On a 1x1 mesh the predicted failure of pe:0 leaves no usable PE,
    # so the store is logged as infeasible and not counted.
    tg = chain_tg([5, 5], [1])
    burst = ns.Injection(time=2, location=("pe", 0),
                         persistence=("intermittent", 3, 2))
    res = ns.run(script(tg, ns.build_mesh(1, 1), injections=(burst,)))
    assert "7 store pe:0 infeasible" in res.trace
    assert "7 event pe:0 class=intermittent severity=remap_and_store " \
           "action=stored:0" in res.decisions
    assert res.metrics.stores == 0


# -- injection-time drop and starvation -----------------------------------------------


def test_coarse_tables_drop_flow_and_starve_dependents(mesh33):
    # Budget 1 covers each port's unreachable set with one bounding box,
    # which on a column flow swallows the destination: the packet is
    # dropped at injection and everything downstream starves.
    tg = chain_tg([5, 5, 5], [2, 1])
    aging = tuple(ns.AgingUpdate(time=0, tile=t, percent=100)
                  for t in range(9) if t not in (1, 4, 7))
    res = ns.run(script(tg, mesh33, cost="utilization_balance",
                        budget=1, aging=aging))
    m = res.metrics
    assert res.cmm.mapping == [1, 4, 7]
    assert m.flows_dropped == 1
    assert m.tasks_completed == 1 and m.tasks_unfinished == 2
    assert m.makespan == 5
    assert "5 flow_drop 0->1 src_tile=1 dst_tile=4" in res.trace
    assert "5 task_cancelled task=1" in res.trace
    assert "5 task_cancelled task=2" in res.trace


def test_generous_budget_delivers_same_column_flow(mesh33):
    tg = chain_tg([5, 5, 5], [2, 1])
    aging = tuple(ns.AgingUpdate(time=0, tile=t, percent=100)
                  for t in range(9) if t not in (1, 4, 7))
    res = ns.run(script(tg, mesh33, cost="utilization_balance",
                        budget=4, aging=aging))
    assert res.metrics.flows_dropped == 0
    assert res.metrics.tasks_completed == 3


def test_drop_into_cancelled_task_cancels_nothing_twice(mesh33):
    # Both flows into task 2 leave tile 1 for tile 7, which budget 1
    # filters.  Dropping 0->1 at t=5 already cancels tasks 1, 2 and 3;
    # dropping 0->2 at t=6 is still counted but cancels nothing new.
    tasks = [ns.Task(i, 5) for i in range(4)]
    tg = ns.build_task_graph(tasks, {(0, 1): 1, (0, 2): 2, (1, 2): 1,
                                     (2, 3): 1})
    aging = tuple(ns.AgingUpdate(time=0, tile=t, percent=100)
                  for t in range(9) if t not in (1, 4, 7))
    res = ns.run(script(tg, mesh33, seed=2, cost="utilization_balance",
                        budget=1, aging=aging))
    assert res.cmm.mapping == [1, 7, 7, 1]
    assert "6 flow_drop 0->2 src_tile=1 dst_tile=7" in res.trace
    assert res.metrics.flows_dropped == 2
    cancelled = [l for l in res.trace if " task_cancelled " in l]
    assert cancelled == ["5 task_cancelled task=1", "5 task_cancelled task=2",
                         "5 task_cancelled task=3"]
    assert res.metrics.tasks_completed == 1


def test_remap_sends_no_planned_flow_into_a_cancelled_task(mesh33):
    # The setup above, plus tile 1's permanent fault at t=8: task 0's
    # result is lost with the tile, and the remap re-runs it on tile 4.
    # Its flows into the cancelled tasks 1 and 2 are never planned.
    tasks = [ns.Task(i, 5) for i in range(4)]
    tg = ns.build_task_graph(tasks, {(0, 1): 1, (0, 2): 2, (1, 2): 1,
                                     (2, 3): 1})
    aging = tuple(ns.AgingUpdate(time=0, tile=t, percent=100)
                  for t in range(9) if t not in (1, 4, 7))
    injections = (ns.Injection(time=8, location=("pe", 1),
                               persistence="permanent"),)
    res = ns.run(script(tg, mesh33, seed=2, cost="utilization_balance",
                        budget=1, aging=aging, injections=injections))
    assert res.trace[-3:] == ["9 remap hit=0 t_rl=61", "70 deploy gen=2",
                              "75 task_finish task=0 tile=4 start=70 "
                              "finish=75"]
    assert not [l for l in res.trace
                if " flow_" in l and int(l.split()[0]) > 9]
    m = res.metrics
    assert (m.flows_dropped, m.tasks_completed, m.remaps) == (2, 1, 1)


# -- infeasible remap -----------------------------------------------------------------


def test_infeasible_remap_cancels_pinned_tasks_and_successors(mesh22):
    # Tiles 1 and 3 carry no work, so their faults only rebuild the
    # tables.  Tasks 0 and 1 finish on tile 0; tile 2's fault then moves
    # tasks 2 and 3 onto tile 0, and tile 0's fault leaves no usable PE.
    tg = chain_tg([5, 5, 5, 5], [2, 1, 1])
    injections = tuple(
        ns.Injection(time=t, location=("pe", tile), persistence="permanent")
        for t, tile in ((1, 1), (2, 3), (12, 2), (20, 0)))
    res = ns.run(script(tg, mesh22, injections=injections))
    assert res.decisions[-1] == (
        "21 event pe:0 class=permanent severity=remap "
        "action=infeasible (no usable processing element)")

    def tasks(kind):
        return {int(l.split("task=")[1].split()[0])
                for l in res.trace if f" {kind} " in l}

    finished, cancelled = tasks("task_finish"), tasks("task_cancelled")
    assert finished == {0, 1}
    assert not finished & cancelled
    # Tasks 2 and 3 were planned on the broken tile and never ran;
    # task 3 is also task 2's successor.
    assert cancelled == {2, 3}
    assert "21 task_cancelled task=2" in res.trace
    m = res.metrics
    assert m.remaps == 1
    assert m.tasks_completed + m.tasks_unfinished == len(tg)


# -- severed in-flight flows -----------------------------------------------------------


def severed_run(mesh22, policy):
    tg = chain_tg([5, 5, 5], [2, 1])
    inj = ns.Injection(time=6, location=("link", 1), persistence="permanent")
    return ns.run(script(tg, mesh22, seed=2, cost="utilization_balance",
                         injections=(inj,), severed_policy=policy))


def test_severed_flow_drop_policy(mesh22):
    res = severed_run(mesh22, ns.DROP)
    assert res.metrics.flows_dropped == 1
    assert res.metrics.flows_requeued == 0
    assert res.metrics.remaps == 1
    assert "7 flow_severed 0->1" in res.trace
    assert res.metrics.tasks_completed == 3


def test_severed_flow_requeue_policy(mesh22):
    drop = severed_run(mesh22, ns.DROP)
    req = severed_run(mesh22, ns.REQUEUE)
    assert req.metrics.flows_dropped == 0
    assert req.metrics.flows_requeued == 1
    # The policy names the bookkeeping, not the recovery path.
    assert req.metrics.makespan == drop.metrics.makespan == 136


@pytest.mark.parametrize("change, error, message", [
    pytest.param({"severed_policy": policy}, ns.RangeError,
                 f"got {policy!r}", id=policy)
    for policy in ("REQUEUE", "retry")] + [
    pytest.param({"prediction_k": -1}, ns.RangeError,
                 "prediction size must be >= 0, got -1", id="prediction_k"),
    pytest.param({"budget": 0}, ns.RegionBudgetError,
                 "rectangle budget must be >= 1, got 0", id="budget"),
])
def test_unknown_severed_policy_fails_when_the_script_is_built(
        mesh22, change, error, message):
    # The kernel treats every policy but requeue as drop, so an unknown
    # one must not reach it; a negative prediction size or a budget
    # below 1 would otherwise fail only when the run reads it.
    with pytest.raises(error, match=message):
        dataclasses.replace(script(chain_tg([1, 1]), mesh22), **change)


@pytest.mark.parametrize("policy", [ns.DROP, ns.REQUEUE])
def test_severed_flow_holds_its_link_until_the_cut(mesh22, policy):
    # Flow 0->1 enters link 1 at t=6 and is cut at t=7, so it holds the
    # link for one cycle whether it is dropped or requeued.
    res = severed_run(mesh22, policy)
    assert res.metrics.link_busy == {1: 1}


@pytest.mark.parametrize("policy", [ns.DROP, ns.REQUEUE])
def test_turn_fault_severs_the_flow_taking_it(mesh33, policy):
    # Only tiles 0 and 4 are usable: tasks 0 and 2 run on tile 0, task 1
    # on tile 4.  Flow 1->2 leaves tile 4 at t=50 over links 12 (west)
    # and 9 (south), turning (E, S) at tile 3, which breaks at t=60.
    tasks = [ns.Task(0, 50), ns.Task(1, 50), ns.Task(2, 1)]
    tg = ns.build_task_graph(tasks, {(0, 2): 30, (1, 2): 30})
    aging = tuple(ns.AgingUpdate(time=0, tile=t, percent=100)
                  for t in range(9) if t not in (0, 4))
    slot = mesh33.turn_slot[("E", "S")]
    inj = ns.Injection(time=60, location=("turn", 3, slot),
                       persistence="permanent")
    res = ns.run(script(tg, mesh33, aging=aging, injections=(inj,),
                        severed_policy=policy))
    assert "50 flow_inject 1->2 links=12,9" in res.trace
    assert "61 flow_severed 1->2" in res.trace
    m = res.metrics
    assert (m.flows_dropped, m.flows_requeued) == (
        (1, 0) if policy == ns.DROP else (0, 1))
    assert m.remaps == 1


def test_halted_flow_holds_its_link_until_the_halt(mesh33):
    # Flow 0->1 is injected at t=5 and would enter link 1 over [6, 14).
    # Tile 2's fault is reported at t=6 and halts the plan, so the halted
    # flow holds no cycle; the re-sent flow holds link 1 for all 8.
    tasks = [ns.Task(0, 5), ns.Task(1, 5), ns.Task(2, 30)]
    tg = ns.build_task_graph(tasks, {(0, 1): 8})
    inj = ns.Injection(time=5, location=("pe", 2), persistence="permanent")
    res = ns.run(script(tg, mesh33, injections=(inj,)))
    assert "5 flow_inject 0->1 links=1" in res.trace
    assert "233 flow_inject 0->1 links=1" in res.trace
    assert res.metrics.flows_requeued == 1
    assert res.metrics.flows_delivered == 1
    assert res.metrics.link_busy == {1: 8}


# -- aging ------------------------------------------------------------------------------


def test_midrun_aging_slows_later_plans(mesh22):
    tg = chain_tg([10, 10], [1])
    base = ns.run(script(tg, mesh22, seed=3))
    tile = base.cmm.mapping[0]
    assert base.metrics.makespan == 20

    aging = tuple(ns.AgingUpdate(time=2, tile=t, percent=50)
                  for t in range(4) if t != tile)
    inj = ns.Injection(time=3, location=("pe", tile), persistence="permanent")
    res = ns.run(script(tg, mesh22, seed=3, aging=aging, injections=(inj,)))
    assert f"2 aging tile={res.cmm.mapping[0]} percent=50" in res.trace
    # wcet 10 at 50 percent speed takes 20 cycles on the new plan
    finishes = [line for line in res.trace if "task_finish task=0" in line]
    assert finishes[-1].endswith("start=103 finish=123")
    assert res.metrics.makespan == 143


def test_preload_aging_applied_before_initial_mapping(mesh22):
    tg = chain_tg([10, 10], [1])
    aging = (ns.AgingUpdate(time=0, tile=1, percent=100),)
    res = ns.run(script(tg, mesh22, seed=3, aging=aging))
    assert 1 not in res.cmm.mapping
    assert res.metrics.tasks_completed == 2


# -- determinism ---------------------------------------------------------------------


def test_rerun_is_byte_identical(mesh33):
    a = hosting_fault_run(mesh33)
    b = hosting_fault_run(mesh33)
    assert a.files() == b.files()


def test_metrics_text_shape(mesh33):
    res = hosting_fault_run(mesh33)
    text = res.metrics.to_text()
    lines = text.splitlines()
    assert lines[0] == "makespan 674"
    assert "remaps 1" in lines
    assert "recovery_wall 0 651" in lines
    assert any(l.startswith("latency_report 0 hit=0") for l in lines)

"""One row per library raise statement that no other tier-1 test runs:
the call, the error class it must raise and a fragment of its message.
A raise that never runs can itself be wrong (a misspelt name in its
f-string raises NameError instead), so each is executed once here."""

import pytest

import nocsim as ns
from nocsim.errors import (RangeError, RegionBudgetError, SemanticError,
                           UnknownPort)


def _aged_out():
    shm = ns.SystemHealthMap(ns.build_mesh(2, 2))
    shm.set_aging(0, 100)
    return shm


def _heuristic(name="greedy", **kwargs):
    ag = ns.build_mesh(2, 2)
    shm = ns.SystemHealthMap(ag)
    rg = ns.build_routing_graph(ag, ns.XY, shm)
    return ns.run_heuristic(name, ns.random_task_graph(3, 0.5, 1), shm, rg,
                            **kwargs)


def _rg22():
    ag = ns.build_mesh(2, 2)
    return ns.build_routing_graph(ag, ns.XY, ns.SystemHealthMap(ag))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: _aged_out().effective_wcet(0, 5), RangeError,
     "tile 0 fully aged out, no effective wcet"),
    (lambda: _heuristic(initial_policy="zigzag"), RangeError,
     "unknown initial mapping policy 'zigzag'"),
    (lambda: _heuristic(ctg=ns.cluster_tasks(ns.random_task_graph(3, 0.5, 1),
                                             2)),
     SemanticError, "clustered graph built from a different task graph"),
    (lambda: _heuristic(cost="latency"), RangeError,
     "unknown cost function 'latency'"),
    (lambda: _heuristic("tabu"), RangeError, "unknown heuristic 'tabu'"),
    (lambda: ns.build_region_tables(_rg22(), 1).rectangles(0, "W"),
     UnknownPort, "tile 0 has no W output port"),
    (lambda: ns.build_region_tables(_rg22(), 0), RegionBudgetError,
     "rectangle budget must be >= 1, got 0"),
    (lambda: ns.expand_injection(ns.Injection(0, ("pe", 0), "sporadic")),
     SemanticError, "unknown persistence 'sporadic'"),
], ids=["effective-wcet-aged-out",
        "initial-policy", "heuristic-foreign-clustering",
        "heuristic-cost", "heuristic-name", "region-table-port",
        "region-budget", "injection-persistence"])
def test_unreached_raise_site_raises_its_error(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert fragment in str(exc.value)

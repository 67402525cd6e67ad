"""A cold reference for every incremental path.

Each bundled scenario and each tests/scenarios/ document runs through
the kernel twice under greedy, ILS and SA: once as it is, and once with
every incremental path swapped for the cold form that answers the same
question.  The six `simulate` files and the final region dump must
agree byte for byte.  The cold forms, patched in here only:

- Kernel._rebuild_tables builds each routing graph cold from the health
  map and its tables with prev=None, instead of deriving the graph
  (RoutingGraph.without, inherited reach bits) and rebuilding only the
  ports whose reach changed;
- the kernel's map_and_store maps every predicted state anew, on a cold
  graph and in a memory of its own, and stores the entry in the
  kernel's memory, instead of deriving the hypothetical graph and
  reusing an entry already stored;
- RoutingGraph.route_provider returns a new provider on every request,
  instead of the one the graph memoises;
- mapsched._Search.evaluate drops the moved unit it is given and runs
  the full pass on every candidate, instead of rejecting a one-unit move
  that breaks a route from the moved unit's cross-unit edges alone.
"""

import pathlib

import pytest

import nocsim as ns
from nocsim import mapsched, shmu, simkernel
from nocsim.scenario import load_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCUMENTS = (sorted((ROOT / "scenarios").glob("*.json"))
             + sorted((ROOT / "tests" / "scenarios").glob("*.json")))
HEURISTICS = ("greedy", "ils", "sa")


def _outputs(path, heuristic):
    """What `nocsim simulate --out` writes, plus the final region dump."""
    result = simkernel.Kernel(load_scenario(path, heuristic=heuristic)).run()
    return {**result.files(), "regions.txt": result.tables.dump()}


def _go_cold(monkeypatch):
    def rebuild_tables(kernel, faults=()):
        kernel.rg = kernel.script.build_rg(kernel.shm)
        kernel.tables = ns.build_region_tables(kernel.rg, kernel.script.budget)

    def map_and_store(shm, location, msu, mpm, rg=None):
        entry = shmu.map_and_store(shm, location, msu, shmu.MpmMemory(1))
        if entry is not None:
            mpm.store(entry)
        return entry

    monkeypatch.setattr(simkernel.Kernel, "_rebuild_tables", rebuild_tables)
    monkeypatch.setattr(simkernel, "map_and_store", map_and_store)
    monkeypatch.setattr(ns.RoutingGraph, "route_provider",
                        lambda rg, seed=0: ns.RouteProvider(rg, seed))
    evaluate = mapsched._Search.evaluate
    monkeypatch.setattr(mapsched._Search, "evaluate",
                        lambda search, unit_tiles, moved=None:
                        evaluate(search, unit_tiles))


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.stem)
def test_kernel_matches_its_cold_reference(path, heuristic, monkeypatch):
    warm = _outputs(path, heuristic)
    _go_cold(monkeypatch)
    cold = _outputs(path, heuristic)
    for name in warm:
        assert warm[name] == cold[name], f"{path.stem}/{heuristic}: {name}"

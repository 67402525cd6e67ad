"""Command line front end.

Subcommands:
  validate   parse and check a scenario file
  map        the kernel's initial deployment (mapping and schedule), no
             fault timeline
  simulate   run the full event-driven simulation
  regions    dump the per-port unreachable-region tables after the
             scripted permanent faults
  sweep      run several seed variants concurrently and aggregate

Exit codes: 0 success, 1 validation error or an --out that cannot be
written, 2 infeasible instance.
"""

import argparse
import concurrent.futures
import os
import sys

from .errors import InfeasibilityError, RangeError, ValidationError
from .health import SystemHealthMap
from .mapsched import (
    COST_ALIASES,
    COST_KINDS,
    dump_mapping,
    evaluate_cost,
    HEURISTICS,
)
from .reachability import build_region_tables
from .scenario import load_scenario
from .shmu import degrade_targets
from .simkernel import format_location, Kernel


def _add_common(sub, out=True, verbose=False):
    sub.add_argument("--scenario", required=True, help="scenario JSON file")
    if out:
        sub.add_argument("--out", help="directory for output files")
    sub.add_argument("--seed", type=int, help="override the scenario seed")
    sub.add_argument("--heuristic", choices=tuple(HEURISTICS),
                     help="override the mapping heuristic")
    sub.add_argument("--cost", choices=tuple(COST_ALIASES) + COST_KINDS,
                     help="override the cost function")
    sub.add_argument("--regions-budget", type=int, dest="budget",
                     help="override the rectangle budget per port")
    if verbose:
        sub.add_argument("--verbose", "-v", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nocsim",
        description="fault-aware NoC mapping and simulation",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("validate", help="check a scenario file"),
                out=False, verbose=True)
    _add_common(subs.add_parser("map", help="compute the initial deployment"))
    _add_common(subs.add_parser("simulate", help="run the fault timeline"),
                verbose=True)
    _add_common(subs.add_parser("regions",
                                help="dump unreachable-region tables"))
    sweep = subs.add_parser("sweep", help="run seed variants concurrently")
    _add_common(sweep)
    sweep.add_argument("--seeds", type=int, default=8,
                       help="number of consecutive seeds to run")
    sweep.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = one per cpu); "
                            "at most one per seed and one per cpu")
    return parser


def _overrides(args):
    """The load_scenario keyword overrides the common options give."""
    return dict(seed=args.seed, heuristic=args.heuristic, cost=args.cost,
                budget=args.budget)


def _load(args):
    return load_scenario(args.scenario, **_overrides(args))


def _write(out_dir, name, text):
    path = os.path.join(out_dir, name)
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"{exc.filename or path}: "
                              f"{exc.strerror or exc}") from None
    return path


def _emit(args, name, text):
    """Write `text` to `name` under --out and say so, or print it."""
    if args.out:
        print(f"wrote {_write(args.out, name, text)}")
    else:
        print(text, end="")
    return 0


def cmd_validate(args):
    script = _load(args)
    dims = "x".join(str(d) for d in script.ag.dims)
    print(f"ok: {len(script.tg)} tasks, {dims} mesh, "
          f"turn model {script.turn_model.name}, "
          f"{len(script.injections)} injections, "
          f"{len(script.aging)} aging updates")
    if args.verbose:
        for inj in script.injections:
            print(f"  injection t={inj.time} at "
                  f"{format_location(inj.location)} "
                  f"({inj.persistence})")
    return 0


def cmd_map(args):
    script = _load(args)
    mapping, schedule, report = Kernel(script).deploy()
    cost = evaluate_cost(schedule, script.cost)
    text = (dump_mapping(mapping) + "\n" + schedule.dump()
            + f"cost {script.cost} {cost}\n"
            + f"t_rl {report.t_rl}\n")
    return _emit(args, "mapping.txt", text)


def cmd_simulate(args):
    files = Kernel(_load(args)).run().files()
    if args.out:
        for name, text in files.items():
            _write(args.out, name, text)
        print(f"wrote {len(files)} files to {args.out}")
        if args.verbose:
            print(files["metrics.txt"], end="")
    else:
        print(files["metrics.txt"], end="")
        if args.verbose:
            print("# trace")
            print(files["trace.txt"], end="")
            print("# decisions")
            print(files["decisions.log"], end="")
    return 0


def cmd_regions(args):
    script = _load(args)
    shm = SystemHealthMap(script.ag)
    for inj in script.injections:
        if inj.persistence == "permanent":
            for fault in degrade_targets(inj.location, script.ag):
                shm.apply_fault(fault)
    rg = script.build_rg(shm)
    return _emit(args, "regions.txt",
                 build_region_tables(rg, script.budget).dump())


# The Metrics counters a sweep reports per seed, after the seed itself.
_SWEEP_COLUMNS = ("makespan", "remaps", "flows_dropped", "mpm_hits",
                  "mpm_misses", "tasks_unfinished")


def _sweep_one(task):
    path, overrides = task
    m = Kernel(load_scenario(path, **overrides)).run().metrics
    return (overrides["seed"], *(getattr(m, c) for c in _SWEEP_COLUMNS))


def cmd_sweep(args):
    if args.seeds < 1:
        raise RangeError(f"--seeds must be >= 1, got {args.seeds}")
    if args.jobs < 0:
        raise RangeError(f"--jobs must be >= 0, got {args.jobs}")
    base = _load(args)                       # validate once, fail fast
    start = args.seed if args.seed is not None else base.seed
    tasks = [(args.scenario, {**_overrides(args), "seed": start + i})
             for i in range(args.seeds)]
    # A pool starts all its workers at the first task, and each run is
    # CPU-bound: never more workers than seeds to run or cpus to run them.
    cpus = os.cpu_count() or 1
    jobs = min(len(tasks), args.jobs or cpus, cpus)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]
    rows.sort(key=lambda r: r[0])
    lines = [" ".join(("seed",) + _SWEEP_COLUMNS)]
    for row in rows:
        lines.append(" ".join(str(v) for v in row))
    spans = [r[1] for r in rows]
    lines.append(f"aggregate makespan min={min(spans)} max={max(spans)} "
                 f"mean={sum(spans) / len(spans):.2f}")
    return _emit(args, "sweep.txt", "\n".join(lines) + "\n")


_COMMANDS = {
    "validate": cmd_validate,
    "map": cmd_map,
    "simulate": cmd_simulate,
    "regions": cmd_regions,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Scenario files: JSON in, validated ScenarioScript out.

A scenario bundles the application, the platform, the algorithm knobs,
and the scripted fault/aging timeline.  Parsing is strict: an unreadable,
non-UTF-8 or malformed JSON file raises ParseError (with the line/column
if malformed), a well-formed document with a bad field or a size or
search budget past its cap (MAX_TILES, MAX_RANDOM_TASKS, MAX_BURST,
MAX_ITERATIONS, MAX_SA_CANDIDATES) raises SemanticError naming the
offending path.  _checked is the one place where a library call's
ValidationError becomes a SemanticError at the field's path; any other
exception is a bug and propagates as itself.

An omitted field takes the default of the dataclass field it sets
(ScenarioScript, whose MSU settings are shmu.Msu's, Task, SaParams,
ClassifierConfig, CommModel, CostModel), and a section that configures
such a dataclass accepts its field names.
The flat sections (heuristic, reachability, prediction, policies) are
read through one table, _FLAT.  Each set of allowed names is defined
once, next to the code that dispatches on it: heuristic names, cost
kinds with their aliases and initial policies in mapsched, severed-flow
policies in simkernel, criticalities in graphs, checker units in shmu.
"""

import json
import math
import re
from dataclasses import fields

from .errors import ParseError, SemanticError, ValidationError
from .graphs import (
    Task,
    build_mesh,
    build_task_graph,
    cluster_tasks,
    random_task_graph,
    CRITICALITIES,
)
from .health import SystemHealthMap
from .mapsched import (
    CommModel,
    SaParams,
    COST_ALIASES,
    COST_KINDS,
    HEURISTICS,
    INITIAL_POLICIES,
)
from .reachability import partition
from .rng import derive_seed
from .routing import (
    build_routing_graph,
    custom_turn_model,
    is_deadlock_free,
    turn_model_by_name,
)
from .shmu import ClassifierConfig, CostModel, CHECKER_UNITS
from .simkernel import AgingUpdate, Injection, ScenarioScript, SEVERED_POLICIES

# Size caps, checked before anything is built: JSON must not exhaust memory.
MAX_TILES = 4096                # platform.mesh, tiles in all
MAX_RANDOM_TASKS = 2000         # application.tasks of a random application
MAX_BURST = 1000                # events of one intermittent burst
# Search caps: a valid document must not ask for unbounded mapping work.
MAX_ITERATIONS = 1000           # heuristic.iterations (ILS rounds)
MAX_SA_CANDIDATES = 250_000     # heuristic.sa: temperature levels x moves

# The flat sections: document key -> (ScenarioScript field, tuple of
# allowed values, or int lower bound [and upper bound]).  heuristic.sa
# is read by _parse_sa.
_FLAT = {
    "heuristic": {
        "name": ("heuristic", tuple(HEURISTICS)),
        "cost": ("cost", COST_KINDS + tuple(COST_ALIASES)),
        "initial": ("initial_policy", INITIAL_POLICIES),
        "iterations": ("iterations", 1, MAX_ITERATIONS),
    },
    "reachability": {"budget": ("budget", 1)},
    "prediction": {"k": ("prediction_k", 0), "mpm_capacity": ("mpm_capacity", 1)},
    "policies": {"severed_flows": ("severed_policy", SEVERED_POLICIES)},
}


def load_scenario(path, seed=None, heuristic=None, cost=None, budget=None):
    """Read, parse, and validate a scenario file.  The keyword
    arguments override the corresponding document fields."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(fh.read())
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # Not UTF-8, nested too deep, or an integer literal too long.
        raise ParseError(f"{path}: {exc}") from None
    return parse_scenario(data, seed=seed, heuristic=heuristic, cost=cost,
                          budget=budget)


def parse_scenario(data, seed=None, heuristic=None, cost=None, budget=None):
    if not isinstance(data, dict):
        raise SemanticError("scenario: document must be an object")

    _known(data, "scenario", (
        "seed", "application", "platform", "heuristic", "classifier",
        "cost_model", "reachability", "prediction", "policies",
        "injections", "aging",
    ))

    # Keyword overrides, keyed by the ScenarioScript field they replace.
    overrides = {name: value for name, value in (
        ("seed", seed), ("heuristic", heuristic), ("cost", cost),
        ("budget", budget)) if value is not None}
    seed = overrides.get("seed", data.get("seed", ScenarioScript.seed))
    values = {"seed": _int(seed, "seed", lo=0)}
    values["ag"], values["turn_model"], values["regions"] = _parse_platform(
        _req(data, "platform"))
    values["tg"], values["ctg"] = _parse_application(
        _req(data, "application"), values["seed"])

    heur_cfg = data.get("heuristic", {})
    values.update(_flat(heur_cfg, "heuristic", overrides, extra=("sa",)))
    values["cost"] = COST_ALIASES.get(values["cost"], values["cost"])
    values["sa_params"] = _parse_sa(heur_cfg.get("sa", {}))

    values["classifier"], = _int_sections(data.get("classifier", {}),
                                          "classifier", ClassifierConfig)
    values["comm"], values["cost_model"] = _int_sections(
        data.get("cost_model", {}), "cost_model", CommModel, CostModel)

    for section in ("reachability", "prediction", "policies"):
        values.update(_flat(data.get(section, {}), section, overrides))

    values["injections"] = _parse_injections(data.get("injections", []),
                                             values["ag"])
    values["aging"] = _parse_aging(data.get("aging", []), values["ag"])

    _check_deadlock_free(values["ag"], values["turn_model"], values["regions"])
    return ScenarioScript(**values)


# -- sections ------------------------------------------------------------


def _parse_platform(cfg):
    _known(cfg, "platform", ("mesh", "turn_model", "custom_turns", "regions"))
    mesh = _req(cfg, "mesh", "platform")
    if (not isinstance(mesh, list) or len(mesh) not in (2, 3)
            or not all(isinstance(v, int) for v in mesh)):
        raise SemanticError(
            "platform.mesh: expected [width, height] or [width, height, depth]")
    if min(mesh) < 1:
        raise SemanticError("platform.mesh: dimensions must be >= 1")
    for i, v in enumerate(mesh):
        _int(v, f"platform.mesh[{i}]")
    if math.prod(mesh) > MAX_TILES:
        raise SemanticError(f"platform.mesh: more than {MAX_TILES} tiles")
    ag = build_mesh(*mesh)

    name = cfg.get("turn_model", "xyz" if ag.is_3d else "xy")
    if name == "custom":
        raw = _list(_req(cfg, "custom_turns", "platform"), "platform.custom_turns")
        pairs = []
        for i, item in enumerate(raw):
            if (not isinstance(item, list) or len(item) != 2
                    or not all(d in ag.directions() for d in item)):
                raise SemanticError(
                    f"platform.custom_turns[{i}]: expected a [from, to] "
                    f"direction pair")
            pairs.append((item[0], item[1]))
        model = _checked("platform.custom_turns", custom_turn_model, pairs,
                         is_3d=ag.is_3d)
    else:
        model = _checked("platform.turn_model", turn_model_by_name, name,
                         is_3d=ag.is_3d)

    regions = None
    if "regions" in cfg:
        rcfg = cfg["regions"]
        _known(rcfg, "platform.regions", ("labels", "turn_models"))
        raw_labels = _obj(rcfg.get("labels", {}), "platform.regions.labels")
        labels = {}
        for key, label in raw_labels.items():
            # Canonical decimal keys only, so "01" or "1_0" alias no tile.
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise SemanticError(
                    f"platform.regions.labels: key {key!r} is not a tile id")
            tile = int(key)
            if not 0 <= tile < len(ag.tiles):
                raise SemanticError(
                    f"platform.regions.labels: tile {tile} out of range")
            if not isinstance(label, str):
                raise SemanticError(
                    f"platform.regions.labels.{key}: label must be a string")
            labels[tile] = label
        models = {}
        raw_models = _obj(rcfg.get("turn_models", {}),
                          "platform.regions.turn_models")
        for label, mname in raw_models.items():
            models[label] = _checked(f"platform.regions.turn_models.{label}",
                                     turn_model_by_name, mname, is_3d=ag.is_3d)
        regions = _checked("platform.regions", partition, ag, labels,
                           models or None)

    return ag, model, regions


def _parse_application(cfg, master_seed):
    _known(cfg, "application", (
        "type", "tasks", "density", "wcet_range", "weight_range",
        "edges", "cluster",
    ))
    kind = _choice(cfg.get("type", "random"), "application.type",
                   ("random", "explicit"))
    if kind == "random":
        n = _int(_req(cfg, "tasks", "application"), "application.tasks",
                 lo=1, hi=MAX_RANDOM_TASKS)
        density = cfg.get("density", 0.3)
        if not _real(density) or not 0 <= density <= 1:
            raise SemanticError("application.density: expected a number in [0, 1]")
        ranges = {key: _range_pair(cfg[key], f"application.{key}")
                  for key in ("wcet_range", "weight_range") if key in cfg}
        tg = random_task_graph(n, density, derive_seed(master_seed, "taskgen"),
                               **ranges)
    else:
        raw_tasks = _req(cfg, "tasks", "application")
        if not isinstance(raw_tasks, list) or not raw_tasks:
            raise SemanticError("application.tasks: expected a non-empty list")
        tasks = []
        for i, item in enumerate(raw_tasks):
            path = f"application.tasks[{i}]"
            _known(item, path, [f.name for f in fields(Task)])
            crit = _choice(item.get("criticality", Task.criticality),
                           f"{path}.criticality", CRITICALITIES)
            slack = item.get("slack", Task.slack)
            if slack is not None:
                slack = _int(slack, f"{path}.slack", lo=0)
            tasks.append(Task(
                id=_int(_req(item, "id", path), f"{path}.id", lo=0),
                wcet=_int(_req(item, "wcet", path), f"{path}.wcet", lo=1),
                release=_int(item.get("release", Task.release), f"{path}.release", lo=0),
                criticality=crit,
                slack=slack,
            ))
        edges = {}
        for i, item in enumerate(_list(cfg.get("edges", []), "application.edges")):
            path = f"application.edges[{i}]"
            if not isinstance(item, list) or len(item) != 3:
                raise SemanticError(f"{path}: expected [src, dst, weight]")
            src = _int(item[0], f"{path}[0]", lo=0)
            dst = _int(item[1], f"{path}[1]", lo=0)
            weight = _int(item[2], f"{path}[2]", lo=1)
            if (src, dst) in edges:
                raise SemanticError(f"{path}: duplicate edge ({src}, {dst})")
            edges[(src, dst)] = weight
        tg = _checked("application", build_task_graph, tasks, edges)

    ctg = None
    if "cluster" in cfg:
        ccfg = cfg["cluster"]
        _known(ccfg, "application.cluster", ("k", "heuristic"))
        k = _int(_req(ccfg, "k", "application.cluster"),
                 "application.cluster.k", lo=1)
        given = {"heuristic": ccfg["heuristic"]} if "heuristic" in ccfg else {}
        ctg = _checked("application.cluster", cluster_tasks, tg, k,
                       seed=derive_seed(master_seed, "cluster"), **given)

    return tg, ctg


def _parse_sa(cfg):
    _known(cfg, "heuristic.sa", [f.name for f in fields(SaParams)])
    sa = {f.name: cfg.get(f.name, f.default) for f in fields(SaParams)}
    if sa["t0"] is not None and (not _real(sa["t0"]) or sa["t0"] <= 0):
        raise SemanticError("heuristic.sa.t0: expected a positive number")
    if not _real(sa["alpha"]) or not 0 < sa["alpha"] < 1:
        raise SemanticError("heuristic.sa.alpha: expected a number in (0, 1)")
    _int(sa["moves_per_temp"], "heuristic.sa.moves_per_temp", lo=1)
    if not _real(sa["tmin_ratio"]) or not 0 < sa["tmin_ratio"] < 1:
        raise SemanticError("heuristic.sa.tmin_ratio: expected a number in (0, 1)")
    # The annealing loop cools from t0 by alpha until tmin_ratio x t0.
    levels = math.ceil(math.log(sa["tmin_ratio"]) / math.log(sa["alpha"]))
    if levels * sa["moves_per_temp"] > MAX_SA_CANDIDATES:
        raise SemanticError(
            f"heuristic.sa: {levels} temperature levels x "
            f"{sa['moves_per_temp']} moves is more than {MAX_SA_CANDIDATES} "
            f"candidates")
    return SaParams(**sa)


def _flat(cfg, section, overrides, extra=()):
    """The ScenarioScript fields one flat section sets, read through
    _FLAT in table order; an override beats the document, and an
    omitted key takes the field's default.  `extra` names the section's
    keys read elsewhere."""
    table = _FLAT[section]
    _known(cfg, section, (*table, *extra))
    values = {}
    for key, (name, *rule) in table.items():
        value = overrides.get(name, cfg.get(key, getattr(ScenarioScript, name)))
        path = f"{section}.{key}"
        values[name] = (_choice(value, path, *rule) if isinstance(rule[0], tuple)
                        else _int(value, path, *rule))
    return values


# Lower bound of each int field the int sections set; 0 when not listed.
_INT_LO = dict(window=1, intermittent_threshold=2, permanent_threshold=2,
               unit_link_cycles=1, cycles_per_eval=1, cycles_per_task=1)


def _int_sections(cfg, path, *classes):
    """One instance per dataclass in `classes`, all of whose fields are
    ints, read from the one section `cfg` and built through _checked at
    `path`; an omitted field takes its dataclass default."""
    _known(cfg, path, [f.name for cls in classes for f in fields(cls)])
    return [_checked(path, cls, **{f.name: _int(cfg.get(f.name, f.default),
                                                f"{path}.{f.name}",
                                                lo=_INT_LO.get(f.name, 0))
                                   for f in fields(cls)})
            for cls in classes]


def _parse_injections(raw, ag):
    out = []
    last_time = 0
    for i, item in enumerate(_list(raw, "injections")):
        path = f"injections[{i}]"
        _known(item, path, ("time", "target", "persistence"))
        time = _int(_req(item, "time", path), f"{path}.time", lo=0)
        if time < last_time:
            raise SemanticError(f"{path}.time: times must be non-decreasing")
        last_time = time
        location = _parse_target(_req(item, "target", path), ag, f"{path}.target")
        persistence = _parse_persistence(item.get("persistence", "transient"),
                                         f"{path}.persistence")
        out.append(Injection(time=time, location=location,
                             persistence=persistence))
    return tuple(out)


def _parse_target(cfg, ag, path):
    _known(cfg, path, ("kind", "tile", "slot", "link", "direction", "unit"))
    kind = _choice(_req(cfg, "kind", path), f"{path}.kind",
                   ("pe", "turn", "link", "checker"))
    if kind == "pe":
        location = ("pe", _tile(cfg, ag, path))
    elif kind == "turn":
        tile = _tile(cfg, ag, path)
        slot = _req(cfg, "slot", path)
        if isinstance(slot, list) and len(slot) == 2:
            # Only a pair of strings can name a turn (or be a dict key).
            index = (ag.turn_slot.get(tuple(slot))
                     if all(isinstance(d, str) for d in slot) else None)
            if index is None:
                raise SemanticError(
                    f"{path}.slot: {slot!r} is not a turn of this mesh")
            slot = index
        else:
            slot = _int(slot, f"{path}.slot", lo=0, hi=len(ag.turns) - 1)
        location = ("turn", tile, slot)
    elif kind == "link":
        if "link" in cfg:
            location = ("link", _int(cfg["link"], f"{path}.link", lo=0,
                                     hi=len(ag.links) - 1))
        else:
            tile = _tile(cfg, ag, path)
            direction = _req(cfg, "direction", path)
            link = ag.link(tile, direction) if direction in ag.directions() else None
            if link is None:
                raise SemanticError(
                    f"{path}: tile {tile} has no {direction!r} link")
            location = ("link", link.id)
    else:
        tile = _tile(cfg, ag, path)
        unit = _choice(_req(cfg, "unit", path), f"{path}.unit", CHECKER_UNITS)
        location = ("checker", tile, unit)
    return location


def _parse_persistence(cfg, path):
    if cfg in ("transient", "permanent"):
        return cfg
    if isinstance(cfg, dict):
        _known(cfg, path, ("kind", "count", "spacing"))
        if cfg.get("kind") != "intermittent":
            raise SemanticError(f"{path}.kind: expected 'intermittent'")
        count = _int(_req(cfg, "count", path), f"{path}.count", lo=1,
                     hi=MAX_BURST)
        spacing = _int(_req(cfg, "spacing", path), f"{path}.spacing", lo=1)
        return ("intermittent", count, spacing)
    raise SemanticError(
        f"{path}: expected 'transient', 'permanent', or an intermittent object")


def _parse_aging(raw, ag):
    out = []
    for i, item in enumerate(_list(raw, "aging")):
        path = f"aging[{i}]"
        _known(item, path, ("time", "tile", "percent"))
        tile = _tile(item, ag, path)
        out.append(AgingUpdate(
            time=_int(_req(item, "time", path), f"{path}.time", lo=0),
            tile=tile,
            percent=_int(_req(item, "percent", path), f"{path}.percent",
                         lo=0, hi=100),
        ))
    return tuple(out)


def _check_deadlock_free(ag, turn_model, regions):
    """The routing graph induced on the healthy mesh must be acyclic;
    scripted scenarios are rejected otherwise.  Only a custom model can
    fail: the named 2D models are turn models (Glass & Ni) and xyz is
    dimension-ordered, so their graphs are acyclic on every mesh, and
    regions take named models only and delete links between regions,
    which adds no cycle.  So only a custom model's graph is built."""
    if turn_model.name != "custom":
        return
    shm = SystemHealthMap(ag)
    rg = build_routing_graph(ag, turn_model, shm, regions=regions)
    if not is_deadlock_free(rg):
        raise SemanticError(
            "platform: turn model admits a routing cycle on the healthy mesh")


# -- small checked accessors ----------------------------------------------


def _checked(path, fn, *args, **kwargs):
    """fn(*args, **kwargs); a ValidationError it raises is re-raised as a
    SemanticError at `path`, and nothing else is caught."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as exc:
        raise SemanticError(f"{path}: {exc}") from None


def _req(obj, key, path=None):
    if not isinstance(obj, dict) or key not in obj:
        where = f"{path}.{key}" if path else key
        raise SemanticError(f"{where}: required field missing")
    return obj[key]


def _list(value, path):
    if not isinstance(value, list):
        raise SemanticError(f"{path}: expected a list")
    return value


def _obj(value, path):
    if not isinstance(value, dict):
        raise SemanticError(f"{path}: expected an object")
    return value


def _known(obj, path, allowed):
    for key in _obj(obj, path):
        if key not in allowed:
            raise SemanticError(f"{path}.{key}: unknown field")


def _choice(value, path, allowed):
    if value not in allowed:
        raise SemanticError(f"{path}: {value!r} not one of {allowed}")
    return value


def _tile(obj, ag, path):
    """obj's required "tile", a tile id of the mesh."""
    return _int(_req(obj, "tile", path), f"{path}.tile", lo=0, hi=len(ag) - 1)


def _int(value, path, lo=None, hi=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise SemanticError(f"{path}: expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise SemanticError(f"{path}: must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise SemanticError(f"{path}: must be <= {hi}, got {value}")
    return value


def _real(value):
    """Is `value` a number that fits a finite float?  JSON's true and
    false are not numbers, and json.loads lets NaN and Infinity through."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):      # not a number; an int too big
        return False


def _range_pair(value, path):
    if (not isinstance(value, list) or len(value) != 2
            or not all(isinstance(v, int) for v in value)
            or not 1 <= value[0] <= value[1]):
        raise SemanticError(f"{path}: expected [lo, hi] with 1 <= lo <= hi")
    return (_int(value[0], f"{path}[0]"), _int(value[1], f"{path}[1]"))

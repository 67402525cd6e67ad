import ast
import copy
import json
import pathlib
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import nocsim as ns
from nocsim.cli import main
from nocsim.errors import ParseError, SemanticError, ValidationError
from nocsim.scenario import (
    MAX_BURST,
    MAX_ITERATIONS,
    MAX_RANDOM_TASKS,
    MAX_SA_CANDIDATES,
    MAX_TILES,
)


MINIMAL = {
    "platform": {"mesh": [3, 3]},
    "application": {"type": "random", "tasks": 5},
}

EXPLICIT = {
    "seed": 7,
    "platform": {"mesh": [2, 2], "turn_model": "xy"},
    "application": {
        "type": "explicit",
        "tasks": [
            {"id": 0, "wcet": 5},
            {"id": 1, "wcet": 3},
            {"id": 2, "wcet": 4},
        ],
        "edges": [[0, 1, 2], [1, 2, 1]],
    },
}


def doc(base=MINIMAL, **patch):
    d = copy.deepcopy(base)
    d.update(copy.deepcopy(patch))
    return d


def test_load_bad_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"platform": [,]}')
    with pytest.raises(ParseError) as exc:
        ns.load_scenario(str(p))
    msg = str(exc.value)
    assert str(p) in msg
    assert ":1:" in msg


# Files load_scenario cannot read as UTF-8 JSON.
UNREADABLE = [
    pytest.param("latin1.json", '{"seed": "caf\xe9"}'.encode("latin-1"),
                 id="not-utf8"),
    pytest.param("deep.json", b"[" * 200_000 + b"]" * 200_000, id="deep"),
    pytest.param("digits.json", b'{"seed": ' + b"1" * 5000 + b"}",
                 id="digits", marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no limit on int digits")),
    pytest.param("missing.json", None, id="missing"),
]


@pytest.mark.parametrize("name, content", UNREADABLE)
def test_unreadable_file_is_a_parse_error_naming_it(tmp_path, name, content):
    p = tmp_path / name
    if content is not None:
        p.write_bytes(content)
    with pytest.raises(ParseError, match=re.escape(f"{p}: ")):
        ns.load_scenario(str(p))


def test_load_roundtrip(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(EXPLICIT))
    s = ns.load_scenario(str(p))
    assert s.seed == 7
    assert len(s.tg.tasks) == 3


def test_minimal_document_defaults():
    s = ns.parse_scenario(doc())
    assert s.seed == 0
    assert s.heuristic == "greedy"
    assert s.cost == "schedule_length"
    assert s.budget == 4
    assert s.prediction_k == 2
    assert s.mpm_capacity == 16
    assert s.severed_policy == "drop"
    assert s.injections == () and s.aging == ()
    assert len(s.tg.tasks) == 5
    assert len(s.ag.tiles) == 9


@pytest.mark.parametrize("data", [[], "scenario", None, 5])
def test_document_that_is_not_an_object(data):
    with pytest.raises(SemanticError) as exc:
        ns.parse_scenario(data)
    assert str(exc.value) == "scenario: document must be an object"


def test_unknown_top_level_field():
    with pytest.raises(SemanticError, match="scenario.frobnicate: unknown"):
        ns.parse_scenario(doc(frobnicate=1))


def test_missing_platform():
    with pytest.raises(SemanticError, match="platform: required"):
        ns.parse_scenario({"application": {"tasks": 3}})


def test_bad_mesh_shape():
    with pytest.raises(SemanticError, match="platform.mesh"):
        ns.parse_scenario(doc(platform={"mesh": [4]}))
    with pytest.raises(SemanticError, match="dimensions must be >= 1"):
        ns.parse_scenario(doc(platform={"mesh": [0, 3]}))


def test_negative_seed_rejected():
    with pytest.raises(SemanticError, match="seed"):
        ns.parse_scenario(doc(seed=-1))


def test_negative_seed_override_rejected():
    with pytest.raises(SemanticError, match="seed: must be >= 0, got -5"):
        ns.parse_scenario(doc(), seed=-5)


def test_bool_is_not_an_integer():
    with pytest.raises(SemanticError, match="seed"):
        ns.parse_scenario(doc(seed=True))
    with pytest.raises(SemanticError,
                       match=re.escape("platform.mesh[0]: expected an integer")):
        ns.parse_scenario(doc(platform={"mesh": [True, 3]}))
    for key in ("wcet_range", "weight_range"):
        with pytest.raises(SemanticError, match=re.escape(
                f"application.{key}[0]: expected an integer, got True")):
            ns.parse_scenario(doc(application={"tasks": 3, key: [True, 4]}))


def test_heuristic_validation():
    with pytest.raises(SemanticError, match="heuristic.name"):
        ns.parse_scenario(doc(heuristic={"name": "tabu"}))
    with pytest.raises(SemanticError, match="heuristic.cost"):
        ns.parse_scenario(doc(heuristic={"cost": "vibes"}))
    with pytest.raises(SemanticError, match="heuristic.initial"):
        ns.parse_scenario(doc(heuristic={"initial": "best_fit"}))


def test_cost_aliases():
    assert ns.parse_scenario(doc(heuristic={"cost": "makespan"})).cost == \
        "schedule_length"
    assert ns.parse_scenario(doc(heuristic={"cost": "util"})).cost == \
        "utilization_balance"
    assert ns.parse_scenario(doc(heuristic={"cost": "traffic"})).cost == \
        "traffic_balance"


def test_explicit_application():
    s = ns.parse_scenario(EXPLICIT)
    assert [t.id for t in s.tg.tasks] == [0, 1, 2]
    assert s.tg.edges[(0, 1)] == 2


def test_explicit_cycle_rejected():
    bad = doc(EXPLICIT)
    bad["application"]["edges"] = [[0, 1, 2], [1, 2, 1], [2, 0, 1]]
    with pytest.raises(SemanticError, match="application: dependency cycle"):
        ns.parse_scenario(bad)


def test_explicit_duplicate_edge_rejected():
    bad = doc(EXPLICIT)
    bad["application"]["edges"] = [[0, 1, 2], [0, 1, 3]]
    with pytest.raises(SemanticError, match="duplicate edge"):
        ns.parse_scenario(bad)


def test_application_density_range():
    with pytest.raises(SemanticError, match="density"):
        ns.parse_scenario(doc(application={"tasks": 5, "density": 1.5}))


def test_classifier_threshold_order():
    with pytest.raises(SemanticError, match="classifier"):
        ns.parse_scenario(doc(classifier={"intermittent_threshold": 9,
                                          "permanent_threshold": 3}))


COST_MODEL = {"unit_link_cycles": 3, "router_delay": 0, "cycles_per_eval": 7,
              "cycles_per_task": 2, "t_fetch": 0, "t_par_ext": 9,
              "par_map_per_move": 4, "detection_latency": 0}
SA = {"t0": 12.5, "alpha": 0.5, "moves_per_temp": 3, "tmin_ratio": 0.25}


def test_cost_model_and_sa_sections_given():
    s = ns.parse_scenario(doc(cost_model=COST_MODEL,
                              heuristic={"name": "sa", "sa": SA}))
    assert s.comm == ns.CommModel(unit_link_cycles=3, router_delay=0)
    assert s.cost_model == ns.CostModel(
        cycles_per_eval=7, cycles_per_task=2, t_fetch=0, t_par_ext=9,
        par_map_per_move=4, detection_latency=0)
    assert s.sa_params == ns.SaParams(**SA)


def test_omitted_cost_model_and_sa_fields_take_dataclass_defaults():
    s = ns.parse_scenario(doc(cost_model={"router_delay": 6, "t_par_ext": 6},
                              heuristic={"sa": {"moves_per_temp": 3}}))
    assert s.comm == ns.CommModel(router_delay=6)
    assert s.cost_model == ns.CostModel(t_par_ext=6)
    assert s.sa_params == ns.SaParams(moves_per_temp=3)
    bare = ns.parse_scenario(doc())
    assert (bare.comm, bare.cost_model, bare.sa_params) == (
        ns.CommModel(), ns.CostModel(), ns.SaParams())


@pytest.mark.parametrize("field, value, message", [
    ("unit_link_cycles", 0, "cost_model.unit_link_cycles: must be >= 1, got 0"),
    ("router_delay", -1, "cost_model.router_delay: must be >= 0, got -1"),
    ("cycles_per_eval", 0, "cost_model.cycles_per_eval: must be >= 1, got 0"),
    ("cycles_per_task", 0, "cost_model.cycles_per_task: must be >= 1, got 0"),
    ("t_fetch", -1, "cost_model.t_fetch: must be >= 0, got -1"),
    ("detection_latency", 1.5,
     "cost_model.detection_latency: expected an integer, got 1.5"),
    ("latency", 1, "cost_model.latency: unknown field"),
])
def test_cost_model_field_errors(field, value, message):
    with pytest.raises(SemanticError) as exc:
        ns.parse_scenario(doc(cost_model={field: value}))
    assert str(exc.value) == message


@pytest.mark.parametrize("field, value, message", [
    ("t0", 0, "heuristic.sa.t0: expected a positive number"),
    ("alpha", 1, "heuristic.sa.alpha: expected a number in (0, 1)"),
    ("moves_per_temp", 0, "heuristic.sa.moves_per_temp: must be >= 1, got 0"),
    ("tmin_ratio", 0.0, "heuristic.sa.tmin_ratio: expected a number in (0, 1)"),
    ("cooling", 0.9, "heuristic.sa.cooling: unknown field"),
])
def test_sa_field_errors(field, value, message):
    with pytest.raises(SemanticError) as exc:
        ns.parse_scenario(doc(heuristic={"sa": {field: value}}))
    assert str(exc.value) == message


@pytest.mark.parametrize("section, path", [
    ({"platform": {"mesh": [3, 3], "regions": {"labels": [[0, "a"]]}}},
     "platform.regions.labels"),
    ({"platform": {"mesh": [3, 3], "regions": {"turn_models": ["xy"]}}},
     "platform.regions.turn_models"),
    ({"platform": {"mesh": [3, 3], "turn_model": "custom",
                   "custom_turns": 5}}, "platform.custom_turns"),
    ({"application": dict(EXPLICIT["application"], edges=5)},
     "application.edges"),
    ({"application": {"tasks": 5, "density": True}}, "application.density"),
    ({"heuristic": {"cost": ["makespan"]}}, "heuristic.cost"),
    ({"heuristic": {"sa": {"t0": float("nan")}}}, "heuristic.sa.t0"),
    ({"heuristic": {"sa": {"t0": float("inf")}}}, "heuristic.sa.t0"),
    ({"heuristic": {"sa": {"t0": True}}}, "heuristic.sa.t0"),
    ({"heuristic": {"sa": {"t0": 10 ** 400}}}, "heuristic.sa.t0"),
    # Raise sites of the section parsers that no other test reaches.
    ({"platform": {"mesh": [3, 3], "turn_model": "custom",
                   "custom_turns": [["N", "Q"]]}}, "platform.custom_turns[0]"),
    ({"platform": {"mesh": [3, 3], "turn_model": "custom",
                   "custom_turns": [["N", "S"]]}}, "platform.custom_turns"),
    ({"platform": {"mesh": [3, 3], "regions": {"labels": {"9": "a"}}}},
     "platform.regions.labels"),
    ({"platform": {"mesh": [3, 3], "regions": {"labels": {"0": 5}}}},
     "platform.regions.labels.0"),
    ({"platform": {"mesh": [3, 3], "regions": {
        "labels": {"0": "a"}, "turn_models": {"a": "zigzag"}}}},
     "platform.regions.turn_models.a"),
    ({"platform": {"mesh": [3, 3], "regions": {
        "labels": {"0": "a"}, "turn_models": {"b": "xy"}}}},
     "platform.regions"),
    ({"application": dict(EXPLICIT["application"], tasks=[])},
     "application.tasks"),
    ({"application": dict(EXPLICIT["application"], edges=[[0, 1]])},
     "application.edges[0]"),
    ({"application": {"tasks": 5, "cluster": {"k": 2,
                                              "heuristic": "spectral"}}},
     "application.cluster"),
    ({"injections": [{"time": 1, "target": {"kind": "pe", "tile": 0},
                      "persistence": {"kind": "burst", "count": 2,
                                      "spacing": 1}}]},
     "injections[0].persistence.kind"),
    ({"application": {"tasks": 5, "wcet_range": [3, 1]}},
     "application.wcet_range"),
    # The explicit task graph's own checks, reported at the application.
    ({"application": dict(EXPLICIT["application"], tasks=[
        {"id": 0, "wcet": 1}, {"id": 2, "wcet": 1}], edges=[])},
     "application"),
    ({"application": dict(EXPLICIT["application"], tasks=[
        {"id": 0, "wcet": 1}, {"id": 0, "wcet": 1}], edges=[])},
     "application"),
    ({"application": dict(EXPLICIT["application"], edges=[[0, 5, 1]])},
     "application"),
    ({"application": dict(EXPLICIT["application"], edges=[[1, 1, 1]])},
     "application"),
    ({"application": dict(EXPLICIT["application"],
                          edges=[[0, 1, 2], [1, 2, 1], [2, 0, 1]])},
     "application"),
])
def test_malformed_value_is_a_semantic_error_naming_its_path(section, path):
    with pytest.raises(SemanticError, match=re.escape(path) + ": "):
        ns.parse_scenario(doc(**section))


# -- one error path from the library -----------------------------------------


# JSON values of every type, nested a little; `likely` values are drawn
# as often as all the others.
def json_values(*likely):
    scalars = (st.none() | st.booleans() | st.integers(-2, 10) | st.integers()
               | st.floats() | st.text(max_size=3))
    anything = st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=4)
    return st.sampled_from(likely) | anything if likely else anything


XY_TURNS = [["E", "N"], ["E", "S"], ["W", "N"], ["W", "S"]]

# Each field the parser checks through a library call, and documents
# that set it to drawn JSON values.
ROUTED_FIELDS = {
    "platform.turn_model": st.builds(
        lambda v: doc(platform={"mesh": [3, 3], "turn_model": v,
                                "custom_turns": XY_TURNS}),
        json_values("xy", "west_first", "xyz", "custom")),
    "platform.custom_turns": st.builds(
        lambda v: doc(platform={"mesh": [3, 3], "turn_model": "custom",
                                "custom_turns": [v, *XY_TURNS]}),
        st.lists(st.sampled_from("NESWU"), min_size=2, max_size=2)
        | json_values()),
    "platform.regions": st.builds(
        lambda labels, models: doc(platform={
            "mesh": [3, 3],
            "regions": {"labels": labels, "turn_models": models}}),
        st.dictionaries(st.sampled_from(["0", "4", "8", "9", "-1", "01"])
                        | st.text(max_size=2),
                        json_values("a", "b"), max_size=3) | json_values(),
        st.dictionaries(st.sampled_from(["a", "b", "default"])
                        | st.text(max_size=2),
                        json_values("xy", "west_first", "custom"),
                        max_size=2) | json_values()),
    "application.cluster": st.builds(
        lambda k, heuristic: doc(application={
            "tasks": 5, "cluster": {"k": k, "heuristic": heuristic}}),
        st.integers(-1, 7) | json_values(),
        json_values("greedy-merge", "local-search")),
    "application": st.builds(
        lambda ids, edges: doc(application={
            "type": "explicit", "tasks": [{"id": i, "wcet": 1} for i in ids],
            "edges": edges}),
        st.lists(st.integers(0, 3) | json_values(), min_size=1, max_size=4),
        st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3)
                 | json_values(), max_size=4)),
    "classifier": st.builds(
        lambda window, intermittent, permanent: doc(classifier={
            "window": window, "intermittent_threshold": intermittent,
            "permanent_threshold": permanent}),
        *[st.integers(-1, 10) | json_values()] * 3),
}


@pytest.mark.parametrize("path", sorted(ROUTED_FIELDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_routed_field_parses_or_is_a_semantic_error_at_its_path(path, data):
    """A value of any JSON type in a field a library call checks parses,
    or raises exactly SemanticError naming the field: never the
    library's own error class, and never a raw TypeError."""
    try:
        ns.parse_scenario(data.draw(ROUTED_FIELDS[path]))
    except ValidationError as exc:
        assert type(exc) is SemanticError, repr(exc)
        assert re.match(re.escape(path) + r"[.\[:]", str(exc)), str(exc)


# A custom platform model with regions: the regions' is the one call of
# turn_model_by_name.
REGIONS_DOC = doc(platform={
    "mesh": [3, 3], "turn_model": "custom", "custom_turns": XY_TURNS,
    "regions": {"labels": {"0": "a"}, "turn_models": {"a": "west_first"}}})


@pytest.mark.parametrize("owner, name, document", [
    (ns.scenario, "build_mesh", MINIMAL),
    (ns.scenario, "turn_model_by_name", MINIMAL),
    (ns.scenario, "turn_model_by_name", REGIONS_DOC),
    (ns.scenario, "custom_turn_model", REGIONS_DOC),
    (ns.scenario, "partition", REGIONS_DOC),
    (ns.scenario, "build_routing_graph", REGIONS_DOC),
    (ns.scenario, "is_deadlock_free", REGIONS_DOC),
    (ns.scenario, "random_task_graph", MINIMAL),
    (ns.scenario, "build_task_graph", EXPLICIT),
    (ns.scenario, "cluster_tasks",
     doc(application={"tasks": 5, "cluster": {"k": 2}})),
    (ns.ClassifierConfig, "__post_init__", MINIMAL),
], ids=["build_mesh", "turn_model_by_name", "region-turn_model_by_name",
        "custom_turn_model", "partition", "build_routing_graph",
        "is_deadlock_free", "random_task_graph", "build_task_graph",
        "cluster_tasks", "classifier-validate"])
def test_a_bug_in_a_library_call_propagates_as_itself(monkeypatch, owner,
                                                       name, document):
    """Only a ValidationError becomes a document error: a misspelt name
    in a library raise site is a NameError, and the parser must not
    report it as a fault of the document."""
    def broken(*args, **kwargs):
        raise NameError("name 'heurstic' is not defined")

    monkeypatch.setattr(owner, name, broken)
    with pytest.raises(NameError, match="heurstic"):
        ns.parse_scenario(document)


def _catches_everything(handler):
    """Is an except clause bare, or does it name Exception or
    BaseException (alone or in a tuple)?"""
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
               for t in types)


def test_no_handler_in_the_package_catches_every_exception():
    """Such a handler would turn a bug into a reported error, or
    swallow it."""
    broad = [f"{path.name}:{node.lineno}"
             for path in sorted(pathlib.Path(ns.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ExceptHandler)
             and _catches_everything(node)]
    assert broad == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
# derive_lbdr_config computes the paper's per-router configuration bits,
# which criterion 09 checks against the routing graph; it stays until an
# output reads it (ROADMAP item 14).
NAMED_ONLY_BY_TESTS = {"derive_lbdr_config"}


def _definitions(tree):
    """Top-level functions and classes and their methods, except the
    dunder methods Python calls itself."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("__"))


def _names(tree):
    """Every identifier a module names in code: names, attributes,
    imports and string constants equal to one (not text that mentions
    one, such as a docstring)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_library_definition_is_used_outside_the_tests():
    """A function, class or method that only tests (or the package's
    exports) name is code nothing runs; delete it with its tests."""
    package = ROOT / "src" / "nocsim"
    users = ([p for p in package.glob("*.py") if p.name != "__init__.py"]
             + sorted((ROOT / "scripts").rglob("*.py"))
             + sorted((ROOT / "benchmark").rglob("*.py")))
    named = NAMED_ONLY_BY_TESTS.union(
        name for path in users
        for name in _names(ast.parse(path.read_text(encoding="utf-8"))))
    unused = [f"{path.name}:{qualified}"
              for path in sorted(package.glob("*.py"))
              for qualified in _definitions(
                  ast.parse(path.read_text(encoding="utf-8")))
              if qualified.rsplit(".", 1)[-1] not in named]
    assert unused == []


# -- injection targets -------------------------------------------------------


def inj_doc(target, time=10, persistence="permanent"):
    return doc(injections=[
        {"time": time, "target": target, "persistence": persistence}])


def test_turn_slot_label_pair_equals_index():
    by_pair = ns.parse_scenario(
        inj_doc({"kind": "turn", "tile": 1, "slot": ["W", "N"]}))
    by_index = ns.parse_scenario(
        inj_doc({"kind": "turn", "tile": 1, "slot": 6}))
    assert by_pair.injections[0].location == ("turn", 1, 6)
    assert by_pair.injections[0].location == by_index.injections[0].location


def test_turn_slot_out_of_range():
    with pytest.raises(SemanticError, match="slot"):
        ns.parse_scenario(inj_doc({"kind": "turn", "tile": 1, "slot": 8}))
    with pytest.raises(SemanticError, match="slot"):
        ns.parse_scenario(inj_doc({"kind": "turn", "tile": 1,
                                   "slot": ["N", "N"]}))


@pytest.mark.parametrize("slot", [[["W"], "N"], [{"a": 1}, "N"], [1, 2],
                                  ["U", "D"], 24])
def test_turn_slot_on_3d_mesh_rejects_non_turns(slot):
    """Unhashable pairs, non-direction pairs, a straight pair and an
    index past the 24 slots all end in a SemanticError naming the
    slot."""
    with pytest.raises(SemanticError,
                       match=re.escape("injections[0].target.slot: ")):
        ns.parse_scenario(doc(platform={"mesh": [3, 3, 2]}, injections=[
            {"time": 10, "target": {"kind": "turn", "tile": 1, "slot": slot},
             "persistence": "permanent"}]))


def test_turn_slot_on_3d_mesh_parses_vertical_turn():
    s = ns.parse_scenario(doc(platform={"mesh": [3, 3, 2]}, injections=[
        {"time": 10, "target": {"kind": "turn", "tile": 1, "slot": ["E", "U"]},
         "persistence": "permanent"}]))
    assert s.injections[0].location == ("turn", 1, 12)


def test_link_by_id_equals_tile_direction():
    ag = ns.build_mesh(3, 3)
    lid = ag.link(0, "E").id
    by_id = ns.parse_scenario(inj_doc({"kind": "link", "link": lid}))
    by_dir = ns.parse_scenario(
        inj_doc({"kind": "link", "tile": 0, "direction": "E"}))
    assert by_id.injections[0].location == ("link", lid)
    assert by_id.injections[0].location == by_dir.injections[0].location


def test_link_direction_missing_at_edge():
    with pytest.raises(SemanticError, match="no 'W' link"):
        ns.parse_scenario(inj_doc({"kind": "link", "tile": 0,
                                   "direction": "W"}))


def test_link_id_out_of_range():
    with pytest.raises(SemanticError, match="link"):
        ns.parse_scenario(inj_doc({"kind": "link", "link": 999}))


def test_checker_unit_validated():
    ok = ns.parse_scenario(
        inj_doc({"kind": "checker", "tile": 2, "unit": "arbiter"}))
    assert ok.injections[0].location == ("checker", 2, "arbiter")
    with pytest.raises(SemanticError, match="unit"):
        ns.parse_scenario(
            inj_doc({"kind": "checker", "tile": 2, "unit": "espresso"}))


def test_pe_target_out_of_range():
    with pytest.raises(SemanticError):
        ns.parse_scenario(inj_doc({"kind": "pe", "tile": 99}))


@pytest.mark.parametrize("target", [
    {"kind": "pe", "tile": 9},
    {"kind": "turn", "tile": 9, "slot": 0},
    {"kind": "checker", "tile": 9, "unit": "arbiter"},
    {"kind": "link", "tile": 9, "direction": "E"},
], ids=["pe", "turn", "checker", "link"])
def test_target_tile_outside_mesh_names_its_path(target):
    with pytest.raises(SemanticError, match=re.escape(
            "injections[0].target.tile: must be <= 8, got 9")):
        ns.parse_scenario(inj_doc(target))


def test_aging_tile_outside_mesh_names_its_path():
    with pytest.raises(SemanticError, match=re.escape(
            "aging[0].tile: must be <= 8, got 9")):
        ns.parse_scenario(doc(aging=[{"time": 0, "tile": 9, "percent": 10}]))


def test_unknown_target_kind():
    with pytest.raises(SemanticError, match="kind"):
        ns.parse_scenario(inj_doc({"kind": "capacitor", "tile": 0}))


def test_persistence_forms():
    t = ns.parse_scenario(inj_doc({"kind": "pe", "tile": 0},
                                  persistence="transient"))
    assert t.injections[0].persistence == "transient"
    burst = ns.parse_scenario(inj_doc(
        {"kind": "pe", "tile": 0},
        persistence={"kind": "intermittent", "count": 3, "spacing": 50}))
    assert burst.injections[0].persistence == ("intermittent", 3, 50)
    with pytest.raises(SemanticError, match="persistence"):
        ns.parse_scenario(inj_doc({"kind": "pe", "tile": 0},
                                  persistence="sporadic"))


def test_stuck_at_polarity_is_an_unknown_field(tmp_path, capsys):
    bad = inj_doc({"kind": "pe", "tile": 0})
    bad["injections"][0]["stuck"] = "SA0"
    with pytest.raises(SemanticError, match=r"injections\[0\]\.stuck: "
                                            "unknown field"):
        ns.parse_scenario(bad)
    p = tmp_path / "stuck.json"
    p.write_text(json.dumps(bad))
    assert main(["validate", "--scenario", str(p)]) == 1
    assert "error: injections[0].stuck: unknown field" in capsys.readouterr().err


def burst(count):
    return {"kind": "intermittent", "count": count, "spacing": 1}


@pytest.mark.parametrize("patch, path", [
    pytest.param(dict(platform={"mesh": [MAX_TILES + 1, 1]}), "platform.mesh",
                 id="tiles"),
    pytest.param(dict(platform={"mesh": [16, 16, 17]}), "platform.mesh",
                 id="tiles-3d"),
    pytest.param(dict(platform={"mesh": [10**400, 3]}), "platform.mesh",
                 id="tiles-10**400"),
    pytest.param(dict(application={"tasks": MAX_RANDOM_TASKS + 1}),
                 "application.tasks", id="random-tasks"),
    pytest.param(inj_doc({"kind": "pe", "tile": 0},
                         persistence=burst(MAX_BURST + 1)),
                 "injections[0].persistence.count", id="burst"),
])
def test_size_past_its_cap_is_rejected(patch, path):
    with pytest.raises(SemanticError, match=re.escape(f"{path}: ")):
        ns.parse_scenario(doc(**patch))


def test_sizes_at_their_caps_parse():
    s = ns.parse_scenario(doc(platform={"mesh": [64, 64]}))
    assert len(s.ag) == MAX_TILES == 64 * 64
    s = ns.parse_scenario(inj_doc({"kind": "pe", "tile": 0},
                                  persistence=burst(MAX_BURST)))
    assert s.injections[0].persistence == ("intermittent", MAX_BURST, 1)


def _validate_bundled(tmp_path, capsys, name, heuristic):
    """`nocsim validate` on a bundled scenario with `heuristic` merged
    into its heuristic section: (exit status, stderr)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    data = json.loads((path / f"{name}.json").read_text(encoding="utf-8"))
    data["heuristic"].update(heuristic)
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(data))
    status = main(["validate", "--scenario", str(p)])
    return status, capsys.readouterr().err


def test_iterations_past_their_cap_are_rejected(tmp_path, capsys):
    s = ns.parse_scenario(doc(heuristic={"iterations": MAX_ITERATIONS}))
    assert s.iterations == MAX_ITERATIONS
    with pytest.raises(SemanticError, match=re.escape(
            f"heuristic.iterations: must be <= {MAX_ITERATIONS}, got ")):
        ns.parse_scenario(doc(heuristic={"iterations": MAX_ITERATIONS + 1}))
    # An ILS run this long never ended before the cap.
    status, err = _validate_bundled(tmp_path, capsys, "regions",
                                    {"iterations": 10**30})
    assert status == 1 and "error: heuristic.iterations: " in err


def test_sa_candidate_budget_past_its_cap_is_rejected(tmp_path, capsys):
    # ceil(ln 0.25 / ln 0.5) = 2 temperature levels.
    at_cap = {"alpha": 0.5, "tmin_ratio": 0.25,
              "moves_per_temp": MAX_SA_CANDIDATES // 2}
    s = ns.parse_scenario(doc(heuristic={"sa": at_cap}))
    assert s.sa_params.moves_per_temp == MAX_SA_CANDIDATES // 2
    with pytest.raises(SemanticError, match=re.escape(
            "heuristic.sa: 2 temperature levels x ")):
        ns.parse_scenario(doc(heuristic={"sa": dict(
            at_cap, moves_per_temp=MAX_SA_CANDIDATES // 2 + 1)}))
    # The default, 227 levels x 100 moves, is far below the cap.
    assert ns.parse_scenario(doc()).sa_params == ns.SaParams()
    status, err = _validate_bundled(
        tmp_path, capsys, "smoke",
        {"name": "sa", "sa": {"alpha": 0.999999, "tmin_ratio": 1e-300}})
    assert status == 1 and "error: heuristic.sa: " in err


def test_injection_times_must_be_non_decreasing():
    bad = doc(injections=[
        {"time": 50, "target": {"kind": "pe", "tile": 0}},
        {"time": 40, "target": {"kind": "pe", "tile": 1}},
    ])
    with pytest.raises(SemanticError, match="non-decreasing"):
        ns.parse_scenario(bad)


def test_aging_validation():
    ok = ns.parse_scenario(doc(aging=[{"time": 0, "tile": 2, "percent": 30}]))
    assert ok.aging == (ns.AgingUpdate(time=0, tile=2, percent=30),)
    with pytest.raises(SemanticError, match="percent"):
        ns.parse_scenario(doc(aging=[{"time": 0, "tile": 2, "percent": 130}]))
    with pytest.raises(SemanticError, match="tile"):
        ns.parse_scenario(doc(aging=[{"time": 0, "tile": 40, "percent": 10}]))


# -- platform variants -------------------------------------------------------


def test_custom_turn_model_roundtrip():
    west_first = [["N", "E"], ["S", "E"], ["E", "N"], ["E", "S"],
                  ["W", "N"], ["W", "S"]]
    s = ns.parse_scenario(doc(platform={"mesh": [3, 3],
                                        "turn_model": "custom",
                                        "custom_turns": west_first}))
    shm = ns.SystemHealthMap(s.ag)
    rg = ns.build_routing_graph(s.ag, s.turn_model, shm)
    assert ns.is_deadlock_free(rg)


def test_custom_all_turns_rejected_as_cyclic():
    everything = [[a, b] for a, b in ns.TURN_SLOTS_2D]
    with pytest.raises(SemanticError, match="routing cycle"):
        ns.parse_scenario(doc(platform={"mesh": [3, 3],
                                        "turn_model": "custom",
                                        "custom_turns": everything}))


def test_named_models_parse_without_building_a_graph(monkeypatch):
    """Named models, regions included, are acyclic on every mesh
    (tests/test_routing.py::test_named_models_acyclic_on_every_small_mesh),
    so parsing builds no routing graph for them; a custom model's
    healthy graph is built once and checked."""
    builds = []
    build = ns.scenario.build_routing_graph
    monkeypatch.setattr(ns.scenario, "build_routing_graph",
                        lambda *args, **kw: builds.append(1) or build(*args, **kw))
    for platform in ({"mesh": [4, 4], "turn_model": "west_first"},
                     {"mesh": [2, 2, 2]},
                     {"mesh": [4, 4], "turn_model": "negative_first",
                      "regions": {"labels": {str(t): "west" if t % 4 < 2
                                             else "east" for t in range(16)},
                                  "turn_models": {"east": "xy"}}}):
        ns.parse_scenario(doc(platform=platform))
    assert builds == []
    ns.parse_scenario(doc(platform={"mesh": [3, 3], "turn_model": "custom",
                                    "custom_turns": [["E", "N"], ["W", "S"]]}))
    assert len(builds) == 1


@pytest.mark.parametrize("heuristic", ["greedy-merge", "local-search"])
def test_large_clustered_application_parses_in_seconds(heuristic):
    """Clustering keeps its pair weights and prices a move by its delta,
    so a 300-task application clusters in a fraction of a second.
    Re-summing every edge per pair and per move grew like the fifth
    power of the task count."""
    start = time.perf_counter()
    script = ns.parse_scenario(doc(application={
        "tasks": 300, "cluster": {"k": 8, "heuristic": heuristic}}))
    assert time.perf_counter() - start < 5
    assert len(script.ctg) == 8
    assert sorted(t for c in script.ctg.clusters for t in c) == \
        list(range(300))


def test_unknown_turn_model_name():
    with pytest.raises(SemanticError, match="turn_model"):
        ns.parse_scenario(doc(platform={"mesh": [3, 3],
                                        "turn_model": "zigzag"}))


@pytest.mark.parametrize("platform, path, value", [
    ({"mesh": [2, 2], "turn_model": []}, "platform.turn_model", "[]"),
    ({"mesh": [2, 2], "regions": {"labels": {"0": "a"},
                                  "turn_models": {"a": {}}}},
     "platform.regions.turn_models.a", "{}"),
], ids=["platform", "region"])
def test_turn_model_that_is_not_a_string_is_unknown(platform, path, value):
    # A list or object name used to surface as "unhashable type".
    with pytest.raises(SemanticError) as exc:
        ns.parse_scenario(doc(platform=platform))
    assert str(exc.value) == (
        f"{path}: unknown turn model {value} for 2D; choices: "
        "['negative_first', 'north_last', 'west_first', 'xy']")


def test_regions_parse_and_partition():
    s = ns.parse_scenario(doc(platform={
        "mesh": [4, 4],
        "regions": {
            "labels": {str(t): "west" if t % 4 < 2 else "east"
                       for t in range(16)},
            "turn_models": {"west": "west_first", "east": "xy"},
        },
    }))
    assert s.regions is not None
    assert s.regions.turn_model_for(0) is ns.WEST_FIRST
    assert s.regions.turn_model_for(3) is ns.XY
    assert s.regions.crosses(1, 2)
    assert not s.regions.crosses(2, 3)


def test_regions_bad_tile_key():
    with pytest.raises(SemanticError, match="labels"):
        ns.parse_scenario(doc(platform={
            "mesh": [3, 3],
            "regions": {"labels": {"north-west": "a"}},
        }))
    # Only canonical decimal keys name a tile: "01" must not relabel tile 1.
    for labels, key in (({"1_0": "a"}, "1_0"), ({" 2": "a"}, " 2"),
                        ({"01": "a"}, "01"), ({"1": "a", "01": "b"}, "01")):
        with pytest.raises(SemanticError,
                           match=f"key '{key}' is not a tile id"):
            ns.parse_scenario(doc(platform={
                "mesh": [3, 3], "regions": {"labels": labels}}))


def test_3d_mesh_parses():
    s = ns.parse_scenario(doc(platform={"mesh": [2, 2, 2]}))
    assert len(s.ag.tiles) == 8
    assert s.ag.is_3d


# -- overrides and determinism --------------------------------------------------


def test_keyword_overrides_beat_document():
    s = ns.parse_scenario(doc(seed=3, heuristic={"name": "greedy",
                                                 "cost": "makespan"}),
                          seed=11, heuristic="sa", cost="util", budget=2)
    assert s.seed == 11
    assert s.heuristic == "sa"
    assert s.cost == "utilization_balance"
    assert s.budget == 2


def test_seed_feeds_task_generation():
    a = ns.parse_scenario(doc(), seed=1)
    b = ns.parse_scenario(doc(), seed=1)
    c = ns.parse_scenario(doc(), seed=2)
    sig = lambda s: ([(t.id, t.wcet) for t in s.tg.tasks], dict(s.tg.edges))
    assert sig(a) == sig(b)
    assert sig(a) != sig(c)


def test_parse_is_deterministic():
    a = ns.parse_scenario(doc(EXPLICIT))
    b = ns.parse_scenario(doc(EXPLICIT))
    assert a.seed == b.seed
    assert a.injections == b.injections
    assert a.aging == b.aging
    assert [(t.id, t.wcet) for t in a.tg.tasks] == \
        [(t.id, t.wcet) for t in b.tg.tasks]
    assert a.tg.edges == b.tg.edges

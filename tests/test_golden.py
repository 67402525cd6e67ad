"""Golden-output corpus: every file `nocsim simulate --out` writes for
each bundled scenario under greedy, ILS and SA, and the `nocsim
regions` dumps of scenarios/regions.json and of the 3D document
tests/scenarios/xyz_faults.json at budgets 1 and 8, compared byte for
byte with the files under tests/golden/.

tests/scenarios/ holds documents for features the bundled scenarios do
not reach (the traffic and utilization costs, a clustered application,
a 3D mesh, a vertical turn fault that severs a flow on it, a flow
dropped by the region filter, a flow severed under the requeue policy,
an infeasible store and an infeasible remap); their
goldens, in tests/golden/extra/<name>/<heuristic>/, add the `nocsim
map` output (map.txt), whose `cost <kind> <value>` line pins
evaluate_cost.  Every line format in the kernel's LINES table, and
every decision action, must appear somewhere in the corpus.

The corpus pins the model's outputs, so a refactor or speed-up that
changes any byte fails here.  The only way to rewrite it is

    NOCSIM_UPDATE_GOLDEN=1 python -m pytest tests/test_golden.py

which is for a change that declares a model change (and says why) in
CHANGES.md; any other change must leave these files as they are."""

import os
import pathlib
import re
import string

import pytest

from nocsim.cli import main
from nocsim.simkernel import LINES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
UPDATE = os.environ.get("NOCSIM_UPDATE_GOLDEN") == "1"

SIMULATE_FILES = ("metrics.txt", "trace.txt", "decisions.log", "mapping.txt",
                  "mpm.txt", "shm.txt")
SCENARIO_NAMES = sorted(p.stem for p in SCENARIOS.glob("*.json"))
EXTRA = pathlib.Path(__file__).resolve().parent / "scenarios"
EXTRA_NAMES = sorted(p.stem for p in EXTRA.glob("*.json"))
HEURISTICS = ("greedy", "ils", "sa")
BUDGETS = (1, 8)


def _check(produced, expected):
    """Compare one produced file with its golden copy (or rewrite the
    golden copy when updating)."""
    data = produced.read_bytes()
    if UPDATE:
        expected.parent.mkdir(parents=True, exist_ok=True)
        expected.write_bytes(data)
        return
    assert expected.exists(), f"missing golden file {expected}"
    assert data == expected.read_bytes(), f"{expected} differs"


def test_corpus_covers_every_scenario():
    assert SCENARIO_NAMES == ["burst_recovery", "regions", "smoke"]


def _check_simulate(scenario, heuristic, golden, out):
    assert main(["simulate", "--scenario", str(scenario),
                 "--heuristic", heuristic, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SIMULATE_FILES)
    for fname in SIMULATE_FILES:
        _check(out / fname, golden / fname)


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_simulate_matches_golden(name, heuristic, tmp_path, capsys):
    _check_simulate(SCENARIOS / f"{name}.json", heuristic,
                    GOLDEN / name / heuristic, tmp_path / "out")
    capsys.readouterr()


def test_extra_corpus_covers_every_document():
    assert EXTRA_NAMES == sorted(p.name for p in (GOLDEN / "extra").iterdir())


@pytest.mark.parametrize("heuristic", HEURISTICS)
@pytest.mark.parametrize("name", EXTRA_NAMES)
def test_extra_matches_golden(name, heuristic, tmp_path, capsys):
    golden = GOLDEN / "extra" / name / heuristic
    _check_simulate(EXTRA / f"{name}.json", heuristic, golden, tmp_path / "sim")
    assert main(["map", "--scenario", str(EXTRA / f"{name}.json"),
                 "--heuristic", heuristic, "--out", str(tmp_path / "map")]) == 0
    capsys.readouterr()
    _check(tmp_path / "map" / "mapping.txt", golden / "map.txt")


@pytest.mark.parametrize("budget", BUDGETS)
def test_regions_matches_golden(budget, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["regions", "--scenario", str(SCENARIOS / "regions.json"),
                 "--regions-budget", str(budget), "--out", str(out)]) == 0
    capsys.readouterr()
    _check(out / "regions.txt", GOLDEN / "regions_dump" / f"budget{budget}.txt")


@pytest.mark.parametrize("budget", BUDGETS)
def test_xyz_regions_matches_golden(budget, tmp_path, capsys):
    """The region dump of a 3D mesh (3x3x2, xyz) after its three
    permanent faults, a turn fault among them: the only pinned output
    whose port layout and turn slots are the 3D ones."""
    out = tmp_path / "out"
    assert main(["regions", "--scenario", str(EXTRA / "xyz_faults.json"),
                 "--regions-budget", str(budget), "--out", str(out)]) == 0
    capsys.readouterr()
    _check(out / "regions.txt",
           GOLDEN / "regions_dump_xyz_faults" / f"budget{budget}.txt")


def _line_pattern(template):
    """A template from the kernel's LINES table as a regex for the whole
    rendered line, time included; each field matches any text."""
    parts = [re.escape(literal) + ("" if name is None else ".+?")
             for literal, name, _, _ in string.Formatter().parse(template)]
    return re.compile(r"\d+ " + "".join(parts))


@pytest.mark.parametrize("column, fname", [(0, "trace.txt"),
                                           (1, "decisions.log")])
def test_corpus_holds_every_line_format(column, fname):
    """Each line format the kernel can write appears in some golden
    file, and each golden line has a format: a kind added without a
    golden, or a line written outside the table, fails here."""
    templates = {t[column] for t in LINES.values() if t[column] is not None}
    patterns = {t: _line_pattern(t) for t in templates}
    seen = set()
    for path in sorted(GOLDEN.rglob(fname)):
        for line in path.read_text().splitlines():
            hits = {t for t, pat in patterns.items() if pat.fullmatch(line)}
            assert hits, f"{path}: no line format in LINES matches {line!r}"
            seen |= hits
    assert templates - seen == set()


def test_corpus_holds_every_decision_action():
    actions = set()
    for path in GOLDEN.rglob("decisions.log"):
        actions |= set(re.findall(r" action=([a-z-]+:?)", path.read_text()))
    assert {"none", "stored:", "tables-rebuilt", "remap", "infeasible",
            "already-recorded"} <= actions

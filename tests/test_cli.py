import contextlib
import json
import pathlib
import subprocess
import sys
import types

import pytest

import nocsim as ns
from nocsim import cli
from nocsim.cli import main

SMOKE = str(pathlib.Path(__file__).resolve().parent.parent
            / "scenarios" / "smoke.json")

BASIC = {
    "seed": 5,
    "platform": {"mesh": [3, 3]},
    "application": {"type": "random", "tasks": 6, "density": 0.4},
}


@pytest.fixture
def scenario(tmp_path):
    def write(doc, name="scn.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return write


def test_validate_ok(scenario, capsys):
    assert main(["validate", "--scenario", scenario(BASIC)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: 6 tasks, 3x3 mesh, turn model xy, "
                          "0 injections, 0 aging updates")


def test_validate_verbose_lists_injections(capsys):
    assert main(["validate", "--scenario", SMOKE, "-v"]) == 0
    out = capsys.readouterr().out
    assert "ok: 9 tasks" in out
    assert "injection t=40 at pe:4 (permanent)" in out


def test_validate_bad_json_exits_1(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope}")
    assert main(["validate", "--scenario", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ":1:" in err


@pytest.mark.parametrize("content", [
    pytest.param('{"seed": "caf\xe9"}'.encode("latin-1"), id="not-utf8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep"),
    pytest.param(None, id="missing"),
])
def test_validate_unreadable_file_exits_1(tmp_path, capsys, content):
    p = tmp_path / "scn.json"
    if content is not None:
        p.write_bytes(content)
    assert main(["validate", "--scenario", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: ")


def test_validate_huge_mesh_exits_1(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text('{"platform": {"mesh": [1%s, 3]}, '
                 '"application": {"tasks": 3}}' % ("0" * 400))
    assert main(["validate", "--scenario", str(p)]) == 1
    assert "error: platform.mesh: more than 4096 tiles" in \
        capsys.readouterr().err


def test_validate_semantic_error_exits_1(scenario, capsys):
    doc = dict(BASIC, platform={"mesh": [0, 3]})
    assert main(["validate", "--scenario", scenario(doc)]) == 1
    assert "error: platform.mesh" in capsys.readouterr().err


def test_validate_nan_exits_1(scenario, capsys):
    # json.loads reads NaN; it is no annealing start temperature.
    doc = dict(BASIC, heuristic={"name": "sa", "sa": {"t0": float("nan")}})
    assert main(["validate", "--scenario", scenario(doc)]) == 1
    assert "error: heuristic.sa.t0: expected a positive number" in \
        capsys.readouterr().err


def test_infeasible_exits_2(scenario, capsys):
    doc = dict(BASIC, platform={"mesh": [2, 2]},
               aging=[{"time": 0, "tile": t, "percent": 100}
                      for t in range(4)])
    assert main(["map", "--scenario", scenario(doc)]) == 2
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert main(["simulate", "--scenario", scenario(doc)]) == 2


def test_map_output_shape(scenario, capsys):
    assert main(["map", "--scenario", scenario(BASIC)]) == 0
    out = capsys.readouterr().out
    assert "task 0 -> tile" in out
    assert "cost schedule_length" in out
    assert "t_rl " in out


def test_map_out_writes_file(scenario, tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main(["map", "--scenario", scenario(BASIC),
                 "--out", str(out_dir)]) == 0
    text = (out_dir / "mapping.txt").read_text()
    assert "task 0 -> tile" in text
    assert "wrote" in capsys.readouterr().out


def test_map_deterministic_per_heuristic(scenario, capsys):
    path = scenario(BASIC)
    outs = []
    for _ in range(2):
        assert main(["map", "--scenario", path, "--heuristic", "sa"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_map_makespan_matches_fault_free_simulation(scenario, capsys):
    path = scenario(BASIC)
    assert main(["map", "--scenario", path]) == 0
    map_out = capsys.readouterr().out
    sched_makespan = int(next(
        l.split()[2] for l in map_out.splitlines()
        if l.startswith("cost schedule_length ")))
    assert main(["simulate", "--scenario", path]) == 0
    sim_out = capsys.readouterr().out
    sim_makespan = int(next(
        l.split()[1] for l in sim_out.splitlines()
        if l.startswith("makespan ")))
    assert sched_makespan == sim_makespan


def test_simulate_out_writes_file_set(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["decisions.log", "mapping.txt", "metrics.txt",
                     "mpm.txt", "shm.txt", "trace.txt"]
    assert "wrote 6 files" in capsys.readouterr().out
    metrics = (out_dir / "metrics.txt").read_text()
    assert metrics.startswith("makespan ")
    assert "remaps 1" in metrics


def test_simulate_writes_and_prints_run_result_files(tmp_path, capsys):
    files = ns.run(ns.load_scenario(SMOKE)).files()
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", SMOKE, "--out", str(out_dir)]) == 0
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {
        name: text.encode() for name, text in files.items()}
    capsys.readouterr()
    assert main(["simulate", "--scenario", SMOKE]) == 0
    assert capsys.readouterr().out == files["metrics.txt"]


def test_simulate_out_verbose_writes_files_and_prints_metrics(tmp_path,
                                                              capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", "--scenario", SMOKE, "--out", str(out_dir),
                 "--verbose"]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "decisions.log", "mapping.txt", "metrics.txt", "mpm.txt", "shm.txt",
        "trace.txt"]
    metrics = (out_dir / "metrics.txt").read_text()
    assert capsys.readouterr().out == \
        f"wrote 6 files to {out_dir}\n" + metrics
    assert metrics.startswith("makespan ")


def test_simulate_rerun_byte_identical(tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main(["simulate", "--scenario", SMOKE, "--out", str(d)]) == 0
    for name in ("metrics.txt", "trace.txt", "decisions.log",
                 "mapping.txt", "mpm.txt", "shm.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_simulate_verbose_appends_trace(scenario, capsys):
    assert main(["simulate", "--scenario", scenario(BASIC), "-v"]) == 0
    out = capsys.readouterr().out
    assert "# trace" in out and "# decisions" in out
    assert "deploy gen=1" in out


def test_regions_budget_override_caps_rectangles(scenario, capsys):
    path = scenario(BASIC)
    assert main(["regions", "--scenario", path,
                 "--regions-budget", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("budget 1\n")
    for line in out.splitlines()[1:]:
        if ": " not in line or line.endswith(": ok"):
            continue
        assert line.count(")-(") <= 1, line


def test_regions_reflects_permanent_injections(tmp_path, capsys):
    assert main(["regions", "--scenario", SMOKE]) == 0
    broken = capsys.readouterr().out
    # The permanent pe fault leaves routers intact, so port tables stay clean;
    # the run must still succeed and carry the scripted budget header.
    assert broken.startswith("budget 4\n")


def test_sweep_deterministic_rows(scenario, capsys):
    path = scenario(BASIC)
    outs = []
    for _ in range(2):
        assert main(["sweep", "--scenario", path, "--seeds", "3",
                     "--jobs", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    assert lines[0].split() == ["seed", "makespan", "remaps", "flows_dropped",
                                "mpm_hits", "mpm_misses", "tasks_unfinished"]
    seeds = [int(l.split()[0]) for l in lines[1:-1]]
    assert seeds == [5, 6, 7]
    assert lines[-1].startswith("aggregate makespan min=")


def test_sweep_out_writes_rows_and_aggregate(scenario, tmp_path, capsys):
    path = scenario(BASIC)
    assert main(["sweep", "--scenario", path, "--seeds", "2",
                 "--jobs", "1"]) == 0
    printed = capsys.readouterr().out
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--scenario", path, "--out", str(out_dir),
                 "--seeds", "2", "--jobs", "1"]) == 0
    written = out_dir / "sweep.txt"
    assert capsys.readouterr().out == f"wrote {written}\n"
    text = written.read_text()
    assert text == printed
    lines = text.splitlines()
    assert [int(l.split()[0]) for l in lines[1:-1]] == [5, 6]
    assert lines[-1].startswith("aggregate makespan min=")


def test_sweep_parallel_matches_serial(scenario, capsys):
    path = scenario(BASIC)
    assert main(["sweep", "--scenario", path, "--seeds", "2",
                 "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(["sweep", "--scenario", path, "--seeds", "2",
                 "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_without_seeds_exits_1(scenario, capsys, seeds):
    assert main(["sweep", "--scenario", scenario(BASIC),
                 "--seeds", seeds]) == 1
    assert f"error: --seeds must be >= 1, got {seeds}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", SMOKE, "--seed", "-5"],
    ["sweep", "--scenario", SMOKE, "--seed", "-3", "--seeds", "2",
     "--jobs", "1"],
])
def test_negative_seed_override_exits_1(argv, capsys):
    assert main(argv) == 1
    assert "error: seed: must be >= 0" in capsys.readouterr().err


def test_sweep_pool_has_at_most_one_worker_per_seed(scenario, capsys,
                                                    monkeypatch):
    workers = []

    class InlinePool:
        """Records its size and runs the tasks in this process."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert main(["sweep", "--scenario", scenario(BASIC), "--seeds", "2",
                 "--jobs", "64"]) == 0
    assert workers == [2]
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_sweep_pool_has_at_most_one_worker_per_cpu(scenario, capsys,
                                                   monkeypatch):
    workers = []

    def inline_pool(max_workers):
        """Records its size; its map runs the tasks in this process."""
        workers.append(max_workers)
        return contextlib.nullcontext(types.SimpleNamespace(map=map))

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                        inline_pool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert main(["sweep", "--scenario", scenario(BASIC), "--seeds", "8",
                 "--jobs", "64"]) == 0
    assert workers == [2]
    assert len(capsys.readouterr().out.splitlines()) == 10


@pytest.mark.parametrize("argv, name", [
    (["map"], "mapping.txt"),
    (["simulate"], "metrics.txt"),
    (["regions"], "regions.txt"),
    (["sweep", "--seeds", "1", "--jobs", "1"], "sweep.txt"),
], ids=["map", "simulate", "regions", "sweep"])
@pytest.mark.parametrize("bad", ["file", "under-file", "output-is-dir"])
def test_unwritable_out_exits_1(tmp_path, capsys, argv, name, bad):
    taken = tmp_path / "taken"
    taken.write_text("")
    if bad == "file":
        out = failing = taken
    elif bad == "under-file":
        out = failing = taken / "sub"
    else:
        out = tmp_path / "run"
        failing = out / name
        failing.mkdir(parents=True)
    assert main(argv + ["--scenario", SMOKE, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {failing}: ")


def test_sweep_negative_jobs_exits_1(scenario, capsys):
    assert main(["sweep", "--scenario", scenario(BASIC), "--seeds", "2",
                 "--jobs", "-1"]) == 1
    assert "error: --jobs must be >= 0, got -1" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nocsim.cli", "validate",
         "--scenario", SMOKE],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: ")

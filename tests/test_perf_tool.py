"""tools/perf.py: the summary of alternating parent/change benchmark runs,
on canned perfbench/run.py result lines, and the export of the change
side from a throwaway repository."""

import hashlib
import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "perf.py"
_spec = importlib.util.spec_from_file_location("perf_tool", _PATH)
perf = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mips", "unit": "MIPS", "better": "higher", "bound": 0.25},
    {"name": "pass_share", "unit": "share", "better": "higher", "bound": 0.01},
]


def _line(wall, mips, share=1.0, correct=True):
    return json.dumps({
        "correct": correct, "attempted": 4, "failed": 0 if correct else 1,
        "metrics": {"wall_s": {"value": wall, "unit": "s"},
                    "mips": {"value": mips, "unit": "MIPS"},
                    "pass_share": {"value": share, "unit": "share"}}})


PAIRS = [
    (_line(0.60, 1.5), _line(0.50, 1.8)),
    (_line(0.70, 1.3), _line(0.45, 2.0)),
    (_line(0.65, 1.4), _line(0.66, 1.4)),
    (_line(0.62, 1.45), _line(0.48, 1.9, share=0.75, correct=False)),
]


def test_summary_gives_each_sides_quartiles_and_the_changes_wins():
    s = perf.summarize(PAIRS, END_TO_END)
    assert s["pairs"] == 4
    assert s["correct"] == {"parent": 4, "change": 3}
    wall = s["metrics"]["wall_s"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert wall["parent"] == pytest.approx({"median": 0.635, "q1": 0.615, "q3": 0.6625})
    assert wall["change"] == pytest.approx({"median": 0.49, "q1": 0.4725, "q3": 0.54})
    assert wall["values"] == {"parent": [0.60, 0.70, 0.65, 0.62],
                              "change": [0.50, 0.45, 0.66, 0.48]}
    assert wall["wins"] == 3                    # lower is better; pair 3 lost
    assert s["metrics"]["mips"]["wins"] == 3    # higher is better; pair 3 tied
    assert s["metrics"]["pass_share"]["wins"] == 0


def test_one_pair_has_no_spread():
    s = perf.summarize(PAIRS[:1], END_TO_END)
    assert s["metrics"]["wall_s"]["parent"] == {"median": 0.60, "q1": 0.60, "q3": 0.60}
    assert s["metrics"]["wall_s"]["wins"] == 1


def test_layer_deltas_are_change_minus_parent():
    parent = json.dumps({"metrics": {"asm.assemble_s": {"value": 0.2, "unit": "s"},
                                     "kernels.generated": {"value": 12, "unit": "count"}}})
    change = json.dumps({"metrics": {"asm.assemble_s": {"value": 0.05, "unit": "s"},
                                     "kernels.generated": {"value": 12, "unit": "count"}}})
    d = perf.layer_deltas([parent], [change])
    assert d["asm.assemble_s"]["delta"] == pytest.approx(-0.15)
    one = {"median": 12, "q1": 12, "q3": 12}
    assert d["kernels.generated"] == {
        "unit": "count", "parent": one, "change": one, "delta": 0,
        "values": {"parent": [12], "change": [12]}}
    # several runs a side: each side's values in run order and quartiles
    d = perf.layer_deltas([_layers(t) for t in (0.50, 0.70, 0.60, 0.90)],
                          [_layers(t) for t in (0.40, 0.44, 0.30, 0.20)])
    run_s = d["emulator.run_s.sw-mem"]
    assert run_s["values"] == {"parent": [0.50, 0.70, 0.60, 0.90],
                               "change": [0.40, 0.44, 0.30, 0.20]}
    assert run_s["parent"] == pytest.approx({"median": 0.65, "q1": 0.575, "q3": 0.75})
    assert run_s["change"] == pytest.approx({"median": 0.35, "q1": 0.275, "q3": 0.41})
    assert run_s["delta"] == pytest.approx(-0.30)


def _layers(run_s):
    return json.dumps({"metrics": {"emulator.run_s.sw-mem": {"value": run_s, "unit": "s"}}})


def test_traced_pairs_alternate_and_report_each_sides_median(monkeypatch):
    calls = []
    times = iter([0.50, 0.40, 0.44, 0.70, 0.60, 0.30])

    def run_bench(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, seconds, trace))
        return _layers(next(times))

    monkeypatch.setattr(perf, "run_bench", run_bench)
    d = perf.traced_layers({"parent": "P", "change": "C"}, "long-stream", 7, 5.0)
    assert perf.TRACED_PAIRS == 3
    assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C"]
    assert {c[1:] for c in calls} == {("long-stream", 7, 5.0, 1)}
    # parent ran 0.50, 0.70, 0.60 and change 0.40, 0.44, 0.30
    run_s = d["emulator.run_s.sw-mem"]
    assert run_s["values"] == {"parent": [0.50, 0.70, 0.60],
                               "change": [0.40, 0.44, 0.30]}
    assert run_s["parent"]["median"] == pytest.approx(0.60)
    assert run_s["change"]["median"] == pytest.approx(0.40)
    assert run_s["delta"] == pytest.approx(-0.20)


def test_src_lines_counts_the_py_files_under_src_shatrv(tmp_path):
    package = tmp_path / "src" / "shatrv"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "data" / "b.py").write_text("y = 2")       # no final newline
    (package / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "src" / "other.py").write_text("z = 3\n")
    assert perf.src_lines(tmp_path) == 4


def test_report_sha256_passes_the_flags_to_the_cli(monkeypatch, tmp_path):
    calls = []

    def run(argv, cwd, env, capture_output, check):
        calls.append((argv, cwd, env["PYTHONPATH"]))
        out = pathlib.Path(argv[argv.index("--out") + 1])
        out.write_bytes(" ".join(argv[4:argv.index("--out")]).encode())

    monkeypatch.setattr(perf.subprocess, "run", run)
    assert perf.report_sha256(tmp_path) == hashlib.sha256(b"").hexdigest()
    assert perf.report_sha256(tmp_path, *perf.PRICED) == \
        hashlib.sha256(b"--mem-latency 2 --shatr-cycles 4").hexdigest()
    assert [argv[1:4] for argv, _, _ in calls] == [["-m", "shatrv.cli", "bench"]] * 2
    assert {(cwd, path) for _, cwd, path in calls} == {(tmp_path, str(tmp_path / "src"))}


def test_the_change_side_is_the_working_tree_without_what_git_ignores(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "change"
    (repo / "src").mkdir(parents=True)
    # .perfbench_out/ is left out even where git does not ignore it
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "src" / "kept.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 2\n")

    def git(*args):
        perf._git("-c", "user.name=perf", "-c", "user.email=perf@example.com", *args,
                  root=repo)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "kept.py").write_text("x = 3\n")         # an uncommitted edit
    (repo / "gone.py").unlink()                               # deleted, not committed
    (repo / "src" / "new.py").write_text("z = 4\n")          # untracked
    (repo / "ignored.txt").write_text("left out\n")
    (repo / ".perfbench_out").mkdir()
    (repo / ".perfbench_out" / "run.json").write_text("{}\n")
    perf.export_worktree(dest, root=repo)
    assert sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file()) == [
        ".gitignore", "src/kept.py", "src/new.py"]
    assert (dest / "src" / "kept.py").read_text() == "x = 3\n"

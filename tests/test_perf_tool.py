"""tools/perf.py: the summary of alternating parent/change benchmark runs,
on canned perfbench/run.py result lines."""

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
    d = perf.layer_deltas(parent, change)
    assert d["asm.assemble_s"]["delta"] == pytest.approx(-0.15)
    assert d["kernels.generated"] == {"unit": "count", "parent": 12, "change": 12, "delta": 0}


def test_src_lines_counts_the_py_files_under_src_shatrv(tmp_path):
    package = tmp_path / "src" / "shatrv"
    (package / "data").mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "data" / "b.py").write_text("y = 2")       # no final newline
    (package / "notes.txt").write_text("not\ncode\n")
    (tmp_path / "src" / "other.py").write_text("z = 3\n")
    assert perf.src_lines(tmp_path) == 4

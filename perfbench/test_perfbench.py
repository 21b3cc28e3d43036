"""Tests of the benchmark itself: python -m pytest perfbench"""

import contextlib
import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

import workloads
from workloads import LENGTH_SETS, RATES, SRC, WORKLOADS, check, rsp_text, \
    summarize, write_vectors

sys.path.insert(0, str(SRC))

from shatrv import cli, emulator  # noqa: E402
from shatrv.bench import vector_class  # noqa: E402
from shatrv.cavp import parse_rsp  # noqa: E402
from tracer import TraceError, Tracer, layer_self_times, load_spans  # noqa: E402


def _bench(vectors, tmp_path, strategies=()):
    out = tmp_path / "report.json"
    argv = ["bench", "--vectors", str(vectors), "--out", str(out)]
    for s in strategies:
        argv += ["--strategy", s]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.read_text()


@pytest.fixture
def tiny(tmp_path):
    """One short SHA3-256 vector in its own directory."""
    d = tmp_path / "vectors"
    d.mkdir()
    (d / "SHA3_256ShortMsg.rsp").write_text(rsp_text("sha3-256", [b"perfbench"]))
    return d


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(d).iterdir())}


@pytest.mark.parametrize("name", ["short-burst", "long-stream", "shatr-stream"])
def test_generator_is_deterministic(name, tmp_path):
    a = _files(write_vectors(name, 7, tmp_path / "a"))
    b = _files(write_vectors(name, 7, tmp_path / "b"))
    c = _files(write_vectors(name, 8, tmp_path / "c"))
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_generated_sets_land_in_their_class(tmp_path):
    want = {"short-burst": "short", "long-stream": "long", "shatr-stream": "long"}
    for name, cls in want.items():
        d = write_vectors(name, 3, tmp_path / name)
        for path in sorted(d.iterdir()):
            vs = parse_rsp(path.read_text(), source=path.name)
            assert {vector_class(vs.source, v.length_bits) for v in vs.vectors} == {cls}
            if name == "short-burst":
                assert len(vs.vectors) == workloads.SHORT_PER_VARIANT
                assert all(v.length_bits < 8 * RATES[vs.variant] for v in vs.vectors)


def test_short_burst_lengths_follow_the_golden_key(tmp_path):
    def lengths(seed):
        d = write_vectors("short-burst", seed, tmp_path / str(seed))
        return [[v.length_bits for v in parse_rsp(p.read_text()).vectors]
                for p in sorted(d.iterdir())]
    assert lengths(2) == lengths(2 + LENGTH_SETS)
    assert lengths(2) != lengths(3)


def test_every_seed_has_a_golden_record():
    golden = workloads.load_golden()
    for w in WORKLOADS.values():
        for seed in range(LENGTH_SETS):
            assert w.golden_key(seed) in golden[w.name]


def test_gate_passes_a_matching_report_and_catches_mutations(tiny, tmp_path):
    rc, text = _bench(tiny, tmp_path, ["shatr"])
    golden = summarize(text)
    golden.pop("not_passed")
    assert rc == 0 and check(rc, text, golden) == []

    assert check(1, text, golden) == ["exit code 1"]
    assert check(0, None, golden) == ["no report written"]
    for key, value in (("report_sha256", "0" * 64), ("runs", 2),
                       ("retired", dict(golden["retired"], shatr=1)),
                       ("cycles", dict(golden["cycles"], shatr=1))):
        problems = check(rc, text, dict(golden, **{key: value}))
        assert len(problems) == 1 and problems[0].startswith(key)


def test_gate_catches_a_mutated_digest(tiny, tmp_path):
    rc, text = _bench(tiny, tmp_path, ["shatr"])
    golden = summarize(text)
    path = tiny / "SHA3_256ShortMsg.rsp"
    lines = path.read_text().splitlines()
    md = next(i for i, line in enumerate(lines) if line.startswith("MD = "))
    flipped = "0" if lines[md][-1] != "0" else "1"
    lines[md] = lines[md][:-1] + flipped
    path.write_text("\n".join(lines))
    rc, bad = _bench(tiny, tmp_path, ["shatr"])
    problems = check(rc, bad, golden)
    assert rc == 1
    assert "exit code 1" in problems
    assert any("not pass" in p for p in problems)
    assert any(p.startswith("report_sha256") for p in problems)


def _traced(vectors, tmp_path):
    tracer = Tracer().install()
    try:
        rc, _ = _bench(vectors, tmp_path)
    finally:
        tracer.uninstall()
    tracer.check()
    assert rc == 0
    return tracer


def test_two_traced_runs_give_identical_counts(tiny, tmp_path):
    a = _traced(tiny, tmp_path)
    b = _traced(tiny, tmp_path)
    assert a.calls() == b.calls()
    assert a.report_bytes == b.report_bytes
    assert all(a.calls().values())
    layers = a.layer_self_times()
    assert {f"emulator.run.{s}" for s in workloads.STRATEGIES} <= layers.keys()
    root = a.parent.index(-1)
    assert a.parent.count(-1) == 1
    assert sum(layers.values()) == pytest.approx(a.end[root] - a.start[root], rel=1e-9)


def test_uninstall_restores_every_entry_point(tiny, tmp_path):
    before = (cli.main, emulator.Machine.decode, cli.parse_rsp)
    _traced(tiny, tmp_path)
    assert (cli.main, emulator.Machine.decode, cli.parse_rsp) == before


def test_spans_round_trip_through_the_file(tiny, tmp_path):
    tracer = _traced(tiny, tmp_path)
    path = tmp_path / "spans.bin"
    tracer.write(path)
    header, arrays = load_spans(path)
    assert header["count"] == len(tracer.start)
    assert layer_self_times(header["names"], header["layer_of"],
                            **arrays) == tracer.layer_self_times()


def test_trace_fails_on_a_missing_entry_point(monkeypatch):
    monkeypatch.delattr(emulator.Machine, "decode")
    with pytest.raises(TraceError, match="Machine.decode is missing"):
        Tracer().install()


def test_trace_fails_when_decoding_moves_out_of_machine_decode(
        tiny, tmp_path, monkeypatch):
    build, decode = emulator.Machine._build, emulator.Machine.decode

    def build_without_decode(self, pc):
        self.decode = lambda word: decode(self, word)   # bypasses the class entry point
        try:
            return build(self, pc)
        finally:
            del self.decode
    monkeypatch.setattr(emulator.Machine, "_build", build_without_decode)
    tracer = Tracer().install()
    try:
        _bench(tiny, tmp_path)
    finally:
        tracer.uninstall()
    with pytest.raises(TraceError, match=r"no calls: shatrv.emulator:Machine.decode$"):
        tracer.check()


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    root = pathlib.Path(workloads.ROOT)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]


def test_metrics_match_benchmark_json():
    import run
    spec = json.loads((pathlib.Path(workloads.ROOT) / "BENCHMARK.json").read_text())
    result = {"wall_s": 2.0, "ref_wall_s": 2.0, "peak_rss_mb": 30.0, "spans": 9, "report_bytes": 9,
              "calls": dict.fromkeys(Tracer().calls(), 1),
              "layers": {"emulator.run.shatr": 1.0},
              "summary": {"retired": dict.fromkeys(workloads.STRATEGIES, 5),
                          "cycles": dict.fromkeys(workloads.STRATEGIES, 5)}}
    for key, metrics in (("end_to_end", run.end_to_end_metrics([result], [0.1], 0.0)),
                         ("per_layer", run.layer_metrics([result], [1.0]))):
        assert {k: u for k, (_, u) in metrics.items()} == \
            {m["name"]: m["unit"] for m in spec[key]}

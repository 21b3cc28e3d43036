"""Benchmark of `shatrv bench`, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every repetition is a fresh interpreter
(perfbench/rep.py) that imports shatrv.cli and makes one
`shatrv.cli.main(["bench", "--vectors", DIR, ...])` call, so each pays
what a fresh `shatrv bench` invocation pays and no cache warmed by an
earlier repetition can help a later one.  Repetitions run one at a time,
so the benchmark never has more than one busy process.

Every bench call passes the gate in workloads.check (exit code 0, every
outcome pass, golden report hash and per-strategy retired and cycle
totals) or counts as failed.

Host speed on a shared machine drifts by tens of percent over tens of
seconds, which no run of a minute can average away.  So every
repetition also times a fixed pure-Python loop (rep.reference_s) after
its import and again after its bench call, and the benchmark reports
times in reference seconds: host seconds x REF_S / that process's loop
time, i.e. the time on a host where the loop takes REF_S seconds (about
a 2-vCPU Xeon).  The loop is the benchmark's own code, so a change to
shatrv moves only the numerator.

--trace 0 reports the end-to-end metrics, times in reference seconds:
    wall_s       median seconds of one bench call
    mips         median retired guest instructions per second, in millions
    setup_s      median seconds from spawning an interpreter until
                 `import shatrv.cli` returns
    peak_rss_mb  median peak resident memory of a repetition process
    pass_share   bench calls that passed the gate / bench calls attempted
--trace 1 alternates untraced and traced calls and reports per-layer self
times in host seconds and counts (see layer_metrics); the spans of the
last traced call are written to .perfbench_out/spans/<workload>.bin.

BENCHMARK.json lists short-burst and long-stream, whose calls are short
enough for a steady median in one run.  kat (one call of about 7 s) and
shatr-stream run the same way when named with --workload.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

from rep import TRACE_EXIT
from workloads import ROOT, SRC, STRATEGIES, WORKLOADS, bench_argv, check, \
    load_golden, summarize, write_vectors

REP = ROOT / "perfbench" / "rep.py"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 8
MIN_REPS = 3
REP_TIMEOUT_S = 120
LAST_START_S = 150      # start no repetition expected to end later than this
REF_S = 0.25            # reference-loop seconds that define one reference second


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def spawn(config):
    """Run one repetition process; returns (seconds from spawn to the end of
    `import shatrv.cli`, its result line or None, its exit code, stderr)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(REP), json.dumps(config)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None, None, f"repetition timed out after {REP_TIMEOUT_S} s"
    if proc.returncode == TRACE_EXIT:
        raise BenchError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, None, proc.returncode, proc.stderr
    return result["imported_at"] - t0, result, proc.returncode, proc.stderr


def bench_once(workload, vectors, golden, trace=False):
    """One gated bench call in a fresh process: (setup_s, result, problems)."""
    report = OUT / "reports" / f"{workload.name}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    config = {"argv": bench_argv(workload, vectors, report)}
    if trace:
        spans = OUT / "spans" / f"{workload.name}.bin"
        spans.parent.mkdir(parents=True, exist_ok=True)
        config["trace"] = str(spans)
    setup, result, rc, stderr = spawn(config)
    if result is None:
        return None, None, [f"repetition crashed (exit {rc}): {stderr.strip()[-400:]}"]
    text = report.read_text() if report.exists() else None
    problems = check(result["rc"], text, golden)
    if not problems:
        result["summary"] = summarize(text)
    return setup, result, problems


def end_to_end_metrics(walls, setups, fail_share):
    """End-to-end metrics over the untraced calls that passed the gate;
    setups and each call's ref_wall_s are in reference seconds."""
    retired = sum(walls[0]["summary"]["retired"].values())
    return {
        "wall_s": (statistics.median(r["ref_wall_s"] for r in walls), "s"),
        "mips": (statistics.median(retired / r["ref_wall_s"] / 1e6 for r in walls), "MIPS"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in walls), "MB"),
        "pass_share": (1.0 - fail_share, "share"),
    }


def layer_metrics(traced, untraced_walls):
    """Per-layer metrics: medians over the traced calls, whose counts must
    repeat exactly."""
    first = traced[0]
    for r in traced[1:]:
        if (r["calls"], r["report_bytes"]) != (first["calls"], first["report_bytes"]):
            raise BenchError("traced calls disagree on their counts")
    calls = first["calls"]
    summary = first["summary"]
    retired = sum(summary["retired"].values())
    wall = statistics.median(r["wall_s"] for r in traced)

    def layer(name):
        return statistics.median(r["layers"].get(name, 0.0) for r in traced)

    decodes = calls["shatrv.emulator:Machine.decode"]
    m = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - statistics.median(untraced_walls), "s"),
        "trace.unattributed_share": (statistics.median(
            (r["wall_s"] - sum(r["layers"].values())) / r["wall_s"] for r in traced), "share"),
        "trace.spans": (first["spans"], "count"),
        "cli.self_s": (layer("cli"), "s"),
        "cavp.parse_s": (layer("cavp.parse"), "s"),
        "bench.run_s": (layer("bench.run"), "s"),
        "bench.report_s": (layer("bench.report"), "s"),
        "bench.report_bytes": (first["report_bytes"], "bytes"),
        "kernels.generate_s": (layer("kernels.generate"), "s"),
        "kernels.generated": (calls["shatrv.kernels:generate_kernel"], "count"),
        "asm.assemble_s": (layer("asm.assemble"), "s"),
        "emulator.machines": (calls["shatrv.emulator:Machine.__init__"], "count"),
        "emulator.machine_s": (layer("emulator.machine"), "s"),
        "emulator.decodes": (decodes, "count"),
        "emulator.decode_s": (layer("emulator.decode"), "s"),
        "emulator.decode_reuse": (retired / decodes, "instr/decode"),
        "keccak.rounds": (calls["shatrv.keccak:keccak_round"], "count"),
        "keccak.round_s": (layer("keccak.round"), "s"),
        "shatr.csr_accesses": (calls["shatrv.shatr:KeccakRoundUnit.csr_access"], "count"),
        "shatr.csr_s": (layer("shatr.csr"), "s"),
    }
    for s in STRATEGIES:
        run_s = layer(f"emulator.run.{s}")
        m[f"emulator.run_s.{s}"] = (run_s, "s")
        m[f"emulator.mips.{s}"] = (summary["retired"][s] / run_s / 1e6 if run_s else 0.0, "MIPS")
        m[f"emulator.retired.{s}"] = (summary["retired"][s], "count")
        m[f"emulator.cycles.{s}"] = (summary["cycles"][s], "count")
    return m


def reference_scaled(seconds, result):
    """Host seconds measured in a repetition, in reference seconds."""
    return seconds * REF_S / result["ref_s"]


def run(workload, seed, seconds, trace):
    if not (SRC / "shatrv" / "cli.py").is_file():
        raise BenchError(f"no shatrv sources under {SRC}; run from a checkout root")
    start = time.monotonic()
    golden = load_golden()[workload.name].get(workload.golden_key(seed))
    if golden is None:
        raise BenchError(f"no golden record for {workload.name} seed {seed}")
    vectors = write_vectors(workload.name, seed, OUT / "vectors" / workload.name)

    spawn({})                                   # warm the bytecode caches
    samples = [] if trace else [spawn({})[:2] for _ in range(SETUP_SAMPLES)]
    if any(result is None for _, result in samples):
        raise BenchError("an import-only interpreter failed")
    setups = [reference_scaled(setup, result) for setup, result in samples]

    walls, traced, failures, spent = [], [], [], []
    order = (False, True) if trace else (False,)
    min_attempts = len(order) if trace else MIN_REPS
    while True:
        for traced_call in order:
            t0 = time.monotonic()
            setup, result, problems = bench_once(workload, vectors, golden, traced_call)
            spent.append(time.monotonic() - t0)
            if problems:
                failures.append(problems)
                print(f"failed: {'; '.join(problems)}", file=sys.stderr)
                continue
            setups.append(reference_scaled(setup, result))
            result["ref_wall_s"] = reference_scaled(result["wall_s"], result)
            (traced if traced_call else walls).append(result)
        next_end = time.monotonic() - start + statistics.median(spent) * len(order)
        if next_end > seconds and (len(spent) >= min_attempts or next_end > LAST_START_S):
            break

    if not walls or (trace and not traced):
        raise BenchError("no bench call passed the gate")
    if trace:
        metrics = layer_metrics(traced, [r["wall_s"] for r in walls])
    else:
        metrics = end_to_end_metrics(walls, setups, len(failures) / len(spent))
    return {
        "correct": not failures,
        "attempted": len(spent),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

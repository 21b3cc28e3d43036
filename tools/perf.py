"""A/B benchmark of a change against its parent commit; writes BENCH_<n>.json.

Usage:
    python3 tools/perf.py --out BENCH_<n>.json [--parent REV]
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed-start K]
        [--trace 0|1]

Run from anywhere inside a checkout.  The change is the working tree.
The parent (default HEAD, so an uncommitted change against its base;
pass HEAD~1 on a checked-out commit) is exported from the local
repository with `git archive` into a temporary directory.

For each workload (default: those BENCHMARK.json lists), pair i runs
`python3 perfbench/run.py --workload W --seed K+i --seconds S` once on
each side, one run at a time, parent first in even pairs and change
first in odd ones so that drift in host speed does not favour a side.
The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the number of pairs the change won.

--trace 1 adds one traced run per side and workload (seed K) and
records every per-layer metric with its change - parent delta, and the
SHA-256 of each side's bundled `shatrv bench` JSON report.

src_lines gives each side's count of lines in the .py files under
src/shatrv.

Runs write only under each checkout's .perfbench_out/; nothing under
perfbench/ is edited.  Temporary checkouts go under $TMPDIR.
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


class PerfError(Exception):
    """An A/B run that cannot give a trustworthy result."""


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def export(rev, dest):
    """Write the tree of rev into dest; returns the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def run_bench(checkout, workload, seed, seconds, trace):
    """The last line of one perfbench/run.py call in checkout, as text."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          env=_child_env(), timeout=2 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PerfError(f"{' '.join(argv[1:])} in {checkout} exited "
                        f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return lines[-1]


def report_sha256(checkout):
    """SHA-256 of the bundled `shatrv bench` JSON report built in checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        env = _child_env()
        env["PYTHONPATH"] = str(pathlib.Path(checkout) / "src")
        subprocess.run([sys.executable, "-m", "shatrv.cli", "bench", "--out", str(out)],
                       cwd=checkout, env=env, capture_output=True, check=True)
        return hashlib.sha256(out.read_bytes()).hexdigest()


def src_lines(checkout):
    """Lines of the .py files under src/shatrv in checkout."""
    return sum(len(path.read_bytes().splitlines())
               for path in (pathlib.Path(checkout) / "src" / "shatrv").rglob("*.py"))


def _spread(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, end_to_end):
    """Summarise alternating runs.  pairs holds one (parent, change) pair of
    perfbench/run.py result lines per seed; end_to_end is BENCHMARK.json's
    list of {"name", "unit", "better"} metrics.  Per metric: each side's
    median, q1 and q3, its values in pair order, and wins, the number of
    pairs in which the change was strictly better."""
    runs = [(json.loads(p), json.loads(c)) for p, c in pairs]
    summary = {
        "pairs": len(runs),
        "correct": {"parent": sum(p["correct"] is True for p, _ in runs),
                    "change": sum(c["correct"] is True for _, c in runs)},
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in runs]
        change = [c["metrics"][name]["value"] for _, c in runs]
        sign = -1 if spec["better"] == "lower" else 1
        summary["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": _spread(parent),
            "change": _spread(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "values": {"parent": parent, "change": change},
        }
    return summary


def layer_deltas(parent_line, change_line):
    """Per-layer metrics of one traced run per side, with change - parent."""
    parent = json.loads(parent_line)["metrics"]
    change = json.loads(change_line)["metrics"]
    return {name: {"unit": m["unit"], "parent": m["value"],
                   "change": change[name]["value"],
                   "delta": change[name]["value"] - m["value"]}
            for name, m in parent.items() if name in change}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, metavar="BENCH_<n>.json")
    p.add_argument("--parent", default="HEAD", metavar="REV")
    p.add_argument("--workload", action="append", metavar="NAME")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--seed-start", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": pathlib.Path(tmp) / "parent", "change": ROOT}
        result = {"parent": export(args.parent, sides["parent"]),
                  "change": "working tree of " + _git("rev-parse", "HEAD").decode().strip(),
                  "pairs": args.pairs, "seconds": args.seconds,
                  "seeds": [args.seed_start + i for i in range(args.pairs)],
                  "src_lines": {side: src_lines(sides[side])
                                for side in ("parent", "change")},
                  "workloads": {}}
        try:
            for w in workloads:
                pairs = []
                for i, seed in enumerate(result["seeds"]):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    lines = {side: run_bench(sides[side], w, seed, args.seconds, 0)
                             for side in order}
                    pairs.append((lines["parent"], lines["change"]))
                    print(f"{w} seed {seed}: parent {lines['parent']}\n"
                          f"{w} seed {seed}: change {lines['change']}", file=sys.stderr)
                result["workloads"][w] = summarize(pairs, spec["end_to_end"])
            if args.trace:
                result["layers"] = {
                    w: layer_deltas(*(run_bench(sides[side], w, args.seed_start,
                                                args.seconds, 1)
                                      for side in ("parent", "change")))
                    for w in workloads}
                result["report_sha256"] = {side: report_sha256(sides[side])
                                           for side in ("parent", "change")}
        except (PerfError, subprocess.SubprocessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

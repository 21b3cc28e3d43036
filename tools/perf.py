"""A/B benchmark of a change against its parent commit; writes BENCH_<n>.json.

Usage:
    python3 tools/perf.py --out BENCH_<n>.json [--parent REV]
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed-start K]
        [--trace 0|1]

Run from anywhere inside a checkout.  The parent (default HEAD, so an
uncommitted change against its base; pass HEAD~1 on a checked-out
commit) is exported from the local repository with `git archive` into
a temporary directory.  The change is the working tree: its tracked
files as they are on disk and its untracked files that git does not
ignore, but not .perfbench_out/, copied into a sibling directory of the
parent's, so that both sides run from the same kind of place.

For each workload (default: those BENCHMARK.json lists), pair i runs
`python3 perfbench/run.py --workload W --seed K+i --seconds S` once on
each side, one run at a time, parent first in even pairs and change
first in odd ones so that drift in host speed does not favour a side.
The summary gives, per workload and end-to-end metric of BENCHMARK.json,
each side's median and quartiles and the number of pairs the change won.

--trace 1 adds TRACED_PAIRS pairs of traced runs per workload (seed K),
in the same alternating order, and records per per-layer metric each
side's values, median and quartiles with the change - parent delta of
the medians, and the SHA-256 of each side's bundled `shatrv bench` JSON
report: report_sha256 at the default cost model, priced_report_sha256
with the PRICED flags.

src_lines gives each side's count of lines in the .py files under
src/shatrv.

Runs write only under each exported checkout's .perfbench_out/; nothing
under perfbench/ is edited.  Both checkouts go under $TMPDIR.
"""

import argparse
import hashlib
import io
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACED_PAIRS = 3
# a non-flat cost model, so that a report's priced cycles are checked too
PRICED = ("--mem-latency", "2", "--shatr-cycles", "4")


class PerfError(Exception):
    """An A/B run that cannot give a trustworthy result."""


def _git(*args, root=ROOT):
    return subprocess.run(["git", *args], cwd=root, capture_output=True,
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


def export_worktree(dest, root=ROOT):
    """Copy the working tree of the repository at root into dest: every
    tracked file as it is on disk and every untracked file git does not
    ignore, but nothing under .perfbench_out/."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", root=root)
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source, target = pathlib.Path(root) / name, pathlib.Path(dest) / name
        if name.startswith(".perfbench_out/") or not source.exists():
            continue    # run output, or a tracked file deleted on disk
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)


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


def report_sha256(checkout, *flags):
    """SHA-256 of the bundled `shatrv bench` JSON report built in checkout,
    with these extra `shatrv bench` flags."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        env = _child_env()
        env["PYTHONPATH"] = str(pathlib.Path(checkout) / "src")
        subprocess.run([sys.executable, "-m", "shatrv.cli", "bench", *flags,
                        "--out", str(out)],
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


def order(pair):
    """The sides in the order pair number `pair` runs them: parent first in
    even pairs and change first in odd ones, so that drift in host speed
    does not favour a side."""
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def layer_deltas(parent_lines, change_lines):
    """Per-layer metrics of traced runs, one result line per run.  Per
    metric: each side's median, q1 and q3, change - parent of the medians,
    and each side's values in run order, so that a delta can be read
    against the parent's own spread."""
    parent = [json.loads(line)["metrics"] for line in parent_lines]
    change = [json.loads(line)["metrics"] for line in change_lines]
    deltas = {}
    for name, m in parent[0].items():
        if all(name in run for run in parent + change):
            values = {"parent": [run[name]["value"] for run in parent],
                      "change": [run[name]["value"] for run in change]}
            p, c = _spread(values["parent"]), _spread(values["change"])
            deltas[name] = {"unit": m["unit"], "parent": p, "change": c,
                            "delta": c["median"] - p["median"], "values": values}
    return deltas


def traced_layers(sides, workload, seed, seconds):
    """layer_deltas of TRACED_PAIRS pairs of traced runs of workload."""
    lines = {"parent": [], "change": []}
    for pair in range(TRACED_PAIRS):
        for side in order(pair):
            lines[side].append(run_bench(sides[side], workload, seed, seconds, 1))
    return layer_deltas(lines["parent"], lines["change"])


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
        sides = {side: pathlib.Path(tmp) / side for side in ("parent", "change")}
        export_worktree(sides["change"])
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
                    lines = {side: run_bench(sides[side], w, seed, args.seconds, 0)
                             for side in order(i)}
                    pairs.append((lines["parent"], lines["change"]))
                    print(f"{w} seed {seed}: parent {lines['parent']}\n"
                          f"{w} seed {seed}: change {lines['change']}", file=sys.stderr)
                result["workloads"][w] = summarize(pairs, spec["end_to_end"])
            if args.trace:
                result["layers"] = {
                    w: traced_layers(sides, w, args.seed_start, args.seconds)
                    for w in workloads}
                result["report_sha256"] = {side: report_sha256(sides[side])
                                           for side in ("parent", "change")}
                result["priced_report_sha256"] = {
                    side: report_sha256(sides[side], *PRICED)
                    for side in ("parent", "change")}
        except (PerfError, subprocess.SubprocessError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

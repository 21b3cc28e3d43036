"""Record perfbench/golden.json: the report SHA-256 and per-strategy
retired-instruction and cycle totals of every workload's inputs.

Usage: python3 perfbench/record_golden.py [WORKLOAD ...]

A record is written only when the bench call exits 0 and every guest
digest matches its hashlib expectation.  The kat report must keep the
hash the project pins for the bundled benchmark.  A change that alters a
recorded value has to say why; the benchmark counts any mismatch as a
failed run.
"""

import json
import sys

from run import OUT, spawn
from workloads import GOLDEN_PATH, LENGTH_SETS, WORKLOADS, bench_argv, \
    summarize, write_vectors

KAT_REPORT_SHA256 = "594879a709106d4667e28c62bb482324c9ce0a8ee5fc05931c042ef527415704"


def record(workload, seed):
    vectors = write_vectors(workload.name, seed, OUT / "vectors" / workload.name)
    report = OUT / "reports" / f"{workload.name}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    report.unlink(missing_ok=True)
    _, result, rc, stderr = spawn({"argv": bench_argv(workload, vectors, report)})
    if result is None or result["rc"] != 0:
        sys.exit(f"{workload.name} seed {seed}: bench failed (exit {rc}): {stderr}")
    got = summarize(report.read_text())
    if got.pop("not_passed"):
        sys.exit(f"{workload.name} seed {seed}: some outcomes did not pass")
    return got


def main(names):
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        seeds = {workload.golden_key(s): s for s in range(LENGTH_SETS)}
        golden[name] = {key: record(workload, seed) for key, seed in seeds.items()}
        print(f"{name}: {len(seeds)} record(s)")
    if golden.get("kat", {}).get("bundled", {}).get("report_sha256") != KAT_REPORT_SHA256:
        sys.exit("the bundled report hash changed; golden.json not written")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

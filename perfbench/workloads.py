"""Workloads and the correctness gate of the shatrv benchmark.

A workload is a directory of CAVP .rsp files plus the strategies that
`shatrv bench` runs them under.  Synthetic messages come from the run's
seed and their digests from hashlib, never from shatrv itself, so the
expected values stay independent of the code under test.  File names
carry ShortMsg or LongMsg so that `bench.vector_class` puts every set in
the class the workload means it to be.

Every bench call is checked against a golden record: the SHA-256 of its
JSON report and its per-strategy retired-instruction and cycle totals.
The report holds lengths and counts but not message bytes, so a golden
depends only on the message lengths.  Message bytes follow the whole
seed; short-burst lengths follow the seed modulo LENGTH_SETS, which keeps
the golden table finite while every seed still gets a checked golden.
"""

import hashlib
import json
import pathlib
import random
import shutil
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUNDLED = SRC / "shatrv" / "vectors"
GOLDEN_PATH = pathlib.Path(__file__).with_name("golden.json")

STRATEGIES = ("sw-regopt", "sw-mem", "shatr")
# FIPS 202 rates in bytes; kept here so the generator needs nothing from shatrv.
RATES = {"sha3-224": 144, "sha3-256": 136, "sha3-384": 104, "sha3-512": 72}
LENGTH_SETS = 16
SHORT_PER_VARIANT = 12
LONG_STREAM_BYTES = 4096
SHATR_STREAM_BYTES = 64 * 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategies: tuple

    def golden_key(self, seed):
        """The key of this seed's golden record: the message lengths."""
        if self.name == "kat":
            return "bundled"
        if self.name == "short-burst":
            return f"lengths-{seed % LENGTH_SETS}"
        return f"bytes-{_stream_bytes(self.name)}"


WORKLOADS = {w.name: w for w in (
    Workload(
        "kat",
        "The paper's experiment and the ROADMAP's headline number: the 8 "
        "bundled .rsp files x 3 strategies, 132 guest runs using every layer "
        "in a mix.",
        STRATEGIES),
    Workload(
        "short-burst",
        "Per-run set-up dominates: 144 fresh machines hashing one-block "
        "messages decode the 5.7k-word sw-regopt kernel to run each word "
        "about once, so a translation cache shows here and nowhere else.",
        STRATEGIES),
    Workload(
        "long-stream",
        "The dispatch loop and the ALU and load/store executors do about 95% "
        "of the work and decoding almost none: block compilation shows here "
        "and a translation cache should show no change.",
        STRATEGIES),
    Workload(
        "shatr-stream",
        "The host Keccak round behind shatr is about 55% of its time and "
        "under 3% of every other workload, which gives the 'unroll "
        "keccak_round only if it dominates' decision its end-to-end number.",
        ("shatr",)),
)}


def _stream_bytes(name):
    return LONG_STREAM_BYTES if name == "long-stream" else SHATR_STREAM_BYTES


def _messages(name, seed, variant):
    """The seeded messages of one variant's .rsp file."""
    data = random.Random(f"{name}/{seed}/{variant}")
    if name == "short-burst":
        lengths = random.Random(f"{name}/lengths/{seed % LENGTH_SETS}/{variant}")
        sizes = [lengths.randrange(RATES[variant]) for _ in range(SHORT_PER_VARIANT)]
    else:
        sizes = [_stream_bytes(name)]
    return [data.randbytes(n) for n in sizes]


def rsp_text(variant, messages):
    """One CAVP .rsp file whose digests come from hashlib."""
    bits = int(variant.split("-")[1])
    lines = [f"#  {variant.upper()} benchmark vectors; digests from hashlib",
             "", f"[L = {bits}]", ""]
    for msg in messages:
        digest = hashlib.new(variant.replace("-", "_"), msg).hexdigest()
        lines += [f"Len = {len(msg) * 8}", f"Msg = {msg.hex() or '00'}",
                  f"MD = {digest}", ""]
    return "\n".join(lines)


def write_vectors(name, seed, dest):
    """Write the workload's .rsp files for this seed into dest (replacing
    it) and return the directory `shatrv bench --vectors` should read."""
    if name == "kat":
        return BUNDLED
    dest = pathlib.Path(dest)
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    suffix = "ShortMsg" if name == "short-burst" else "LongMsg"
    for variant in RATES:
        stem = variant.replace("sha3-", "SHA3_")
        (dest / f"{stem}{suffix}.rsp").write_text(
            rsp_text(variant, _messages(name, seed, variant)))
    return dest


def bench_argv(workload, vectors, out):
    """The `shatrv bench` arguments of one timed call."""
    argv = ["bench", "--vectors", str(vectors), "--out", str(out)]
    if workload.strategies != STRATEGIES:
        for s in workload.strategies:
            argv += ["--strategy", s]
    return argv


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def summarize(text):
    """The facts the gate compares, taken from one JSON report."""
    doc = json.loads(text)
    retired = {s: 0 for s in STRATEGIES}
    cycles = {s: 0 for s in STRATEGIES}
    for g in doc["groups"]:
        retired[g["strategy"]] += g["total_retired"]
        cycles[g["strategy"]] += g["total_cycles"]
    return {
        "report_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "runs": len(doc["vectors"]),
        "not_passed": sum(v["status"] != "pass" for v in doc["vectors"]),
        "retired": retired,
        "cycles": cycles,
    }


def check(rc, text, golden):
    """Every way one bench call differs from its golden record; empty when
    the call counts as correct."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if text is None:
        return problems + ["no report written"]
    try:
        got = summarize(text)
    except (ValueError, KeyError, TypeError) as e:
        return problems + [f"unreadable report: {e!r}"]
    if got["not_passed"]:
        problems.append(f"{got['not_passed']} of {got['runs']} outcomes not pass")
    for key in ("report_sha256", "runs", "retired", "cycles"):
        if got[key] != golden[key]:
            problems.append(f"{key} {got[key]} != golden {golden[key]}")
    return problems

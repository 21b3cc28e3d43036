"""Acceptance gate: one test per stated criterion, at stated tolerance.

Each test prints a single `criterion N: PASS` line on success, and pytest's
verbose output carries the per-criterion pass/fail verdicts.
"""

import hashlib
import json
import random
import time

import pytest

from shatrv import isa, keccak
from shatrv.asm import assemble, disassemble
from shatrv.bench import emit_report, run_benchmark
from shatrv.cavp import BUNDLED_CLASSES, load_bundled
from shatrv.emulator import CODE_BASE, Machine
from shatrv.keccak import VARIANTS, chi, iota, keccak_f, keccak_round, pi, rho, theta
from shatrv.kernels import STRATEGIES, generate_kernel
from shatrv.shatr import attach, encode_shatr

_T0 = time.monotonic()
_M64 = (1 << 64) - 1
_CLS = BUNDLED_CLASSES


def _ok(n, text):
    print(f"criterion {n}: PASS - {text}")


@pytest.fixture(scope="module")
def bundled_sets():
    sets = [load_bundled(v, c) for v in sorted(VARIANTS) for c in _CLS]
    for vs in sets:
        assert len(vs.vectors) >= 5
    return sets


@pytest.fixture(scope="module")
def bench_twice(bundled_sets):
    t0 = time.monotonic()
    first = run_benchmark(bundled_sets)
    elapsed = time.monotonic() - t0
    second = run_benchmark(bundled_sets)
    return first, emit_report(first, "json"), emit_report(second, "json"), elapsed


def test_criterion_1_known_answer_bundled_vectors(bundled_sets, bench_twice):
    report, _, _, elapsed = bench_twice
    total = sum(len(vs.vectors) for vs in bundled_sets)
    assert total == len(report.outcomes) / len(STRATEGIES)
    bad = [o for o in report.outcomes if o.status != "pass"]
    assert bad == [], bad
    for vs in bundled_sets:
        for v in vs.vectors:
            assert keccak.sha3_digest(v.message, vs.variant) == v.digest
    assert elapsed < 120.0, f"bundled bench took {elapsed:.1f}s"
    _ok(1, f"host + 3 kernels match all {total} bundled vectors ({elapsed:.1f}s)")


def test_criterion_2_shatr_oracle_equivalence():
    rng = random.Random(0xACCE)
    m = Machine(memory_size=1 << 16)
    unit = attach(m)
    m.load_program(encode_shatr(10).to_bytes(4, "little"))
    for _ in range(1000):
        state = [rng.getrandbits(64) for _ in range(25)]
        r = rng.randrange(24)
        unit.lanes = list(state)
        m.regs[10] = r
        m.pc = CODE_BASE
        m.step()
        assert unit.lanes == keccak_round(state, r)

    chain = "addi t0, zero, 0\nshatr t0\n"
    chain += "addi t0, t0, 1\nshatr t0\n" * 23
    chain += "addi a0, zero, 0\naddi a7, zero, 0\necall\n"
    prog = assemble(chain)
    for _ in range(100):
        state = [rng.getrandbits(64) for _ in range(25)]
        m2 = Machine(memory_size=1 << 16)
        u2 = attach(m2)
        m2.load_program(prog)
        u2.lanes = list(state)
        assert m2.run() == 0
        assert u2.lanes == keccak_f(state)
    _ok(2, "1000 single rounds + 100 chained permutations match the host core")


def _per_round(report):
    return {(g.variant, g.msg_class, g.strategy): g.per_round_instructions
            for g in report.groups}


def test_criterion_3a_per_round_reduction(bench_twice):
    report = bench_twice[0]
    per_round = _per_round(report)
    for v in sorted(VARIANTS):
        for c in _CLS:
            s = per_round[(v, c, "shatr")]
            r = per_round[(v, c, "sw-regopt")]
            m = per_round[(v, c, "sw-mem")]
            assert s < r < m, (v, c, s, r, m)
            assert s * 4 <= r, (v, c, s, r)
    _ok(3, "a: per-round instructions shatr < sw-regopt < sw-mem, shatr <= regopt/4")


def test_criterion_3b_speedup_ordering(bench_twice):
    report = bench_twice[0]
    table = {}
    for s in report.speedups:
        table.setdefault((s["variant"], s["class"]), {})[s["baseline"]] = s["speedup"]
    for v in sorted(VARIANTS):
        for c in _CLS:
            d = table[(v, c)]
            assert d["sw-mem"] > d["sw-regopt"] > 1.0, (v, c, d)
    _ok(3, "b: cycle speedup over shatr: sw-mem > sw-regopt > 1 everywhere")


def test_criterion_3c_instruction_mix_shift(bench_twice):
    report = bench_twice[0]
    groups = {(g.variant, g.msg_class, g.strategy): g for g in report.groups}

    def mem_share(g):
        return (g.counts["mem_read"] + g.counts["mem_write"]) / g.total_retired

    for v in sorted(VARIANTS):
        for c in _CLS:
            g = groups[(v, c, "shatr")]
            alu = g.counts["int_alu"] / g.total_retired
            assert 0.40 <= alu <= 0.75, (v, c, alu)
            assert mem_share(groups[(v, c, "sw-mem")]) \
                > mem_share(groups[(v, c, "sw-regopt")]), (v, c)
    _ok(3, "c: shatr ALU share in 40-75%, sw-mem memory share above sw-regopt")


def test_criterion_4_exactly_24_custom_per_region(bench_twice):
    report = bench_twice[0]
    checked = 0
    for g in report.groups:
        if g.strategy != "shatr":
            continue
        assert g.region_entries > 0
        assert g.region_counts["custom"] == 24 * g.region_entries, g
        assert g.region_counts["csr"] == 50 * g.region_entries, g
        checked += 1
    assert checked == len(VARIANTS) * len(_CLS)
    _ok(4, "every permutation region retires exactly 24 shatr + 50 lane-CSR ops")


def test_criterion_5_step_algebra():
    rng = random.Random(0x57E9)

    def state():
        return [rng.getrandbits(64) for _ in range(25)]

    for f in (theta, rho, pi):
        for _ in range(1000):
            a, b = state(), state()
            both = [x ^ y for x, y in zip(a, b)]
            assert f(both) == [x ^ y for x, y in zip(f(a), f(b))], f.__name__
    for _ in range(1000):
        s, r = state(), rng.randrange(24)
        assert iota(iota(s, r), r) == s
    assert chi([0] * 25) == [0] * 25
    assert chi([_M64] * 25) == [_M64] * 25
    for _ in range(1000):
        s = state()
        assert [bin(x).count("1") for x in rho(s)] == [bin(x).count("1") for x in s]
        assert sorted(pi(s)) == sorted(s)
    _ok(5, "theta/rho/pi linear, iota involutive, chi fixed points, "
           "rho weights, pi multiset (1000 cases each)")


def _random_legal(rng):
    name = rng.choice(_ALL)
    fmt = isa.INSTRUCTIONS[name][0]
    r = lambda: rng.randrange(32)
    imm12 = lambda: rng.randrange(-2048, 2048)
    if fmt == "R":
        return name, dict(rd=r(), rs1=r(), rs2=r())
    if fmt in ("I", "load"):
        return name, dict(rd=r(), rs1=r(), imm=imm12())
    if fmt == "shift6":
        return name, dict(rd=r(), rs1=r(), imm=rng.randrange(64))
    if fmt == "shift5":
        return name, dict(rd=r(), rs1=r(), imm=rng.randrange(32))
    if fmt == "store":
        return name, dict(rs1=r(), rs2=r(), imm=imm12())
    if fmt == "branch":
        return name, dict(rs1=r(), rs2=r(), imm=imm12() * 2)
    if fmt == "jal":
        return name, dict(rd=r(), imm=rng.randrange(-(1 << 19), 1 << 19) * 2)
    if fmt == "U":
        return name, dict(rd=r(), imm=rng.getrandbits(20))
    if fmt == "csr":
        return name, dict(rd=r(), rs1=r(), csr=rng.getrandbits(12))
    if fmt == "csri":
        return name, dict(rd=r(), imm=rng.randrange(32), csr=rng.getrandbits(12))
    if fmt == "shatr":
        return name, dict(rs1=r())
    return name, {}


_ALL = sorted(isa.INSTRUCTIONS)


def test_criterion_6_assembler_round_trip():
    rng = random.Random(0x6A5E)
    seen = set()
    for _ in range(10_000):
        name, kw = _random_legal(rng)
        inst = isa.decode(isa.encode(name, **kw))
        assert inst.mnemonic == name
        for f, v in kw.items():
            assert getattr(inst, f) == v, (name, kw)
        seen.add(name)
    assert seen == set(_ALL)
    kernels = 0
    for strategy in STRATEGIES:
        for variant in sorted(VARIANTS):
            prog = generate_kernel(strategy, variant)
            assert assemble(disassemble(prog)).code == prog.code
            kernels += 1
    _ok(6, f"10^4 encode/decode fixpoints; disassembly identity on {kernels} kernels")


def test_criterion_7_benchmark_determinism(bench_twice):
    _, blob1, blob2, _ = bench_twice
    assert blob1.encode() == blob2.encode()
    doc = json.loads(blob1)
    assert doc["groups"], "empty benchmark"
    _ok(7, "two full benchmark runs emit byte-identical JSON")


def test_bundled_report_hash_is_golden(bench_twice):
    # A change to the bundled report's bytes must be deliberate: update this
    # hash only together with a CHANGES.md line that explains the new bytes.
    blob = bench_twice[1]
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "594879a709106d4667e28c62bb482324c9ce0a8ee5fc05931c042ef527415704"


def test_criterion_8_suite_runtime():
    elapsed = time.monotonic() - _T0
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.1f}s"
    _ok(8, f"acceptance suite finished in {elapsed:.1f}s (< 300s)")

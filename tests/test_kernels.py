"""Guest kernel generators: every strategy must produce the reference
digest for every variant, with the instruction-mix structure each
strategy promises."""

import hashlib
import random

import pytest

from shatrv import keccak
from shatrv.asm import assemble, disassemble
from shatrv.emulator import Machine
from shatrv.kernels import (
    STRATEGIES, GuestLayout, generate_kernel, kernel_source,
)
from shatrv.shatr import attach

LAYOUT = GuestLayout()
MEM = 4 * 1024 * 1024
BUDGET = 5_000_000

VARIANTS = tuple(keccak.VARIANTS)


def run_kernel(strategy, variant, message, budget=BUDGET):
    m = Machine(memory_size=MEM)
    if strategy == "shatr":
        attach(m)
    m.load_program(generate_kernel(strategy, variant))
    m.memory[LAYOUT.message:LAYOUT.message + len(message)] = message
    m.regs[10] = len(message)
    status = m.run(max_instructions=budget)
    assert status == 0
    assert len(m.emitted) == 1
    return m.emitted[0], m


def reference(variant, message):
    return hashlib.new(variant.replace("-", "_"), message).digest()


def block_count(variant, length):
    return length // keccak.VARIANTS[variant].rate_bytes + 1


class TestDigests:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_edge_lengths(self, strategy, variant):
        rate = keccak.VARIANTS[variant].rate_bytes
        for n in (0, 1, rate - 1, rate, rate + 1, 2 * rate):
            msg = bytes(range(256))[:n] if n <= 256 else bytes(n)
            digest, _ = run_kernel(strategy, variant, msg)
            assert digest == reference(variant, msg), (strategy, variant, n)
            assert digest == keccak.sha3_digest(msg, variant)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_random_messages(self, strategy):
        rng = random.Random(hash(strategy) & 0xFFFF)
        for variant in VARIANTS:
            for _ in range(3):
                msg = rng.randbytes(rng.randrange(600))
                digest, _ = run_kernel(strategy, variant, msg)
                assert digest == reference(variant, msg)


class TestRegionStructure:
    @pytest.mark.parametrize("length,blocks", [(0, 1), (135, 1), (136, 2), (300, 3)])
    def test_one_region_entry_per_block(self, length, blocks):
        assert block_count("sha3-256", length) == blocks
        for strategy in STRATEGIES:
            _, m = run_kernel(strategy, "sha3-256", bytes(length))
            assert m.stats.region_entry_count == {1: blocks}, strategy

    def test_shatr_region_counts_are_exact(self):
        for length, blocks in ((0, 1), (200, 2)):
            _, m = run_kernel("shatr", "sha3-256", bytes(length))
            region = m.stats.regions[1]
            assert region["custom"] == 24 * blocks
            assert region["csr"] == 50 * blocks
            assert region["mem_read"] == 25 * blocks
            assert region["mem_write"] == 25 * blocks
            assert region["branch"] == 0
            assert region["other"] == 0

    def test_sw_strategies_touch_no_custom_state(self):
        for strategy in ("sw-regopt", "sw-mem"):
            _, m = run_kernel(strategy, "sha3-512", b"abc")
            assert m.stats.counts["custom"] == 0
            assert m.stats.counts["csr"] == 0

    def test_static_shatr_instruction_count(self):
        from shatrv import isa
        code = generate_kernel("shatr", "sha3-256").code
        words = [int.from_bytes(code[i:i + 4], "little")
                 for i in range(0, len(code), 4)]
        names = [isa.decode(w).mnemonic for w in words]
        assert names.count("shatr") == 24
        assert sum(1 for n in names if n.startswith("csrr")) == 50

    def test_region_cost_ordering(self):
        totals = {}
        for strategy in STRATEGIES:
            _, m = run_kernel(strategy, "sha3-256", b"x" * 10)
            totals[strategy] = sum(m.stats.regions[1].values())
        assert totals["shatr"] < totals["sw-regopt"] < totals["sw-mem"]
        # the hardware round is far below a quarter of the best software round
        assert totals["shatr"] * 4 <= totals["sw-regopt"]


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        msg = bytes(range(137))
        for strategy in STRATEGIES:
            a_digest, a = run_kernel(strategy, "sha3-384", msg)
            b_digest, b = run_kernel(strategy, "sha3-384", msg)
            assert a_digest == b_digest
            assert a.stats.counts == b.stats.counts
            assert a.stats.total_cycles == b.stats.total_cycles
            assert a.stats.regions == b.stats.regions

    def test_source_is_stable(self):
        for strategy in STRATEGIES:
            assert kernel_source(strategy, "sha3-224") == kernel_source(strategy, "sha3-224")


class TestGeneratorSurface:
    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            generate_kernel("sw-turbo", "sha3-256")
        with pytest.raises(ValueError):
            generate_kernel("shatr", "sha3-123")

    def test_misaligned_layout_rejected(self):
        bad = GuestLayout(state=0x100101)
        with pytest.raises(ValueError):
            generate_kernel("shatr", "sha3-256", layout=bad)

    def test_kernel_code_survives_disassembly(self):
        for strategy in STRATEGIES:
            prog = generate_kernel(strategy, "sha3-256")
            assert assemble(disassemble(prog)).code == prog.code

    def test_custom_layout_is_honored(self):
        layout = GuestLayout(rc_table=0x200000, state=0x200100,
                             digest=0x200200, scratch=0x200300,
                             message=0x210000)
        m = Machine(memory_size=MEM)
        attach(m)
        m.load_program(generate_kernel("shatr", "sha3-256", layout=layout))
        msg = b"layout"
        m.memory[layout.message:layout.message + len(msg)] = msg
        m.regs[10] = len(msg)
        assert m.run(max_instructions=BUDGET) == 0
        assert m.emitted[0] == reference("sha3-256", msg)


# SHA-256 of every kernel's code bytes at the default layout.  A change to
# the assembler or to a generator that moves any byte must be deliberate:
# update a hash only together with a CHANGES.md line that explains it.
KERNEL_SHA256 = {
    ("sw-regopt", "sha3-224"):
        "b1c83d16c7ed580ff18f741e1766acacf69e5eac6e67d0166917707fe8156dae",
    ("sw-regopt", "sha3-256"):
        "38a23949ed1b8dd98d6c3845462f337a8f581d46c3e4b14158022a15ba510e5a",
    ("sw-regopt", "sha3-384"):
        "686274a871ec209fc0ec697fe0ed30222c90139ae18118f3cc7efd4d17230387",
    ("sw-regopt", "sha3-512"):
        "507fb510d865da526b439649ee7f279ae862e47eee6b4f0d8298ad1c5a1c7167",
    ("sw-mem", "sha3-224"):
        "90168d0e08dfa2f5e45907ef9e47793818c8b8bda5bff7ebbbedcd6753c4b1ec",
    ("sw-mem", "sha3-256"):
        "a09d32c068d8a0443bb684b6b686636d5269a3e2a10dd6c2437ef71365164cc9",
    ("sw-mem", "sha3-384"):
        "2d222edefc64b5bf6fe17896920d4dd3527076e1dba6a8f85a1ce76bb186ec44",
    ("sw-mem", "sha3-512"):
        "a61f575930d5906f44c857b9d5666ab8cf94bcbdeab2fef56564982b8f090497",
    ("shatr", "sha3-224"):
        "0371305b3471b94790a71df1e13c006e037f20ae4acd48a279760025b01c5202",
    ("shatr", "sha3-256"):
        "e13929fcd335cc0229d964067f63cb97882700438a647b97b9327c750899614a",
    ("shatr", "sha3-384"):
        "dd4126a0eb815e2d614bf572871e0a9c871b043c3ad5ee617fb4c9b140ca8de7",
    ("shatr", "sha3-512"):
        "995ea14ca993e5392845558a301ec3045f620e491fb32cc872662f30b91be015",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_kernel_image_is_pinned(strategy, variant):
    code = generate_kernel(strategy, variant).code
    assert hashlib.sha256(code).hexdigest() == KERNEL_SHA256[strategy, variant]

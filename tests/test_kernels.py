"""Guest kernel generators: every strategy must produce the reference
digest for every variant, with the instruction-mix structure each
strategy promises."""

import hashlib
import random
from unittest import mock

import pytest

from shatrv import emulator, isa, kernels, keccak
from shatrv.asm import assemble, disassemble
from shatrv.bench import run_benchmark
from shatrv.cavp import CavpVector, CavpVectorSet
from shatrv.emulator import CostModel, EmulatorError, Machine, Translations
from shatrv.kernels import (
    MESSAGE_ADDR, PERMUTE_REGION, STRATEGIES, STRATEGY_TABLE, generate_kernel,
    kernel_source,
)
from shatrv.shatr import attach

MEM = 4 * 1024 * 1024
BUDGET = 5_000_000

VARIANTS = tuple(keccak.VARIANTS)


def run_kernel(strategy, variant, message, budget=BUDGET):
    m = Machine(memory_size=MEM)
    if STRATEGY_TABLE[strategy].round_unit:
        attach(m)
    m.load_program(generate_kernel(strategy, variant))
    m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
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
            assert m.stats.region_entry_count == {PERMUTE_REGION: blocks}, strategy

    def test_shatr_region_counts_are_exact(self):
        for length, blocks in ((0, 1), (200, 2)):
            _, m = run_kernel("shatr", "sha3-256", bytes(length))
            region = m.stats.regions[PERMUTE_REGION]
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
            totals[strategy] = sum(m.stats.regions[PERMUTE_REGION].values())
        assert totals["shatr"] < totals["sw-regopt"] < totals["sw-mem"]
        # the hardware round is far below a quarter of the best software round
        assert totals["shatr"] * 4 <= totals["sw-regopt"]


class TestRoutineWrapper:
    """A row's generator returns only the rounds: the wrapper adds the
    permute label, region PERMUTE_REGION around them and the return, which
    parks ra in scratch through the row's ra_temp when one is named."""

    @staticmethod
    def _looped_shatr():
        # shatr's 24 rounds as a loop counted in ra, so the routine returns
        # only if the wrapper parked ra first
        lines = [f"li   t0, {kernels._STATE:#x}"]
        for i in range(25):
            lines += ["ld   t1, 0(t0)",
                      f"csrrw x0, {isa.LANE_CSR_BASE + i:#x}, t1",
                      "addi t0, t0, 8"]
        lines += ["addi ra, zero, 0", "addi t2, zero, 24", "rounds:",
                  "shatr ra", "addi ra, ra, 1", "bne  ra, t2, rounds",
                  f"li   t0, {kernels._STATE:#x}"]
        for i in range(25):
            lines += [f"csrrs t1, {isa.LANE_CSR_BASE + i:#x}, x0",
                      "sd   t1, 0(t0)",
                      "addi t0, t0, 8"]
        return lines

    @pytest.fixture
    def looped(self, monkeypatch):
        row = STRATEGY_TABLE["shatr"]._replace(permute=self._looped_shatr, ra_temp="t3")
        monkeypatch.setitem(STRATEGY_TABLE, "shatr-loop", row)
        return "shatr-loop"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_a_body_only_row_hashes_with_one_region_entry_per_block(
            self, looped, variant):
        rate = keccak.VARIANTS[variant].rate_bytes
        for n in (0, rate - 1, rate, 2 * rate + 5):
            msg = bytes(range(256))[:n] if n <= 256 else bytes(n)
            digest, m = run_kernel(looped, variant, msg)
            blocks = block_count(variant, n)
            assert digest == reference(variant, msg), (variant, n)
            assert m.stats.region_entry_count == {PERMUTE_REGION: blocks}, (variant, n)
            assert m.stats.regions[PERMUTE_REGION]["custom"] == 24 * blocks

    def test_without_its_temp_the_routine_returns_to_the_clobbered_ra(
            self, looped, monkeypatch):
        row = STRATEGY_TABLE[looped]._replace(ra_temp=None)
        monkeypatch.setitem(STRATEGY_TABLE, looped, row)
        with pytest.raises(EmulatorError):
            run_kernel(looped, "sha3-256", b"abc")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_stock_generators_return_only_their_rounds(self, strategy):
        row = STRATEGY_TABLE[strategy]
        assert not [line for line in row.permute()
                    if line.startswith(("permute:", "ecall", "jalr")) or "a7" in line]
        routine = kernels._routine(row)
        assert routine[0] == "permute:" and routine[-1].startswith("jalr x0, ")
        assert routine.count("ecall") == 2


class TestDeterminism:
    def test_repeat_runs_are_identical(self):
        msg = bytes(range(137))
        for strategy in STRATEGIES:
            a_digest, a = run_kernel(strategy, "sha3-384", msg)
            b_digest, b = run_kernel(strategy, "sha3-384", msg)
            assert a_digest == b_digest
            assert a.stats.counts == b.stats.counts
            assert CostModel().cycles(a.stats.counts) == CostModel().cycles(b.stats.counts)
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

    @pytest.mark.parametrize("make", [generate_kernel, kernel_source])
    @pytest.mark.parametrize("strategy,variant", [
        (["shatr"], "sha3-256"), ("shatr", ["sha3-256"]), ({}, "sha3-256"),
        ("shatr", {}), (None, None), ("sw-turbo", "sha3-256"),
    ], ids=["list-strategy", "list-variant", "dict-strategy", "dict-variant",
            "none", "unknown"])
    def test_rejects_unhashable_or_unknown_names(self, make, strategy, variant):
        # the names are checked before the routines dict hashes them
        with pytest.raises(ValueError):
            make(strategy, variant)

    def test_kernel_code_survives_disassembly(self):
        for strategy in STRATEGIES:
            prog = generate_kernel(strategy, "sha3-256")
            assert assemble(disassemble(prog)).code == prog.code


class TestComposedKernel:
    """generate_kernel assembles each variant's driver and joins it to the
    strategy's routine, assembled once into the routines dict it is given."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_equals_assembling_the_whole_source(self, strategy, variant):
        whole = assemble(kernel_source(strategy, variant))
        routines = {}
        alone = generate_kernel(strategy, variant, routines)
        other = next(v for v in VARIANTS if v != variant)
        generate_kernel(strategy, other, routines)
        reused = generate_kernel(strategy, variant, routines)
        for composed in (alone, reused, generate_kernel(strategy, variant)):
            assert composed.code == whole.code
            assert composed.data_segments == whole.data_segments
            assert composed.symbols == whole.symbols

    @staticmethod
    def _counted_bench():
        sets = [CavpVectorSet(v, "inline", [CavpVector(0, b"", reference(v, b""))])
                for v in VARIANTS]
        with mock.patch.object(kernels, "assemble", wraps=assemble) as counted:
            report = run_benchmark(sets)
        assert all(o.status == "pass" for o in report.outcomes)
        return [c.args[0].startswith("permute:") for c in counted.call_args_list]

    def test_one_bench_call_assembles_each_routine_once(self):
        is_routine = self._counted_bench()
        assert sum(is_routine) == len(STRATEGIES)
        assert is_routine.count(False) == len(STRATEGIES) * len(VARIANTS)

    def test_every_bench_call_assembles_the_same(self):
        # the routines live as long as one bench call, so a second call in
        # the same process assembles exactly what the first did
        assert self._counted_bench() == self._counted_bench()

    def test_callers_share_no_mutable_state(self):
        routines = {}
        a = generate_kernel("sw-mem", "sha3-256", routines)
        b = generate_kernel("sw-mem", "sha3-256", routines)
        assert a.symbols is not b.symbols
        assert a.data_segments is not b.data_segments
        a.symbols["permute"] = a.symbols["mem_round"] = 0
        a.data_segments.clear()
        c = generate_kernel("sw-mem", "sha3-256", routines)
        assert b.symbols == c.symbols and b.symbols["permute"] != 0
        assert b.data_segments == c.data_segments != []

    def test_sw_mem_round_fuses_every_and_not(self):
        # the chi step loads both lanes before the xori/and/xor triple, so
        # run() fuses each of the round's 25 and-nots
        shared = Translations()
        m = Machine(memory_size=MEM, translations=shared)
        m.load_program(generate_kernel("sw-mem", "sha3-256"))
        assert m.run() == 0
        round_run = emulator._fuse(max(shared.runs, key=len))
        assert sum(1 for e in round_run if e and e[0] == emulator._ANDN) == 25


# SHA-256 of every kernel's code bytes.  A change to
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
        "172b34a262482c2fc85261d309a54ac3db800e1aa12a4b68c398f0966ab01f53",
    ("sw-mem", "sha3-256"):
        "7c1c2950a9aacd5009a2426014a052a5d5e279eb9589d0d84f7befd172e56061",
    ("sw-mem", "sha3-384"):
        "5cec05541148c3b2353d3d0cedd83e68090c254850cbc009033cd50847cd90b5",
    ("sw-mem", "sha3-512"):
        "6b1fd0c5b914c162990f3a5e2b939227be22f5d59a678d5225490078f5875eb5",
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

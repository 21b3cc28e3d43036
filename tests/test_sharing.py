"""Blocks shared by content across programs: a Translations cache keys each
block by its pc, the code bytes from that pc to the end of the code and
whether a round unit is attached, so every program whose code from a pc
on is the same runs the one block translated there. Checked at the
shipped threshold and with every loop and every run that rolls compiled
on its first call: each of the 12 kernels on a cache that every other kernel has
filled against the same kernel on a private cache, on drawn messages;
two hand-built pairs of programs against the reference interpreter in
reference.py, one pair whose loop headers hold the same words but whose
loops differ, which must not share, and one that differs only before its
loop, which must; and, in one bench call over the 12 kernels, that each
distinct block is translated once, each driver and routine assembled
once, and as many words decoded and statements encoded as before.
Hypothesis runs derandomized, so the suite is reproducible."""

from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from reference import CATEGORIES, Reference
from shatrv import asm, bench, isa, kernels
from shatrv.asm import assemble
from shatrv.bench import run_benchmark
from shatrv.cavp import CavpVector, CavpVectorSet
from shatrv.emulator import CODE_BASE, Machine, Translations
from shatrv.keccak import VARIANTS, sha3_digest
from shatrv.kernels import MESSAGE_ADDR, STRATEGIES, STRATEGY_TABLE, generate_kernel
from shatrv.shatr import attach
from test_loops import THRESHOLDS, _threshold

MEMORY_SIZE = 1 << 21
# well above the longest run here: a 300-byte message through sw-mem's
# sha3-512 kernel retires 56,431 instructions
BUDGET = 1_000_000


# -- every kernel on a cache the others filled --------------------------------

_KERNELS = {(s, v): generate_kernel(s, v) for s in STRATEGIES for v in VARIANTS}


def _hashed(kernel, message, translations=None):
    """A machine that has run the kernel (strategy, variant) on message."""
    m = Machine(memory_size=MEMORY_SIZE, translations=translations)
    if STRATEGY_TABLE[kernel[0]].round_unit:
        attach(m)
    m.load_program(_KERNELS[kernel])
    m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
    m.regs[10] = len(message)
    assert m.run(BUDGET) == 0
    return m


def _observed(m):
    return (m.emitted, m.stats.counts, m.stats.regions, m.stats.region_entry_count,
            m.pc, m.regs, bytes(m.memory))


@THRESHOLDS
@pytest.mark.parametrize("kernel", _KERNELS, ids="-".join)
@settings(derandomize=True, database=None, deadline=None, max_examples=3,
          phases=[p for p in Phase if p.name != "explain"])
@given(message=st.binary(max_size=300))
def test_a_cache_every_other_kernel_filled_runs_a_kernel_like_a_private_one(
        hot, kernel, message):
    # the others run the same message, so they take the same driver paths
    with _threshold(hot):
        shared = Translations()
        for other in _KERNELS:
            if other != kernel:
                _hashed(other, message, shared)
        ran = _hashed(kernel, message, shared)
        alone = _hashed(kernel, message)
    assert _observed(ran) == _observed(alone)
    assert ran.emitted == [sha3_digest(message, kernel[1])]


# -- hand-built pairs against the reference -----------------------------------

def _enc(mnemonic, **fields):
    return isa.encode(mnemonic, **fields).to_bytes(4, "little")


TRIPS = 200


def _program(prologue, step):
    """prologue, then a loop of TRIPS trips whose header block is its exit
    alone: the loop adds step to x6 each trip. Returns the code and the pc
    of the header."""
    loop = [_enc("beq", rs1=9, rs2=8, imm=16), _enc("addi", rd=6, rs1=6, imm=step),
            _enc("addi", rd=9, rs1=9, imm=1), _enc("jal", rd=0, imm=-12)]
    done = [_enc("addi", rd=17), _enc("ecall")]
    return b"".join([*prologue, _enc("addi", rd=8, imm=TRIPS), *loop, *done]), \
        CODE_BASE + 4 * (len(prologue) + 1)


def _runs_like_the_reference(code, m):
    ref = Reference(code, MEMORY_SIZE)
    ref.run(BUDGET)
    assert ref.halted
    assert (m.pc, m.regs) == (ref.pc, ref.x)
    assert {c: m.stats.counts[c] for c in CATEGORIES} == ref.counts


def _run_in_turn(programs, hot):
    """Run each program on one shared cache, in order, and check it against
    the reference; returns the cache and the pcs each program translated."""
    shared, translated = Translations(), []
    translate = Machine._translate

    def counted(self, pc):
        translated[-1].append(pc)
        return translate(self, pc)

    with _threshold(hot), mock.patch.object(Machine, "_translate", counted):
        for code in programs:
            translated.append([])
            m = Machine(memory_size=MEMORY_SIZE, translations=shared)
            m.load_program(code)
            assert m.run(BUDGET) == 0
            _runs_like_the_reference(code, m)
    return shared, translated


@THRESHOLDS
def test_the_same_header_words_before_other_loops_are_not_shared(hot):
    # the header blocks hold the same words, the beq, at the same pc, but
    # head different loops: a block keyed by its own words would run the
    # first program's loop in the second. The code after the loop is the
    # same, so its block is shared
    (one, header), (three, _) = _program([], 1), _program([], 3)
    shared, translated = _run_in_turn([one, three], hot)
    tables = [shared.blocks(code, False) for code in (one, three)]
    assert one[header - CODE_BASE:][:4] == three[header - CODE_BASE:][:4]
    assert tables[1][header].loop is not None
    after = header + 16
    assert all(tables[1][pc] is not tables[0][pc] for pc in tables[0] if pc < after)
    assert tables[1][after] is tables[0][after]
    assert translated[1] == [pc for pc in translated[0] if pc < after]


@THRESHOLDS
def test_programs_that_differ_only_before_a_pc_share_its_blocks(hot):
    first, header = _program([_enc("addi", rd=6, imm=5)], 2)
    second, _ = _program([_enc("addi", rd=7, imm=9)], 2)
    shared, translated = _run_in_turn([first, second], hot)
    tables = [shared.blocks(code, False) for code in (first, second)]
    assert header in tables[0]
    assert all(tables[1][pc] is block for pc, block in tables[0].items() if pc >= header)
    # only the block holding the prologue is translated again
    assert translated[1] == [CODE_BASE]
    assert len(shared.suffixes) == len(translated[0]) + 1


# -- one bench call builds each distinct piece once ---------------------------

def test_one_bench_call_translates_each_block_and_assembles_each_piece_once():
    sets = [CavpVectorSet(v, "inline", [CavpVector(0, b"", sha3_digest(b"", v))])
            for v in VARIANTS]
    caches, keys, lengths, decoded = [], [], [], []
    translate, decode = Machine._translate, Machine.decode

    class Spy(Translations):
        def __init__(self):
            super().__init__()
            caches.append(self)

    def counted(self, pc):
        keys.append((pc, self._code[pc - CODE_BASE:], self.round_unit is not None))
        block = translate(self, pc)
        lengths.append(block.length)
        return block

    def decoding(self, word):
        decoded.append((word, self.round_unit is not None))
        return decode(self, word)

    asm._statement_words.cache_clear()
    with mock.patch.object(bench, "Translations", Spy), \
            mock.patch.object(Machine, "_translate", counted), \
            mock.patch.object(Machine, "decode", decoding), \
            mock.patch.object(kernels, "assemble", wraps=assemble) as assembled:
        report = run_benchmark(sets)
    assert all(o.status == "pass" for o in report.outcomes)
    assert len(report.outcomes) == len(_KERNELS)
    [shared] = caches
    # each key once, and sw-regopt's permutation block once, not once per variant
    assert len(keys) == len(set(keys)) == len(shared.suffixes)
    assert lengths.count(5601) == 1
    # four drivers and three routines
    assert assembled.call_count == len(VARIANTS) + len(STRATEGIES)
    # the front end's amount of work, pinned as literals so that a faster
    # front end cannot skip any: each (word, unit attached) the cache lacks
    # decoded once, each distinct statement encoded once
    assert len(decoded) == len(set(decoded)) == 2218
    assert asm._statement_words.cache_info().misses == 2178
    # every routine block is one object, in each of its strategy's kernels
    for strategy in STRATEGIES:
        images = [_KERNELS[strategy, v] for v in VARIANTS]
        attached = STRATEGY_TABLE[strategy].round_unit
        tables = [shared.blocks(image.code, attached) for image in images]
        routine = {pc: block for pc, block in tables[0].items()
                   if pc >= images[0].symbols["permute"]}
        assert routine
        for image, table in zip(images, tables):
            assert image.symbols["permute"] == images[0].symbols["permute"]
            assert {pc: table[pc] for pc in routine} == routine
            assert all(table[pc] is block for pc, block in routine.items())

"""Whole loops in the compiled tier against an independent reference and
against stepping: drawn one- and two-block loops, with exits at the top,
middle and bottom, stores through aliased bases and back edges that may
test a forwarded value, run by Machine.run at the shipped threshold and
with every loop compiled on its first trip, against the
reference interpreter in reference.py; budgets that end at every
instruction of a compiled trip, loops whose guard fails on a late trip,
back edges on a forwarded value and each branch as an exit and as a back
edge, against step(); loops whose bases stay put, so that their cells
live in locals, against both (stores reloaded across trips, aliased
bases, a walking base that reaches the cells, exits after dirty stores,
budgets ending on every trip and bases over the code or past the end of
memory); how often a compiled trip of sw-mem's round touches memory;
and which loops run whole.
Hypothesis runs derandomized, so the suite is reproducible."""

import importlib.util
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from reference import CATEGORIES, Fault, Reference
from shatrv import emulator, isa
from shatrv.asm import assemble
from shatrv.emulator import (
    CODE_BASE, BudgetExceeded, EmulatorError, Machine, MemoryFault, Translations,
)
from shatrv.kernels import MESSAGE_ADDR, generate_kernel
from shatrv.shatr import attach

MEMORY_SIZE = 1 << 16
DATA = 0x8000
M64 = (1 << 64) - 1
# what both machines hold around DATA before a loop runs
FILL = bytes(i * 7 % 251 for i in range(4352))
# every run and every stepping here stops at this many instructions, far
# past the longest program (the drawn loops retire at most 2,863, the
# sw-mem kernel on a 200-byte message 23,251), so a loop whose exit breaks
# fails its test instead of hanging the suite
BUDGET = 100_000


def _shipped():
    """_HOT_LOOP as emulator.py sets it, where a caller has forced it too:
    read off a fresh copy of the module."""
    spec = importlib.util.find_spec("shatrv.emulator")
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    return fresh._HOT_LOOP


SHIPPED = _shipped()
THRESHOLDS = pytest.mark.parametrize("hot", [SHIPPED, 1], ids=["shipped", "forced"])


def _threshold(hot):
    return mock.patch.object(emulator, "_HOT_LOOP", hot)


def _enc(mnemonic, **fields):
    return isa.encode(mnemonic, **fields).to_bytes(4, "little")


def _machine(code, regs, translations=None):
    m = Machine(memory_size=MEMORY_SIZE, translations=translations)
    m.load_program(code)
    m.memory[DATA - 256:DATA + 4096] = FILL
    for r, value in regs.items():
        m.regs[r] = value
    return m


def _reference(code, regs):
    ref = Reference(code, MEMORY_SIZE)
    ref.mem[DATA - 256:DATA + 4096] = FILL
    for r, value in regs.items():
        ref.x[r] = value
    return ref


# -- drawn loops against the reference ---------------------------------------

# x5..x7 are bases, x8 the trip bound, x9 the trip counter, x11 a trip to
# leave on, x18..x20 values
_BASES = st.sampled_from([5, 6, 7])
_VALUES = st.sampled_from([18, 19, 20])
# offsets and steps mostly keep every access aligned, so that most loops
# run long enough to compile at the shipped threshold; a misaligned base
# or a step of 1 faults
_OFFSETS = st.sampled_from([-16, -8, 0, 8, 16, 4])
_ACCESS = st.one_of(
    st.builds(lambda name, rd, rs1, imm: _enc(name, rd=rd, rs1=rs1, imm=imm),
              st.sampled_from(["ld", "lw", "lwu", "lhu", "lb", "lbu"]),
              st.sampled_from([0, 18, 19, 20]), _BASES, _OFFSETS),
    st.builds(lambda name, rs2, rs1, imm: _enc(name, rs1=rs1, rs2=rs2, imm=imm),
              st.sampled_from(["sd", "sw", "sh", "sb"]), st.sampled_from([0, 18, 19]),
              _BASES, _OFFSETS),
)
# a base steps each trip, so a loop walks memory and may leave it
_STEP = st.builds(lambda b, imm: _enc("addi", rd=b, rs1=b, imm=imm),
                  _BASES, st.sampled_from([8, -8, 16, 0, 8, 1]))
_ALU = st.sampled_from([
    _enc("xor", rd=18, rs1=18, rs2=19), _enc("addi", rd=19, rs1=18, imm=-3),
    _enc("sub", rd=20, rs1=19, rs2=18), _enc("slli", rd=19, rs1=20, imm=9),
    _enc("sra", rd=20, rs1=18, rs2=19), _enc("addw", rd=18, rs1=19, rs2=20),
    _enc("sltu", rd=20, rs1=18, rs2=19), _enc("add", rd=0, rs1=18, rs2=19),
    _enc("lui", rd=19, imm=0xFEDCB),
])


def _forward(first, src, rd, b, x):
    """src loaded or stored at x(b), then read back into rd, which the
    compiled tier forwards from src's local: two words."""
    return _enc(first, rd=src, rs1=b, rs2=src, imm=x) + _enc("ld", rd=rd, rs1=b, imm=x)


_FORWARD_FIELDS = st.tuples(st.sampled_from(["ld", "sd"]), _VALUES, _VALUES, _BASES,
                            _OFFSETS)
_FORWARD = _FORWARD_FIELDS.map(lambda fields: _forward(*fields))
_PIECES = st.lists(st.one_of(_ACCESS, _ACCESS, _STEP, _ALU, _FORWARD), max_size=6)
# an exit: a branch past the back edge, mostly on the trip count, so that
# most loops run long enough to compile at the shipped threshold
_TRIP_EXITS = st.builds(lambda name: (name, 9, 11), st.sampled_from(["beq", "bgeu"]))
_VALUE_TESTS = st.builds(lambda name, a, b: (name, a, b),
                         st.sampled_from(["beq", "bne", "blt", "bge", "bltu", "bgeu"]),
                         _VALUES, st.sampled_from([0, 18, 19, 20]))
_EXITS = st.one_of(_TRIP_EXITS, _TRIP_EXITS, _TRIP_EXITS, _VALUE_TESTS)
# x5 and x7 start aligned; x6 may also start misaligned, near the end of
# memory (which a loop stepping it walks off on a late trip), in the code
# or aliasing x5
_ALIGNED = st.integers(0, 8).map(lambda i: DATA + 8 * i)
_X6 = st.one_of(
    _ALIGNED,
    st.integers(1, 15).map(lambda i: DATA + i),
    st.sampled_from([8, 24, 800]).map(lambda i: MEMORY_SIZE - i),
    st.integers(0, 2).map(lambda i: CODE_BASE + 8 * i),
    st.sampled_from([0, 4, 8]).map(lambda i: -i - 1),
)


@st.composite
def _loops(draw):
    """A loop and the registers it starts with: straight-line pieces before
    it (so it may start mid-block), then optional exits at its top and
    middle, then a back edge that is a bne on the trip count (so the loop
    may also leave at its bottom), or a jal x0 or a branch on a value read
    back from where another register loaded or stored it, which then
    changes, either after a forced exit on the trip count at the top or
    middle."""
    pre = draw(st.lists(_ALU, max_size=2))
    top, middle = draw(st.none() | _EXITS), draw(st.none() | _EXITS)
    back = draw(st.sampled_from(["bne", "jal", "value"]))
    if back != "bne" and not (top and top[1:] == (9, 8) or middle and middle[1:] == (9, 8)):
        if draw(st.booleans()):
            top = ("beq", 9, 8)
        else:
            middle = ("beq", 9, 8)
    first, second = draw(_PIECES), draw(_PIECES)
    if back == "value":
        access, src, rd, b, x = draw(_FORWARD_FIELDS)
        second = second + [_forward(access, src, rd, b, x),
                           _enc("xori", rd=src, rs1=src, imm=-1)]
        edge, _, other = draw(_VALUE_TESTS)
    regs = {5: draw(_ALIGNED), 6: draw(_X6), 7: draw(_ALIGNED),
            8: draw(st.sampled_from([3, 90, 130, 130])),
            11: draw(st.sampled_from([2, 100, 1000, 1000])),
            18: draw(st.integers(0, M64)), 19: draw(st.integers(0, M64)),
            20: draw(st.integers(0, M64))}
    if regs[6] < 0:     # x6 aliases x5, so a segment storing through both hands back
        regs[6] = regs[5] - regs[6] - 1
    body = ([top] if top else []) + first + ([middle] if middle else []) \
        + second + [_enc("addi", rd=9, rs1=9, imm=1)]
    # the offset past the back edge; a _FORWARD piece is two words
    size = 4 + sum(4 if isinstance(piece, tuple) else len(piece) for piece in body)
    words, at = [], 0
    for piece in body:
        if isinstance(piece, tuple):     # an exit to the instruction after the back edge
            name, rs1, rs2 = piece
            piece = _enc(name, rs1=rs1, rs2=rs2, imm=size - at)
        words.append(piece)
        at += len(piece)
    if back == "value":
        words.append(_enc(edge, rs1=rd, rs2=other, imm=-at))
    else:
        words.append(_enc("bne", rs1=9, rs2=8, imm=-at) if back == "bne"
                     else _enc("jal", rd=0, imm=-at))
    code = b"".join(pre + words + [_enc("addi", rd=17), _enc("ecall")])
    return code, regs


def _outcome_of_run(m, budget=BUDGET):
    try:
        m.run(budget)
    except EmulatorError as e:
        return type(e).__name__, m.pc
    return "exit", m.pc


def _outcome_of_reference(ref):
    try:
        ref.run(BUDGET)
    except Fault as f:
        return f.kind, f.pc
    # Reference.run returns when the budget is spent, too
    assert ref.halted, f"the reference ran {BUDGET} instructions without an exit"
    return "exit", ref.pc


@THRESHOLDS
@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          phases=[p for p in Phase if p.name != "explain"])
@given(loop=_loops())
def test_drawn_loops_run_like_the_reference(hot, loop):
    code, regs = loop
    ref = _reference(code, regs)
    expected = _outcome_of_reference(ref)
    with _threshold(hot):
        m = _machine(code, regs)
        assert _outcome_of_run(m) == expected
    assert m.regs == ref.x
    counts = m.stats.counts
    assert {c: counts[c] for c in CATEGORIES} == ref.counts
    assert sum(counts.values()) == sum(ref.counts.values())
    assert bytes(m.memory) == bytes(ref.mem)


# -- budgets and faults inside a compiled loop against stepping --------------

def _observed(m):
    return m.pc, m.regs, m.stats.counts, m.halted, bytes(m.memory[DATA:DATA + 4096])


# squeeze's loop (one block, left at its bottom) and copy_msg's (two
# blocks: an exit at the top and a jal x0 back edge), each behind a
# two-instruction prologue, for 100 trips
_SQUEEZE = """
    addi t0, zero, 0
    li   t2, 100
squeeze:
    add  t3, s0, t0
    lbu  t4, 0(t3)
    add  t3, t1, t0
    sb   t4, 0(t3)
    addi t0, t0, 1
    bne  t0, t2, squeeze
    addi a7, zero, 0
    ecall
"""
_COPY = """
    addi t0, zero, 0
    li   s2, 100
copy_msg:
    beq  t0, s2, copy_done
    add  t1, s1, t0
    lbu  t3, 0(t1)
    add  t1, s6, t0
    sb   t3, 0(t1)
    addi t0, t0, 1
    j    copy_msg
copy_done:
    addi a7, zero, 0
    ecall
"""
_LOOP_REGS = {8: DATA, 6: DATA + 512, 9: DATA, 22: DATA + 512}
# per program: its source and trip length
_BUDGET_CASES = {"squeeze": (_SQUEEZE, 6), "copy_msg": (_COPY, 7)}


@THRESHOLDS
@pytest.mark.parametrize("name", _BUDGET_CASES)
def test_a_budget_ending_anywhere_in_a_compiled_trip_stops_where_steps_stop(hot, name):
    source, length = _BUDGET_CASES[name]
    code = assemble(source).code
    stepped = _machine(code, _LOOP_REGS)
    done = 0
    # every offset of trips 2, 3 and 90, 91 (the loop compiles on trip 1
    # when forced, on trip 80 at the shipped threshold)
    budgets = [2 + length * trip + k for trip in (1, 2, 89, 90) for k in range(length)]
    for budget in budgets:
        while done < budget:
            stepped.step()
            done += 1
        with _threshold(hot), \
                mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
            ran = _machine(code, _LOOP_REGS)
            with pytest.raises(BudgetExceeded):
                ran.run(max_instructions=budget)
        assert _observed(ran) == _observed(stepped), budget
        assert ran.stats.total_retired == budget
        if budget > 2 + length * hot:
            assert compile_.call_count >= 1


def _fault(m, drive):
    with pytest.raises(EmulatorError) as e:
        drive(m)
    return type(e.value), str(e.value), _observed(m)


def _step_until_halt(m):
    for _ in range(BUDGET):
        if m.halted:
            return
        m.step()
    assert m.halted, f"no exit in {BUDGET} steps"


def _step_until_fault(m):
    for _ in range(BUDGET):
        m.step()


# a loop whose base walks by 8 a trip: up off the end of memory, or down
# into the loaded code, so that its guard fails on trip 100
_WALKS = {
    "load-off-the-end": (
        [_enc("ld", rd=18, rs1=5), _enc("xor", rd=19, rs1=19, rs2=18),
         _enc("addi", rd=5, rs1=5, imm=8)], {5: MEMORY_SIZE - 8 * 99}),
    "store-off-the-end": (
        [_enc("addi", rd=19, rs1=19, imm=3), _enc("sd", rs1=5, rs2=19),
         _enc("addi", rd=5, rs1=5, imm=8)], {5: MEMORY_SIZE - 8 * 99}),
    "store-into-the-code": (
        [_enc("addi", rd=19, rs1=19, imm=3), _enc("sd", rs1=5, rs2=19, imm=-8),
         _enc("addi", rd=5, rs1=5, imm=-8)], {5: None}),
}


@THRESHOLDS
@pytest.mark.parametrize("walk", _WALKS)
def test_a_loop_that_faults_on_a_late_trip_ends_like_steps(hot, walk):
    body, regs = _WALKS[walk]
    code = b"".join(body + [_enc("bne", rs1=0, rs2=5, imm=-4 * len(body)),
                            _enc("addi", rd=17), _enc("ecall")])
    if regs[5] is None:     # 99 trips clear of the code, the 100th stores into it
        regs = {5: (CODE_BASE + len(code) + 7) // 8 * 8 + 8 * 99}
    stepped = _fault(_machine(code, regs), _step_until_fault)
    with _threshold(hot), \
            mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        ran = _fault(_machine(code, regs), lambda m: m.run(BUDGET))
    assert ran == stepped
    assert stepped[0] is MemoryFault
    assert stepped[2][2]["branch"] == 99
    assert sum(c.args[1] is not None for c in compile_.call_args_list) == 1


# loops that read x18 or x19 off a walking table of 100 words, stay for
# 99 trips and leave on the 100th, by case: the body, x19 and the words
# that keep and leave the loop.
# Each branch, as an exit and as a back edge, tests x18 against x19, with
# values whose order differs signed and unsigned where it can: per branch,
# x19 and a value of x18 that takes the branch and one that does not.
_CONDITIONS = {"beq": (0, 0, 5), "bne": (0, 5, 0), "blt": (0, M64, 5), "bge": (0, 5, M64),
               "bltu": (1 << 63, 5, M64), "bgeu": (1 << 63, M64, 5)}
_WALK = [_enc("ld", rd=18, rs1=5), _enc("addi", rd=5, rs1=5, imm=8)]


def _leaving_cases():
    cases = {}
    for name, (other, taken, not_taken) in _CONDITIONS.items():
        cases[f"{name}-exit"] = (
            _WALK + [_enc(name, rs1=18, rs2=19, imm=8), _enc("jal", rd=0, imm=-12)],
            other, not_taken, taken)
        cases[f"{name}-back-edge"] = (
            _WALK + [_enc(name, rs1=18, rs2=19, imm=-8)], other, taken, not_taken)
    # a back edge on x19, which holds what x18 loaded or stored, after x18
    # changes: a compiled trip forwards x19 from x18's local, which holds
    # the new x18 by the back edge unless the registers go home first
    cases["forwarded-load"] = (
        [_WALK[0], _enc("ld", rd=19, rs1=5), _enc("addi", rd=18, rs1=18, imm=1), _WALK[1],
         _enc("bne", rs1=19, rs2=0, imm=-16)], 0, 5, 0)
    cases["forwarded-store"] = (
        [_WALK[0], _enc("sd", rs1=6, rs2=18), _enc("ld", rd=19, rs1=6),
         _enc("addi", rd=18, rs1=18, imm=1), _WALK[1], _enc("addi", rd=6, rs1=6, imm=8),
         _enc("bne", rs1=19, rs2=0, imm=-24)], 0, 5, 0)
    return cases


_LEAVING = _leaving_cases()


@THRESHOLDS
@pytest.mark.parametrize("case", _LEAVING)
def test_a_compiled_loop_leaves_where_steps_leave(hot, case):
    body, other, stay, leave = _LEAVING[case]
    code = b"".join(body + [_enc("addi", rd=17), _enc("ecall")])
    table = b"".join(v.to_bytes(8, "little") for v in [stay] * 99 + [leave])
    regs = {5: DATA, 6: DATA + 2048, 19: other}
    stepped = _machine(code, regs)
    stepped.memory[DATA:DATA + 800] = table
    _step_until_halt(stepped)
    with _threshold(hot), \
            mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        ran = _machine(code, regs)
        ran.memory[DATA:DATA + 800] = table
        assert ran.run(max_instructions=10_000) == 0
    assert _observed(ran) == _observed(stepped)
    assert stepped.regs[5] == DATA + 800
    assert sum(c.args[1] is not None for c in compile_.call_args_list) == 1


def test_a_loop_whose_guard_never_passes_stays_with_its_blocks():
    # lw 2 past a base that is 2 mod 4 is aligned, but a guard refuses an
    # offset that is not a multiple of its size, so the loop's function
    # could never finish a trip: it is not a loop, and the blocks run every
    # trip as stepping does
    code = b"".join([_enc("lw", rd=18, rs1=5, imm=2), _enc("addi", rd=5, rs1=5, imm=4),
                     _enc("addi", rd=9, rs1=9, imm=1), _enc("bne", rs1=9, rs2=8, imm=-12),
                     _enc("addi", rd=17), _enc("ecall")])
    regs = {5: DATA + 2, 8: 100}
    stepped = _machine(code, regs)
    _step_until_halt(stepped)
    shared = Translations()
    with _threshold(1):
        ran = _machine(code, regs, shared)
        ran.run(BUDGET)
    assert _observed(ran) == _observed(stepped)
    assert shared.blocks(ran._code, False)[CODE_BASE].loop is None
    assert not shared.loops


# -- which loops run whole ----------------------------------------------------

def _loops_of(source, attached):
    shared = Translations()
    m = Machine(memory_size=MEMORY_SIZE, translations=shared)
    if attached:
        attach(m)
    m.load_program(assemble(source).code)
    m.regs[5:7] = DATA, DATA + 512
    with _threshold(1):
        m.run(max_instructions=10_000)
    return sorted(len(words) for words in shared.loops)


_COUNT = "addi a0, zero, 20\n"
_DONE = "addi a7, zero, 0\necall\n"


@pytest.mark.parametrize("source, attached, lengths", [
    (_SQUEEZE, False, [6]),
    (_COPY, False, [7]),
    # an exit in the middle, which splits the loop into two blocks
    (_COUNT + "top:\naddi a0, a0, -1\nbeq a0, zero, out\nsd a0, 0(t0)\nj top\nout:\n"
     + _DONE, False, [4]),
    # a branch that lands inside the loop
    (_COUNT + "top:\naddi a0, a0, -1\nbeq a0, a1, skip\nsd a0, 0(t0)\nskip:\n"
     "bne a0, zero, top\n" + _DONE, False, []),
    # a call, an ecall, a CSR op and shatr inside the loop
    (_COUNT + "top:\naddi a0, a0, -1\njal ra, f\nbne a0, zero, top\n" + _DONE
     + "f:\njalr x0, ra, 0\n", False, []),
    (_COUNT + "top:\naddi a0, a0, -1\naddi a7, zero, 1\necall\naddi a7, zero, 2\n"
     "ecall\nbne a0, zero, top\n" + _DONE, False, []),
    (_COUNT + "top:\naddi a0, a0, -1\ncsrrw t1, 0x800, a0\nbne a0, zero, top\n"
     + _DONE, True, []),
    (_COUNT + "addi t2, zero, 0\ntop:\nshatr t2\naddi a0, a0, -1\n"
     "bne a0, zero, top\n" + _DONE, True, []),
    # a branch back to the loop's top from its middle ends the loop there
    (_COUNT + "top:\naddi a0, a0, -1\nbne a0, a1, top\nsd a0, 0(t0)\n"
     "bne a0, zero, top\n" + _DONE, False, [2]),
], ids=["squeeze", "copy_msg", "middle-exit", "inner-target", "call", "ecall",
        "csr", "shatr", "early-back-edge"])
def test_which_loops_run_whole(source, attached, lengths):
    assert _loops_of(source, attached) == lengths


def test_every_driver_loop_and_the_sw_mem_round_run_whole():
    # zero_state and pad_zero (3), squeeze (6), copy_msg (7), absorb_xor
    # and pad_xor (8), and sw-mem's round loop (460 entries and its bne)
    shared = Translations()
    m = Machine(memory_size=1 << 21, translations=shared)
    m.load_program(generate_kernel("sw-mem", "sha3-256"))
    message = bytes(range(200))
    m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
    m.regs[10] = len(message)
    assert m.run(BUDGET) == 0
    assert sorted(map(len, shared.loops)) == [3, 3, 6, 7, 8, 8, 461]


# -- promoted bases against the reference and stepping ------------------------

# a loop body that reaches memory only with ld and sd through x5 and x7,
# which it never writes, so the compiled tier keeps the cells they reach
# in locals; the cells carry values from trip to trip. x9 counts trips to
# x8. A second pass of the loop then runs with x5 = x12, unless x12
# already is x5, so that a loop compiled in the first pass meets x12 at
# its entry guard.
_KEEP = [_enc("ld", rd=18, rs1=5), _enc("addi", rd=18, rs1=18, imm=3),
         _enc("sd", rs1=5, rs2=18), _enc("ld", rd=19, rs1=5, imm=8),
         _enc("xor", rd=19, rs1=19, rs2=18), _enc("sd", rs1=7, rs2=19, imm=16),
         _enc("ld", rd=20, rs1=7, imm=16), _enc("sd", rs1=5, rs2=20, imm=8)]
# reads only through x5
_READ = [_enc("ld", rd=18, rs1=5), _enc("ld", rd=19, rs1=5, imm=8),
         _enc("xor", rd=19, rs1=19, rs2=18), _enc("sd", rs1=7, rs2=19),
         _enc("ld", rd=20, rs1=7), _enc("add", rd=22, rs1=22, rs2=20)]
# x6 walks by 8 a trip, from 99 words below x5: on trip 100 it stores into,
# or loads from, x5's cells
_WALK_STORE = [_enc("sd", rs1=6, rs2=19), _enc("addi", rd=6, rs1=6, imm=8)]
_WALK_LOAD = [_enc("ld", rd=21, rs1=6), _enc("add", rd=22, rs1=22, rs2=21),
              _enc("addi", rd=6, rs1=6, imm=8)]


def _promoting(pieces):
    """The two-pass program of a loop of pieces: words, or exits (branch,
    rs1, rs2) to past its back edge."""
    body = pieces + [_enc("addi", rd=9, rs1=9, imm=1)]
    words = [_enc(p[0], rs1=p[1], rs2=p[2], imm=4 * (len(body) + 1 - i))
             if isinstance(p, tuple) else p for i, p in enumerate(body)]
    return b"".join(words + [
        _enc("bne", rs1=9, rs2=8, imm=-4 * len(body)),
        _enc("beq", rs1=5, rs2=12, imm=16), _enc("addi", rd=5, rs1=12),
        _enc("addi", rd=9), _enc("jal", rd=0, imm=-4 * (len(body) + 4)),
        _enc("addi", rd=17), _enc("ecall")])


_PROMOTED = DATA + 1024
_PROMOTING = {
    "store-and-reload": (_KEEP, {}),
    "aliased-bases": (_KEEP, {7: _PROMOTED - 16}),
    "walk-stores-into-the-cells": (_KEEP + _WALK_STORE, {6: _PROMOTED - 8 * 99}),
    "walk-loads-from-the-cells": (_KEEP + _WALK_LOAD, {6: _PROMOTED - 8 * 99}),
    "exit-at-the-top": ([("beq", 9, 11)] + _KEEP, {11: 100}),
    "exit-in-the-middle": (_KEEP[:3] + [("beq", 9, 11)] + _KEEP[3:], {11: 100}),
    "second-pass-stores-into-the-code": (_KEEP, {12: CODE_BASE + 8}),
    "second-pass-past-the-end": (_KEEP, {12: MEMORY_SIZE - 8}),
    "second-pass-reads-the-code": (_READ, {12: CODE_BASE}),
}


def _promoting_case(case):
    pieces, regs = _PROMOTING[case]
    regs = {5: _PROMOTED, 7: _PROMOTED + 256, 8: 130, 11: M64, 12: _PROMOTED, **regs}
    return _promoting(pieces), regs


def _state(m):
    return m.pc, m.regs, m.stats.counts, bytes(m.memory)


def _reference_state(ref):
    counts = {**dict.fromkeys(isa.CATEGORIES, 0), **ref.counts}
    return ref.pc, ref.x, counts, bytes(ref.mem)


def _outcome_of_steps(m):
    try:
        _step_until_halt(m)
    except EmulatorError as e:
        return type(e).__name__, m.pc
    return "exit", m.pc


def _compiled_with(hot, drive, m):
    """drive(m) at the threshold hot, and the functions _compile made
    meanwhile."""
    made = []
    def spy(*args):
        made.append(real(*args))
        return made[-1]
    real = emulator._compile
    with _threshold(hot), mock.patch.object(emulator, "_compile", spy):
        return drive(m), made


def _cells(made):
    """The promoted base registers of every compiled loop in made."""
    return {int(name[1:name.index("_")]) for run in made
            for name in run.__code__.co_varnames if name[0] == "c" and "_" in name}


@THRESHOLDS
@pytest.mark.parametrize("case", _PROMOTING)
def test_promoted_cells_run_like_the_reference_and_steps(hot, case):
    code, regs = _promoting_case(case)
    ref = _reference(code, regs)
    expected = _outcome_of_reference(ref)
    stepped = _machine(code, regs)
    assert _outcome_of_steps(stepped) == expected
    ran = _machine(code, regs)
    outcome, made = _compiled_with(hot, _outcome_of_run, ran)
    assert outcome == expected
    assert _state(ran) == _state(stepped) == _reference_state(ref)
    assert _cells(made) == {5, 7}


@THRESHOLDS
def test_a_budget_ending_on_any_trip_of_promoted_cells_stops_where_steps_stop(hot):
    code, regs = _promoting_case("store-and-reload")
    length = len(_KEEP) + 2
    ref, stepped, done, made = _reference(code, regs), _machine(code, regs), 0, []
    # a budget ending at a different instruction of every trip
    for budget in [length * trip + trip % length + 1 for trip in range(130)]:
        ref.run(budget - done)
        while done < budget:
            stepped.step()
            done += 1
        ran = _machine(code, regs)
        outcome, calls = _compiled_with(hot, lambda m: _outcome_of_run(m, budget), ran)
        made += calls
        assert outcome == ("BudgetExceeded", stepped.pc)
        assert _state(ran) == _state(stepped) == _reference_state(ref), budget
    assert _cells(made) == {5, 7}


class _Counting:
    """A view of memory that tallies its reads and writes."""

    def __init__(self, view, tally):
        self.view, self.tally = view, tally

    def __len__(self):
        return len(self.view)

    def __getitem__(self, index):
        self.tally[0] += 1
        return self.view[index]

    def __setitem__(self, index, value):
        self.tally[1] += 1
        self.view[index] = value


def test_a_compiled_trip_of_the_sw_mem_round_reads_memory_once_and_writes_none():
    # sw-mem's round keeps the state, column and lane buffers in cells: a
    # trip reads only its round constant, and the call writes the cells
    # back once, however many trips it runs
    image = generate_kernel("sw-mem", "sha3-256")
    first = []
    def spy(*args):
        run = real(*args)
        def capture(m, budget):
            if not first:
                first.append((run, m.pc, list(m.regs), bytes(m.memory)))
            return run(m, budget)
        return capture if len(args[0]) == 461 else run
    real = emulator._compile
    m = Machine(memory_size=1 << 21)
    m.load_program(image)
    with _threshold(1), mock.patch.object(emulator, "_compile", spy):
        m.run(BUDGET)
    run, pc, regs, memory = first[0]

    def tally(trips):
        m = Machine(memory_size=1 << 21)
        m.load_program(image)
        m.memory[:] = memory
        m.regs[:], m.pc = regs, pc
        tally = [0, 0]
        m._views = tuple(_Counting(view, tally) for view in m._views)
        assert run(m, 461 * trips) == 461 * trips
        return tally

    (reads, writes), (reads_5, writes_5) = tally(1), tally(5)
    assert (reads_5 - reads, writes_5 - writes) == (4, 0)
    assert reads - 1 == writes == 25 + 5 + 25

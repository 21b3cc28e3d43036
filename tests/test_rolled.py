"""Straight-line runs that roll up (emulator._period) against the
reference interpreter in reference.py. A drawn run is a prefix, K periods
and a suffix: each period is the one before with its value registers
renamed by a drawn permutation and one access's offset stepped, and holds
ALU ops, the fused rotate and and-not idioms, and loads and stores at
fixed offsets, and may walk a base register so that a guard fails in a
middle period. A loop calls the run through jal and jalr, so the run is
one executor called once a trip. Machine.run, at the shipped threshold
and with every run that rolls compiled on its first call, must end like
the reference: registers, pc, memory, counts and the fault class and pc.
Every shape _period returns is checked here, period by period, by a
renaming of this file's own; near misses (a renaming that is not a
bijection, one that moves x0, an offset that does not step evenly, a
field changed in the last period) must not roll as drawn, and a guard
that fails in a middle period, the prefix or the suffix must hand back
there. A run built like sw-regopt's permutation rolls as 27 + 24 x 231 +
29. Hypothesis runs derandomized, so the suite is reproducible."""

from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from reference import CATEGORIES
from shatrv import emulator
from shatrv.emulator import CODE_BASE, Machine, Translations
from shatrv.kernels import generate_kernel
from test_loops import (
    DATA, MEMORY_SIZE, SHIPPED, THRESHOLDS, _enc, _machine, _outcome_of_reference,
    _outcome_of_run, _reference, _threshold,
)

# registers a period may rename; x5 and x6 are bases, x1 the return
# address, x9 the trip count and x17 a7, which no run writes
VALUES = (18, 19, 20, 21, 22, 23, 24, 25)
TRIPS = 20
_SIZES = {"ld": 8, "lw": 4, "lwu": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1,
          "sd": 8, "sw": 4, "sh": 2, "sb": 1}
_V = st.sampled_from(VALUES)
_VZ = st.sampled_from(VALUES + (0,))


def _one(name, **fields):
    return [(name, fields)]


_ALU = st.one_of(
    st.builds(lambda name, rd, rs1, rs2: _one(name, rd=rd, rs1=rs1, rs2=rs2),
              st.sampled_from(["add", "sub", "xor", "or", "and", "sll", "srl", "sra",
                               "slt", "sltu", "addw", "subw", "sllw", "srlw", "sraw"]),
              _VZ, _VZ, _VZ),
    st.builds(lambda name, rd, rs1, imm: _one(name, rd=rd, rs1=rs1, imm=imm),
              st.sampled_from(["addi", "xori", "ori", "andi", "slti", "sltiu", "addiw"]),
              _VZ, _VZ, st.integers(-2048, 2047)),
    st.builds(lambda name, rd, rs1, imm: _one(name, rd=rd, rs1=rs1, imm=imm),
              st.sampled_from(["slli", "srli", "srai"]), _V, _V, st.integers(0, 63)),
    st.builds(lambda rd, imm: _one("lui", rd=rd, imm=imm), _V, st.integers(0, 0xFFFFF)),
)
# srli T, A, k; slli A, A, 64-k; or A, A, T and xori T, N1, -1; and T, T, N2;
# xor D, D, T, which the interpreter fuses
_ROTATE = st.builds(
    lambda t, a, k: [("srli", dict(rd=t, rs1=a, imm=k)), ("slli", dict(rd=a, rs1=a, imm=64 - k)),
                     ("or", dict(rd=a, rs1=a, rs2=t))],
    _V, _V, st.integers(1, 63)).filter(lambda p: p[0][1]["rd"] != p[0][1]["rs1"])
_AND_NOT = st.builds(
    lambda t, n1, n2, d: [("xori", dict(rd=t, rs1=n1, imm=-1)), ("and", dict(rd=t, rs1=t, rs2=n2)),
                          ("xor", dict(rd=d, rs1=d, rs2=t))],
    _V, _V, _V, _V).filter(lambda p: p[0][1]["rd"] != p[1][1]["rs2"])
_ACCESS = st.one_of(
    st.builds(lambda name, rd, base, i: _one(name, rd=rd, rs1=base, imm=_SIZES[name] * i),
              st.sampled_from(["ld", "lw", "lwu", "lh", "lhu", "lb", "lbu"]), _VZ,
              st.sampled_from([5, 6]), st.integers(0, 7)),
    st.builds(lambda name, rs2, base, i: _one(name, rs2=rs2, rs1=base, imm=_SIZES[name] * i),
              st.sampled_from(["sd", "sw", "sh", "sb"]), _VZ, st.sampled_from([5, 6]),
              st.integers(0, 7)),
)
# x6 walks each period: into x5's span (a guard fails, nothing faults), off
# the end of memory or out of alignment (a guard fails, then a fault)
_WALK = st.builds(lambda imm: _one("addi", rd=6, rs1=6, imm=imm), st.sampled_from([8, -8, 16, 4]))
# x5 and x6 mostly aligned apart; x6 may start inside x5's span, near the
# end of memory or misaligned, and x5 in the code
_BASES = st.one_of(
    st.tuples(st.integers(0, 8).map(lambda i: DATA + 8 * i),
              st.integers(0, 8).map(lambda i: DATA + 512 + 8 * i)),
    st.tuples(st.just(DATA), st.sampled_from([DATA + 8, DATA + 64, DATA - 64])),
    st.tuples(st.just(DATA), st.sampled_from([MEMORY_SIZE - 8, MEMORY_SIZE - 256, DATA + 3])),
    st.tuples(st.just(CODE_BASE + 8), st.just(DATA)),
)


def _flat(pieces):
    return [inst for piece in pieces for inst in piece]


def _renamed(period, sigma, k, stepped=None, step=0):
    """Period k: period 0 with every register n renamed sigma**k and the
    access at index `stepped` moved k steps."""
    for _ in range(k):
        period = [(name, {f: sigma.get(v, v) if f[0] == "r" else v for f, v in fields.items()})
                  for name, fields in period]
    return [(name, {**fields, "imm": fields["imm"] + k * step} if i == stepped else fields)
            for i, (name, fields) in enumerate(period)]


def _program(run):
    """A loop that calls the run TRIPS times through jal and jalr, then exits."""
    head = [_enc("addi", rd=9, imm=TRIPS), _enc("jal", rd=1, imm=20),
            _enc("addi", rd=9, rs1=9, imm=-1), _enc("bne", rs1=9, imm=-8),
            _enc("addi", rd=17), _enc("ecall")]
    return b"".join(head + [_enc(name, **fields) for name, fields in run]
                    + [_enc("jalr", rs1=1)])


@st.composite
def _rolling(draw):
    """(run, (P, R, K), regs): a prefix, K periods of R instructions whose
    value registers the next period renames by one drawn permutation of
    those that the period names, and in which at most one access steps,
    and a suffix."""
    period = _flat(draw(st.lists(st.one_of(_ALU, _ROTATE, _AND_NOT, _ACCESS, _ACCESS),
                                 min_size=2, max_size=6)))
    if draw(st.booleans()):
        period[draw(st.integers(0, len(period))):0] = draw(_WALK)
    named = sorted({v for _, fields in period for f, v in fields.items()
                    if f[0] == "r" and v in VALUES})
    sigma = dict(zip(named, draw(st.permutations(named))))
    accesses = [i for i, (name, _) in enumerate(period) if name in _SIZES]
    stepped = draw(st.sampled_from(accesses)) if accesses and draw(st.booleans()) else None
    step = 0 if stepped is None else _SIZES[period[stepped][0]] * draw(
        st.sampled_from([1, -1, 2]))
    K = draw(st.integers(6, 9))
    prefix, suffix = (_flat(draw(st.lists(_ALU, max_size=3))) for _ in range(2))
    run = prefix + _flat(_renamed(period, sigma, k, stepped, step) for k in range(K)) + suffix
    x5, x6 = draw(_BASES)
    regs = {5: x5, 6: x6, **{v: draw(st.integers(0, (1 << 64) - 1)) for v in VALUES}}
    return run, (len(prefix), len(period), K), regs


def _shape_of(code):
    """The entries of the run in code (it starts at CODE_BASE + 24 and ends
    before the jalr) and what _period makes of them."""
    m = Machine(memory_size=MEMORY_SIZE)
    m.load_program(code)
    words = bytes(m._words[6:-1])
    entries = tuple(m._build(CODE_BASE + 24 + 4 * i)[2] for i in range(len(words) // 4))
    return entries, emulator._period(entries, words)


def _rename_entry(e, sigma):
    """An entry with each register n renamed sigma[n]: dest (a signed load's
    is -rd), rs1 and a register op's rs2."""
    if not e:
        return e
    kind, op, d, s, x, *rest = e
    d = sigma[d] if d >= 0 else -sigma[-d]
    return (kind, op, d, sigma[s], sigma[x] if kind == emulator._REG else x, *rest)


def _check_roll(entries, shape):
    """Fail unless shape truly rolls entries: a bijection fixing x0, K >= 2
    periods each the one before renamed, and offsets that step by a
    multiple of their size."""
    P, R, K, sigma, steps = shape
    assert K >= 2 and P + K * R <= len(entries)
    assert sorted(sigma) == list(range(32)) and sigma[0] == 0
    for k in range(K - 1):
        for j in range(R):
            e, after = entries[P + k * R + j], entries[P + (k + 1) * R + j]
            want = _rename_entry(e, sigma)
            if e and e[0] >= emulator._LOAD:
                step = steps.get(j, 0)
                assert step % (e[5] + 1) == 0
                want = want[:4] + (e[4] + step,) + want[5:]
            assert after == want, (k, j)
    assert all(entries[P + j] and entries[P + j][0] >= emulator._LOAD for j in steps)


def _ends_like_the_reference(code, regs, hot):
    """Run code on the reference and on Machine.run at threshold hot, and
    compare; return the rolls that _compile was given."""
    ref = _reference(code, regs)
    expected = _outcome_of_reference(ref)
    rolls = []
    real = emulator._compile

    def spy(*args):
        if len(args) > 3 and args[3]:
            rolls.append(args[3])
        return real(*args)

    with _threshold(hot), mock.patch.object(emulator, "_compile", spy):
        m = _machine(code, regs)
        assert _outcome_of_run(m) == expected
    assert m.regs == ref.x
    assert {c: m.stats.counts[c] for c in CATEGORIES} == ref.counts
    assert bytes(m.memory) == bytes(ref.mem)
    return rolls, expected


@THRESHOLDS
@settings(derandomize=True, database=None, deadline=None, max_examples=120,
          phases=[p for p in Phase if p.name != "explain"])
@given(drawn=_rolling())
def test_drawn_rolled_runs_run_like_the_reference(hot, drawn):
    run, (P, R, K), regs = drawn
    code = _program(run)
    entries, shape = _shape_of(code)
    # the periods as drawn, or a roll of more of the run
    assert shape is not None and shape[1] * shape[2] >= R * K
    _check_roll(entries, shape)
    rolls, (end, _) = _ends_like_the_reference(code, regs, hot)
    if end == "exit" or hot == 1:
        assert rolls == [shape]


# a period whose x6 walks by 8 down through x5's span: the guard of the
# segment that stores through x6 fails in period 3 of 6 and hands back,
# and the periods rename x18 -> x19 -> x20 -> x18
_WALK_INTO = [("ld", dict(rd=18, rs1=5)), ("xor", dict(rd=19, rs1=19, rs2=18)),
              ("sd", dict(rs2=20, rs1=6)), ("addi", dict(rd=20, rs1=20, imm=1)),
              ("addi", dict(rd=6, rs1=6, imm=-8))]


def test_a_guard_that_fails_in_a_middle_period_hands_back_there():
    sigma = {18: 19, 19: 20, 20: 18}
    run = _flat(_renamed(_WALK_INTO, sigma, k) for k in range(6))
    code = _program(run)
    regs = {5: DATA, 6: DATA + 24, 18: 5, 19: 7, 20: 11}
    handed = []
    real = emulator._run

    def spy(entries):
        handed.append(len(entries))
        return real(entries)

    with mock.patch.object(emulator, "_run", spy):
        rolls, end = _ends_like_the_reference(code, regs, 1)
    assert end[0] == "exit"
    assert [r[:3] for r in rolls] == [(0, 5, 6)]
    # the first call hands back at the top of period 3, where x6 == x5
    assert len(run) - 5 * 3 in handed


# a store through x7 and a load through x8, which alias: the segment
# holding both hands back
_ALIASED = [("sd", dict(rs2=20, rs1=7)), ("ld", dict(rd=21, rs1=8))]


@pytest.mark.parametrize("where", ["prefix", "suffix"])
def test_a_guard_that_fails_in_the_prefix_or_the_suffix_hands_back_there(where):
    # five periods rename x18..x20 by sigma**5, which is not the identity,
    # so the prefix hands back before any renaming and the suffix after
    # the periods undo it
    periods = _flat(_renamed(_WALK_INTO, {18: 19, 19: 20, 20: 18}, k) for k in range(5))
    run = _ALIASED + periods if where == "prefix" else periods + _ALIASED
    regs = {5: DATA, 6: DATA + 512, 7: DATA + 1024, 8: DATA + 1024, 18: 5, 19: 7, 20: 11}
    handed = []
    real = emulator._run

    def spy(entries):
        handed.append(len(entries))
        return real(entries)

    with mock.patch.object(emulator, "_run", spy):
        rolls, end = _ends_like_the_reference(_program(run), regs, 1)
    assert end[0] == "exit"
    assert [r[:3] for r in rolls] == [(2 if where == "prefix" else 0, 5, 5)]
    assert (len(run) if where == "prefix" else 2) in handed


# near misses, each a prefix of four and three periods of _NEAR (the
# middle of the run is then in the second period, where the search looks):
# a renaming that is not a bijection, one that moves x0, an offset that
# steps by 8 and then 16, and an immediate changed in the last period
_PRE = [("addi", dict(rd=21, rs1=21, imm=k)) for k in (1, 2, 3, 4)]
_NEAR = [("ld", dict(rd=18, rs1=5, imm=8)), ("xor", dict(rd=19, rs1=19, rs2=18)),
         ("add", dict(rd=20, rs1=20, rs2=19)), ("sd", dict(rs2=20, rs1=5, imm=16)),
         ("srli", dict(rd=18, rs1=20, imm=7))]


def _near(case):
    if case == "not-a-bijection":
        periods = [_NEAR, _renamed(_NEAR, {18: 19, 19: 20, 20: 19}, 1),
                   _renamed(_NEAR, {18: 19, 19: 20, 20: 19}, 2)]
    elif case == "moves-x0":
        swap = {19: 0, 0: 19}
        periods = [_renamed(_NEAR, swap, k) for k in range(3)]
    elif case == "uneven-step":
        periods = [_renamed(_NEAR, {}, 0, 0, 0), _renamed(_NEAR, {}, 1, 0, 8),
                   _renamed(_NEAR, {}, 1, 0, 24)]
    else:
        periods = [_NEAR, _NEAR, _NEAR[:4] + [("srli", dict(rd=18, rs1=20, imm=8))]]
    return _PRE + _flat(periods)


@pytest.mark.parametrize("hot", [SHIPPED, 1], ids=["shipped", "forced"])
@pytest.mark.parametrize("case", ["not-a-bijection", "moves-x0", "uneven-step", "changed-last"])
def test_a_near_miss_does_not_roll_as_drawn(case, hot):
    run = _near(case)
    code = _program(run)
    entries, shape = _shape_of(code)
    if shape is not None:
        _check_roll(entries, shape)
        assert shape[:3] != (4, 5, 3)
    _ends_like_the_reference(code, {5: DATA, 18: 3, 19: 5, 20: 7, 21: 9}, hot)


def test_the_permutation_of_sw_regopt_rolls_as_24_rounds():
    # after parking ra and the region-begin hypercall: 2 + 25 lds, then 24
    # rounds of 231 that rename the 24 lanes other than lane 0 (x1) in
    # one 24-cycle and step the round constant's ld, then 2 + 25 sds and
    # the two hypercall arguments
    shared = Translations()
    m = Machine(memory_size=1 << 21, translations=shared)
    image = generate_kernel("sw-regopt", "sha3-256")
    m.load_program(image)
    assert m.run() == 0
    entries = max(shared.runs, key=len)
    first = [pc for pc, b in shared.blocks(m._code, False).items() if b.length == 5601]
    start = (first[0] - CODE_BASE) // 4
    P, R, K, sigma, steps = emulator._period(entries, bytes(m._words[start:start + 5600]))
    assert (P, R, K, len(entries) - P - K * R) == (27, 231, 24, 29)
    assert [n for n in range(32) if sigma[n] != n] == list(range(2, 26))
    cycle, n = [], 2
    while n not in cycle:
        cycle.append(n)
        n = sigma[n]
    assert len(cycle) == 24
    assert steps == {229: 8}
    _check_roll(entries, (P, R, K, sigma, steps))

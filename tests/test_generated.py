"""Generated and differential checks: decode over arbitrary words, the
round-unit slot's decode contract, the instruction table against the
spec's field layouts (no two rows overlap; encode, decode, print and
parse make a fixed point at every field's extremes; one step past a range
raises), the straight-line Keccak round and the shatr instruction
against the composed step maps, step() against run() on every
strategy's kernel, on faulting programs, on faults and budget stops
inside an open region and on drawn rotate and and-not triples and their
near misses between region markers at drawn places (run() fuses the
triples, step() never does), one executor per distinct run shared by
every variant's kernel and blocks that never change as their runs
compile, machines sharing one translation cache against machines with a
private one, cost models sharing one cache without translating again,
cycles against their closed form in the counts, every load and store against a reference model,
the compiled tier (every straight-line run compiled on its first call)
against the interpreter and stepping, with base registers drawn to fail
each segment's guard in turn, every ALU instruction against a table
written from the RISC-V spec, and the assembler's statement memo against
assembling without it.
Hypothesis runs derandomized, so the suite is reproducible."""

import importlib.util
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from shatrv import asm, emulator, isa, keccak
from shatrv.asm import AsmError, assemble
from shatrv.bench import run_benchmark
from shatrv.cavp import BUNDLED_CLASSES, load_bundled
from shatrv.emulator import (
    CODE_BASE, BudgetExceeded, CostModel, CsrFault, DecodeError, EmulatorError,
    HypercallFault, Machine, MemoryFault, Translations,
)
from shatrv.kernels import MESSAGE_ADDR, STRATEGIES, generate_kernel
from shatrv.shatr import attach

MEM = 1 << 21
M64 = (1 << 64) - 1
MESSAGE = b"step and run agree"
SHATR_WORDS = {isa.encode("shatr", rs1=r): r for r in range(32)}


def generated(max_examples):
    return settings(derandomize=True, database=None, deadline=None,
                    max_examples=max_examples)


@generated(2000)
@given(st.integers(0, (1 << 32) - 1))
def test_isa_decode_returns_or_raises_decode_error(word):
    try:
        inst = isa.decode(word)
    except DecodeError:
        return
    assert inst.raw == word


_custom0_words = st.one_of(
    st.sampled_from(sorted(SHATR_WORDS)),
    st.integers(0, (1 << 25) - 1).map(lambda hi: (hi << 7) | isa.OPCODE_CUSTOM0),
)


@generated(500)
@given(_custom0_words)
def test_custom0_decodes_only_as_shatr_with_a_unit(word):
    m = Machine(memory_size=1 << 13)
    with pytest.raises(DecodeError):
        m.decode(word)
    attach(m)
    if word in SHATR_WORDS:
        inst = m.decode(word)
        assert (inst.mnemonic, inst.rs1) == ("shatr", SHATR_WORDS[word])
    else:
        with pytest.raises(DecodeError):
            m.decode(word)


# -- the instruction table against the spec ---------------------------------

# operand fields of every isa format with their (lowest, highest, step), from
# the RISC-V unprivileged spec: signed 12-bit I and S immediates, 6- and
# 5-bit shift amounts, even 13- and 21-bit branch and jal offsets, the raw
# 20-bit U field, 12-bit CSR addresses and the 5-bit CSR immediate
_REG = (0, 31, 1)
_I12 = (-2048, 2047, 1)
_FIELDS = {
    "R": dict(rd=_REG, rs1=_REG, rs2=_REG),
    "I": dict(rd=_REG, rs1=_REG, imm=_I12),
    "shift6": dict(rd=_REG, rs1=_REG, imm=(0, 63, 1)),
    "shift5": dict(rd=_REG, rs1=_REG, imm=(0, 31, 1)),
    "load": dict(rd=_REG, rs1=_REG, imm=_I12),
    "store": dict(rs1=_REG, rs2=_REG, imm=_I12),
    "branch": dict(rs1=_REG, rs2=_REG, imm=(-4096, 4094, 2)),
    "jal": dict(rd=_REG, imm=(-(1 << 20), (1 << 20) - 2, 2)),
    "U": dict(rd=_REG, imm=(0, 0xFFFFF, 1)),
    "csr": dict(rd=_REG, rs1=_REG, csr=(0, 0xFFF, 1)),
    "csri": dict(rd=_REG, imm=(0, 31, 1), csr=(0, 0xFFF, 1)),
    "ecall": {},
    "shatr": dict(rs1=_REG),
}
_ROWS = sorted(isa.INSTRUCTIONS)


def _spec(name):
    return _FIELDS[isa.INSTRUCTIONS[name][0]]


def _accepting(word):
    """The rows whose fixed bits the word carries."""
    return [name for name, (fmt, match) in isa.INSTRUCTIONS.items()
            if word & isa.FORMATS[fmt].mask == match]


def test_no_two_rows_overlap():
    assert set(_FIELDS) == set(isa.FORMATS) and len(_ROWS) == 57
    for name, (fmt, match) in isa.INSTRUCTIONS.items():
        assert match & ~isa.FORMATS[fmt].mask == 0, name
        assert _accepting(match) == [name]
        assert isa.decode(match).mnemonic == name


def test_a_format_s_operand_fields_follow_from_its_syntax():
    # isa works out registers and csr from each format's syntax; they must
    # be the fields _FIELDS gives the format, and each slot one asm prints
    reg_bits = {"rd": 0x1F << 7, "rs1": 0x1F << 15, "rs2": 0x1F << 20}
    for fmt, f in isa.FORMATS.items():
        assert f.registers == sum(reg_bits.get(r, 0) for r in _FIELDS[fmt]), fmt
        assert f.csr == ("csr" in _FIELDS[fmt]), fmt
        assert set(f.slots) <= set(asm._PRINT), fmt


@generated(1000)
@given(st.sampled_from(_ROWS), st.integers(0, (1 << 32) - 1))
def test_the_words_of_a_row_decode_to_that_row_alone(name, noise):
    fmt, match = isa.INSTRUCTIONS[name]
    word = match | (noise & ~isa.FORMATS[fmt].mask)
    assert _accepting(word) == [name]
    assert isa.decode(word).mnemonic == name


def _fixed_point(name, fields):
    """encode -> decode -> format_instruction -> encode_instruction."""
    word = isa.encode(name, **fields)
    inst = isa.decode(word)
    assert (inst.mnemonic, {f: getattr(inst, f) for f in fields}) == (name, fields)
    text = asm.format_instruction(inst)
    assert asm.encode_instruction(text) == word, text


def _extremes(lo, hi, step):
    return sorted({lo, hi, max(lo, 0), min(step, hi)} | ({-step} if lo < 0 else set()))


def test_every_row_is_a_fixed_point_at_its_field_extremes():
    for name in _ROWS:
        spec = _spec(name)
        for values in itertools.product(*(_extremes(*r) for r in spec.values())):
            _fixed_point(name, dict(zip(spec, values)))


@st.composite
def _rows_with_fields(draw):
    name = draw(st.sampled_from(_ROWS))
    return name, {f: draw(st.integers(lo // step, hi // step)) * step
                  for f, (lo, hi, step) in _spec(name).items()}


@generated(1000)
@given(_rows_with_fields())
def test_drawn_fields_are_a_fixed_point(row):
    _fixed_point(*row)


def _rejected(name, field, value):
    """encode and the assembler both refuse one field out of range."""
    fields = {f: lo for f, (lo, _, _) in _spec(name).items()}
    fields[field] = value
    with pytest.raises(ValueError):
        isa.encode(name, **fields)
    text = asm.format_instruction(isa.DecodedInstruction(0, name, "", **fields))
    with pytest.raises(AsmError):
        asm.encode_instruction(text)


def test_one_step_past_each_range_raises():
    for name in _ROWS:
        for field, (lo, hi, step) in _spec(name).items():
            for value in (lo - step, hi + step) + ((lo + 1,) if step == 2 else ()):
                _rejected(name, field, value)


@generated(500)
@given(st.data())
def test_any_value_past_a_range_raises(data):
    name = data.draw(st.sampled_from([n for n in _ROWS if _spec(n)]))
    field, (lo, hi, step) = data.draw(st.sampled_from(sorted(_spec(name).items())))
    beyond = data.draw(st.integers(1, 1 << 40))
    _rejected(name, field, data.draw(st.sampled_from([lo - beyond, hi + beyond])))


_states = st.one_of(
    st.lists(st.integers(0, M64), min_size=25, max_size=25),
    st.sampled_from([[0] * 25, [M64] * 25]),
    st.builds(lambda lane, bit: [1 << bit if i == lane else 0 for i in range(25)],
              st.integers(0, 24), st.integers(0, 63)),
)


def _composed(lanes, r):
    return keccak.iota(keccak.chi(keccak.pi(keccak.rho(keccak.theta(lanes)))), r)


@generated(60)
@given(_states)
def test_round_and_shatr_match_the_composed_step_maps(state):
    m = Machine(memory_size=1 << 13)
    unit = attach(m)
    m.load_program(isa.encode("shatr", rs1=10).to_bytes(4, "little"))
    chained = state
    for r in range(24):
        want = _composed(state, r)
        assert keccak.keccak_round(state, r) == want
        unit.lanes, m.regs[10], m.pc = list(state), r, CODE_BASE
        m.step()
        assert unit.lanes == want
        chained = _composed(chained, r)
    assert keccak.keccak_f(state) == chained


def _loaded(strategy, message=MESSAGE, **machine_args):
    m = Machine(memory_size=MEM, **machine_args)
    if strategy == "shatr":
        attach(m)
    m.load_program(generate_kernel(strategy, "sha3-256"))
    m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
    m.regs[10] = len(message)
    return m


def _observed(m):
    lanes = m.round_unit.lanes if m.round_unit else None
    return (m.exit_status, m.pc, m.regs, m.emitted, m.stats.counts,
            m.stats.regions, m.stats.region_entry_count, lanes)


@pytest.fixture(scope="module", params=STRATEGIES)
def stepped(request):
    """A kernel run to its exit by step(), and the pc after each step."""
    m = _loaded(request.param)
    pcs = [m.pc]
    while not m.halted:
        m.step()
        pcs.append(m.pc)
    return request.param, m, pcs


def test_step_until_halt_matches_run(stepped):
    strategy, by_step, pcs = stepped
    by_run = _loaded(strategy)
    assert by_run.run() == 0
    assert _observed(by_step) == _observed(by_run)
    assert by_step.stats.total_retired == len(pcs) - 1


@generated(25)
@given(data=st.data())
def test_budget_stops_where_steps_reach(stepped, data):
    strategy, _, pcs = stepped
    retired = len(pcs) - 1
    n = data.draw(st.integers(0, retired + 2), label="max_instructions")
    m = _loaded(strategy)
    if n < retired:
        with pytest.raises(BudgetExceeded):
            m.run(max_instructions=n)
        assert (m.pc, m.stats.total_retired) == (pcs[n], n)
    else:
        assert m.run(max_instructions=n) == 0
        assert m.stats.total_retired == retired


def _ran(m):
    assert m.run() == 0
    return _observed(m)


def _fault(m, drive):
    """Drive m into its fault; returns the fault and what m shows after it."""
    with pytest.raises(EmulatorError) as e:
        drive(m)
    return type(e.value), str(e.value), _observed(m)


def _step_forever(m):
    while True:
        m.step()


def _enc(mnemonic, **fields):
    return isa.encode(mnemonic, **fields).to_bytes(4, "little")


DATA = 0x8000
# straight-line instructions that never fault: x5 holds DATA, x27 a value
# wider than any narrow store, x29 a valid round index, a7 a bad hypercall
# number; bne x0, x0 is never taken but still ends a block
_SAFE = st.sampled_from([
    _enc("addi", rd=6, rs1=6, imm=5),
    _enc("add", rd=8, rs1=6, rs2=9),
    _enc("xor", rd=9, rs1=8, rs2=6),
    _enc("add", rd=0, rs1=6, rs2=9),      # ALU writes to x0
    _enc("xori", rd=0, rs1=8, imm=-1),
    _enc("lui", rd=8, imm=0xFEDCB),
    # reads the register the instruction before it wrote
    _enc("addi", rd=7, rs1=6, imm=-3) + _enc("sub", rd=6, rs1=7, rs2=9),
    _enc("slli", rd=9, rs1=8, imm=13),
    _enc("srai", rd=8, rs1=9, imm=7),
    _enc("addiw", rd=6, rs1=8, imm=-1000),
    _enc("ld", rd=6, rs1=5, imm=8),
    _enc("lb", rd=9, rs1=5, imm=19),
    _enc("lh", rd=8, rs1=5, imm=-6),
    _enc("lwu", rd=6, rs1=5, imm=20),
    _enc("ld", rd=0, rs1=5, imm=16),      # a load into x0
    _enc("sd", rs1=5, rs2=8, imm=16),
    _enc("sb", rs1=5, rs2=27, imm=19),    # stores of a wider value
    _enc("sh", rs1=5, rs2=27, imm=-6),
    _enc("sw", rs1=5, rs2=27, imm=20),
    _enc("csrrw", rd=9, rs1=6, csr=isa.LANE_CSR_BASE + 3),
    _enc("shatr", rs1=29),
    _enc("bne", rs1=0, rs2=0, imm=8),
])
# x30 holds the end of memory, x31 CODE_BASE
_FAULTING = st.sampled_from([
    _enc("ld", rd=6, rs1=5, imm=4),       # misaligned load
    _enc("lw", rd=0, rs1=5, imm=2),       # misaligned load into x0
    _enc("sw", rs1=5, rs2=6, imm=2),      # misaligned store
    _enc("sd", rs1=31, rs2=6, imm=16),    # store into the loaded code
    _enc("ld", rd=6, rs1=30),             # load past the end of memory
    _enc("shatr", rs1=28),                # round index 99
    _enc("ecall"),                        # unknown hypercall 9
])
_MEMORY_SIZE = 1 << 16
_PROLOGUE = b"".join([
    _enc("lui", rd=5, imm=DATA >> 12),
    _enc("lui", rd=27, imm=0x87654), _enc("addi", rd=27, rs1=27, imm=0x321),
    _enc("lui", rd=30, imm=_MEMORY_SIZE >> 12),
    _enc("lui", rd=31, imm=CODE_BASE >> 12),
    _enc("addi", rd=28, imm=99),
    _enc("addi", rd=29, imm=3),
    _enc("addi", rd=10, imm=1), _enc("addi", rd=17, imm=1), _enc("ecall"),
    _enc("addi", rd=17, imm=9),
])
_cost_models = st.builds(CostModel, st.integers(0, 3), st.integers(0, 3),
                         st.integers(0, 5))


@generated(150)
@given(before=st.lists(_SAFE, max_size=12), fault=_FAULTING,
       after=st.lists(_SAFE, max_size=3))
def test_a_fault_inside_a_block_leaves_what_steps_leave(before, fault, after):
    code = _PROLOGUE + b"".join(before) + fault + b"".join(after) \
        + _enc("addi", rd=17) + _enc("ecall")

    def machine():
        m = Machine(memory_size=_MEMORY_SIZE)
        attach(m)
        m.load_program(code)
        return m

    stepped = _fault(machine(), _step_forever)
    assert _fault(machine(), Machine.run) == stepped
    assert stepped[2][1] == CODE_BASE + len(_PROLOGUE) + len(b"".join(before))
    assert stepped[2][2][0] == 0


def _mark(fn, rid):
    """The hypercall that begins (fn 1) or ends (fn 2) region rid."""
    return _enc("addi", rd=10, imm=rid) + _enc("addi", rd=17, imm=fn) + _enc("ecall")


_EXIT = _enc("addi", rd=17) + _enc("ecall")
# three instructions, one of each straight-line category
_WORK = (_enc("addi", rd=6, rs1=6, imm=5) + _enc("ld", rd=7, rs1=5, imm=8)
         + _enc("sd", rs1=5, rs2=6, imm=16))
_BASE = _enc("lui", rd=5, imm=DATA >> 12)


def _region_machine(code):
    m = Machine(memory_size=_MEMORY_SIZE)
    m.load_program(code)
    return m


@pytest.mark.parametrize("code, error, at, inside", [
    # a misaligned load two blocks into region 1
    (_BASE + _mark(1, 1) + _WORK + _enc("bne", rs1=0, rs2=0, imm=4) + _WORK
     + _enc("ld", rd=6, rs1=5, imm=4) + _WORK + _mark(2, 1) + _EXIT,
     MemoryFault, 11, 7),
    # region 1 begun again before its end
    (_BASE + _mark(1, 1) + _WORK + _mark(1, 1) + _EXIT, HypercallFault, 9, 5),
], ids=["load-fault", "begun-twice"])
def test_a_fault_inside_a_region_leaves_what_steps_leave(code, error, at, inside):
    # the fault is instruction `at`; region 1 keeps the `inside`
    # instructions that retired after its begin ecall and before the fault
    stepped = _fault(_region_machine(code), _step_forever)
    assert _fault(_region_machine(code), Machine.run) == stepped
    kind, _, (_, pc, *_, regions, entries, _) = stepped
    assert (kind, pc - CODE_BASE) == (error, 4 * at)
    assert sum(regions[1].values()) == inside and entries == {1: 1}


_SPAN = _BASE + _mark(1, 1) + _WORK * 4 + _mark(2, 1) + _EXIT


# from the begin ecall's block (instructions 0 to 3) to all but the end
# ecall, instruction 18: region 1 is open at each of these budgets
@pytest.mark.parametrize("budget", range(4, 19))
def test_a_budget_stop_inside_a_region_reads_what_steps_read(budget):
    ran = _region_machine(_SPAN)
    with pytest.raises(BudgetExceeded):
        ran.run(max_instructions=budget)
    stepped = _region_machine(_SPAN)
    for _ in range(budget):
        stepped.step()
    assert _observed(ran) == _observed(stepped)
    assert sum(ran.stats.regions[1].values()) == budget - 4
    # the run goes on from where the budget stopped it, inside the region
    whole = _region_machine(_SPAN)
    assert ran.run() == whole.run()
    assert _observed(ran) == _observed(whole)


@pytest.mark.parametrize("strategy", STRATEGIES)
@generated(4)
@given(message=st.binary(max_size=300))
def test_a_filled_cache_runs_like_a_private_one(strategy, message):
    shared = Translations()
    _ran(_loaded(strategy, translations=shared))
    assert _ran(_loaded(strategy, message, translations=shared)) \
        == _ran(_loaded(strategy, message))


def test_more_machines_on_a_shared_cache_build_no_blocks():
    shared = Translations()
    translate = Machine._translate
    built = []

    def counted(self, *args):
        built.append(args[0])
        return translate(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Machine, "_translate", counted)
        _ran(_loaded("shatr", translations=shared))
        blocks = len(built)
        assert blocks
        for _ in range(2):
            _ran(_loaded("shatr", translations=shared))
        assert len(built) == blocks


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_word_the_cache_holds_is_decoded_once(strategy):
    # a block's backward branch target comes from the words cache, so
    # translating a block decodes no word a second time
    shared = Translations()
    m = _loaded(strategy, b"abc", translations=shared)
    decode, decoded = isa.decode, []

    def counted(word):
        decoded.append(word)
        return decode(word)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isa, "decode", counted)
        _ran(m)
    assert len(decoded) == len(shared.words)


@pytest.mark.parametrize("strategy", STRATEGIES)
@generated(5)
@given(message=st.binary(max_size=300), cost_model=_cost_models)
def test_total_cycles_is_the_closed_form_of_the_counts(
        strategy, message, cost_model):
    m = _loaded(strategy, message)
    assert m.run() == 0
    counts = m.stats.counts
    base = cost_model.base_cycles_per_instruction
    extra = cost_model.extra_mem_access_cycles
    shatr = cost_model.shatr_cycles
    assert cost_model.cycles(counts) == (
        base * m.stats.total_retired
        + extra * (counts["mem_read"] + counts["mem_write"])
        + (shatr - base) * counts["custom"])


SHATR_FIRST = b"".join([_enc("addi", rd=10), _enc("shatr", rs1=10),
                        _enc("addi", rd=17), _enc("ecall")])


@pytest.mark.parametrize("program, error, pc", [
    (generate_kernel("shatr", "sha3-256").code, CsrFault, None),
    (SHATR_FIRST, DecodeError, CODE_BASE + 4),
], ids=["shatr-kernel", "shatr-first"])
def test_a_stock_machine_never_runs_a_units_translations(program, error, pc):
    # the shatr kernel writes a lane CSR before its first shatr
    def machine(**machine_args):
        m = Machine(memory_size=MEM, **machine_args)
        m.load_program(program)
        return m

    shared = Translations()
    attached = machine(translations=shared)
    attach(attached)
    assert attached.run() == 0
    alone = _fault(machine(), Machine.run)
    assert _fault(machine(translations=shared), Machine.run) == alone
    assert alone[0] is error
    if pc is not None:
        assert alone[2][1] == pc


def test_attach_after_load_routes_the_lane_csrs_on_a_shared_cache():
    shared = Translations()
    kernel = generate_kernel("shatr", "sha3-256")
    stock = Machine(memory_size=MEM, translations=shared)
    stock.load_program(kernel)
    with pytest.raises(CsrFault):
        stock.run()
    late = Machine(memory_size=MEM, translations=shared)
    late.load_program(kernel)
    attach(late)
    late.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(MESSAGE)] = MESSAGE
    late.regs[10] = len(MESSAGE)
    assert _ran(late) == _ran(_loaded("shatr"))


# -- fused idioms against stepping ------------------------------------------

# registers a triple may name: x0 and four others, so that the operands of
# one triple often coincide; x5 holds DATA and a0/a7 drive the hypercalls
_TRIPLE_REGS = st.sampled_from([0, 6, 7, 8, 9])


@st.composite
def _rotates(draw):
    """srli T, A, k; slli A, A, 64-k; or A, A, T, or a near miss of it: a
    mismatched slli amount, the or written `or A, T, A`, T == A, or x0 as
    T, A or both."""
    t, a = draw(_TRIPLE_REGS), draw(_TRIPLE_REGS)
    k = draw(st.one_of(st.sampled_from([1, 63]), st.integers(1, 63)))
    back = draw(st.sampled_from([64 - k, 64 - k, (64 - k) % 63 + 1]))
    swap = draw(st.booleans())
    return (_enc("srli", rd=t, rs1=a, imm=k) + _enc("slli", rd=a, rs1=a, imm=back)
            + _enc("or", rd=a, rs1=t if swap else a, rs2=a if swap else t))


@st.composite
def _and_nots(draw):
    """xori T, N1, -1; and T, T, N2; xor D, D, T, or a near miss of it:
    another immediate or swapped operands; any of T == N2, D == T,
    D == N1 and x0 operands."""
    t, n1, n2, d = (draw(_TRIPLE_REGS) for _ in range(4))
    imm = draw(st.sampled_from([-1, -1, -1, -2]))
    swap_and, swap_xor = draw(st.booleans()), draw(st.booleans())
    return (_enc("xori", rd=t, rs1=n1, imm=imm)
            + _enc("and", rd=t, rs1=n2 if swap_and else t, rs2=t if swap_and else n2)
            + _enc("xor", rd=d, rs1=t if swap_xor else d, rs2=d if swap_xor else t))


# single instructions between triples shift where a run's triples start;
# the branch is never taken but ends a block, splitting a triple
_BETWEEN = st.one_of(
    st.builds(lambda rd, rs1: _enc("addi", rd=rd, rs1=rs1, imm=3),
              _TRIPLE_REGS, _TRIPLE_REGS),
    st.builds(lambda rd, i: _enc("ld", rd=rd, rs1=5, imm=8 * i),
              _TRIPLE_REGS, st.integers(0, 3)),
    st.builds(lambda rs2, i: _enc("sd", rs1=5, rs2=rs2, imm=8 * i),
              _TRIPLE_REGS, st.integers(0, 3)),
    st.just(_enc("bne", rs1=0, rs2=0, imm=4)),
)


@generated(300)
@given(pieces=st.lists(st.one_of(_rotates(), _and_nots(), _BETWEEN), max_size=12),
       values=st.lists(st.integers(0, M64), min_size=4, max_size=4),
       marks=st.lists(st.integers(0, 12), min_size=2, max_size=2))
def test_fused_idioms_run_like_steps(pieces, values, marks):
    # region 1 holds the pieces; region 2 begins and ends at drawn places
    # among them, where its ecalls split runs and triples
    begin, end = sorted(min(i, len(pieces)) for i in marks)
    code = b"".join([
        _BASE, _mark(1, 1),
        *pieces[:begin], _mark(1, 2), *pieces[begin:end], _mark(2, 2),
        *pieces[end:],
        _mark(2, 1), _EXIT,
    ])

    def machine():
        m = Machine(memory_size=_MEMORY_SIZE)
        m.load_program(code)
        m.memory[DATA:DATA + 32] = bytes(range(7, 39))
        for r, v in zip((6, 7, 8, 9), values):
            m.regs[r] = v
        return m

    stepped = machine()
    while not stepped.halted:
        stepped.step()
    ran = machine()
    ran.run()
    assert _observed(ran) + (ran.memory,) == _observed(stepped) + (stepped.memory,)


def test_every_variant_shares_the_fused_entries_of_one_cache():
    shared = Translations()
    tables, keys = [], []
    with mock.patch.object(emulator, "_fuse", wraps=emulator._fuse) as fuse, \
            mock.patch.object(emulator, "_run", wraps=emulator._run) as run:
        for variant in ("sha3-256", "sha3-224", "sha3-384", "sha3-512"):
            m = Machine(memory_size=MEM, translations=shared)
            m.load_program(generate_kernel("sw-regopt", variant))
            assert m.run() == 0
            tables.append(shared.blocks(m._code, False))
            keys.append(set(shared.runs))
    # each distinct run is fused and interpreted once, whatever holds it
    assert fuse.call_count == run.call_count == len(shared.runs)
    assert {c.args[0] for c in fuse.call_args_list} == set(shared.runs)
    # the permutation run, the longest, has one executor, and the block
    # holding it in each variant's table holds that very object
    executor = shared.runs[max(shared.runs, key=len)]
    assert len({id(table) for table in tables}) == 4
    for table in tables:
        assert any(ex is executor for block in table.values()
                   for ex in block.executors)
    fused = [{e for key in k for e in emulator._fuse(key)
              if e and e[0] in (emulator._ROT, emulator._ANDN)} for k in keys]
    assert {e[0] for e in fused[0]} == {emulator._ROT, emulator._ANDN}
    # the permutation's triples are the same in every variant's kernel
    assert fused == fused[:1] * 4


# -- the memory path against a reference model -----------------------------

# (width in bytes, signed) of every load, written from the RISC-V
# unprivileged spec; stores write the low `width` bytes of rs2
LOAD_SPEC = {"lb": (1, True), "lh": (2, True), "lw": (4, True),
             "ld": (8, True), "lbu": (1, False), "lhu": (2, False),
             "lwu": (4, False)}
STORE_SPEC = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}
ADDRESS_CLASSES = ("aligned", "misaligned", "last-slot", "straddles-end",
                   "2**63", "x0-minus-size", "in-code")
# registers an access may name: all but a7, which must read 0 (exit) at
# the ecall after the access
_ACCESS_REGS = st.sampled_from([r for r in range(1, 32) if r != 17])


def _reference_access(mnemonic, rd, rs1, rs2, imm, regs, memory, code_end):
    """One load or store by the spec, with int.from_bytes/to_bytes; returns
    the fault message, or None after updating regs and memory in place."""
    store = mnemonic in STORE_SPEC
    size, signed = (STORE_SPEC[mnemonic], False) if store \
        else LOAD_SPEC[mnemonic]
    kind = "store" if store else "load"
    addr = (regs[rs1] + imm) % (1 << 64)
    where = f"at {addr:#x} (pc={CODE_BASE:#x})"
    if addr % size:
        return f"misaligned {size}-byte {kind} {where}"
    if addr + size > len(memory):
        return f"{kind} outside memory {where}"
    if store and addr < code_end and addr + size > CODE_BASE:
        return f"store into loaded code {where}"
    if store:
        memory[addr:addr + size] = \
            (regs[rs2] % (1 << 8 * size)).to_bytes(size, "little")
    elif rd:
        regs[rd] = int.from_bytes(memory[addr:addr + size], "little",
                                  signed=signed) % (1 << 64)
    return None


def _address(data, cls, size, memory_size, code_end):
    """An address of class `cls` for a `size`-byte access."""
    last = (memory_size - size) // size * size
    if cls == "aligned":
        return data.draw(st.integers(0, last // size)) * size
    if cls == "misaligned":  # a byte access never is
        offset = data.draw(st.integers(1, size - 1)) if size > 1 else 0
        return data.draw(st.integers(0, last // size)) * size + offset
    if cls == "last-slot":
        return last
    if cls == "straddles-end":  # or starts at it, when size divides it
        return last + size
    if cls == "2**63":
        return (1 << 63) + data.draw(st.integers(0, 4)) * size
    if cls == "in-code":
        return data.draw(st.integers(CODE_BASE // size,
                                     (code_end - 1) // size)) * size
    raise ValueError(cls)


@pytest.mark.parametrize("cls", ADDRESS_CLASSES)
@pytest.mark.parametrize("mnemonic", [*LOAD_SPEC, *STORE_SPEC])
@generated(12)
@given(data=st.data())
def test_memory_access_matches_the_reference(mnemonic, cls, data):
    store = mnemonic in STORE_SPEC
    size = STORE_SPEC[mnemonic] if store else LOAD_SPEC[mnemonic][0]
    # 3 words of code end at CODE_BASE + 12, which is not 8-aligned, and
    # memory may end right there
    words = data.draw(st.sampled_from([2, 3]), label="code words")
    code_end = CODE_BASE + 4 * words
    memory_size = code_end + data.draw(st.integers(0, 40), label="spare")
    rd = data.draw(st.one_of(st.just(0), _ACCESS_REGS), label="rd")
    rs2 = data.draw(_ACCESS_REGS, label="rs2")
    if cls == "x0-minus-size":
        rs1, imm = 0, -size
    else:
        rs1 = data.draw(_ACCESS_REGS, label="rs1")
        imm = data.draw(st.integers(-2048, 2047), label="imm")
    if store:
        access = _enc(mnemonic, rs1=rs1, rs2=rs2, imm=imm)
    else:
        access = _enc(mnemonic, rd=rd, rs1=rs1, imm=imm)
    code = access + _enc("ecall") + _enc("addi", rd=0) * (words - 2)

    m = Machine(memory_size=memory_size)
    m.memory[:] = bytes((151 * i + 7) & 0xFF for i in range(memory_size))
    m.load_program(code)
    m.regs[rs2] = data.draw(st.integers(0, M64), label="rs2 value")
    if rs1:
        addr = _address(data, cls, size, memory_size, code_end)
        m.regs[rs1] = (addr - imm) % (1 << 64)
    regs, memory = list(m.regs), bytearray(m.memory)

    fault = _reference_access(mnemonic, rd, rs1, rs2, imm, regs, memory,
                              code_end)
    if fault is None:
        m.run()
        assert (m.pc, m.stats.total_retired) == (CODE_BASE + 8, 2)
    else:
        with pytest.raises(EmulatorError) as e:
            m.run()
        assert (type(e.value), str(e.value)) == (MemoryFault, fault)
        assert (m.pc, m.stats.total_retired) == (CODE_BASE, 0)
    assert m.regs == regs
    assert m.memory == memory


# -- the compiled tier against the interpreter ------------------------------

@pytest.fixture
def compiled_tier(monkeypatch):
    """Every straight-line run, loop bodies too, compiles on its first call."""
    monkeypatch.setattr(emulator, "_HOT", 1)
    monkeypatch.setattr(emulator, "_HOT_LOOP", 1)


def test_step_until_halt_matches_a_compiled_run(compiled_tier, stepped):
    test_step_until_halt_matches_run(stepped)


def test_budget_stops_where_steps_reach_when_compiled(compiled_tier, stepped):
    test_budget_stops_where_steps_reach(stepped)


def test_a_fault_inside_a_compiled_block_leaves_what_steps_leave(compiled_tier):
    test_a_fault_inside_a_block_leaves_what_steps_leave()


def test_fused_idioms_compiled_run_like_steps(compiled_tier):
    test_fused_idioms_run_like_steps()


def test_blocks_keep_their_executors_when_runs_compile(compiled_tier):
    # every run compiles on its first call, from the unfused run it is keyed
    # by, and no block changes for it: each holds the tuple it was built
    # with, with the same executors
    built = []
    block = emulator._block

    def spy(executors, categories):
        b = block(executors, categories)
        built.append((b, b.executors, list(b.executors)))
        return b

    shared = Translations()
    with mock.patch.object(emulator, "_block", spy), \
            mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        first = _loaded("sw-mem", translations=shared)
        assert first.run() == 0
        table = shared.blocks(first._code, False)
        before = {pc: b.executors for pc, b in table.items()}
        assert _loaded("sw-mem", translations=shared).run() == 0
    assert compile_.call_count == len(shared.runs) > 0
    assert all(type(run) is tuple and run in shared.runs
               for (run,), _ in compile_.call_args_list)
    assert all(type(b.executors) is tuple for b in table.values())
    assert all(table[pc].executors is ex for pc, ex in before.items())
    for b, executors, contents in built:
        assert b.executors is executors and list(executors) == contents


@pytest.mark.parametrize("cls", ADDRESS_CLASSES)
@pytest.mark.parametrize("mnemonic", [*LOAD_SPEC, *STORE_SPEC])
def test_compiled_memory_access_matches_the_reference(compiled_tier, mnemonic, cls):
    test_memory_access_matches_the_reference(mnemonic, cls)


TABLE = 0x9000
# values of the base registers x5..x7: valid, misaligned, past the end,
# negative-wrapping and into the code; each but the first fails the guard
# of a segment it is a base in. A negative-wrapping base plus a positive
# offset wraps to a low address the interpreter reaches, which the guard
# refuses all the same
_BASE_VALUES = st.one_of(
    st.integers(0, 8).map(lambda i: DATA + 8 * i),
    st.integers(1, 71).filter(lambda i: i % 8).map(lambda i: DATA + i),
    st.integers(0, 3).map(lambda i: _MEMORY_SIZE - 8 * i),
    st.integers(1, 3).map(lambda i: (1 << 64) - 8 * i),
    st.integers(0, 2).map(lambda i: CODE_BASE + 8 * i),
)
_GUARD_BASES = st.sampled_from([5, 6, 7])
_GUARD_ACCESSES = ("ld", "lw", "lhu", "lb", "sd", "sw", "sh", "sb")


@st.composite
def _guarded_accesses(draw):
    """A load or store from x5..x7, mostly at an offset aligned to it."""
    mnemonic = draw(st.sampled_from(_GUARD_ACCESSES))
    base = draw(_GUARD_BASES)
    offset = draw(st.sampled_from([-16, -8, 0, 0, 8, 16, 2, 1]))
    if mnemonic[0] == "s":
        return _enc(mnemonic, rs1=base, rs2=draw(st.sampled_from([0, 18, 19])),
                    imm=offset)
    return _enc(mnemonic, rd=draw(st.sampled_from([0, 18, 19, 20])), rs1=base,
                imm=offset)


# a write to a base starts a new segment: a step or a load of a new base
# from the table at x9
_REBASES = st.one_of(
    st.builds(lambda b, imm: _enc("addi", rd=b, rs1=b, imm=imm),
              _GUARD_BASES, st.sampled_from([8, -8, 2047])),
    st.builds(lambda b, i: _enc("ld", rd=b, rs1=9, imm=8 * i),
              _GUARD_BASES, st.integers(0, 7)),
)
_NOP = _enc("add", rd=0, rs1=18, rs2=19)
_GUARD_ALU = st.sampled_from([
    _enc("xor", rd=18, rs1=18, rs2=19), _enc("addi", rd=19, rs1=18, imm=-3),
    _enc("sub", rd=20, rs1=19, rs2=18), _enc("slli", rd=19, rs1=20, imm=9),
    _enc("sra", rd=20, rs1=18, rs2=19), _NOP,
])


@generated(300)
@given(pieces=st.lists(st.one_of(_guarded_accesses(), _REBASES, _GUARD_ALU),
                       min_size=1, max_size=16),
       nop_at=st.integers(0, 16),
       bases=st.lists(_BASE_VALUES, min_size=3, max_size=3),
       table=st.lists(_BASE_VALUES, min_size=8, max_size=8),
       values=st.lists(st.integers(0, M64), min_size=3, max_size=3))
def test_compiled_guards_hand_back_what_the_interpreter_does(
        pieces, nop_at, bases, table, values):
    # the run twice, each a block of its own, the second with one more
    # empty slot: the same work, in functions that end at different pcs
    again = pieces[:nop_at] + [_NOP] + pieces[nop_at:]
    block_end = _enc("bne", rs1=0, rs2=0, imm=4)
    code = b"".join([*pieces, block_end, *again, block_end,
                     _enc("addi", rd=17), _enc("ecall")])

    def machine():
        m = Machine(memory_size=_MEMORY_SIZE)
        m.load_program(code)
        m.memory[DATA - 16:DATA + 96] = bytes(range(101, 213))
        for i, value in enumerate(table):
            m.memory[TABLE + 8 * i:TABLE + 8 * i + 8] = value.to_bytes(8, "little")
        for r, value in zip((5, 6, 7, 9, 18, 19, 20), [*bases, TABLE, *values]):
            m.regs[r] = value
        return m

    def outcome(m, drive):
        try:
            drive(m)
        except EmulatorError as e:
            return type(e), str(e), _observed(m), bytes(m.memory)
        return None, None, _observed(m), bytes(m.memory)

    def steps(m):
        while not m.halted:
            m.step()

    stepped = outcome(machine(), steps)
    with mock.patch.object(emulator, "_HOT", 1 << 62), \
            mock.patch.object(emulator, "_compile", wraps=emulator._compile) as cold:
        assert outcome(machine(), Machine.run) == stepped
    with mock.patch.object(emulator, "_HOT", 1), \
            mock.patch.object(emulator, "_compile", wraps=emulator._compile) as hot:
        assert outcome(machine(), Machine.run) == stepped
    assert hot.call_count >= 1
    assert cold.call_count == 0


# a run that reloads bytes it has just loaded or stored, through another
# base register (x6, at x5 + 0, + 4 or + 8) or at another width through
# the same one: a compiled run must read what memory holds, so overlapping
# bases hand the segment back, a store forgets what it overlaps and a
# narrow store's value is reloaded masked to its width
_ALIASED = (_enc("lw", rd=18, rs1=6) + _enc("sd", rs1=5, rs2=19)
            + _enc("lw", rd=20, rs1=6))
# x20 reads x19 through a stored and reloaded doubleword; once that fact
# is gone (a later store, or the next segment), a new x20 or x19 must not
# land in the local that the other still holds
_REUSED = (_enc("sd", rs1=5, rs2=19) + _enc("ld", rd=20, rs1=5)
           + _enc("sd", rs1=5, rs2=21))
_RENAMED = _enc("addi", rd=20, rs1=20, imm=1) + _enc("add", rd=22, rs1=19)


@pytest.mark.parametrize("code, x6", [
    (_ALIASED, DATA),
    (_ALIASED, DATA + 4),
    (_ALIASED, DATA + 8),
    (_enc("sd", rs1=5, rs2=19) + _enc("lw", rd=20, rs1=5), DATA),
    (_enc("sd", rs1=5, rs2=19) + _enc("lbu", rd=20, rs1=5), DATA),
    (_enc("sd", rs1=5, rs2=19) + _enc("lb", rd=20, rs1=5, imm=7), DATA),
    (_enc("ld", rd=18, rs1=5) + _enc("sb", rs1=5, rs2=19, imm=3)
     + _enc("ld", rd=20, rs1=5), DATA),
    (_enc("sw", rs1=5, rs2=19, imm=4) + _enc("lwu", rd=20, rs1=5, imm=4)
     + _enc("add", rd=21, rs1=19), DATA),
    (_REUSED + _RENAMED, DATA),
    (_REUSED + _enc("addi", rd=19, rs1=19, imm=1) + _enc("add", rd=22, rs1=20),
     DATA),
    (_enc("sd", rs1=5, rs2=19) + _enc("ld", rd=20, rs1=5)
     + _enc("addi", rd=5, rs1=5) + _enc("ld", rd=23, rs1=5, imm=8) + _RENAMED,
     DATA),
], ids=["alias", "alias-overlapping", "disjoint", "sd-lw", "sd-lbu", "sd-lb",
        "sb-ld", "sw-lwu", "renamed-after-store", "source-renamed-after-store",
        "renamed-next-segment"])
def test_reloads_in_a_compiled_run_read_what_steps_read(compiled_tier, code, x6):
    _reloads_read_what_steps_read(code, x6)


def _reloads_read_what_steps_read(code, x6):
    def machine():
        m = _region_machine(code + _EXIT)
        m.memory[DATA:DATA + 16] = bytes(range(0x81, 0x91))
        m.regs[5:7] = DATA, x6
        m.regs[19] = 0xF0E1D2C3B4A59687
        return m

    stepped = machine()
    while not stepped.halted:
        stepped.step()
    with mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        ran = machine()
        ran.run()
    assert compile_.call_count == 1
    assert _observed(ran) + (ran.memory,) == _observed(stepped) + (stepped.memory,)


_REGS = st.sampled_from([18, 19, 20])
# accesses through x5 alone at two offsets, so that most loads reload a
# value the segment holds, between writes that move a register out of the
# local it shared and rebases that start a new segment
_FORWARDS = st.one_of(
    st.builds(lambda name, rd, imm: _enc(name, rd=rd, rs1=5, imm=imm),
              st.sampled_from(["ld", "lwu", "lbu", "lw"]), _REGS, st.sampled_from([0, 8])),
    st.builds(lambda name, rs2, imm: _enc(name, rs1=5, rs2=rs2, imm=imm),
              st.sampled_from(["sd", "sw", "sb"]), _REGS, st.sampled_from([0, 8])),
    st.builds(lambda rd, rs1: _enc("addi", rd=rd, rs1=rs1, imm=1), _REGS, _REGS),
    st.just(_enc("addi", rd=5, rs1=5)),
)


@generated(300)
@given(pieces=st.lists(_FORWARDS, min_size=1, max_size=16))
def test_drawn_reloads_in_a_compiled_run_read_what_steps_read(pieces):
    with mock.patch.object(emulator, "_HOT", 1):
        _reloads_read_what_steps_read(b"".join(pieces), DATA)


def test_a_loop_entry_and_its_back_edge_share_one_body():
    # the round loop's entry block holds the prologue as a run of its own,
    # then the round, which is the back-edge block's run
    shared = Translations()
    image = generate_kernel("sw-mem", "sha3-256")
    m = Machine(memory_size=MEM, translations=shared)
    m.load_program(image)
    assert m.run() == 0
    lengths = sorted(map(len, shared.runs))
    assert lengths[-1] == 460 and 468 not in lengths
    body = shared.runs[max(shared.runs, key=len)]
    table = shared.blocks(m._code, False)
    holders = sorted(pc for pc, b in table.items() if body in b.executors)
    assert len(holders) == 2 and holders[0] < holders[1] == image.symbols["mem_round"]


# 200 rounds of a 5-entry loop body that the block of a 2-entry prologue
# enters mid-block: x5 counts down, x6 steps, x9 sums x6 through memory
_MID_BLOCK_LOOP = b"".join([
    _enc("addi", rd=5, imm=200),
    _enc("lui", rd=7, imm=DATA >> 12),
    _enc("addi", rd=6, rs1=6, imm=7),
    _enc("sd", rs1=7, rs2=6, imm=8),
    _enc("ld", rd=8, rs1=7, imm=8),
    _enc("add", rd=9, rs1=9, rs2=8),
    _enc("addi", rd=5, rs1=5, imm=-1),
    _enc("bne", rs1=5, rs2=0, imm=-20),
]) + _EXIT


def test_a_loop_that_starts_mid_block_runs_like_steps():
    stepped = _region_machine(_MID_BLOCK_LOOP)
    while not stepped.halted:
        stepped.step()
    shared = Translations()
    ran = Machine(memory_size=_MEMORY_SIZE, translations=shared)
    ran.load_program(_MID_BLOCK_LOOP)
    with mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        ran.run()
    assert sorted(map(len, shared.runs)) == [1, 2, 5]
    assert 5 in [len(run) for (run,), _ in compile_.call_args_list]
    assert _observed(ran) + (ran.memory,) == _observed(stepped) + (stepped.memory,)
    assert ran.regs[9] == 7 * 200 * 201 // 2


@pytest.fixture
def shipped_thresholds(monkeypatch):
    """_HOT and _HOT_LOOP as emulator.py sets them, where a caller has
    forced them too: read off a fresh copy of the module."""
    spec = importlib.util.find_spec("shatrv.emulator")
    shipped = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shipped)
    for name in ("_HOT", "_HOT_LOOP"):
        monkeypatch.setattr(emulator, name, getattr(shipped, name))


def test_a_bundled_bench_compiles_the_round_and_not_the_permutation(
        shipped_thresholds):
    # sw-regopt's 5,600-entry straight-line permutation runs fewer times
    # than _HOT in one bundled bench call; sw-mem's round loop reaches
    # _HOT_LOOP
    sets = [load_bundled(v, c) for v in keccak.VARIANTS for c in BUNDLED_CLASSES]
    with mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
        run_benchmark(sets)
    lengths = [len(run) for (run,), _ in compile_.call_args_list]
    assert 460 in lengths and max(lengths) < 5600


# -- ALU executors against the spec -----------------------------------------

def _sx(value, bits):
    """The low `bits` bits of value as a two's-complement integer."""
    value %= 1 << bits
    return value - (1 << bits) if value >> (bits - 1) else value


def _w(value):
    """An RV64 W-form result: the low 32 bits, sign-extended to 64."""
    return _sx(value, 32) % (1 << 64)


# rd from the rs1 value a and the rs2 value b, by the RISC-V unprivileged
# spec (RV32I and RV64I integer computational instructions): shifts by a
# register use its low 6 bits, or 5 for the W-forms
REG_SPEC = {
    "add": lambda a, b: (a + b) % (1 << 64),
    "sub": lambda a, b: (a - b) % (1 << 64),
    "sll": lambda a, b: (a << (b % 64)) % (1 << 64),
    "slt": lambda a, b: int(_sx(a, 64) < _sx(b, 64)),
    "sltu": lambda a, b: int(a < b),
    "xor": lambda a, b: a ^ b,
    "srl": lambda a, b: a >> (b % 64),
    "sra": lambda a, b: (_sx(a, 64) >> (b % 64)) % (1 << 64),
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "addw": lambda a, b: _w(a + b),
    "subw": lambda a, b: _w(a - b),
    "sllw": lambda a, b: _w(a << (b % 32)),
    "srlw": lambda a, b: _w((a % (1 << 32)) >> (b % 32)),
    "sraw": lambda a, b: _w(_sx(a, 32) >> (b % 32)),
}
# rd from the rs1 value a and the sign-extended 12-bit immediate i, or the
# shift amount (0..63, or 0..31 for the W-forms); sltiu and the logical
# forms see i as its 64-bit image
IMM_SPEC = {
    "addi": lambda a, i: (a + i) % (1 << 64),
    "slti": lambda a, i: int(_sx(a, 64) < i),
    "sltiu": lambda a, i: int(a < i % (1 << 64)),
    "xori": lambda a, i: a ^ (i % (1 << 64)),
    "ori": lambda a, i: a | (i % (1 << 64)),
    "andi": lambda a, i: a & (i % (1 << 64)),
    "slli": lambda a, i: (a << i) % (1 << 64),
    "srli": lambda a, i: a >> i,
    "srai": lambda a, i: (_sx(a, 64) >> i) % (1 << 64),
    "addiw": lambda a, i: _w(a + i),
    "slliw": lambda a, i: _w(a << i),
    "srliw": lambda a, i: _w((a % (1 << 32)) >> i),
    "sraiw": lambda a, i: _w(_sx(a, 32) >> i),
}
SHIFT_BITS = {"slli": 64, "srli": 64, "srai": 64,
              "slliw": 32, "srliw": 32, "sraiw": 32}
_operands = st.one_of(
    st.sampled_from([0, 1, 31, 32, 63, 64, (1 << 31) - 1, 1 << 31,
                     (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63, M64]),
    st.integers(0, M64))


def _alu(word, a, b=0):
    """rd of `word` (rd x7, rs1 x5, rs2 x6) with x5 = a, x6 = b, run inside
    a straight-line run that writes its operands just before it and reads
    its result just after it."""
    m = Machine(memory_size=1 << 13)
    m.load_program(b"".join([
        _enc("add", rd=5, rs1=15), _enc("or", rd=6, rs1=16), word,
        _enc("xor", rd=8, rs1=7), _enc("ecall")]))
    m.regs[15], m.regs[16] = a, b
    assert m.run() == 0
    assert m.regs[8] == m.regs[7]
    return m.regs[7]


@pytest.mark.parametrize("mnemonic", REG_SPEC)
@generated(40)
@given(a=_operands, b=_operands)
@example(a=M64, b=31)
@example(a=M64, b=32)
@example(a=(1 << 63) | 5, b=63)
@example(a=(1 << 31) | 5, b=M64)
def test_register_alu_matches_the_spec(mnemonic, a, b):
    word = _enc(mnemonic, rd=7, rs1=5, rs2=6)
    assert _alu(word, a, b) == REG_SPEC[mnemonic](a, b)


@pytest.mark.parametrize("mnemonic", IMM_SPEC)
@generated(40)
@given(a=_operands, imm=st.integers(-2048, 2047))
@example(a=M64, imm=31)
@example(a=(1 << 63) | (1 << 31) | 5, imm=32)
@example(a=(1 << 63) | (1 << 31) | 5, imm=63)
@example(a=0x0123456789ABCDEF, imm=-1)
@example(a=0x0123456789ABCDEF, imm=-2048)
@example(a=1 << 63, imm=-1366)
def test_immediate_alu_matches_the_spec(mnemonic, a, imm):
    if mnemonic in SHIFT_BITS:
        imm %= SHIFT_BITS[mnemonic]
    word = _enc(mnemonic, rd=7, rs1=5, imm=imm)
    assert _alu(word, a) == IMM_SPEC[mnemonic](a, imm)


# The assembler memoises each statement's words for the life of the process.
# Sources mix every statement kind the memo holds (ALU ops, loads, stores, li
# and pseudo-instructions) with the branches and jumps it leaves to the second
# pass, to labels and to numeric offsets.

_REGS = st.sampled_from([f"x{i}" for i in range(32)] + ["zero", "ra", "sp", "a0", "t6", "s11", "fp"])
_LABELS = ("L0", "L1", "L2")


def _fmt(template, *parts):
    return st.tuples(*parts).map(lambda p: template.format(*p))


def _named(*formats):
    """The mnemonics of these isa formats."""
    return st.sampled_from(sorted(name for name, (fmt, _) in isa.INSTRUCTIONS.items()
                                  if fmt in formats))


def _statements(targets, jal_targets):
    return st.one_of(
        _fmt("{} {}, {}, {}", _named("R"), _REGS, _REGS, _REGS),
        _fmt("{} {}, {}, {}", _named("I"), _REGS, _REGS, st.integers(-2048, 2047)),
        _fmt("{} {}, {}, {}", _named("shift6"), _REGS, _REGS, st.integers(0, 63)),
        _fmt("{} {}, {}, {}", _named("shift5"), _REGS, _REGS, st.integers(0, 31)),
        _fmt("{} {}, {}({})", _named("load", "store"),
             _REGS, st.integers(-2048, 2047), _REGS),
        _fmt("li {}, {}", _REGS, st.integers(-(1 << 63), (1 << 64) - 1).flatmap(
            lambda v: st.sampled_from([str(v), hex(v)]))),
        st.sampled_from(["nop", "ret", "ecall"]),
        _fmt("mv {}, {}", _REGS, _REGS),
        _fmt("{} {}, {}, {}", _named("branch"), _REGS, _REGS, targets),
        _fmt("jal {}, {}", _REGS, jal_targets),
        _fmt("j {}", jal_targets),
    )


_label_free = _statements(st.integers(-2048, 2047).map(lambda k: 2 * k),
                          st.integers(-(1 << 19), (1 << 19) - 1).map(lambda k: 2 * k))
_any_statement = _statements(
    st.one_of(st.sampled_from(_LABELS), st.integers(-64, 63).map(lambda k: 2 * k)),
    st.one_of(st.sampled_from(_LABELS), st.integers(-64, 63).map(lambda k: 2 * k)))


@st.composite
def _programs(draw):
    lines = draw(st.lists(_any_statement, min_size=1, max_size=30))
    lines = [line + draw(st.sampled_from(["", "  # note"])) for line in lines]
    for label in _LABELS:
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [f"{label}:"] if draw(st.booleans()) else [f"{label}: nop"]
    if draw(st.booleans()):
        lines += [".data", ".org 0x8000", "table: .dword 1, -1", ".text", "addi x1, x1, 1"]
    return "".join(line + "\n" for line in lines)


def _without_memo(source):
    with mock.patch.object(asm, "_statement_words", asm._statement_words.__wrapped__):
        return assemble(source)


@generated(150)
@given(_programs())
def test_a_warm_memo_assembles_like_a_cold_one(source):
    reference = _without_memo(source)
    asm._statement_words.cache_clear()
    assert assemble(source) == reference        # cold memo
    assert assemble(source) == reference        # every statement memoised


# (a valid statement, a bad one with the same mnemonic)
_misuses = st.one_of(
    _fmt("{0} x5, x6, 7|{0} x5, x6, {1}", _named("I"),
         st.one_of(st.integers(2048, 1 << 40), st.integers(-(1 << 40), -2049))),
    _fmt("{0} x5, x6, x7|{0} x5, {1}, x7", _named("R"),
         st.sampled_from(["x32", "x99", "q7", "a8", "X5"])),
    _fmt("{0} x5, x6, x7|{0} {1}", _named("R"),
         st.sampled_from(["", "x5", "x5, x6", "x5, x6, x7, x8"])),
    _fmt("{0} x5, x6, 7|{0} {1}", _named("I"),
         st.sampled_from(["", "x5", "x5, x6", "x5, x6, x7", "x5, x6, 7, 8"])),
    _fmt("{0} x5, 8(x6)|{0} x5, {1}(x6)", _named("load"),
         st.one_of(st.integers(2048, 1 << 20), st.integers(-(1 << 20), -2049))),
    _fmt("li x5, 1|li x5, {}", st.one_of(st.integers(1 << 64, 1 << 70),
                                          st.integers(-(1 << 70), -(1 << 63) - 1))),
    st.just("li x5, 1|li x5"),
).map(lambda pair: tuple(pair.split("|")))


@generated(150)
@given(prefix=st.lists(_label_free, max_size=5), misuse=_misuses, shift=st.integers(1, 5))
def test_a_failure_is_never_memoised(prefix, misuse, shift):
    valid, bad = misuse

    def error(lines):
        with pytest.raises(AsmError) as e:
            assemble("".join(line + "\n" for line in lines))
        return str(e.value)

    first = error(prefix + [bad])
    assert first.startswith(f"line {len(prefix) + 1}: ")
    assert error(prefix + [bad]) == first
    assemble(valid + "\n")
    assert error(prefix + [bad]) == first
    reason = first.split(": ", 1)[1]
    assert error(["nop"] * shift + prefix + [bad]) == f"line {len(prefix) + 1 + shift}: {reason}"


@pytest.mark.parametrize("source, message", [
    # a bad immediate waits for the second pass, so a first-pass error wins
    ("addi x1, x1, 99999\nfoo:\nfoo:\n", "line 3: duplicate label 'foo'"),
    # a memoised statement is still refused outside .text
    ("addi x1, x1, 1\n.data\naddi x1, x1, 1\n",
     "line 3: instruction outside the .text section"),
    ("addi x1, x1, 1\n.data\n.org 0x2000\nlabel: addi x1, x1, 1\n",
     "line 4: instruction outside the .text section"),
    # li is checked in the first pass, before any label is resolved
    ("beq x1, x2, nowhere\nli x5\n", "line 2: li expects 2 operand(s), got 1"),
    ("addi x1, x1, 99999\nli x5\n", "line 2: li expects 2 operand(s), got 1"),
    ("lw x1, 4(x99)\nsw x1, 4(x2)\nli x5, 0x1ffffffffffffffff\n",
     "line 3: li value out of 64-bit range: 0x1ffffffffffffffff"),
    ("addi x1, x1, 5000\nmv x1\n", "line 2: mv expects 2 operand(s), got 1"),
    ("csrrw x1, 0x800, x2\nslli x1, x1, 64\n.word 1, 2\nj\n",
     "line 4: j expects 1 operand(s), got 0"),
    ("addi x1, x1, 99999\n.org 0x100\n", "line 2: .org is only valid in the .data section"),
    ("addi x1, x1, 99999\n.data\n.dword 1\n", "line 3: data emitted before any .org address"),
    ("x: addi x1, x1, 2048\ny: x:\n", "line 2: duplicate label 'x'"),
    # second-pass errors come in line order
    ("addi x1, x1, 99999\nadd x1, x2, x99\n", "line 1: imm out of range [-2048, 2047]: 99999"),
    ("addi x1, x1, 99999\nfoo bar\n", "line 1: imm out of range [-2048, 2047]: 99999"),
    ("beq x1, x2, nowhere\naddi x3, x3, 4096\n", "line 1: unknown label 'nowhere'"),
    ("add x1, x2\naddi x1, x1, 1, 2\n", "line 1: add expects 3 operand(s), got 2"),
    ("add x1, x2, , x3\naddi x1, x1, 99999\n", "line 1: empty operand"),
])
def test_the_reported_error_does_not_depend_on_the_memo(source, message):
    asm._statement_words.cache_clear()
    for _ in range(2):          # cold memo, then warm
        with pytest.raises(AsmError) as e:
            assemble(source)
        assert str(e.value) == message


"""Generated and differential checks: decode over arbitrary words, the
round-unit slot's decode contract, step() against run() on every
strategy's kernel and on faulting programs, and machines sharing one
translation cache against machines with a private one. Hypothesis runs
derandomized, so the suite is reproducible."""

import pytest
from hypothesis import given, settings, strategies as st

from shatrv import isa
from shatrv.emulator import (
    CODE_BASE, BudgetExceeded, CostModel, CsrFault, DecodeError, EmulatorError,
    Machine, Translations,
)
from shatrv.kernels import STRATEGIES, GuestLayout, generate_kernel
from shatrv.shatr import attach

MEM = 1 << 21
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


def _loaded(strategy, message=MESSAGE, **machine_args):
    m = Machine(memory_size=MEM, **machine_args)
    if strategy == "shatr":
        attach(m)
    m.load_program(generate_kernel(strategy, "sha3-256"))
    at = GuestLayout().message
    m.memory[at:at + len(message)] = message
    m.regs[10] = len(message)
    return m


def _observed(m):
    lanes = m.round_unit.lanes if m.round_unit else None
    return (m.exit_status, m.pc, m.regs, m.emitted, m.stats.counts,
            m.stats.regions, m.stats.region_entry_count, m.stats.total_cycles,
            lanes)


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
    with pytest.raises((EmulatorError, DecodeError)) as e:
        drive(m)
    return type(e.value), str(e.value), _observed(m)


def _step_forever(m):
    while True:
        m.step()


def _enc(mnemonic, **fields):
    return isa.encode(mnemonic, **fields).to_bytes(4, "little")


DATA = 0x8000
# straight-line instructions that never fault: x5 holds DATA, x29 a valid
# round index, a7 a bad hypercall number; bne x0, x0 is never taken but
# still ends a block
_SAFE = st.sampled_from([
    _enc("addi", rd=6, rs1=6, imm=5),
    _enc("add", rd=8, rs1=6, rs2=9),
    _enc("xor", rd=9, rs1=8, rs2=6),
    _enc("ld", rd=6, rs1=5, imm=8),
    _enc("sd", rs1=5, rs2=8, imm=16),
    _enc("csrrw", rd=9, rs1=6, csr=isa.LANE_CSR_BASE + 3),
    _enc("shatr", rs1=29),
    _enc("bne", rs1=0, rs2=0, imm=8),
])
_FAULTING = st.sampled_from([
    _enc("ld", rd=6, rs1=5, imm=4),       # misaligned load
    _enc("sw", rs1=5, rs2=6, imm=2),      # misaligned store
    _enc("shatr", rs1=28),                # round index 99
    _enc("ecall"),                        # unknown hypercall 9
])
_PROLOGUE = b"".join([
    _enc("lui", rd=5, imm=DATA >> 12),
    _enc("addi", rd=28, imm=99),
    _enc("addi", rd=29, imm=3),
    _enc("addi", rd=10, imm=1), _enc("addi", rd=17, imm=1), _enc("ecall"),
    _enc("addi", rd=17, imm=9),
])
_cost_models = st.builds(CostModel, st.integers(0, 3), st.integers(0, 3),
                         st.integers(0, 5))


@generated(150)
@given(before=st.lists(_SAFE, max_size=12), fault=_FAULTING,
       after=st.lists(_SAFE, max_size=3), cost_model=_cost_models)
def test_a_fault_inside_a_block_leaves_what_steps_leave(
        before, fault, after, cost_model):
    code = _PROLOGUE + b"".join(before) + fault + b"".join(after) \
        + _enc("addi", rd=17) + _enc("ecall")

    def machine():
        m = Machine(memory_size=1 << 16, cost_model=cost_model)
        attach(m)
        m.load_program(code)
        return m

    stepped = _fault(machine(), _step_forever)
    assert _fault(machine(), Machine.run) == stepped
    assert stepped[2][1] == CODE_BASE + len(_PROLOGUE) + 4 * len(before)


@pytest.mark.parametrize("strategy", STRATEGIES)
@generated(4)
@given(message=st.binary(max_size=300))
def test_a_filled_cache_runs_like_a_private_one(strategy, message):
    shared = Translations()
    _ran(_loaded(strategy, translations=shared))
    assert _ran(_loaded(strategy, message, translations=shared)) \
        == _ran(_loaded(strategy, message))


@generated(10)
@given(st.lists(_cost_models, min_size=2, max_size=4))
def test_cost_models_sharing_a_cache_keep_their_own_cycles(cost_models):
    shared = Translations()
    for cm in cost_models:
        assert _ran(_loaded("shatr", translations=shared, cost_model=cm)) \
            == _ran(_loaded("shatr", cost_model=cm))


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
    at = GuestLayout().message
    late.memory[at:at + len(MESSAGE)] = MESSAGE
    late.regs[10] = len(MESSAGE)
    assert _ran(late) == _ran(_loaded("shatr"))

"""Generated and differential checks: decode over arbitrary words, the
round-unit slot's decode contract, and step() against run() on every
strategy's kernel. Hypothesis runs derandomized, so the suite is
reproducible."""

import pytest
from hypothesis import given, settings, strategies as st

from shatrv import isa
from shatrv.emulator import BudgetExceeded, DecodeError, Machine
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


def _loaded(strategy):
    m = Machine(memory_size=MEM)
    if strategy == "shatr":
        attach(m)
    m.load_program(generate_kernel(strategy, "sha3-256"))
    message = GuestLayout().message
    m.memory[message:message + len(MESSAGE)] = MESSAGE
    m.regs[10] = len(MESSAGE)
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

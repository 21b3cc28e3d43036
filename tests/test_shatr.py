"""Round-instruction unit: encoding, equivalence with the host permutation,
lane CSR file behavior, and isolation from the rest of the machine."""

import random

import pytest

from shatrv import isa, keccak
from shatrv.emulator import (
    CODE_BASE, CsrFault, DecodeError, IllegalOperand, Machine,
    RegistrationError,
)
from shatrv.isa import LANE_CSR_BASE, LANE_CSR_LAST, OPCODE_CUSTOM0
from shatrv.shatr import KeccakRoundUnit, attach

MEM = 1 << 16


def image(words):
    return b"".join(w.to_bytes(4, "little") for w in words)


def machine_with_unit(words):
    m = Machine(memory_size=MEM)
    unit = attach(m)
    m.load_program(image(words))
    return m, unit


def exit_seq(status=0):
    return [isa.encode("addi", rd=10, imm=status),
            isa.encode("addi", rd=17, imm=0),
            isa.encode("ecall")]


class TestEncoding:
    def test_frozen_shatr_word(self):
        assert isa.encode("shatr", rs1=10) == 0x0005000B

    def test_decode_fields(self):
        inst = isa.decode(0x0005000B)
        assert (inst.mnemonic, inst.category, inst.rs1) == ("shatr", "custom", 10)
        assert inst.rd == 0 and inst.rs2 == 0

    def test_round_trip_all_rs1(self):
        for rs1 in range(32):
            word = isa.encode("shatr", rs1=rs1)
            inst = isa.decode(word)
            assert inst.mnemonic == "shatr" and inst.rs1 == rs1

    @pytest.mark.parametrize("word", [
        0x0005000B | (1 << 7),      # rd set
        0x0005000B | (1 << 20),     # rs2 set
        0x0005000B | (1 << 12),     # funct3 set
        0x0005000B | (1 << 25),     # funct7 set
    ])
    def test_stray_bits_are_illegal(self, word):
        m = Machine(memory_size=MEM)
        attach(m)
        with pytest.raises(DecodeError):
            m.decode(word)

    def test_opcode_constant(self):
        assert OPCODE_CUSTOM0 == 0x0B
        assert (LANE_CSR_BASE, LANE_CSR_LAST) == (0x800, 0x818)


class TestRoundEquivalence:
    def test_matches_host_round_on_random_pairs(self):
        rng = random.Random(0x5A7)
        m, unit = machine_with_unit([isa.encode("shatr", rs1=10)])
        for _ in range(1000):
            state = [rng.getrandbits(64) for _ in range(25)]
            r = rng.randrange(24)
            unit.lanes = list(state)
            m.regs[10] = r
            m.pc = CODE_BASE
            m.step()
            assert unit.lanes == keccak.keccak_round(state, r)

    def test_24_chained_rounds_equal_permutation(self):
        rng = random.Random(0x5A8)
        words = []
        for r in range(24):
            words.append(isa.encode("addi", rd=10, imm=r))
            words.append(isa.encode("shatr", rs1=10))
        words += exit_seq()
        for _ in range(100):
            state = [rng.getrandbits(64) for _ in range(25)]
            m, unit = machine_with_unit(words)
            unit.lanes = list(state)
            m.run()
            assert unit.lanes == keccak.keccak_f(state)

    def test_round_index_from_any_register(self):
        rng = random.Random(0x5A9)
        state = [rng.getrandbits(64) for _ in range(25)]
        for rs1 in (1, 10, 31):
            m, unit = machine_with_unit([isa.encode("shatr", rs1=rs1)] + exit_seq())
            unit.lanes = list(state)
            m.regs[rs1] = 7
            m.step()
            assert unit.lanes == keccak.keccak_round(state, 7)

    def test_out_of_range_round_faults(self):
        for bad in (24, 100, 1 << 40):
            m, unit = machine_with_unit([isa.encode("shatr", rs1=10)] + exit_seq())
            m.regs[10] = bad
            with pytest.raises(IllegalOperand):
                m.step()

    def test_counts_as_custom_with_shatr_cycles(self):
        from shatrv.emulator import CostModel
        m = Machine(memory_size=MEM)
        attach(m)
        m.load_program(image([isa.encode("shatr", rs1=0)] + exit_seq()))
        m.run()
        assert m.stats.counts["custom"] == 1
        # 3 base-cost instructions + one 5-cycle shatr
        assert CostModel(shatr_cycles=5).cycles(m.stats.counts) == 3 + 5


class TestLaneCsrFile:
    def test_reset_lanes_are_zero(self):
        assert KeccakRoundUnit().lanes == [0] * 25

    def test_write_all_then_read_all_round_trips(self):
        rng = random.Random(0x5AA)
        raw = bytes(rng.getrandbits(8) for _ in range(200))
        vals = keccak.state_from_bytes(raw)
        words = [isa.encode("csrrw", rd=0, rs1=6, csr=LANE_CSR_BASE + i) for i in range(25)]
        words += [isa.encode("csrrs", rd=7, rs1=0, csr=LANE_CSR_BASE + i) for i in range(25)]
        words += exit_seq()
        m, unit = machine_with_unit(words)
        for v in vals:
            m.regs[6] = v
            m.step()
        got = []
        for _ in range(25):
            m.step()
            got.append(m.regs[7])
        assert keccak.state_to_bytes(got) == raw
        assert unit.lanes == vals

    def test_swap_returns_old_value(self):
        words = [isa.encode("csrrw", rd=5, rs1=6, csr=0x803)] + exit_seq()
        m, unit = machine_with_unit(words)
        unit.lanes[3] = 0xDEAD
        m.regs[6] = 0xBEEF
        m.step()
        assert m.regs[5] == 0xDEAD
        assert unit.lanes[3] == 0xBEEF

    def test_set_and_clear_bits(self):
        words = [isa.encode("csrrs", rd=0, rs1=6, csr=0x800),
                 isa.encode("csrrc", rd=0, rs1=7, csr=0x800)] + exit_seq()
        m, unit = machine_with_unit(words)
        unit.lanes[0] = 0b1100
        m.regs[6] = 0b0011
        m.regs[7] = 0b0101
        m.step()
        assert unit.lanes[0] == 0b1111
        m.step()
        assert unit.lanes[0] == 0b1010

    def test_csrrs_with_x0_is_pure_read(self):
        words = [isa.encode("csrrs", rd=5, rs1=0, csr=0x818)] + exit_seq()
        m, unit = machine_with_unit(words)
        unit.lanes[24] = 0x1234
        m.step()
        assert m.regs[5] == 0x1234
        assert unit.lanes[24] == 0x1234

    def test_csr_load_round_csr_store_sequence(self):
        rng = random.Random(0x5AB)
        state = [rng.getrandbits(64) for _ in range(25)]
        words = [isa.encode("csrrw", rd=0, rs1=6, csr=LANE_CSR_BASE + i) for i in range(25)]
        words += [isa.encode("shatr", rs1=10)]
        words += [isa.encode("csrrs", rd=7, rs1=0, csr=LANE_CSR_BASE + i) for i in range(25)]
        words += exit_seq()
        m, unit = machine_with_unit(words)
        m.regs[10] = 0
        for v in state:
            m.regs[6] = v
            m.step()
        m.step()  # shatr with round 0
        got = []
        for _ in range(25):
            m.step()
            got.append(m.regs[7])
        assert got == keccak.keccak_round(state, 0)

    def test_lanes_persist_across_unrelated_instructions(self):
        words = [isa.encode("addi", rd=5, rs1=5, imm=1),
                 isa.encode("sd", rs1=2, rs2=5, imm=-8),
                 isa.encode("ld", rd=6, rs1=2, imm=-8),
                 isa.encode("jal", rd=0, imm=-12)]
        m, unit = machine_with_unit(words)
        unit.lanes = list(range(25))
        from shatrv.emulator import BudgetExceeded
        with pytest.raises(BudgetExceeded):
            m.run(max_instructions=100)
        assert unit.lanes == list(range(25))


class TestIsolation:
    def test_shatr_touches_nothing_but_pc_and_lanes(self):
        rng = random.Random(0x5AC)
        m, unit = machine_with_unit([isa.encode("shatr", rs1=10)] + exit_seq())
        for i in range(1, 32):
            m.regs[i] = rng.getrandbits(64)
        m.regs[10] = 11
        unit.lanes = [rng.getrandbits(64) for _ in range(25)]
        m.memory[0x4000:0x4010] = bytes(range(16))
        regs_before = list(m.regs)
        mem_before = bytes(m.memory)
        pc_before = m.pc
        m.step()
        assert m.regs == regs_before
        assert bytes(m.memory) == mem_before
        assert m.pc == pc_before + 4


class TestAttachment:
    def test_attach_before_use_is_required(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([isa.encode("csrrw", rd=0, rs1=6, csr=0x800)]))
        with pytest.raises(CsrFault):
            m.run()
        m2 = Machine(memory_size=MEM)
        m2.load_program(image([0x0005000B]))
        with pytest.raises(DecodeError):
            m2.run()

    def test_double_attach_rejected(self):
        m = Machine(memory_size=MEM)
        attach(m)
        with pytest.raises(RegistrationError):
            attach(m)

    def test_two_machines_get_independent_units(self):
        m1 = Machine(memory_size=MEM)
        m2 = Machine(memory_size=MEM)
        u1, u2 = attach(m1), attach(m2)
        u1.lanes[0] = 9
        assert u2.lanes[0] == 0

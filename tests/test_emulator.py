"""RV64 interpreter: decode fields against hand-packed words, semantics
against hand-computed values, accounting and fault behavior, and every
load and store width against a struct path over the bytes of memory."""

import dataclasses
import random
import struct
import sys
from unittest import mock

import pytest

from shatrv import isa
from shatrv.emulator import (
    CODE_BASE, BudgetExceeded, CostModel, CsrFault, DecodeError,
    EmulatorError, HypercallFault, LoadError, Machine, MemoryFault,
)
from shatrv.shatr import attach

MEM = 1 << 16  # plenty for unit tests, cheap to allocate


# Independent encoders, straight off the base-format bit layouts.

def enc_r(opcode, rd, f3, rs1, rs2, f7):
    return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode


def enc_i(opcode, rd, f3, rs1, imm):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode


def enc_s(opcode, f3, rs1, rs2, imm):
    i = imm & 0xFFF
    return ((i >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | ((i & 0x1F) << 7) | opcode


def enc_b(opcode, f3, rs1, rs2, imm):
    i = imm & 0x1FFF
    return (((i >> 12) & 1) << 31) | (((i >> 5) & 0x3F) << 25) | (rs2 << 20) \
        | (rs1 << 15) | (f3 << 12) | (((i >> 1) & 0xF) << 8) | (((i >> 11) & 1) << 7) | opcode


def enc_u(opcode, rd, imm20):
    return (imm20 << 12) | (rd << 7) | opcode


def enc_j(opcode, rd, imm):
    i = imm & 0x1FFFFF
    return (((i >> 20) & 1) << 31) | (((i >> 1) & 0x3FF) << 21) | (((i >> 11) & 1) << 20) \
        | (((i >> 12) & 0xFF) << 12) | (rd << 7) | opcode


ECALL = 0x00000073


def addi(rd, rs1, imm):
    return enc_i(0x13, rd, 0, rs1, imm)


def exit_seq(status=0):
    return [addi(10, 0, status), addi(17, 0, 0), ECALL]


def image(words):
    return b"".join(w.to_bytes(4, "little") for w in words)


def run_words(words, mem=MEM, cost=None, setup=None):
    m = Machine(memory_size=mem, cost_model=cost)
    m.load_program(image(words))
    if setup:
        setup(m)
    m.run()
    return m


class TestDecodeFields:
    def test_frozen_addi_word(self):
        inst = isa.decode(0x00A00513)
        assert (inst.mnemonic, inst.rd, inst.rs1, inst.imm) == ("addi", 10, 0, 10)

    def test_i_form_negative_immediate(self):
        inst = isa.decode(enc_i(0x13, 3, 0, 7, -13))
        assert (inst.mnemonic, inst.rd, inst.rs1, inst.imm) == ("addi", 3, 7, -13)

    def test_r_form(self):
        inst = isa.decode(enc_r(0x33, 1, 0, 2, 3, 0x20))
        assert (inst.mnemonic, inst.rd, inst.rs1, inst.rs2) == ("sub", 1, 2, 3)

    def test_shift_imm_rv64_shamt(self):
        inst = isa.decode(enc_i(0x13, 4, 1, 5, 45))
        assert (inst.mnemonic, inst.imm) == ("slli", 45)
        inst = isa.decode(enc_i(0x13, 4, 5, 5, 45 | (0x10 << 6)))
        assert (inst.mnemonic, inst.imm) == ("srai", 45)

    def test_store_splits_immediate(self):
        inst = isa.decode(enc_s(0x23, 3, 2, 9, -160))
        assert (inst.mnemonic, inst.rs1, inst.rs2, inst.imm) == ("sd", 2, 9, -160)

    def test_branch_offset_reassembled(self):
        for off in (-4096, -2, 2, 4094, 0x154):
            inst = isa.decode(enc_b(0x63, 0, 1, 2, off))
            assert (inst.mnemonic, inst.imm) == ("beq", off)

    def test_jal_offset_reassembled(self):
        for off in (-(1 << 20), -2, 2, (1 << 20) - 2, 0x12344):
            inst = isa.decode(enc_j(0x6F, 1, off))
            assert (inst.mnemonic, inst.rd, inst.imm) == ("jal", 1, off)

    def test_u_forms_keep_raw_field(self):
        inst = isa.decode(enc_u(0x37, 1, 0x12345))
        assert (inst.mnemonic, inst.imm) == ("lui", 0x12345)
        inst = isa.decode(enc_u(0x17, 2, 0xFFFFF))
        assert (inst.mnemonic, inst.imm) == ("auipc", 0xFFFFF)

    def test_csr_forms(self):
        inst = isa.decode(enc_i(0x73, 1, 1, 5, 0x800))
        assert (inst.mnemonic, inst.rd, inst.rs1, inst.csr) == ("csrrw", 1, 5, 0x800)
        inst = isa.decode(enc_i(0x73, 2, 6, 21, 0x801))
        assert (inst.mnemonic, inst.rd, inst.imm, inst.csr) == ("csrrsi", 2, 21, 0x801)

    def test_ecall(self):
        assert isa.decode(ECALL).mnemonic == "ecall"

    def test_category_assignment(self):
        pairs = [
            (addi(1, 0, 1), "int_alu"),
            (enc_i(0x03, 1, 3, 2, 0), "mem_read"),
            (enc_s(0x23, 3, 2, 1, 0), "mem_write"),
            (enc_b(0x63, 0, 1, 2, 4), "branch"),
            (enc_j(0x6F, 0, 4), "branch"),
            (enc_i(0x67, 0, 0, 1, 0), "branch"),
            (enc_i(0x73, 1, 1, 5, 0x800), "csr"),
            (ECALL, "other"),
        ]
        for word, category in pairs:
            assert isa.decode(word).category == category


class TestDecodeRejections:
    @pytest.mark.parametrize("word", [
        0x00000000,
        0x0000000F,            # fence
        0x00100073,            # ebreak
        0x02000033,            # mul (M extension)
        enc_i(0x03, 1, 7, 0, 0),   # bad load funct3
        enc_s(0x23, 7, 0, 0, 0),   # bad store funct3
        enc_b(0x63, 2, 0, 0, 4),   # bad branch funct3
        enc_i(0x67, 0, 1, 0, 0),   # jalr funct3 != 0
        enc_i(0x13, 1, 1, 1, 1 << 11),  # slli with stray funct bit
        enc_r(0x3B, 1, 4, 2, 3, 0),     # no xorw
        enc_i(0x73, 0, 4, 0, 0),        # bad system funct3
    ])
    def test_decode_error(self, word):
        with pytest.raises(DecodeError):
            isa.decode(word)

    def test_unclaimed_custom_faults_on_machine(self):
        m = Machine(memory_size=MEM)
        with pytest.raises(DecodeError):
            m.decode(0x0005000B)

    def test_decode_never_crashes_on_fuzz(self):
        rng = random.Random(0xF00D)
        ok = 0
        for _ in range(30000):
            word = rng.getrandbits(32)
            try:
                isa.decode(word)
                ok += 1
            except DecodeError:
                pass
        assert ok  # some words must decode


class TestAluSemantics:
    def test_addi_immediate_lands_in_rd(self):
        m = run_words([addi(1, 0, 5)] + exit_seq())
        assert m.regs[1] == 5
        assert m.stats.counts["int_alu"] == 3  # payload addi + two exit addis

    def test_x0_stays_zero(self):
        m = run_words([addi(0, 0, 5)] + exit_seq())
        assert m.regs[0] == 0

    def test_wraparound_and_signs(self):
        ws = [
            addi(1, 0, -1),                      # x1 = 0xFFFF...F
            addi(2, 0, 1),
            enc_r(0x33, 3, 0, 1, 2, 0),          # add  x3 = x1 + x2 = 0
            enc_r(0x33, 4, 0, 0, 2, 0x20),       # sub  x4 = 0 - 1
            enc_r(0x33, 5, 2, 1, 2, 0),          # slt  x5 = (-1 < 1) = 1
            enc_r(0x33, 6, 3, 1, 2, 0),          # sltu x6 = (max < 1) = 0
            enc_i(0x13, 7, 1, 2, 63),            # slli x7 = 1 << 63
            enc_r(0x33, 8, 5, 1, 2, 0),          # srl  x8 = max >> 1
            enc_r(0x33, 9, 5, 1, 2, 0x20),       # sra  x9 = max >>s 1 = max
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[1] == (1 << 64) - 1
        assert m.regs[3] == 0
        assert m.regs[4] == (1 << 64) - 1
        assert m.regs[5] == 1
        assert m.regs[6] == 0
        assert m.regs[7] == 1 << 63
        assert m.regs[8] == (1 << 63) - 1
        assert m.regs[9] == (1 << 64) - 1

    def test_logic_ops(self):
        ws = [
            addi(1, 0, 0b1100),
            addi(2, 0, 0b1010),
            enc_r(0x33, 3, 4, 1, 2, 0),   # xor
            enc_r(0x33, 4, 6, 1, 2, 0),   # or
            enc_r(0x33, 5, 7, 1, 2, 0),   # and
            enc_i(0x13, 6, 4, 1, -1),     # xori -1 = not
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[3] == 0b0110
        assert m.regs[4] == 0b1110
        assert m.regs[5] == 0b1000
        assert m.regs[6] == 0b1100 ^ ((1 << 64) - 1)

    def test_w_forms_truncate_then_sign_extend(self):
        big = 0x7FFFFFFF
        ws = [
            enc_u(0x37, 1, 0x7FFFF),             # x1 = 0x7FFFF000
            enc_i(0x13, 1, 0, 1, 0xFFF & 4095),  # placeholder, replaced below
        ]
        # Build 0x7FFFFFFF: lui 0x80000 would sign-extend, so do it by halves.
        ws = [
            addi(1, 0, 1),
            enc_i(0x13, 1, 1, 1, 31),            # slli x1, x1, 31 -> 0x80000000
            addi(2, 1, -1),                      # x2 = 0x7FFFFFFF
            enc_i(0x1B, 3, 0, 2, 1),             # addiw x3 = 0x7FFFFFFF + 1
            enc_r(0x3B, 4, 0, 2, 2, 0),          # addw  x4 = fffffffe
            enc_r(0x3B, 5, 0, 0, 2, 0x20),       # subw  x5 = -0x7FFFFFFF
            enc_i(0x1B, 6, 1, 2, 1),             # slliw x6
            enc_i(0x1B, 7, 5, 1, 1),             # srliw x7 = 0x80000000 >> 1
            enc_i(0x1B, 8, 5, 1, 1 | (0x20 << 5)),  # sraiw x8
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[2] == big
        assert m.regs[3] == 0xFFFFFFFF80000000
        assert m.regs[4] == 0xFFFFFFFFFFFFFFFE
        assert m.regs[5] == 0xFFFFFFFF80000001
        assert m.regs[6] == 0xFFFFFFFFFFFFFFFE
        assert m.regs[7] == 0x40000000
        assert m.regs[8] == 0xFFFFFFFFC0000000

    def test_lui_sign_extends_to_64(self):
        m = run_words([enc_u(0x37, 1, 0xFFFFF), enc_u(0x37, 2, 0x12345)] + exit_seq())
        assert m.regs[1] == 0xFFFFFFFFFFFFF000
        assert m.regs[2] == 0x12345000

    def test_auipc_adds_to_pc(self):
        m = run_words([enc_u(0x17, 1, 0), enc_u(0x17, 2, 1)] + exit_seq())
        assert m.regs[1] == CODE_BASE
        assert m.regs[2] == CODE_BASE + 4 + 0x1000


class TestMemorySemantics:
    def test_store_load_round_trip_all_widths(self):
        base = 0x2000
        ws = [
            enc_u(0x37, 1, base >> 12),               # x1 = 0x2000
            addi(2, 0, -2),                           # x2 = 0xFF..FE
            enc_s(0x23, 0, 1, 2, 0),                  # sb
            enc_s(0x23, 1, 1, 2, 8),                  # sh
            enc_s(0x23, 2, 1, 2, 16),                 # sw
            enc_s(0x23, 3, 1, 2, 24),                 # sd
            enc_i(0x03, 3, 0, 1, 0),                  # lb  -> sign-extended
            enc_i(0x03, 4, 4, 1, 0),                  # lbu
            enc_i(0x03, 5, 1, 1, 8),                  # lh
            enc_i(0x03, 6, 5, 1, 8),                  # lhu
            enc_i(0x03, 7, 2, 1, 16),                 # lw
            enc_i(0x03, 8, 6, 1, 16),                 # lwu
            enc_i(0x03, 9, 3, 1, 24),                 # ld
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[3] == (1 << 64) - 2
        assert m.regs[4] == 0xFE
        assert m.regs[5] == (1 << 64) - 2
        assert m.regs[6] == 0xFFFE
        assert m.regs[7] == (1 << 64) - 2
        assert m.regs[8] == 0xFFFFFFFE
        assert m.regs[9] == (1 << 64) - 2
        assert m.memory[base] == 0xFE
        assert m.memory[base + 8:base + 10] == b"\xFE\xFF"

    def test_misaligned_access_faults(self):
        cases = [
            enc_i(0x03, 3, 3, 1, 4),   # ld at +4
            enc_i(0x03, 3, 2, 1, 2),   # lw at +2
            enc_i(0x03, 3, 1, 1, 1),   # lh at +1
            enc_s(0x23, 3, 1, 2, 4),   # sd at +4
        ]
        for w in cases:
            m = Machine(memory_size=MEM)
            m.load_program(image([enc_u(0x37, 1, 2), w] + exit_seq()))
            with pytest.raises(MemoryFault) as e:
                m.run()
            assert "misaligned" in str(e.value)

    def test_out_of_bounds_faults_with_address(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([addi(1, 0, -8), enc_i(0x03, 3, 3, 1, 0)] + exit_seq()))
        with pytest.raises(MemoryFault) as e:
            m.run()
        assert "0xfffffffffffffff8" in str(e.value)

    def test_store_over_executed_code_faults(self):
        # patch the already-run first instruction to addi a0, zero, 7 and
        # jump back to it: cached decodes would run the stale addi a0, zero, 1
        patch = addi(10, 0, 7)
        ws = [
            addi(10, 0, 1),                           # 0x1000: a0 = 1
            enc_u(0x37, 5, patch >> 12),              # t0 = patch word
            addi(5, 5, patch & 0xFFF),
            enc_u(0x37, 6, CODE_BASE >> 12),          # t1 = CODE_BASE
            enc_s(0x23, 2, 6, 5, 0),                  # sw t0, 0(t1)
            enc_j(0x6F, 0, -20),                      # j 0x1000
        ]
        m = Machine(memory_size=MEM)
        m.load_program(image(ws))
        with pytest.raises(MemoryFault, match="code"):
            m.run(max_instructions=100)
        assert m.pc == CODE_BASE + 16
        assert m.memory[CODE_BASE:CODE_BASE + 4] == image(ws[:1])

    @pytest.mark.parametrize("f3, offset, faults", [
        (3, -8, False),     # sd ending right at CODE_BASE
        (0, -1, False),     # sb on the byte below CODE_BASE
        (0, 0, True),       # sb on the first code byte
        (3, 24, True),      # sd over the last two code words
        (2, 32, False),     # sw on the first word after the code
    ])
    def test_store_faults_exactly_on_code_overlap(self, f3, offset, faults):
        ws = [enc_u(0x37, 1, CODE_BASE >> 12), enc_s(0x23, f3, 1, 0, offset),
              addi(5, 0, 0), addi(5, 0, 0), addi(5, 0, 0)] + exit_seq()
        m = Machine(memory_size=MEM)
        m.load_program(image(ws))
        if faults:
            with pytest.raises(MemoryFault, match="code"):
                m.run()
        else:
            assert m.run() == 0

    def test_fetch_outside_memory_faults(self):
        m = Machine(memory_size=MEM)
        # jump way past the end of memory
        m.load_program(image([enc_u(0x37, 1, 0x40), enc_i(0x67, 0, 0, 1, 0)]))
        with pytest.raises(MemoryFault):
            m.run()

    def test_fetch_from_a_data_segment_faults(self):
        # a function in a data segment (addi a0, zero, 1; ret), called,
        # patched to addi a0, zero, 7 and called again would exit 1 from a
        # pc-keyed cache; only the loaded code can be fetched
        patch = addi(10, 0, 7)

        class Img:
            code = image([
                enc_u(0x37, 5, 0x8000 >> 12),         # t0 = 0x8000
                enc_i(0x67, 1, 0, 5, 0),              # call t0
                enc_u(0x37, 6, patch >> 12),          # t1 = patch word
                addi(6, 6, patch & 0xFFF),
                enc_s(0x23, 2, 5, 6, 0),              # sw t1, 0(t0)
                enc_i(0x67, 1, 0, 5, 0),              # call t0 again
                addi(17, 0, 0), ECALL,                # exit a0
            ])
            data_segments = [(0x8000, image([addi(10, 0, 1),
                                             enc_i(0x67, 0, 0, 1, 0)]))]
            entry_offset = 0

        m = Machine(memory_size=MEM)
        m.load_program(Img())
        with pytest.raises(MemoryFault, match="0x8000"):
            m.run()
        assert m.pc == 0x8000
        assert m.stats.total_retired == 2


def _ld(rd, rs1, imm):
    return enc_i(0x03, rd, 3, rs1, imm)


# funct3 and little-endian struct format of each load and store
LOADS = {"lb": (0, "<b"), "lh": (1, "<h"), "lw": (2, "<i"), "ld": (3, "<Q"),
         "lbu": (4, "<B"), "lhu": (5, "<H"), "lwu": (6, "<I")}
STORES = {"sb": (0, "<B"), "sh": (1, "<H"), "sw": (2, "<I"), "sd": (3, "<Q")}
ACCESSES = {**LOADS, **STORES}


class TestWordView:
    """Every load and store indexes a typed view of memory. At each edge of
    memory, run() gives what stepping gives and what a struct path over
    the bytes of memory gives, down to the fault text."""
    SIZE = 0x2000 + 12                  # not a multiple of 8
    LAST = (SIZE & ~7) - 8              # the last full word
    CODE = [addi(7, 0, 0), addi(7, 0, 0)]   # the access follows them
    PC = CODE_BASE + 8                  # of the access
    # every byte has its sign bit set, so every signed load is negative
    FILL = bytes(0x80 | (151 * i + 7) & 0x7F for i in range(SIZE))
    VALUE = 0xFEDCBA9876543210          # x6, the value a store writes

    def machine(self, mnemonic, addr):
        """A machine about to run the access at PC, base x5 = addr, then exit."""
        f3 = ACCESSES[mnemonic][0]
        word = (enc_s(0x23, f3, 5, 6, 0) if mnemonic in STORES
                else enc_i(0x03, 6, f3, 5, 0))
        m = Machine(memory_size=self.SIZE)
        m.memory[:] = self.FILL
        m.load_program(image(self.CODE + [word] + exit_seq()))
        m.pc = self.PC
        m.regs[5], m.regs[6] = addr, self.VALUE
        return m

    def outcome(self, mnemonic, addr, stepping):
        m = self.machine(mnemonic, addr)
        try:
            if stepping:
                while not m.halted:
                    m.step()
            else:
                m.run()
            fault = None
        except MemoryFault as e:
            fault = str(e)
        return fault, m.pc, m.regs, bytes(m.memory), m.stats.counts

    def check(self, mnemonic, addr, fault):
        """fault is the expected fault without its address and pc, or None."""
        m = self.machine(mnemonic, addr)
        regs, memory = list(m.regs), bytearray(m.memory)
        if fault is None:
            fmt = ACCESSES[mnemonic][1]
            if mnemonic in STORES:
                mask = (1 << 8 * struct.calcsize(fmt)) - 1
                struct.pack_into(fmt, memory, addr, self.VALUE & mask)
            else:
                regs[6] = struct.unpack_from(fmt, memory, addr)[0] % (1 << 64)
            want = (None, self.PC + 16, regs, bytes(memory))   # past the ecall
        else:
            want = (f"{fault} at {addr:#x} (pc={self.PC:#x})", self.PC, regs,
                    bytes(memory))
        got = self.outcome(mnemonic, addr, False)
        assert got == self.outcome(mnemonic, addr, True)
        assert got[:4] == want

    @pytest.mark.parametrize("case", [
        "last", "past", "misaligned", "code", "2**63", "2**64-size"])
    @pytest.mark.parametrize("mnemonic", ACCESSES)
    def test_every_width_matches_the_struct_path_and_step(self, mnemonic, case):
        store = mnemonic in STORES
        what = "store" if store else "load"
        size = struct.calcsize(ACCESSES[mnemonic][1])
        last = (self.SIZE & -size) - size       # the last full slot
        addr, fault = {
            "last": (last, None),
            "past": (last + size, f"{what} outside memory"),
            # a byte access is never misaligned
            "misaligned": (last - 1, f"misaligned {size}-byte {what}"
                           if size > 1 else None),
            "code": (CODE_BASE, "store into loaded code" if store else None),
            "2**63": (1 << 63, f"{what} outside memory"),
            "2**64-size": ((1 << 64) - size, f"{what} outside memory"),
        }[case]
        self.check(mnemonic, addr, fault)

    @pytest.mark.parametrize("what, addr, fault", [
        ("load", LAST, None),
        ("store", LAST, None),
        ("load", LAST + 8, "load outside memory"),
        ("store", LAST + 8, "store outside memory"),
        ("load", LAST + 4, "misaligned 8-byte load"),
        ("store", LAST - 4, "misaligned 8-byte store"),
        ("store", LAST + 12, "misaligned 8-byte store"),   # and past the end
        ("load", CODE_BASE, None),
        ("store", CODE_BASE, "store into loaded code"),
        ("store", CODE_BASE + 8, "store into loaded code"),
        ("store", 1 << 63, "store outside memory"),
        ("load", (1 << 64) - 8, "load outside memory"),
    ])
    def test_faults_match_the_struct_path_and_step(self, what, addr, fault):
        self.check("ld" if what == "load" else "sd", addr, fault)

    def test_a_big_endian_host_is_refused(self):
        # the views read host byte order; the host is checked per machine
        with mock.patch.object(sys, "byteorder", "big"):
            with pytest.raises(EmulatorError, match="needs a little-endian host"):
                Machine(memory_size=MEM)
        Machine(memory_size=MEM)

    def test_memory_keeps_its_buffer_and_length(self):
        m = Machine(memory_size=MEM)
        with pytest.raises(AttributeError):
            m.memory = bytearray(MEM)       # the views would miss it
        with pytest.raises(BufferError):
            m.memory.extend(b"\0")
        with pytest.raises(BufferError):
            m.memory[0:1] = b"ab"
        assert len(m.memory) == MEM
        # a write of the same length shows through the view
        m.memory[0x2000:0x2008] = (0x0123456789ABCDEF).to_bytes(8, "little")
        m.load_program(image([enc_u(0x37, 5, 2), _ld(6, 5, 0)] + exit_seq()))
        m.run()
        assert m.regs[6] == 0x0123456789ABCDEF


class TestControlFlow:
    def test_branch_taken_and_not(self):
        # x1=2: bne x1, x0 skips the poison addi
        ws = [
            addi(1, 0, 2),
            enc_b(0x63, 1, 1, 0, 8),    # bne -> skip next
            addi(20, 0, 99),
            addi(3, 0, 7),
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[20] == 0
        assert m.regs[3] == 7

    def test_backward_branch_loop(self):
        # for x1 in 5..1: x6 += x1
        ws = [
            addi(1, 0, 5),
            enc_r(0x33, 6, 0, 6, 1, 0),   # add x6 += x1
            addi(1, 1, -1),
            enc_b(0x63, 1, 1, 0, -8),     # bne x1, x0, back 2
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[6] == 15
        assert m.stats.counts["branch"] == 5

    def test_signed_unsigned_branches(self):
        # blt sees -1 < 1; bltu sees max > 1
        ws = [
            addi(1, 0, -1),
            addi(2, 0, 1),
            enc_b(0x63, 4, 1, 2, 8),     # blt taken
            addi(3, 0, 99),
            enc_b(0x63, 6, 1, 2, 8),     # bltu not taken
            addi(4, 0, 42),
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[3] == 0
        assert m.regs[4] == 42

    def test_jal_links_and_jumps(self):
        ws = [
            enc_j(0x6F, 1, 12),          # jump over two words
            addi(20, 0, 99),
            addi(20, 0, 98),
            addi(3, 0, 1),
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[1] == CODE_BASE + 4
        assert m.regs[20] == 0
        assert m.regs[3] == 1

    def test_jalr_clears_low_bit(self):
        # odd jump target CODE_BASE+20+1, built with lui+addi
        ws = [
            enc_u(0x37, 1, CODE_BASE >> 12),
            addi(1, 1, 21),
            enc_i(0x67, 5, 0, 1, 0),     # jalr x5
            addi(20, 0, 99),
            addi(20, 0, 98),
            addi(3, 0, 1),
        ] + exit_seq()
        m = run_words(ws)
        assert m.regs[5] == CODE_BASE + 12
        assert m.regs[20] == 0
        assert m.regs[3] == 1

    def test_misaligned_jump_target_faults_at_fetch(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([addi(1, 0, CODE_BASE + 6), enc_i(0x67, 0, 0, 1, 0)]))
        with pytest.raises(MemoryFault) as e:
            m.run()
        assert "misaligned" in str(e.value)


class TestHypercalls:
    def test_exit_status(self):
        m = Machine(memory_size=MEM)
        m.load_program(image(exit_seq(42)))
        assert m.run() == 42
        assert m.halted

    def test_region_counts_exactly_the_span(self):
        # begin(1); 8 payload adds + 2 end-marker adds = 10 in-region
        ws = [addi(10, 0, 1), addi(17, 0, 1), ECALL]
        ws += [addi(5, 5, 1)] * 8
        ws += [addi(10, 0, 1), addi(17, 0, 2), ECALL]
        ws += exit_seq()
        m = run_words(ws)
        region = m.stats.regions[1]
        assert sum(region.values()) == 10
        assert region["int_alu"] == 10
        assert m.stats.region_entry_count[1] == 1

    def test_regions_can_nest_when_ids_differ(self):
        ws = [addi(10, 0, 1), addi(17, 0, 1), ECALL]      # begin 1
        ws += [addi(10, 0, 2), addi(17, 0, 1), ECALL]     # begin 2
        ws += [addi(5, 5, 1)] * 3
        ws += [addi(10, 0, 2), addi(17, 0, 2), ECALL]     # end 2
        ws += [addi(10, 0, 1), addi(17, 0, 2), ECALL]     # end 1
        ws += exit_seq()
        m = run_words(ws)
        r1, r2 = m.stats.regions[1], m.stats.regions[2]
        assert sum(r2.values()) == 5                       # 3 payload + 2 marker adds
        assert sum(r1.values()) == 2 + 3 + 2 + 2           # everything but ecalls
        assert m.stats.region_entry_count == {1: 1, 2: 1}

    def test_reentering_region_accumulates(self):
        ws = []
        for _ in range(3):
            ws += [addi(10, 0, 1), addi(17, 0, 1), ECALL]
            ws += [addi(5, 5, 1)] * 4
            ws += [addi(10, 0, 1), addi(17, 0, 2), ECALL]
        ws += exit_seq()
        m = run_words(ws)
        assert m.stats.region_entry_count[1] == 3
        assert sum(m.stats.regions[1].values()) == 3 * 6

    def test_same_id_nesting_faults(self):
        ws = [addi(10, 0, 1), addi(17, 0, 1), ECALL,
              addi(10, 0, 1), addi(17, 0, 1), ECALL]
        m = Machine(memory_size=MEM)
        m.load_program(image(ws))
        with pytest.raises(HypercallFault):
            m.run()

    def test_unmatched_end_faults(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([addi(10, 0, 7), addi(17, 0, 2), ECALL]))
        with pytest.raises(HypercallFault):
            m.run()

    def test_unknown_hypercall_faults(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([addi(17, 0, 9), ECALL]))
        with pytest.raises(HypercallFault):
            m.run()

    def test_emit_digest_copies_exact_bytes(self):
        payload = bytes(range(32))

        class Img:
            code = image([enc_u(0x37, 10, 2), addi(11, 0, 32), addi(17, 0, 3),
                          ECALL] + exit_seq())
            data_segments = [(0x2000, payload)]
            entry_offset = 0

        m = Machine(memory_size=MEM)
        m.load_program(Img())
        m.run()
        assert m.emitted == [payload]

    def test_emit_outside_memory_faults(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([enc_u(0x37, 10, 16), addi(11, 0, 2047),
                              addi(17, 0, 3), ECALL]))
        with pytest.raises(HypercallFault):
            m.run()


class TestAccounting:
    def test_counter_conservation_and_default_cycles(self):
        ws = [
            addi(1, 0, 3),
            enc_u(0x37, 2, 2),
            enc_s(0x23, 3, 2, 1, 0),
            enc_i(0x03, 4, 3, 2, 0),
            enc_b(0x63, 0, 0, 0, 8),
            addi(5, 0, 9),
        ] + exit_seq()
        m = run_words(ws)
        stats = m.stats
        assert sum(stats.counts.values()) == stats.total_retired
        assert stats.total_cycles == stats.total_retired
        assert stats.counts["mem_read"] == 1
        assert stats.counts["mem_write"] == 1
        assert stats.counts["branch"] == 1
        assert stats.counts["other"] == 1

    def test_memory_latency_knob(self):
        ws = [enc_u(0x37, 2, 2), enc_s(0x23, 3, 2, 1, 0), enc_i(0x03, 4, 3, 2, 0)]
        ws += exit_seq()
        m = run_words(ws, cost=CostModel(extra_mem_access_cycles=3))
        assert m.stats.total_cycles == m.stats.total_retired + 3 * 2

    @pytest.mark.parametrize("field", [
        "base_cycles_per_instruction", "extra_mem_access_cycles", "shatr_cycles"])
    def test_cost_model_is_frozen_and_rejects_negatives(self, field):
        with pytest.raises(ValueError, match=field):
            CostModel(**{field: -1})
        cm = CostModel(**{field: 0})
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cm, field, 2)

    @pytest.mark.parametrize("value", [1.5, "2", True, None])
    @pytest.mark.parametrize("field", [
        "base_cycles_per_instruction", "extra_mem_access_cycles", "shatr_cycles"])
    def test_cost_model_rejects_a_field_that_is_not_an_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a non-negative int"):
            CostModel(**{field: value})

    def test_budget_exhaustion(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([enc_j(0x6F, 0, 0)]))   # jal x0, 0: spin forever
        with pytest.raises(BudgetExceeded):
            m.run(max_instructions=1000)
        assert m.stats.total_retired == 1000

    @pytest.mark.parametrize("budget", [-1, 1.5, "3", True])
    def test_run_rejects_a_bad_budget(self, budget):
        m = Machine(memory_size=MEM)
        m.load_program(image([enc_j(0x6F, 0, 0)]))
        with pytest.raises(ValueError, match="budget"):
            m.run(max_instructions=budget)
        assert (m.pc, m.stats.total_retired) == (CODE_BASE, 0)

    def test_region_counters_never_exceed_global(self):
        ws = [addi(10, 0, 1), addi(17, 0, 1), ECALL]
        ws += [addi(5, 5, 1)] * 7
        ws += [addi(10, 0, 1), addi(17, 0, 2), ECALL]
        ws += exit_seq()
        m = run_words(ws)
        for name, n in m.stats.regions[1].items():
            assert n <= m.stats.counts[name]


class TestLoader:
    @pytest.mark.parametrize("size", [4100.5, "x", None, True])
    def test_memory_size_must_be_an_int(self, size):
        with pytest.raises(ValueError, match="memory size must be an int"):
            Machine(memory_size=size)

    def test_code_at_base_and_sp_aligned(self):
        m = Machine(memory_size=MEM + 8)
        m.load_program(image(exit_seq()))
        assert m.pc == CODE_BASE
        assert m.memory[CODE_BASE:CODE_BASE + 4] == exit_seq()[0].to_bytes(4, "little")
        assert m.regs[2] == (MEM + 8) & ~0xF
        assert m.regs[2] % 16 == 0

    def test_code_too_large(self):
        m = Machine(memory_size=MEM)
        with pytest.raises(LoadError):
            m.load_program(b"\x00" * MEM)

    def test_data_segment_out_of_range(self):
        class Img:
            code = image(exit_seq())
            data_segments = [(MEM - 4, b"\x00" * 8)]
            entry_offset = 0

        m = Machine(memory_size=MEM)
        with pytest.raises(LoadError):
            m.load_program(Img())
        assert not any(m.memory)

    @pytest.mark.parametrize("addr, size, overlaps", [
        (CODE_BASE - 8, 8, False),
        (CODE_BASE - 4, 8, True),
        (CODE_BASE + 8, 1, True),
        (CODE_BASE + 12, 8, False),
    ])
    def test_data_segment_overlapping_code(self, addr, size, overlaps):
        class Img:
            code = image(exit_seq())          # 12 bytes
            data_segments = [(addr, b"\x5A" * size)]
            entry_offset = 0

        m = Machine(memory_size=MEM)
        if overlaps:
            with pytest.raises(LoadError, match="overlaps the code"):
                m.load_program(Img())
            assert not any(m.memory)        # a rejected image loads nothing
        else:
            m.load_program(Img())
            assert m.memory[addr:addr + size] == b"\x5A" * size

    def test_run_is_deterministic(self):
        ws = [addi(1, 0, 5), enc_u(0x37, 2, 2), enc_s(0x23, 3, 2, 1, 0),
              enc_i(0x03, 4, 3, 2, 0)] + exit_seq()
        runs = [run_words(ws) for _ in range(2)]
        assert runs[0].regs == runs[1].regs
        assert runs[0].stats.counts == runs[1].stats.counts
        assert runs[0].stats.total_cycles == runs[1].stats.total_cycles


class TestCsrAndExtensions:
    def test_unclaimed_csr_faults(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([enc_i(0x73, 1, 1, 0, 0x800)] + exit_seq()))
        with pytest.raises(CsrFault):
            m.run()

    def test_lane_csr_swap_set_clear(self):
        def setup(m):   # attached after load_program, before the first CSR op
            attach(m).lanes[5] = 0b1100

        ws = [
            addi(2, 0, 0b0110),
            enc_i(0x73, 1, 1, 2, 0x805),   # csrrw x1 (old 1100), write 0110
            enc_i(0x73, 3, 2, 0, 0x805),   # csrrs x3 read-only (rs1=x0)
            enc_i(0x73, 4, 6, 1, 0x805),   # csrrsi set 0b00001
            enc_i(0x73, 5, 7, 2, 0x805),   # csrrci clear 0b00010
            enc_i(0x73, 6, 2, 0, 0x805),   # read back
            addi(7, 0, 0b0100),
            enc_i(0x73, 8, 3, 7, 0x805),   # csrrc clear 0b00100
            enc_i(0x73, 9, 5, 3, 0x805),   # csrrwi x9 (old 0001), write 0b00011
        ] + exit_seq()
        m = run_words(ws, setup=setup)
        assert m.regs[1] == 0b1100
        assert m.regs[3] == 0b0110
        assert m.regs[4] == 0b0110
        assert m.regs[5] == 0b0111
        assert m.regs[6] == 0b0101
        assert m.regs[8] == 0b0101
        assert m.regs[9] == 0b0001
        assert m.round_unit.lanes[5] == 0b0011

    def test_step_and_halted_guard(self):
        m = Machine(memory_size=MEM)
        m.load_program(image([addi(1, 0, 5)] + exit_seq()))
        m.step()
        assert m.regs[1] == 5 and not m.halted
        for _ in range(3):
            m.step()
        assert m.halted
        with pytest.raises(EmulatorError):
            m.step()

    def test_run_on_a_halted_machine_raises_until_reloaded(self):
        m = Machine(memory_size=MEM)
        program = image(exit_seq(3))
        m.load_program(program)
        assert m.run() == 3
        retired = m.stats.total_retired
        with pytest.raises(EmulatorError, match="machine is halted"):
            m.run()
        assert m.stats.total_retired == retired
        m.load_program(program)
        assert m.run() == 3

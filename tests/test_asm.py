"""Assembler and disassembler: golden encodings, label resolution, pseudo
expansion checked by running the result, and encode/decode round trips."""

import random

import pytest

from shatrv import isa
from shatrv.asm import (
    AsmError, AssembledProgram, assemble, disassemble, encode_instruction,
    format_instruction,
)
from shatrv.emulator import CODE_BASE, Machine

MEM = 1 << 16


def run_source(source, mem=MEM):
    m = Machine(memory_size=mem)
    m.load_program(assemble(source))
    m.run()
    return m


EXIT = """
    addi a0, x0, 0
    addi a7, x0, 0
    ecall
"""


class TestGoldenEncodings:
    # Hand-packed from the base format layouts.
    @pytest.mark.parametrize("text,word", [
        ("addi x1, x0, 5", 0x00500093),
        ("lui x1, 0x12345", 0x123450B7),
        ("shatr x10", 0x0005000B),
        ("csrrw x0, 0x800, x5", 0x80029073),
        ("ld x1, 8(x2)", 0x00813083),
        ("sd x5, 16(x2)", 0x00513823),
        ("add x3, x1, x2", 0x002081B3),
        ("sub x3, x1, x2", 0x402081B3),
        ("jalr x0, x1, 0", 0x00008067),
        ("ecall", 0x00000073),
        ("beq x1, x2, -4", 0xFE208EE3),
        ("jal x1, 2048", 0x001000EF),
        ("slli x5, x6, 63", 0x03F31293),
        ("sraiw x5, x6, 11", 0x40B3529B),
        ("csrrsi x1, 0x810, 21", 0x810AE0F3),
    ])
    def test_encode(self, text, word):
        assert encode_instruction(text) == word

    def test_abi_names_accepted(self):
        assert encode_instruction("addi ra, zero, 5") == encode_instruction("addi x1, x0, 5")
        assert encode_instruction("add s0, a0, t6") == encode_instruction("add x8, x10, x31")
        assert encode_instruction("mv fp, sp") == encode_instruction("mv x8, x2")

    def test_negative_offsets(self):
        assert encode_instruction("lw x1, -8(x2)") == isa.encode("lw", rd=1, rs1=2, imm=-8)
        assert encode_instruction("sb x1, -1(x2)") == isa.encode("sb", rs1=2, rs2=1, imm=-1)

    @pytest.mark.parametrize("name, fields, message", [
        ("addi", dict(imm=1.5), "imm must be an int, got 1.5"),
        ("addi", dict(rd="x1"), "rd must be an int, got 'x1'"),
        ("addi", dict(imm=True), "imm must be an int, got True"),
        ("add", dict(rs2=False), "rs2 must be an int, got False"),
        ("csrrw", dict(csr=0x800 * 1.0), "csr must be an int, got 2048.0"),
    ])
    def test_a_field_that_is_not_an_int_raises_value_error(self, name, fields,
                                                           message):
        with pytest.raises(ValueError) as e:
            isa.encode(name, **fields)
        assert str(e.value) == message


class TestAssembleUnits:
    def test_empty_and_comment_only(self):
        prog = assemble("# nothing here\n\n   # still nothing\n")
        assert prog.code == b""
        assert prog.data_segments == []
        assert prog.entry_offset == 0

    def test_label_and_comment_forms(self):
        src = """
        start:  addi x1, x0, 1   # set up
        loop: addi x1, x1, 1
              beq x1, x1, done   # always taken
        mid:
              addi x1, x0, 99
        done: jalr x0, x1, 0
        """
        prog = assemble(src)
        assert len(prog.code) == 5 * 4
        assert prog.symbols["start"] == CODE_BASE
        assert prog.symbols["loop"] == CODE_BASE + 4
        assert prog.symbols["mid"] == CODE_BASE + 12
        assert prog.symbols["done"] == CODE_BASE + 16

    def test_forward_and_backward_branch_targets(self):
        src = """
        top:  addi x5, x5, 1
              beq x0, x0, fwd
              addi x6, x0, 99
        fwd:  bne x5, x7, top
        """
        prog = assemble(src)
        words = [int.from_bytes(prog.code[i:i + 4], "little") for i in range(0, 16, 4)]
        assert words[1] == isa.encode("beq", rs1=0, rs2=0, imm=8)
        assert words[3] == isa.encode("bne", rs1=5, rs2=7, imm=-12)

    def test_numeric_branch_offsets_allowed(self):
        prog = assemble("beq x0, x0, 8\naddi x1, x0, 1\naddi x2, x0, 2\n")
        assert prog.code[:4] == isa.encode("beq", rs1=0, rs2=0, imm=8).to_bytes(4, "little")

    def test_jal_label(self):
        src = "jal ra, target\naddi x1, x0, 1\ntarget: addi x2, x0, 2\n"
        prog = assemble(src)
        assert prog.code[:4] == isa.encode("jal", rd=1, imm=8).to_bytes(4, "little")

    def test_data_directives(self):
        src = """
        .data
        .org 0x2000
        table: .dword 0x1122334455667788
               .dword 1, 2
        .byte 0xAB
        .org 0x3000
        .byte 1
        .align 3
        .dword 7
        """
        prog = assemble(src)
        assert prog.symbols["table"] == 0x2000
        segs = dict((a, bytes(b)) for a, b in prog.data_segments)
        assert segs[0x2000] == (0x1122334455667788).to_bytes(8, "little") \
            + (1).to_bytes(8, "little") + (2).to_bytes(8, "little") + b"\xAB"
        assert segs[0x3000] == b"\x01" + b"\x00" * 7 + (7).to_bytes(8, "little")

    def test_text_resumes_after_data(self):
        src = """
        .data
        .org 0x2000
        .dword 42
        .text
        addi x1, x0, 3
        """
        prog = assemble(src)
        assert len(prog.code) == 4
        assert prog.data_segments == [(0x2000, (42).to_bytes(8, "little"))]

    def test_word_directive_emits_code(self):
        prog = assemble(".word 0x0005000B\n")
        assert prog.code == (0x0005000B).to_bytes(4, "little")


class TestAsmErrors:
    @pytest.mark.parametrize("src,needle", [
        ("frobnicate x1, x2\n", "line 1"),
        ("addi x1, x0\n", "line 1"),
        ("addi x1, x0, 5000\n", "line 1"),
        ("addi x99, x0, 5\n", "line 1"),
        ("beq x0, x0, 7\n", "line 1"),
        ("addi x1, x0, 1\nbeq x0, x0, nowhere\n", "line 2"),
        ("dup: addi x1, x0, 1\ndup: addi x1, x0, 1\n", "line 2"),
        (".org 0x2000\n", "line 1"),          # .org outside .data
        (".data\n.dword 5\n", "line 2"),      # data before .org
        ("ld x1, 8\n", "line 1"),             # load needs offset(reg)
        ("li x1, banana\n", "line 1"),
    ])
    def test_error_cites_line(self, src, needle):
        with pytest.raises(AsmError) as e:
            assemble(src)
        assert needle in str(e.value)

    @pytest.mark.parametrize("src, message", [
        ("nop\n.align 40\n", "line 2: .align exponent must be 0..16, got 40"),
        (".data\n.org 0x2001\n.align 40\n",
         "line 3: .align exponent must be 0..16, got 40"),
        ("nop\n.align -1\n", "line 2: .align exponent must be 0..16, got -1"),
        (".data\n.org 0x2001\n.align -1\n",
         "line 3: .align exponent must be 0..16, got -1"),
    ], ids=["text-40", "data-40", "text-minus-1", "data-minus-1"])
    def test_align_exponent_is_bounded(self, src, message):
        with pytest.raises(AsmError) as e:
            assemble(src)
        assert str(e.value) == message

    @pytest.mark.parametrize("src, message", [
        (".data\n.org 0x2000\n.byte 1, 300\n",
         "line 3: .byte value out of range [-128, 255]: 300"),
        (".data\n.org 0x2000\n.byte -129\n",
         "line 3: .byte value out of range [-128, 255]: -129"),
        (".data\n.org 0x2000\n.dword 0x1ffffffffffffffff\n",
         "line 3: .dword value out of range "
         "[-9223372036854775808, 18446744073709551615]: 0x1ffffffffffffffff"),
        (".data\n.org 0x2000\n.dword -0x8000000000000001\n",
         "line 3: .dword value out of range "
         "[-9223372036854775808, 18446744073709551615]: -0x8000000000000001"),
        ("nop\n.word 0x1ffffffff\n",
         "line 2: .word value out of range [-2147483648, 4294967295]: 0x1ffffffff"),
        ("nop\n.word -0x80000001\n",
         "line 2: .word value out of range [-2147483648, 4294967295]: -0x80000001"),
    ])
    def test_data_value_out_of_range_names_the_line(self, src, message):
        with pytest.raises(AsmError) as e:
            assemble(src)
        assert str(e.value) == message

    def test_data_values_at_both_ends_of_their_range(self):
        prog = assemble(".word -0x80000000, 0xffffffff\n.data\n.org 0x2000\n"
                        ".byte -128, 255, -1\n"
                        ".dword -0x8000000000000000, 0xffffffffffffffff\n")
        assert prog.code == bytes.fromhex("00000080ffffffff")
        assert prog.data_segments == [
            (0x2000, b"\x80\xff\xff" + bytes(7) + b"\x80" + b"\xff" * 8)]

    def test_align_16_pads_to_64_kib(self):
        prog = assemble("nop\n.align 16\nnop\n.data\n.org 0x2001\n"
                        ".align 16\n.byte 1\n")
        nop = isa.encode("addi", rd=0, rs1=0, imm=0).to_bytes(4, "little")
        assert prog.code == nop * ((0x10000 - CODE_BASE) // 4 + 1)
        assert prog.data_segments == [(0x2001, bytes(0x10000 - 0x2001) + b"\x01")]


class TestPseudoInstructions:
    def test_nop_mv_j_ret_expansions(self):
        prog = assemble("nop\nmv x5, x6\nj skip\nret\nskip: nop\n")
        words = [int.from_bytes(prog.code[i:i + 4], "little")
                 for i in range(0, len(prog.code), 4)]
        assert words[0] == isa.encode("addi", rd=0, rs1=0, imm=0)
        assert words[1] == isa.encode("addi", rd=5, rs1=6, imm=0)
        assert words[2] == isa.encode("jal", rd=0, imm=8)
        assert words[3] == isa.encode("jalr", rd=0, rs1=1, imm=0)

    @pytest.mark.parametrize("value", [
        0, 1, -1, 5, -5, 2047, -2048, 2048, -2049, 0x7FFF, 0xFFFF,
        0x12345, 0x7FFFF000, 0x7FFFFFFF, -0x80000000, 0x80000000,
        0xFFFFFFFF, 0x100000000, 0x123456789AB, 0x7FFFFFFFFFFFFFFF,
        -0x8000000000000000, 0xDEADBEEFCAFEBABE, 0xFFFFFFFFFFFFFFFF,
    ])
    def test_li_materializes_exact_value(self, value):
        m = run_source(f"li x5, {value}\n" + EXIT)
        assert m.regs[5] == value & ((1 << 64) - 1)

    def test_li_random_values(self):
        rng = random.Random(0x11)
        for _ in range(40):
            value = rng.getrandbits(64)
            m = run_source(f"li x5, {value:#x}\n" + EXIT)
            assert m.regs[5] == value

    def test_li_width_is_deterministic(self):
        a = assemble("li x5, 0x123456789ABCDEF0\n").code
        b = assemble("li x5, 0x123456789ABCDEF0\n").code
        assert a == b


class TestExecutionIntegration:
    def test_assembled_loop_runs(self):
        src = """
            addi t0, zero, 5
            addi t1, zero, 0
        loop:
            add  t1, t1, t0
            addi t0, t0, -1
            bne  t0, zero, loop
            addi a0, t1, 0
            addi a7, zero, 0
            ecall
        """
        m = Machine(memory_size=MEM)
        m.load_program(assemble(src))
        assert m.run() == 15

    def test_data_segment_reachable_from_code(self):
        src = """
            li   t0, 0x2000
            ld   t1, 0(t0)
            addi a0, t1, 0
            addi a7, zero, 0
            ecall
        .data
        .org 0x2000
        .dword 77
        """
        m = Machine(memory_size=MEM)
        m.load_program(assemble(src))
        assert m.run() == 77


def _random_instruction(rng):
    name = rng.choice(ALL_MNEMONICS)
    fmt = isa.INSTRUCTIONS[name][0]
    kw = {}
    if fmt == "R":
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32), rs2=rng.randrange(32))
    elif fmt in ("I", "load"):
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32),
                  imm=rng.randrange(-2048, 2048))
    elif fmt == "shift6":
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32), imm=rng.randrange(64))
    elif fmt == "shift5":
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32), imm=rng.randrange(32))
    elif fmt == "store":
        kw = dict(rs1=rng.randrange(32), rs2=rng.randrange(32),
                  imm=rng.randrange(-2048, 2048))
    elif fmt == "branch":
        kw = dict(rs1=rng.randrange(32), rs2=rng.randrange(32),
                  imm=rng.randrange(-2048, 2048) * 2)
    elif fmt == "jal":
        kw = dict(rd=rng.randrange(32), imm=rng.randrange(-(1 << 19), 1 << 19) * 2)
    elif fmt == "U":
        kw = dict(rd=rng.randrange(32), imm=rng.getrandbits(20))
    elif fmt == "csr":
        kw = dict(rd=rng.randrange(32), rs1=rng.randrange(32), csr=rng.getrandbits(12))
    elif fmt == "csri":
        kw = dict(rd=rng.randrange(32), imm=rng.randrange(32), csr=rng.getrandbits(12))
    elif fmt == "shatr":
        kw = dict(rs1=rng.randrange(32))
    return name, kw


ALL_MNEMONICS = sorted(isa.INSTRUCTIONS)


class TestRoundTrips:
    def test_encode_decode_field_fixpoint(self):
        rng = random.Random(0x5EED)
        hit = set()
        for _ in range(12000):
            name, kw = _random_instruction(rng)
            word = isa.encode(name, **kw)
            inst = isa.decode(word)
            assert inst.mnemonic == name
            for field, value in kw.items():
                assert getattr(inst, field) == value, (name, kw, field)
            hit.add(name)
        assert hit == set(ALL_MNEMONICS)

    def test_text_round_trip_per_instruction(self):
        rng = random.Random(0x7EE7)
        for _ in range(2000):
            name, kw = _random_instruction(rng)
            word = isa.encode(name, **kw)
            text = format_instruction(isa.decode(word))
            assert encode_instruction(text) == word, text

    def test_disassemble_then_assemble_is_identity_on_code(self):
        rng = random.Random(0xD15)
        words = []
        for _ in range(400):
            name, kw = _random_instruction(rng)
            words.append(isa.encode(name, **kw))
        code = b"".join(w.to_bytes(4, "little") for w in words)
        prog = AssembledProgram(code=code, data_segments=[], entry_offset=0)
        text = disassemble(prog)
        assert assemble(text).code == code

    def test_disassemble_accepts_raw_bytes_and_word_fallback(self):
        blob = (0x0005000B).to_bytes(4, "little") + (0xFFFFFFFF).to_bytes(4, "little")
        text = disassemble(blob)
        lines = [l.strip() for l in text.strip().splitlines()]
        assert lines[0] == "shatr x10"
        assert lines[1] == ".word 0xffffffff"
        assert assemble(text).code == blob

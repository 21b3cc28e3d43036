"""Two-pass assembler and disassembler for the RV64I + Zicsr + shatr subset.

Source syntax, one statement per line:

    label:  mnemonic op1, op2, op3   # comment
    .text | .data | .org ADDR | .dword V[, V...] | .byte V[, V...]
    .align N | .word V[, V...]

Registers may be written x0..x31 or by ABI name (zero, ra, sp, a0..a7,
s0..s11, t0..t6, fp).  Loads and stores take an offset(reg) operand.
Branch and jal targets are labels or numeric byte offsets relative to the
instruction itself; the disassembler always emits the numeric form, so
disassembling and reassembling reproduces the original code bytes.

Pseudo-instructions: li (deterministic lui/addiw/slli/addi expansion),
mv, j, ret, nop.  .org chooses the placement address for what follows in
.data and is required before the first data byte.  .word emits a raw
32-bit code word and is what the disassembler falls back to for words it
cannot decode.

The first pass encodes every instruction whose words depend on neither
its address nor a symbol, memoising each statement's words by its text;
the second pass encodes the rest, branches, jal/j and statements that do
not encode, whose errors it raises in line order, and joins the words.
"""

import functools
import re
import struct
from dataclasses import dataclass, field

from . import isa
from .emulator import CODE_BASE

__all__ = [
    "AsmError", "AssembledProgram", "assemble", "disassemble",
    "encode_instruction", "format_instruction",
]

_M64 = (1 << 64) - 1


class AsmError(Exception):
    """Bad assembly source; the message names the offending line."""


@dataclass
class AssembledProgram:
    """Output of assemble(), in the shape the machine loader accepts."""

    code: bytes
    data_segments: list = field(default_factory=list)
    symbols: dict = field(default_factory=dict)


_REG_NAMES = {f"x{i}": i for i in range(32)}
for _i, _n in enumerate(
        "zero ra sp gp tp t0 t1 t2 s0 s1 a0 a1 a2 a3 a4 a5 a6 a7 "
        "s2 s3 s4 s5 s6 s7 s8 s9 s10 s11 t3 t4 t5 t6".split()):
    _REG_NAMES[_n] = _i
_REG_NAMES["fp"] = 8

_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*:")
_MEM_RE = re.compile(r"^(.+)\((\w+)\)$")


def _parse_int(tok):
    try:
        return int(tok, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {tok!r}") from None


def _sized_int(directive, tok, size):
    """The unsigned image of a `size`-byte directive value, which may be
    written signed or unsigned."""
    value, bits = _parse_int(tok), 8 * size
    lo, hi = -(1 << (bits - 1)), (1 << bits) - 1
    if not lo <= value <= hi:
        raise ValueError(f"{directive} value out of range [{lo}, {hi}]: {tok}")
    return value & hi


def _parse_reg(tok):
    try:
        return _REG_NAMES[tok]
    except KeyError:
        raise ValueError(f"unknown register {tok!r}") from None


def _parse_mem(tok):
    m = _MEM_RE.match(tok)
    if not m:
        raise ValueError(f"expected offset(reg), got {tok!r}")
    return _parse_int(m.group(1).strip()), _parse_reg(m.group(2))


def _split_statement(line):
    parts = line.split(None, 1)
    name = parts[0]
    if len(parts) == 1:
        return name, []
    ops = [p.strip() for p in parts[1].split(",")]
    if any(not p for p in ops):
        raise ValueError("empty operand")
    return name, ops


def _arity(name, ops, n):
    if len(ops) != n:
        raise ValueError(f"{name} expects {n} operand(s), got {len(ops)}")


def _target_offset(tok, addr, symbols):
    if tok in symbols:
        return symbols[tok] - addr
    try:
        return int(tok, 0)
    except ValueError:
        raise ValueError(f"unknown label {tok!r}") from None


# how format_instruction prints each operand slot of an isa.Format syntax
_PRINT = {
    "rd": "x{0.rd}", "rs1": "x{0.rs1}", "rs2": "x{0.rs2}", "imm": "{0.imm}",
    "imm20": "{0.imm:#x}", "csr": "{0.csr:#x}", "target": "{0.imm}",
    "imm(rs1)": "{0.imm}(x{0.rs1})",
}


def _syntax(name, unknown="unknown mnemonic"):
    try:
        return isa.FORMATS[isa.INSTRUCTIONS[name][0]].slots
    except KeyError:
        raise ValueError(f"{unknown} {name!r}") from None


def _encode_statement(name, ops, addr, symbols):
    """Encode one parsed instruction at a known address. Labels in branch
    and jal operands resolve through symbols; raises ValueError on any
    malformed operand, the leftmost first."""
    syntax = _syntax(name)
    _arity(name, ops, len(syntax))
    fields = {}
    for slot, tok in zip(syntax, ops):
        if slot == "imm(rs1)":
            fields["imm"], fields["rs1"] = _parse_mem(tok)
        elif slot == "target":
            fields["imm"] = _target_offset(tok, addr, symbols)
        elif slot == "csr":
            fields["csr"] = _parse_int(tok)
        elif slot.startswith("imm"):
            fields["imm"] = _parse_int(tok)
        else:
            fields[slot] = _parse_reg(tok)
    return isa.encode(name, **fields)


def _rewrite_pseudo(name, ops):
    """Rewrite single-word pseudo-instructions to their base form.
    li is handled separately because it expands to several words."""
    if name == "nop":
        _arity(name, ops, 0)
        return "addi", ["x0", "x0", "0"]
    if name == "mv":
        _arity(name, ops, 2)
        return "addi", [ops[0], ops[1], "0"]
    if name == "j":
        _arity(name, ops, 1)
        return "jal", ["x0", ops[0]]
    if name == "ret":
        _arity(name, ops, 0)
        return "jalr", ["x0", "x1", "0"]
    return name, ops


def _li_sequence(rd, value):
    """Deterministic expansion of li as (mnemonic, kwargs) pairs.
    Accepts any 64-bit value, signed or unsigned spelling."""
    if not -(1 << 63) <= value < (1 << 64):
        raise ValueError(f"li value out of 64-bit range: {value:#x}")
    v = value & _M64
    if v >= 1 << 63:
        v -= 1 << 64
    return _li_signed(rd, v)


def _li_signed(rd, v):
    if -2048 <= v <= 2047:
        return [("addi", dict(rd=rd, rs1=0, imm=v))]
    lo = isa.sign_extend(v & 0xFFF, 12)
    if -(1 << 31) <= v <= (1 << 31) - 1:
        # addiw's 32-bit wrap keeps this exact across the whole range
        seq = [("lui", dict(rd=rd, imm=((v - lo) >> 12) & 0xFFFFF))]
        if lo:
            seq.append(("addiw", dict(rd=rd, rs1=rd, imm=lo)))
        return seq
    seq = _li_signed(rd, (v - lo) >> 12)
    seq.append(("slli", dict(rd=rd, rs1=rd, imm=12)))
    if lo:
        seq.append(("addi", dict(rd=rd, rs1=rd, imm=lo)))
    return seq


def _li_words(ops):
    _arity("li", ops, 2)
    rd = _parse_reg(ops[0])
    return tuple(isa.encode(mnemonic, **kwargs)
                 for mnemonic, kwargs in _li_sequence(rd, _parse_int(ops[1])))


@functools.lru_cache(maxsize=8192)
def _statement_words(text):
    """Code words of one label-free instruction or pseudo-instruction, or
    None to defer it to the second pass: a branch or jal, whose words
    depend on its address, or a statement that does not encode.  Raises
    ValueError on a malformed li or pseudo-instruction; lru_cache keeps no
    exception."""
    name, ops = _split_statement(text)
    if name == "li":
        return _li_words(ops)
    name, ops = _rewrite_pseudo(name, ops)
    try:
        if "target" not in _syntax(name):
            return (_encode_statement(name, ops, 0, {}),)
    except ValueError:
        pass
    return None


_NOP_WORD = 0x00000013


class _Assembler:
    def __init__(self):
        self.symbols = {}
        self.words = []          # code words, None where a deferred statement goes
        self.deferred = []       # (line_no, word index, statement text)
        self.section = "text"
        self.segments = []       # [address, bytearray, .org line] triples
        self.data_addr = None

    @property
    def text_addr(self):
        return CODE_BASE + 4 * len(self.words)

    def fail(self, line_no, msg):
        raise AsmError(f"line {line_no}: {msg}")

    def data_buffer(self, line_no):
        if self.data_addr is None:
            self.fail(line_no, "data emitted before any .org address")
        return self.segments[-1][1]

    def emit_data(self, line_no, blob):
        self.data_buffer(line_no).extend(blob)
        self.data_addr += len(blob)

    def define_label(self, line_no, name):
        if name in self.symbols:
            self.fail(line_no, f"duplicate label {name!r}")
        if self.section == "text":
            self.symbols[name] = self.text_addr
        else:
            if self.data_addr is None:
                self.fail(line_no, "data label before any .org address")
            self.symbols[name] = self.data_addr

    def directive(self, line_no, name, ops):
        if name == ".text":
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".org":
            if self.section != "data":
                self.fail(line_no, ".org is only valid in the .data section")
            if len(ops) != 1:
                self.fail(line_no, ".org expects one address")
            self.data_addr = _parse_int(ops[0])
            if self.data_addr < 0:
                self.fail(line_no, f".org address is negative: {ops[0]}")
            self.segments.append([self.data_addr, bytearray(), line_no])
        elif name in (".dword", ".byte"):
            if self.section != "data":
                self.fail(line_no, f"{name} is only valid in the .data section")
            size = 8 if name == ".dword" else 1
            for tok in ops:
                value = _sized_int(name, tok, size)
                self.emit_data(line_no, value.to_bytes(size, "little"))
        elif name == ".word":
            if self.section != "text":
                self.fail(line_no, ".word is only valid in the .text section")
            for tok in ops:
                self.words.append(_sized_int(name, tok, 4))
        elif name == ".align":
            if len(ops) != 1:
                self.fail(line_no, ".align expects one power-of-two exponent")
            exponent = _parse_int(ops[0])
            if not 0 <= exponent <= 16:
                self.fail(line_no, f".align exponent must be 0..16, got {exponent}")
            step = 1 << exponent
            if self.section == "text":
                self.words += [_NOP_WORD] * (-self.text_addr % step // 4)
            else:
                pad = -self.data_addr % step if self.data_addr is not None else 0
                self.emit_data(line_no, bytes(pad))
        else:
            self.fail(line_no, f"unknown directive {name!r}")

    def first_pass(self, source):
        for line_no, raw in enumerate(source.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            while ":" in line:
                m = _LABEL_RE.match(line)
                if not m:
                    break
                self.define_label(line_no, m.group(1))
                line = line[m.end():].strip()
            if not line:
                continue
            try:
                if line[0] == ".":
                    self.directive(line_no, *_split_statement(line))
                elif self.section != "text":
                    self.fail(line_no, "instruction outside the .text section")
                else:
                    words = _statement_words(line)
                    if words is None:
                        self.deferred.append((line_no, len(self.words), line))
                        words = (None,)
                    self.words.extend(words)
            except ValueError as e:
                self.fail(line_no, str(e))

    def second_pass(self):
        words = self.words
        for line_no, index, text in self.deferred:
            try:
                name, ops = _rewrite_pseudo(*_split_statement(text))
                words[index] = _encode_statement(
                    name, ops, CODE_BASE + 4 * index, self.symbols)
            except ValueError as e:
                self.fail(line_no, str(e))
        return struct.pack(f"<{len(words)}I", *words)

    def data_segments(self):
        """The non-empty segments as (address, bytes) pairs; two that
        overlap fail on the later of their .org lines."""
        spans = sorted((addr, addr + len(buf), line_no)
                       for addr, buf, line_no in self.segments if buf)
        for (a, a_end, i), (b, _, j) in zip(spans, spans[1:]):
            if b < a_end:
                self.fail(max(i, j), f"data at {a:#x} and at {b:#x} overlap")
        return [(addr, bytes(buf)) for addr, buf, _ in self.segments if buf]


def assemble(source):
    """Assemble source text into an AssembledProgram. Code is placed at the
    machine's fixed code base; data goes wherever .org directives say."""
    a = _Assembler()
    a.first_pass(source)
    code = a.second_pass()
    return AssembledProgram(code=code, data_segments=a.data_segments(),
                            symbols=dict(a.symbols))


def encode_instruction(text):
    """Assemble a single label-free instruction to its 32-bit word."""
    try:
        name, ops = _split_statement(text.strip())
        if name == "li":
            raise ValueError("li may expand to several words; use assemble()")
        name, ops = _rewrite_pseudo(name, ops)
        return _encode_statement(name, ops, 0, {})
    except ValueError as e:
        raise AsmError(str(e)) from None


def format_instruction(inst):
    """Render a decoded instruction in the canonical text the assembler
    accepts. Branch and jump targets come out as numeric offsets."""
    syntax = _syntax(inst.mnemonic, "no canonical form for")
    ops = ", ".join(_PRINT[slot].format(inst) for slot in syntax)
    return f"{inst.mnemonic} {ops}" if ops else inst.mnemonic


def disassemble(program):
    """Disassemble an AssembledProgram or raw code bytes, one instruction
    per line, else raise ValueError. Words that do not decode come out as
    .word literals so the output always reassembles to the same bytes."""
    code = getattr(program, "code", program)
    if not isinstance(code, (bytes, bytearray)):
        raise ValueError(f"not code bytes or a program of code bytes: {program!r:.60}")
    if len(code) % 4:
        raise ValueError(f"code length {len(code)} is not a multiple of 4")
    lines = []
    for i in range(0, len(code), 4):
        word = int.from_bytes(code[i:i + 4], "little")
        try:
            lines.append(format_instruction(isa.decode(word)))
        except isa.DecodeError:
            lines.append(f".word {word:#010x}")
    return "".join(line + "\n" for line in lines)

"""Instruction encodings shared by the emulator, assembler, and disassembler.

Supported set: RV64I integer instructions (no FENCE, no EBREAK), the Zicsr
register and immediate forms, and the shatr round instruction on the
custom-0 opcode.

INSTRUCTIONS holds one row per mnemonic: its operand format and its match
word, the word with every fixed field (opcode, funct3, funct7 or funct6)
set, as in riscv-opcodes' MATCH/MASK convention. FORMATS gives each format
the mask of the bits its rows fix, a category, its operand syntax and its
immediate. encode, decode, the assembler and the disassembler all derive
from these two tables, so a new instruction is one row here (two with a
new format) plus its semantics in the emulator. Immediate conventions in DecodedInstruction:

  - I/S/B/J forms: imm is the sign-extended byte value (branch/jump
    immediates are pc-relative byte offsets).
  - U forms (lui/auipc): imm is the raw 20-bit field, unshifted.
  - Shifts: imm is the shift amount.
  - CSR immediate forms: imm is the 5-bit zero-extended operand.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

INT_ALU = "int_alu"
MEM_READ = "mem_read"
MEM_WRITE = "mem_write"
BRANCH = "branch"
CSR = "csr"
CUSTOM = "custom"
OTHER = "other"
CATEGORIES = (INT_ALU, MEM_READ, MEM_WRITE, BRANCH, CSR, CUSTOM, OTHER)
CATEGORY_INDEX = {name: i for i, name in enumerate(CATEGORIES)}

OPCODE_CUSTOM0 = 0x0B
# the shatr unit's lane register file: lane i (state index 5*y + x) is CSR
# LANE_CSR_BASE + i
LANE_CSR_BASE = 0x800
LANE_CSR_LAST = LANE_CSR_BASE + 24


class EmulatorError(Exception):
    """Base for everything the machine can raise while running."""


class DecodeError(EmulatorError):
    """Word does not encode a supported instruction."""


class DecodedInstruction(NamedTuple):
    """A decoded word: a tuple, so immutable, equal and hashing by its fields."""
    raw: int
    mnemonic: str
    category: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int | None = None


def sign_extend(value, bits):
    mask = 1 << (bits - 1)
    return (value & (mask - 1)) - (value & mask)


# mnemonic -> (format, match word)
INSTRUCTIONS = {
    "add": ("R", 0x00000033), "sub": ("R", 0x40000033),
    "sll": ("R", 0x00001033), "slt": ("R", 0x00002033),
    "sltu": ("R", 0x00003033), "xor": ("R", 0x00004033),
    "srl": ("R", 0x00005033), "sra": ("R", 0x40005033),
    "or": ("R", 0x00006033), "and": ("R", 0x00007033),
    "addw": ("R", 0x0000003B), "subw": ("R", 0x4000003B),
    "sllw": ("R", 0x0000103B), "srlw": ("R", 0x0000503B),
    "sraw": ("R", 0x4000503B),
    "addi": ("I", 0x00000013), "slti": ("I", 0x00002013),
    "sltiu": ("I", 0x00003013), "xori": ("I", 0x00004013),
    "ori": ("I", 0x00006013), "andi": ("I", 0x00007013),
    "addiw": ("I", 0x0000001B), "jalr": ("I", 0x00000067),
    "slli": ("shift6", 0x00001013), "srli": ("shift6", 0x00005013),
    "srai": ("shift6", 0x40005013),
    "slliw": ("shift5", 0x0000101B), "srliw": ("shift5", 0x0000501B),
    "sraiw": ("shift5", 0x4000501B),
    "lb": ("load", 0x00000003), "lh": ("load", 0x00001003),
    "lw": ("load", 0x00002003), "ld": ("load", 0x00003003),
    "lbu": ("load", 0x00004003), "lhu": ("load", 0x00005003),
    "lwu": ("load", 0x00006003),
    "sb": ("store", 0x00000023), "sh": ("store", 0x00001023),
    "sw": ("store", 0x00002023), "sd": ("store", 0x00003023),
    "beq": ("branch", 0x00000063), "bne": ("branch", 0x00001063),
    "blt": ("branch", 0x00004063), "bge": ("branch", 0x00005063),
    "bltu": ("branch", 0x00006063), "bgeu": ("branch", 0x00007063),
    "jal": ("jal", 0x0000006F),
    "lui": ("U", 0x00000037), "auipc": ("U", 0x00000017),
    "csrrw": ("csr", 0x00001073), "csrrs": ("csr", 0x00002073),
    "csrrc": ("csr", 0x00003073),
    "csrrwi": ("csri", 0x00005073), "csrrsi": ("csri", 0x00006073),
    "csrrci": ("csri", 0x00007073),
    "ecall": ("ecall", 0x00000073),
    # one Keccak-f[1600] round: funct7, rs2, funct3 and rd must be zero
    "shatr": ("shatr", OPCODE_CUSTOM0),
}


# the fields of the register operands rd, rs1 and rs2
_REG_FIELDS = {"rd": 0x1F << 7, "rs1": 0x1F << 15, "rs2": 0x1F << 20}


@dataclass(frozen=True)
class Format:
    mask: int               # the bits every row of the format fixes
    category: str           # what its rows retire as; jalr (I) is a branch
    syntax: str             # its operand slots in source order, as asm parses them
    immediate: str | None   # a key of _IMMEDIATES
    slots: tuple = field(init=False)    # from the syntax: its slots
    registers: int = field(init=False)  # from the syntax: its registers' fields
    csr: bool = field(init=False)       # from the syntax: a CSR in bits 20..31

    def __post_init__(self):
        names = self.syntax.replace("(", " ").replace(")", "").split()
        object.__setattr__(self, "slots", tuple(self.syntax.split()))
        object.__setattr__(self, "registers", sum(_REG_FIELDS.get(n, 0) for n in names))
        object.__setattr__(self, "csr", "csr" in names)


FORMATS = {
    "R": Format(0xFE00707F, INT_ALU, "rd rs1 rs2", None),
    "I": Format(0x0000707F, INT_ALU, "rd rs1 imm", "i12"),
    "shift6": Format(0xFC00707F, INT_ALU, "rd rs1 imm", "shamt6"),
    "shift5": Format(0xFE00707F, INT_ALU, "rd rs1 imm", "shamt5"),
    "load": Format(0x0000707F, MEM_READ, "rd imm(rs1)", "i12"),
    "store": Format(0x0000707F, MEM_WRITE, "rs2 imm(rs1)", "s12"),
    "branch": Format(0x0000707F, BRANCH, "rs1 rs2 target", "b13"),
    "jal": Format(0x0000007F, BRANCH, "rd target", "j21"),
    "U": Format(0x0000007F, INT_ALU, "rd imm20", "u20"),
    "csr": Format(0x0000707F, CSR, "rd csr rs1", None),
    "csri": Format(0x0000707F, CSR, "rd csr imm", "zimm5"),
    "ecall": Format(0xFFFFFFFF, OTHER, "", None),
    "shatr": Format(0xFFF07FFF, CUSTOM, "rs1", None),
}


def _imm_b(word):
    v = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) \
        | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
    return sign_extend(v, 13)


def _imm_j(word):
    v = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) \
        | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
    return sign_extend(v, 21)


def _enc_b(imm):
    u = imm & 0x1FFF
    return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3F) << 25) \
        | (((u >> 1) & 0xF) << 8) | (((u >> 11) & 1) << 7)


def _enc_j(imm):
    u = imm & 0x1FFFFF
    return (((u >> 20) & 1) << 31) | (((u >> 1) & 0x3FF) << 21) \
        | (((u >> 11) & 1) << 20) | (((u >> 12) & 0xFF) << 12)


class _Immediate(NamedTuple):
    lo: int
    hi: int
    even: bool
    out_of_range: str       # ValueError text, formatted with the value
    unpack: object          # word -> value
    pack: object            # value -> its bits of the word


def _signed(bits, unpack, pack, even=False):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return _Immediate(lo, hi, even, f"imm out of range [{lo}, {hi}]: {{}}",
                      unpack, pack)


_IMMEDIATES = {
    "i12": _signed(12, lambda w: sign_extend(w >> 20, 12),
                   lambda v: (v & 0xFFF) << 20),
    "s12": _signed(12, lambda w: sign_extend(((w >> 25) << 5) | ((w >> 7) & 0x1F), 12),
                   lambda v: ((v & 0xFE0) << 20) | ((v & 0x1F) << 7)),
    "b13": _signed(13, _imm_b, _enc_b, even=True),
    "j21": _signed(21, _imm_j, _enc_j, even=True),
    "u20": _Immediate(0, 0xFFFFF, False, "20-bit field out of range: {:#x}",
                      lambda w: w >> 12, lambda v: v << 12),
    "shamt6": _Immediate(0, 63, False, "shift amount out of range: {}",
                         lambda w: (w >> 20) & 0x3F, lambda v: v << 20),
    "shamt5": _Immediate(0, 31, False, "shift amount out of range: {}",
                         lambda w: (w >> 20) & 0x1F, lambda v: v << 20),
    "zimm5": _Immediate(0, 31, False, "csr immediate out of range: {}",
                        lambda w: (w >> 15) & 0x1F, lambda v: v << 15),
}


def _decode_tables():
    """One {match: row} table per distinct mask, where a row is what decode
    needs: (mnemonic, category, register fields, immediate unpacker or
    None, csr). The masks that fix the fewest bits, and so the most rows,
    come first."""
    tables = {}
    for name, (fmt, match) in INSTRUCTIONS.items():
        f = FORMATS[fmt]
        imm = f.immediate and _IMMEDIATES[f.immediate].unpack
        tables.setdefault(f.mask, {})[match] = (
            name, BRANCH if name == "jalr" else f.category,
            f.registers, imm, f.csr)
    return tuple(sorted(tables.items(), key=lambda t: -len(t[1])))


_DECODE = _decode_tables()
_OPCODES = frozenset(match & 0x7F for _, match in INSTRUCTIONS.values())


def decode(word):
    """Decode one 32-bit word. Raises DecodeError for anything outside the
    supported set, a non-int too, and never raises anything else."""
    if type(word) is not int:
        raise DecodeError(f"not a 32-bit word: {word!r}")
    if not 0 <= word < (1 << 32):
        raise DecodeError(f"not a 32-bit word: {word:#x}")
    for mask, rows in _DECODE:
        row = rows.get(word & mask)
        if row is not None:
            break
    else:
        opcode = word & 0x7F
        if opcode in _OPCODES:
            raise DecodeError(f"bad funct bits under opcode {opcode:#04x}: {word:#010x}")
        raise DecodeError(f"unsupported opcode {opcode:#04x}: {word:#010x}")
    mnemonic, category, registers, unpack, csr = row
    r = word & registers
    # tuple.__new__ skips the NamedTuple's own __new__, a Python call
    return tuple.__new__(DecodedInstruction, (
        word, mnemonic, category, r >> 7 & 0x1F, r >> 15 & 0x1F, r >> 20,
        unpack(word) if unpack else 0, word >> 20 if csr else None))


# mnemonic -> (match word, register fields, csr in bits 20..31, _Immediate or None)
_ENCODE = {name: (match, f.registers, f.csr, f.immediate and _IMMEDIATES[f.immediate])
           for name, (fmt, match) in INSTRUCTIONS.items() for f in (FORMATS[fmt],)}


def encode(mnemonic, rd=0, rs1=0, rs2=0, imm=0, csr=None):
    """Encode one instruction to its 32-bit word. Raises ValueError on any
    out-of-range field, and on a field that is not an int (a bool is not)."""
    if not (type(rd) is type(rs1) is type(rs2) is type(imm) is int
            and (csr is None or type(csr) is int)
            and 0 <= rd <= 31 and 0 <= rs1 <= 31 and 0 <= rs2 <= 31
            and mnemonic in _ENCODE):
        # the first field that fails, in this order, raises; int subclasses pass
        for name, v in (("rd", rd), ("rs1", rs1), ("rs2", rs2), ("imm", imm),
                        ("csr", 0 if csr is None else csr)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} must be an int, got {v!r}")
        for reg, v in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
            if not 0 <= v <= 31:
                raise ValueError(f"{reg} out of range: {v}")
        if mnemonic not in INSTRUCTIONS:
            raise ValueError(f"unknown mnemonic: {mnemonic}")
    word, registers, has_csr, spec = _ENCODE[mnemonic]
    if has_csr:
        if csr is None or not 0 <= csr <= 0xFFF:
            raise ValueError(f"bad csr address: {csr}")
        word |= csr << 20
    if spec:
        if not spec.lo <= imm <= spec.hi:
            raise ValueError(spec.out_of_range.format(imm))
        if spec.even and imm & 1:
            raise ValueError(f"imm must be even: {imm}")
        word |= spec.pack(imm)
    return word | ((rd << 7) | (rs1 << 15) | (rs2 << 20)) & registers

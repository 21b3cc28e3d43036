"""Instruction encodings shared by the emulator, assembler, and disassembler.

Supported set: RV64I integer instructions (no FENCE, no EBREAK), the Zicsr
register and immediate forms, and the shatr round instruction on the
custom-0 opcode. Immediate conventions in DecodedInstruction:

  - I/S/B/J forms: imm is the sign-extended byte value (branch/jump
    immediates are pc-relative byte offsets).
  - U forms (lui/auipc): imm is the raw 20-bit field, unshifted.
  - Shifts: imm is the shift amount.
  - CSR immediate forms: imm is the 5-bit zero-extended operand.
"""

from dataclasses import dataclass

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
SHATR_MNEMONIC = "shatr"
ECALL_WORD = 0x00000073
# the shatr unit's lane register file: lane i (state index 5*y + x) is CSR
# LANE_CSR_BASE + i
LANE_CSR_BASE = 0x800
LANE_CSR_LAST = LANE_CSR_BASE + 24


class EmulatorError(Exception):
    """Base for everything the machine can raise while running."""


class DecodeError(EmulatorError):
    """Word does not encode a supported instruction."""


@dataclass(frozen=True)
class DecodedInstruction:
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


# mnemonic -> (funct3,) per simple-funct3 groups
_BRANCHES = {"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}
_LOADS = {"lb": 0, "lh": 1, "lw": 2, "ld": 3, "lbu": 4, "lhu": 5, "lwu": 6}
_STORES = {"sb": 0, "sh": 1, "sw": 2, "sd": 3}
_OP_IMM = {"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}
# mnemonic -> (funct3, funct7)
_OP = {
    "add": (0, 0x00), "sub": (0, 0x20), "sll": (1, 0x00), "slt": (2, 0x00),
    "sltu": (3, 0x00), "xor": (4, 0x00), "srl": (5, 0x00), "sra": (5, 0x20),
    "or": (6, 0x00), "and": (7, 0x00),
}
_OP_32 = {
    "addw": (0, 0x00), "subw": (0, 0x20), "sllw": (1, 0x00),
    "srlw": (5, 0x00), "sraw": (5, 0x20),
}
# RV64 shifts on OP-IMM use a 6-bit shamt below a 6-bit funct field
_SHIFT_IMM = {"slli": (1, 0x00), "srli": (5, 0x00), "srai": (5, 0x10)}
_SHIFT_IMM_32 = {"slliw": (1, 0x00), "srliw": (5, 0x00), "sraiw": (5, 0x20)}
_CSR_REG = {"csrrw": 1, "csrrs": 2, "csrrc": 3}
_CSR_IMM = {"csrrwi": 5, "csrrsi": 6, "csrrci": 7}

_BY_F3 = lambda table: {v: k for k, v in table.items()}
_BRANCH_BY_F3 = _BY_F3(_BRANCHES)
_LOAD_BY_F3 = _BY_F3(_LOADS)
_STORE_BY_F3 = _BY_F3(_STORES)
_OP_IMM_BY_F3 = _BY_F3(_OP_IMM)
_CSR_REG_BY_F3 = _BY_F3(_CSR_REG)
_CSR_IMM_BY_F3 = _BY_F3(_CSR_IMM)
_OP_BY_FUNCT = {v: k for k, v in _OP.items()}
_OP_32_BY_FUNCT = {v: k for k, v in _OP_32.items()}


def _fields(word):
    return ((word >> 7) & 0x1F, (word >> 12) & 0x7, (word >> 15) & 0x1F,
            (word >> 20) & 0x1F, (word >> 25) & 0x7F)


def _imm_i(word):
    return sign_extend(word >> 20, 12)


def _imm_s(word):
    return sign_extend(((word >> 25) << 5) | ((word >> 7) & 0x1F), 12)


def _imm_b(word):
    v = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) \
        | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
    return sign_extend(v, 13)


def _imm_j(word):
    v = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12) \
        | (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
    return sign_extend(v, 21)


def decode(word):
    """Decode one 32-bit word. Raises DecodeError for anything outside the
    supported set; never raises anything else on arbitrary 32-bit input."""
    if not 0 <= word < (1 << 32):
        raise DecodeError(f"not a 32-bit word: {word:#x}")
    opcode = word & 0x7F
    rd, f3, rs1, rs2, f7 = _fields(word)

    if opcode == 0x37:
        return DecodedInstruction(word, "lui", INT_ALU, rd=rd, imm=word >> 12)
    if opcode == 0x17:
        return DecodedInstruction(word, "auipc", INT_ALU, rd=rd, imm=word >> 12)
    if opcode == 0x6F:
        return DecodedInstruction(word, "jal", BRANCH, rd=rd, imm=_imm_j(word))
    if opcode == 0x67:
        if f3 != 0:
            raise DecodeError(f"jalr funct3 must be 0: {word:#010x}")
        return DecodedInstruction(word, "jalr", BRANCH, rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == 0x63:
        name = _BRANCH_BY_F3.get(f3)
        if name is None:
            raise DecodeError(f"bad branch funct3 {f3}: {word:#010x}")
        return DecodedInstruction(word, name, BRANCH, rs1=rs1, rs2=rs2, imm=_imm_b(word))
    if opcode == 0x03:
        name = _LOAD_BY_F3.get(f3)
        if name is None:
            raise DecodeError(f"bad load funct3 {f3}: {word:#010x}")
        return DecodedInstruction(word, name, MEM_READ, rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == 0x23:
        name = _STORE_BY_F3.get(f3)
        if name is None:
            raise DecodeError(f"bad store funct3 {f3}: {word:#010x}")
        return DecodedInstruction(word, name, MEM_WRITE, rs1=rs1, rs2=rs2, imm=_imm_s(word))
    if opcode == 0x13:
        if f3 == 1 or f3 == 5:
            funct6 = word >> 26
            shamt = (word >> 20) & 0x3F
            for name, (nf3, nf6) in _SHIFT_IMM.items():
                if nf3 == f3 and nf6 == funct6:
                    return DecodedInstruction(word, name, INT_ALU, rd=rd, rs1=rs1, imm=shamt)
            raise DecodeError(f"bad shift funct6 {funct6:#x}: {word:#010x}")
        name = _OP_IMM_BY_F3.get(f3)
        if name is None:
            raise DecodeError(f"bad op-imm funct3 {f3}: {word:#010x}")
        return DecodedInstruction(word, name, INT_ALU, rd=rd, rs1=rs1, imm=_imm_i(word))
    if opcode == 0x1B:
        if f3 == 0:
            return DecodedInstruction(word, "addiw", INT_ALU, rd=rd, rs1=rs1, imm=_imm_i(word))
        if f3 == 1 or f3 == 5:
            for name, (nf3, nf7) in _SHIFT_IMM_32.items():
                if nf3 == f3 and nf7 == f7:
                    return DecodedInstruction(word, name, INT_ALU, rd=rd, rs1=rs1, imm=rs2)
            raise DecodeError(f"bad 32-bit shift funct7 {f7:#x}: {word:#010x}")
        raise DecodeError(f"bad op-imm-32 funct3 {f3}: {word:#010x}")
    if opcode == 0x33:
        name = _OP_BY_FUNCT.get((f3, f7))
        if name is None:
            raise DecodeError(f"bad op funct {f3}/{f7:#x}: {word:#010x}")
        return DecodedInstruction(word, name, INT_ALU, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x3B:
        name = _OP_32_BY_FUNCT.get((f3, f7))
        if name is None:
            raise DecodeError(f"bad op-32 funct {f3}/{f7:#x}: {word:#010x}")
        return DecodedInstruction(word, name, INT_ALU, rd=rd, rs1=rs1, rs2=rs2)
    if opcode == 0x73:
        if f3 == 0:
            if word != ECALL_WORD:
                raise DecodeError(f"unsupported system instruction: {word:#010x}")
            return DecodedInstruction(word, "ecall", OTHER)
        csr = word >> 20
        name = _CSR_REG_BY_F3.get(f3)
        if name is not None:
            return DecodedInstruction(word, name, CSR, rd=rd, rs1=rs1, csr=csr)
        name = _CSR_IMM_BY_F3.get(f3)
        if name is not None:
            return DecodedInstruction(word, name, CSR, rd=rd, imm=rs1, csr=csr)
        raise DecodeError(f"bad system funct3 {f3}: {word:#010x}")
    if opcode == OPCODE_CUSTOM0:
        if f3 != 0 or f7 != 0 or rd != 0 or rs2 != 0:
            raise DecodeError(f"bad {SHATR_MNEMONIC} funct/rd/rs2 bits: {word:#010x}")
        return DecodedInstruction(word, SHATR_MNEMONIC, CUSTOM, rs1=rs1)
    raise DecodeError(f"unsupported opcode {opcode:#04x}: {word:#010x}")


def _check_reg(name, v):
    if not 0 <= v <= 31:
        raise ValueError(f"{name} out of range: {v}")


def _check_imm(name, v, bits, *, even=False):
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if not lo <= v <= hi:
        raise ValueError(f"{name} out of range [{lo}, {hi}]: {v}")
    if even and v & 1:
        raise ValueError(f"{name} must be even: {v}")


def _enc_b(imm):
    u = imm & 0x1FFF
    return (((u >> 12) & 1) << 31) | (((u >> 5) & 0x3F) << 25) \
        | (((u >> 1) & 0xF) << 8) | (((u >> 11) & 1) << 7)


def _enc_j(imm):
    u = imm & 0x1FFFFF
    return (((u >> 20) & 1) << 31) | (((u >> 1) & 0x3FF) << 21) \
        | (((u >> 11) & 1) << 20) | (((u >> 12) & 0xFF) << 12)


def encode(mnemonic, rd=0, rs1=0, rs2=0, imm=0, csr=None):
    """Encode one instruction to its 32-bit word. Raises ValueError on any
    out-of-range field."""
    _check_reg("rd", rd)
    _check_reg("rs1", rs1)
    _check_reg("rs2", rs2)

    if mnemonic in _OP:
        f3, f7 = _OP[mnemonic]
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x33
    if mnemonic in _OP_32:
        f3, f7 = _OP_32[mnemonic]
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x3B
    if mnemonic in _OP_IMM:
        _check_imm("imm", imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (_OP_IMM[mnemonic] << 12) | (rd << 7) | 0x13
    if mnemonic in _SHIFT_IMM:
        f3, f6 = _SHIFT_IMM[mnemonic]
        if not 0 <= imm <= 63:
            raise ValueError(f"shift amount out of range: {imm}")
        return (f6 << 26) | (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x13
    if mnemonic == "addiw":
        _check_imm("imm", imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x1B
    if mnemonic in _SHIFT_IMM_32:
        f3, f7 = _SHIFT_IMM_32[mnemonic]
        if not 0 <= imm <= 31:
            raise ValueError(f"shift amount out of range: {imm}")
        return (f7 << 25) | (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | 0x1B
    if mnemonic in _LOADS:
        _check_imm("imm", imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (_LOADS[mnemonic] << 12) | (rd << 7) | 0x03
    if mnemonic in _STORES:
        _check_imm("imm", imm, 12)
        u = imm & 0xFFF
        return ((u >> 5) << 25) | (rs2 << 20) | (rs1 << 15) | (_STORES[mnemonic] << 12) \
            | ((u & 0x1F) << 7) | 0x23
    if mnemonic in _BRANCHES:
        _check_imm("imm", imm, 13, even=True)
        return _enc_b(imm) | (rs2 << 20) | (rs1 << 15) | (_BRANCHES[mnemonic] << 12) | 0x63
    if mnemonic == "jal":
        _check_imm("imm", imm, 21, even=True)
        return _enc_j(imm) | (rd << 7) | 0x6F
    if mnemonic == "jalr":
        _check_imm("imm", imm, 12)
        return ((imm & 0xFFF) << 20) | (rs1 << 15) | (rd << 7) | 0x67
    if mnemonic in ("lui", "auipc"):
        if not 0 <= imm <= 0xFFFFF:
            raise ValueError(f"20-bit field out of range: {imm:#x}")
        return (imm << 12) | (rd << 7) | (0x37 if mnemonic == "lui" else 0x17)
    if mnemonic in _CSR_REG:
        if csr is None or not 0 <= csr <= 0xFFF:
            raise ValueError(f"bad csr address: {csr}")
        return (csr << 20) | (rs1 << 15) | (_CSR_REG[mnemonic] << 12) | (rd << 7) | 0x73
    if mnemonic in _CSR_IMM:
        if csr is None or not 0 <= csr <= 0xFFF:
            raise ValueError(f"bad csr address: {csr}")
        if not 0 <= imm <= 31:
            raise ValueError(f"csr immediate out of range: {imm}")
        return (csr << 20) | (imm << 15) | (_CSR_IMM[mnemonic] << 12) | (rd << 7) | 0x73
    if mnemonic == "ecall":
        return ECALL_WORD
    if mnemonic == SHATR_MNEMONIC:
        return (rs1 << 15) | OPCODE_CUSTOM0
    raise ValueError(f"unknown mnemonic: {mnemonic}")

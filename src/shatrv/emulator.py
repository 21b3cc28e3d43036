"""Deterministic RV64I+Zicsr interpreter with instruction accounting.

The machine is single-hart, machine-mode only, flat little-endian memory,
code loaded at CODE_BASE. Guests talk to the harness through an ecall
hypercall ABI selected by a7:

    0: exit        status in a0
    1: region_begin  region id in a0
    2: region_end    region id in a0
    3: emit_digest   guest address in a0, byte length in a1

Hypercall ecalls count globally (category "other") but never toward open
region counters.

Guest code is translated once and run one basic block at a time. A block
is the executor closures from its entry pc through the first branch, jump
or ecall; it carries its per-category counts and cycle sum, which are
added once per run of the block. Regions change only at an ecall, which
ends a block, so region counts stay exact. A Translations cache maps each
instruction word to its executor and each (code bytes, unit attached,
cost model) to its blocks by pc; machines that share one share the work.
That is sound because guest code is fixed: instructions are fetched only
from the loaded code, and a store that overlaps it raises MemoryFault.

A stock machine decodes only RV64I+Zicsr and has no CSRs. shatr.attach()
fills its one round-unit slot, which brings the shatr instruction and the
lane CSRs 0x800..0x818, the only CSRs the machine has.
"""

import math
import operator
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

from . import isa
from .isa import (
    BRANCH, CATEGORIES, CATEGORY_INDEX, CUSTOM, LANE_CSR_BASE, LANE_CSR_LAST,
    MEM_READ, MEM_WRITE, OTHER, DecodeError, EmulatorError,
)

__all__ = [
    "CODE_BASE", "DEFAULT_MEMORY_SIZE", "CostModel", "ExecutionStats",
    "Machine", "Translations", "EmulatorError", "DecodeError", "MemoryFault",
    "CsrFault", "HypercallFault", "IllegalOperand", "RegistrationError",
    "LoadError", "BudgetExceeded",
]

CODE_BASE = 0x1000
DEFAULT_MEMORY_SIZE = 16 * 1024 * 1024

_M64 = (1 << 64) - 1
_OTHER_IDX = CATEGORY_INDEX[OTHER]
# a block ends after a branch, jal, jalr (category branch) or ecall (other)
_ENDS_BLOCK = frozenset((CATEGORY_INDEX[BRANCH], _OTHER_IDX))


class MemoryFault(EmulatorError):
    pass


class CsrFault(EmulatorError):
    pass


class HypercallFault(EmulatorError):
    pass


class IllegalOperand(EmulatorError):
    pass


class RegistrationError(EmulatorError):
    pass


class LoadError(EmulatorError):
    pass


class BudgetExceeded(EmulatorError):
    pass


@dataclass(frozen=True)
class CostModel:
    """Cycles per retired instruction. Frozen, because translated blocks
    carry cycle sums and are cached under the model."""
    base_cycles_per_instruction: int = 1
    extra_mem_access_cycles: int = 0
    shatr_cycles: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValueError(f"{f.name} must not be negative, got {value}")

    def category_cycles(self):
        """Cycles of one instruction of each category, indexed like
        CATEGORIES: shatr costs shatr_cycles instead of the base."""
        base = self.base_cycles_per_instruction
        mem = base + self.extra_mem_access_cycles
        return tuple(self.shatr_cycles if c == CUSTOM
                     else mem if c in (MEM_READ, MEM_WRITE) else base
                     for c in CATEGORIES)


class ExecutionStats:
    """Retired-instruction counters, per category and per open region."""

    def __init__(self):
        self._counts = [0] * len(CATEGORIES)
        self._regions = {}
        self.region_entry_count = {}
        self.total_cycles = 0

    @property
    def counts(self):
        return dict(zip(CATEGORIES, self._counts))

    @property
    def regions(self):
        return {rid: dict(zip(CATEGORIES, c)) for rid, c in self._regions.items()}

    @property
    def total_retired(self):
        return sum(self._counts)


def _signed(v):
    return v - (1 << 64) if v & (1 << 63) else v


def _signed32(v):
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v & (1 << 31) else v


def _wrap32(v):
    # two's-complement 64-bit image of the sign-extended low 32 bits
    v &= 0xFFFFFFFF
    return (v | 0xFFFFFFFF00000000) if v & (1 << 31) else v


_ALU_REG = {
    "add": lambda a, b: (a + b) & _M64,
    "sub": lambda a, b: (a - b) & _M64,
    "sll": lambda a, b: (a << (b & 63)) & _M64,
    "slt": lambda a, b: 1 if _signed(a) < _signed(b) else 0,
    "sltu": lambda a, b: 1 if a < b else 0,
    "xor": operator.xor,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: (_signed(a) >> (b & 63)) & _M64,
    "or": operator.or_,
    "and": operator.and_,
    "addw": lambda a, b: _wrap32(a + b),
    "subw": lambda a, b: _wrap32(a - b),
    "sllw": lambda a, b: _wrap32(a << (b & 31)),
    "srlw": lambda a, b: _wrap32((a & 0xFFFFFFFF) >> (b & 31)),
    "sraw": lambda a, b: _wrap32(_signed32(a) >> (b & 31)),
}

# the immediate reaches op as its 64-bit image, masked once at build time
_ALU_IMM = {
    "addi": lambda a, imm: (a + imm) & _M64,
    "slti": lambda a, imm: 1 if _signed(a) < _signed(imm) else 0,
    "sltiu": lambda a, imm: 1 if a < imm else 0,
    "xori": operator.xor,
    "ori": operator.or_,
    "andi": operator.and_,
    "slli": lambda a, imm: (a << imm) & _M64,
    "srli": operator.rshift,
    "srai": lambda a, imm: (_signed(a) >> imm) & _M64,
    "addiw": lambda a, imm: _wrap32(a + imm),
    "slliw": lambda a, imm: _wrap32(a << imm),
    "srliw": lambda a, imm: _wrap32((a & 0xFFFFFFFF) >> imm),
    "sraiw": lambda a, imm: _wrap32(_signed32(a) >> imm),
}

_BRANCH_COND = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

# one little-endian struct per access width; the signed formats sign-extend
# and `& _M64` gives the register image
_LOAD_STRUCT = {name: struct.Struct(fmt) for name, fmt in (
    ("lb", "<b"), ("lh", "<h"), ("lw", "<i"), ("ld", "<Q"),
    ("lbu", "<B"), ("lhu", "<H"), ("lwu", "<I"))}
_STORE_STRUCT = {name: struct.Struct(fmt) for name, fmt in (
    ("sb", "<B"), ("sh", "<H"), ("sw", "<I"), ("sd", "<Q"))}
# struct's errors for an access past the end of memory; from 2**63 up,
# unpack_from raises OverflowError and pack_into IndexError
_OUTSIDE_MEMORY = (struct.error, OverflowError, IndexError)

# new CSR value from (old value, operand); the immediate forms share the
# register forms' semantics
_CSR_RMW = {
    "csrrw": lambda old, v: v,
    "csrrs": lambda old, v: old | v,
    "csrrc": lambda old, v: old & ~v,
}
_CSR_RMW.update({name + "i": rmw for name, rmw in tuple(_CSR_RMW.items())})


def _build_executor(inst, attached):
    """Compile one decoded instruction to a closure mutating the machine.
    `attached` says whether the machine has a round unit; the closure
    reaches the unit through machine.round_unit when it runs, so it holds
    nothing of one machine and any machine with a unit may run it."""
    name = inst.mnemonic
    rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm

    op = _ALU_REG.get(name)
    if op is not None:
        def ex(m, rd=rd, rs1=rs1, rs2=rs2, op=op):
            r = m.regs
            v = op(r[rs1], r[rs2])
            if rd:
                r[rd] = v
            m.pc += 4
        return ex

    op = _ALU_IMM.get(name)
    if op is not None:
        def ex(m, rd=rd, rs1=rs1, imm=imm & _M64, op=op):
            r = m.regs
            v = op(r[rs1], imm)
            if rd:
                r[rd] = v
            m.pc += 4
        return ex

    load = _LOAD_STRUCT.get(name)
    if load is not None:
        def ex(m, rd=rd, rs1=rs1, imm=imm, size=load.size, align=load.size - 1,
               unpack=load.unpack_from):
            addr = (m.regs[rs1] + imm) & _M64
            if addr & align:
                raise MemoryFault(
                    f"misaligned {size}-byte load at {addr:#x} (pc={m.pc:#x})")
            try:
                v = unpack(m.memory, addr)[0] & _M64
            except _OUTSIDE_MEMORY:
                raise MemoryFault(
                    f"load outside memory at {addr:#x} (pc={m.pc:#x})") from None
            if rd:
                m.regs[rd] = v
            m.pc += 4
        return ex

    store = _STORE_STRUCT.get(name)
    if store is not None:
        def ex(m, rs1=rs1, rs2=rs2, imm=imm, size=store.size,
               align=store.size - 1, mask=(1 << 8 * store.size) - 1,
               pack=store.pack_into):
            r = m.regs
            addr = (r[rs1] + imm) & _M64
            if addr & align:
                raise MemoryFault(
                    f"misaligned {size}-byte store at {addr:#x} (pc={m.pc:#x})")
            # CODE_BASE and addr are size-aligned, so a store overlapping the
            # code starts in it (one also past the end of memory is outside)
            if CODE_BASE <= addr < m._code_end and addr + size <= len(m.memory):
                raise MemoryFault(
                    f"store into loaded code at {addr:#x} (pc={m.pc:#x})")
            try:
                pack(m.memory, addr, r[rs2] & mask)
            except _OUTSIDE_MEMORY:
                raise MemoryFault(
                    f"store outside memory at {addr:#x} (pc={m.pc:#x})") from None
            m.pc += 4
        return ex

    cond = _BRANCH_COND.get(name)
    if cond is not None:
        def ex(m, rs1=rs1, rs2=rs2, imm=imm, cond=cond):
            r = m.regs
            m.pc = (m.pc + imm) & _M64 if cond(r[rs1], r[rs2]) else m.pc + 4
        return ex

    if name == "jal":
        def ex(m, rd=rd, imm=imm):
            if rd:
                m.regs[rd] = (m.pc + 4) & _M64
            m.pc = (m.pc + imm) & _M64
        return ex

    if name == "jalr":
        def ex(m, rd=rd, rs1=rs1, imm=imm):
            target = (m.regs[rs1] + imm) & _M64 & ~1
            if rd:
                m.regs[rd] = (m.pc + 4) & _M64
            m.pc = target
        return ex

    if name == "lui":
        value = (isa.sign_extend(imm, 20) << 12) & _M64
        def ex(m, rd=rd, value=value):
            if rd:
                m.regs[rd] = value
            m.pc += 4
        return ex

    if name == "auipc":
        offset = isa.sign_extend(imm, 20) << 12
        def ex(m, rd=rd, offset=offset):
            if rd:
                m.regs[rd] = (m.pc + offset) & _M64
            m.pc += 4
        return ex

    if name == "ecall":
        def ex(m):
            m._hypercall()
            m.pc += 4
        return ex

    rmw = _CSR_RMW.get(name)
    if rmw is not None:
        if not attached or not LANE_CSR_BASE <= inst.csr <= LANE_CSR_LAST:
            raise CsrFault(f"unclaimed csr {inst.csr:#x}")
        reg_form = name in isa._CSR_REG
        def ex(m, rd=rd, rs1=rs1, imm=imm, index=inst.csr - LANE_CSR_BASE,
               rmw=rmw, reg_form=reg_form):
            old = m.round_unit.csr_access(
                index, rmw, m.regs[rs1] if reg_form else imm)
            if rd:
                m.regs[rd] = old
            m.pc += 4
        return ex

    if inst.category == CUSTOM:
        def ex(m, inst=inst):
            m.round_unit.execute(m, inst)
            m.pc += 4
        return ex

    raise DecodeError(f"no executor for mnemonic {name!r}")


class _Block(NamedTuple):
    """A translated basic block and what one run of it retires."""
    executors: tuple
    categories: tuple       # category index of each instruction
    length: int
    cycles: int
    counts: tuple           # (category index, count) pairs
    region_counts: tuple    # the same without "other", which regions skip


def _block(executors, categories, cycles):
    """Bundle executors with their accounting; `cycles` is
    CostModel.category_cycles()."""
    totals = [0] * len(CATEGORIES)
    for cat in categories:
        totals[cat] += 1
    counts = tuple((cat, n) for cat, n in enumerate(totals) if n)
    return _Block(tuple(executors), tuple(categories), len(categories),
                  sum(cycles[cat] for cat in categories), counts,
                  tuple(c for c in counts if c[0] != _OTHER_IDX))


class Translations:
    """Translation cache for machines that run the same code, such as the
    machines of one benchmark run. Every (instruction word, unit attached)
    maps to its (executor, category index), and every (code bytes, unit
    attached, cost model) to its table of blocks by entry pc. Entries hold
    nothing of a machine, so any machine whose key matches may run them."""

    def __init__(self):
        self.words = {}
        self._tables = {}

    def blocks(self, code, attached, cost_model):
        """The table of blocks, by entry pc, for this key."""
        return self._tables.setdefault((code, attached, cost_model), {})


class Machine:
    def __init__(self, memory_size=DEFAULT_MEMORY_SIZE, cost_model=None,
                 translations=None):
        """`translations` shares a Translations cache with other machines;
        by default the machine gets a private one."""
        if memory_size < CODE_BASE + 4:
            raise ValueError(f"memory too small: {memory_size}")
        self.memory = bytearray(memory_size)
        self.regs = [0] * 32
        self.pc = CODE_BASE
        self.halted = False
        self.exit_status = None
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.stats = ExecutionStats()
        self.emitted = []
        self.round_unit = None
        self._translations = (translations if translations is not None
                              else Translations())
        self._code = b""
        self._code_end = CODE_BASE
        self._open_regions = {}
        self._active = []

    # -- construction ------------------------------------------------------

    def load_program(self, image, entry_offset=None):
        """Place an assembled image (or raw code bytes) into memory, point pc
        at the entry, and set sp to the 16-byte aligned top of memory. Data
        segments may not overlap the code."""
        if isinstance(image, (bytes, bytearray)):
            code, segments, entry = bytes(image), [], 0
        else:
            code, segments, entry = image.code, image.data_segments, image.entry_offset
        if entry_offset is not None:
            entry = entry_offset
        mem = self.memory
        code_end = CODE_BASE + len(code)
        if code_end > len(mem):
            raise LoadError(f"code ({len(code)} bytes) exceeds memory")
        if not 0 <= entry < len(code):
            raise LoadError(f"entry offset {entry:#x} outside code")
        # check every segment before writing anything, so a rejected image
        # leaves memory as it was
        for addr, blob in segments:
            if addr < 0 or addr + len(blob) > len(mem):
                raise LoadError(f"data segment at {addr:#x} exceeds memory")
            if addr < code_end and addr + len(blob) > CODE_BASE:
                raise LoadError(f"data segment at {addr:#x} overlaps the code")
        mem[CODE_BASE:code_end] = code
        for addr, blob in segments:
            mem[addr:addr + len(blob)] = blob
        self.pc = CODE_BASE + entry
        self.regs[2] = len(mem) & ~0xF
        self.halted = False
        self._code = code
        self._code_end = code_end

    # -- decode ------------------------------------------------------------

    def decode(self, word):
        """Decode one word; shatr is a decode error unless a round unit is
        attached."""
        inst = isa.decode(word)
        if inst.category == CUSTOM and self.round_unit is None:
            raise DecodeError(f"custom-0 opcode not claimed: {word:#010x}")
        return inst

    def _build(self, pc):
        """Fetch the word at pc and translate it to (executor, category
        index), decoding only words the cache has not seen. Only the
        loaded code can be fetched."""
        if pc & 3:
            raise MemoryFault(f"misaligned instruction fetch at {pc:#x}")
        if pc < CODE_BASE or pc + 4 > self._code_end:
            raise MemoryFault(
                f"instruction fetch outside the loaded code at {pc:#x}")
        # the loaded code, which the cache is keyed by, equals memory there
        # since stores into it fault
        offset = pc - CODE_BASE
        word = int.from_bytes(self._code[offset:offset + 4], "little")
        attached = self.round_unit is not None
        words = self._translations.words
        entry = words.get((word, attached))
        if entry is None:
            try:
                inst = self.decode(word)
                ex = _build_executor(inst, attached)
            except (DecodeError, CsrFault) as e:
                raise type(e)(f"at pc={pc:#x}: {e}") from None
            entry = words[word, attached] = (ex, CATEGORY_INDEX[inst.category])
        return entry

    def _translate(self, pc, cycles):
        """Translate the block at pc: through the first branch, jump or
        ecall, and short of a word that does not fetch or decode (it
        faults once the guest reaches it)."""
        executors, cats = [], []
        ex, cat = self._build(pc)
        while True:
            executors.append(ex)
            cats.append(cat)
            if cat in _ENDS_BLOCK:
                return _block(executors, cats, cycles)
            pc += 4
            try:
                ex, cat = self._build(pc)
            except (MemoryFault, CsrFault, DecodeError):
                return _block(executors, cats, cycles)

    # -- hypercalls --------------------------------------------------------

    def _hypercall(self):
        fn = self.regs[17]
        a0 = self.regs[10]
        if fn == 0:
            self.halted = True
            self.exit_status = a0
        elif fn == 1:
            if a0 in self._open_regions:
                raise HypercallFault(
                    f"region {a0} begun twice without end (pc={self.pc:#x})")
            counts = self.stats._regions.setdefault(a0, [0] * len(CATEGORIES))
            entries = self.stats.region_entry_count
            entries[a0] = entries.get(a0, 0) + 1
            self._open_regions[a0] = counts
            self._active = list(self._open_regions.values())
        elif fn == 2:
            if a0 not in self._open_regions:
                raise HypercallFault(
                    f"region {a0} ended without begin (pc={self.pc:#x})")
            del self._open_regions[a0]
            self._active = list(self._open_regions.values())
        elif fn == 3:
            addr, length = a0, self.regs[11]
            if addr + length > len(self.memory):
                raise HypercallFault(
                    f"emit of {length} bytes at {addr:#x} outside memory")
            self.emitted.append(bytes(self.memory[addr:addr + length]))
        else:
            raise HypercallFault(f"unknown hypercall {fn} (pc={self.pc:#x})")

    # -- execution ---------------------------------------------------------

    def step(self):
        """Fetch, decode, execute, and account exactly one instruction."""
        if self.halted:
            raise EmulatorError("machine is halted")
        self._execute(1)

    def run(self, max_instructions=None):
        """Run until the guest exits; returns the exit status. Raises
        BudgetExceeded once max_instructions have retired without an exit."""
        self._execute(math.inf if max_instructions is None else max_instructions)
        if not self.halted:
            raise BudgetExceeded(
                f"budget of {max_instructions} instructions exhausted "
                f"(pc={self.pc:#x})")
        return self.exit_status

    def _execute(self, budget):
        """Run blocks until the guest halts or `budget` instructions have
        retired. Once the next block would overrun the budget, go on one
        instruction at a time, so the budget stops at the same instruction
        as a run of step()s; a budget of one never needs a block, so
        step() builds none."""
        cycles = self.cost_model.category_cycles()
        blocks = self._translations.blocks(
            self._code, self.round_unit is not None, self.cost_model)
        stats = self.stats
        counts = stats._counts
        retired = 0
        stepping = budget <= 1
        while retired < budget and not self.halted:
            start = self.pc
            if stepping:
                ex, cat = self._build(start)
                block = _block((ex,), (cat,), cycles)
            else:
                block = blocks.get(start)
                if block is None:
                    block = blocks[start] = self._translate(start, cycles)
                if block.length > budget - retired:
                    stepping = True
                    continue
            # regions change only at the ecall that ends a block
            active = self._active
            try:
                for ex in block.executors:
                    ex(self)
            except BaseException:
                # an executor faults before it moves pc: account only the
                # instructions before the faulting one
                done = (self.pc - start) >> 2
                block = _block(block.executors[:done],
                               block.categories[:done], cycles)
                raise
            finally:
                retired += block.length
                stats.total_cycles += block.cycles
                for cat, n in block.counts:
                    counts[cat] += n
                for rc in active:
                    for cat, n in block.region_counts:
                        rc[cat] += n

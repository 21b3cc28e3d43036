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
holds the instructions from its entry pc through the first branch, jump
or ecall; each straight-line run of ALU, lui, load and store instructions
in it is one executor that loops over their entries (step() runs one as
a run of one), and every other instruction is a closure. A fault inside
a run leaves pc at the faulting instruction and raises what a step()
there would. Every load and store indexes the machine's typed view of
memory of its width and signedness; the views read host byte order, so
a machine needs a little-endian host. Within a block's runs, the RV64I
rotate (srli/slli/or) and and-not (xori -1/and/xor) triples are fused
into one entry each; a fused triple still retires and counts as three
instructions, and step() never fuses. A block carries only its
per-category counts, added once per run of the block; cycles are priced
from the counts when read.
Regions change only at an ecall, which ends a block, so region counts
stay exact. A Translations cache maps each word to its closure or entry
and each (code bytes, unit attached) to its blocks by pc; machines that
share one share the work.
That is sound because guest code is fixed: instructions are fetched only
from the loaded code, and a store that overlaps it raises MemoryFault.

A stock machine decodes only RV64I+Zicsr and has no CSRs. shatr.attach()
fills its one round-unit slot, which brings the shatr instruction and the
lane CSRs 0x800..0x818, the only CSRs the machine has.
"""

import math
import operator
import sys
from collections import Counter
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
    "LoadError", "BudgetExceeded", "check_budget",
]

CODE_BASE = 0x1000
DEFAULT_MEMORY_SIZE = 16 * 1024 * 1024

_M64 = (1 << 64) - 1
_OTHER_IDX = CATEGORY_INDEX[OTHER]
# a block ends after a branch, jal, jalr (category branch) or ecall (other)
_ENDS_BLOCK = frozenset((CATEGORY_INDEX[BRANCH], _OTHER_IDX))


def check_budget(budget):
    """Raise ValueError unless budget is None (no limit) or an int >= 0."""
    if budget is not None and not (type(budget) is int and budget >= 0):
        raise ValueError(f"budget must be None or a non-negative int, got {budget!r}")


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
    """Cycles per retired instruction. Frozen, because a machine's stats
    price their counts with the model the machine was built with."""
    base_cycles_per_instruction: int = 1
    extra_mem_access_cycles: int = 0
    shatr_cycles: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{f.name} must be a non-negative int, got {value!r}")

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

    def __init__(self, cost_model):
        self.cost_model = cost_model        # prices total_cycles
        self._counts = [0] * len(CATEGORIES)
        self._regions = {}
        self.region_entry_count = {}

    @property
    def counts(self):
        return dict(zip(CATEGORIES, self._counts))

    @property
    def regions(self):
        return {rid: dict(zip(CATEGORIES, c)) for rid, c in self._regions.items()}

    @property
    def total_retired(self):
        return sum(self._counts)

    @property
    def total_cycles(self):
        return sum(map(operator.mul, self._counts,
                       self.cost_model.category_cycles()))


def _signed(v):
    return v - (1 << 64) if v & (1 << 63) else v


def _signed32(v):
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v & (1 << 31) else v


def _wrap32(v):
    # two's-complement 64-bit image of the sign-extended low 32 bits
    v &= 0xFFFFFFFF
    return (v | 0xFFFFFFFF00000000) if v & (1 << 31) else v


# raw results: a straight-line run masks each with `& _M64`
_ALU_REG = {
    "add": operator.add,
    "sub": operator.sub,
    "sll": lambda a, b: a << (b & 63),
    "slt": lambda a, b: _signed(a) < _signed(b),
    "sltu": operator.lt,
    "xor": operator.xor,
    "srl": lambda a, b: a >> (b & 63),
    "sra": lambda a, b: _signed(a) >> (b & 63),
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
    "addi": operator.add,
    "slti": lambda a, imm: _signed(a) < _signed(imm),
    "sltiu": operator.lt,
    "xori": operator.xor,
    "ori": operator.or_,
    "andi": operator.and_,
    "slli": operator.lshift,
    "srli": operator.rshift,
    "srai": lambda a, imm: _signed(a) >> imm,
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

# a machine's views of memory, by index, as (format, item size): the
# unsigned view of 2**k-byte items is index k, so a store names its view
# by its shift
_VIEWS = (("B", 1), ("H", 2), ("I", 4), ("Q", 8), ("b", 1), ("h", 2), ("i", 4))
# mnemonic -> (view index, shift); the signed views, 4 to 6, sign-extend
_LOADS = {"lbu": (0, 0), "lhu": (1, 1), "lwu": (2, 2), "ld": (3, 3),
          "lb": (4, 0), "lh": (5, 1), "lw": (6, 2)}
_STORES = {"sb": 0, "sh": 1, "sw": 2, "sd": 3}

# new CSR value from (old value, operand); the immediate forms share the
# register forms' semantics
_CSR_RMW = {
    "csrrw": lambda old, v: v,
    "csrrs": lambda old, v: old | v,
    "csrrc": lambda old, v: old & ~v,
}
_CSR_RMW.update({name + "i": rmw for name, rmw in tuple(_CSR_RMW.items())})


# kinds of a straight-line entry: ALU kinds first, then memory accesses;
# _ROT and _ANDN are fused idiom triples
_REG, _IMM, _ROT, _ANDN, _LOAD, _STORE = range(6)


def _entry(inst):
    """The pc-free straight-line entry of an ALU, lui, load or store, else
    None: (kind, op, dest, rs1, operand, align, mask, at), where dest is
    rs2 for a store, operand is rs2 for a register ALU op, else the
    immediate, and at is 0 (a run sets an access's offset in it). For an
    access, op is the index of its view and align its size - 1; a load's
    mask is its shift, a store's the mask of its width, and a store's
    shift is its view index. Only a signed load's item can be negative,
    and its dest is -rd, so only it is masked. An ALU write to x0 changes
    nothing, so its entry is empty; a load into x0 is kept, as its access
    can fault."""
    name = inst.mnemonic
    rd, rs1, imm = inst.rd, inst.rs1, inst.imm
    op = _ALU_REG.get(name)
    if op is not None:
        return (_REG, op, rd, rs1, inst.rs2, 0, 0, 0) if rd else ()
    op = _ALU_IMM.get(name)
    if op is not None:
        return (_IMM, op, rd, rs1, imm & _M64, 0, 0, 0) if rd else ()
    if name == "lui":   # x0 + the constant
        value = (isa.sign_extend(imm, 20) << 12) & _M64
        return (_IMM, operator.add, rd, 0, value, 0, 0, 0) if rd else ()
    if name in _LOADS:
        view, shift = _LOADS[name]
        dest = -rd if view > 3 else rd
        return (_LOAD, view, dest, rs1, imm, (1 << shift) - 1, shift, 0)
    if name in _STORES:
        shift = _STORES[name]
        return (_STORE, shift, inst.rs2, rs1, imm, (1 << shift) - 1,
                (1 << (8 << shift)) - 1, 0)


def _memory_fault(m, pc, kind, size, addr):
    """Point m at the access at pc that faulted and build its MemoryFault,
    judging the checks in the order of the run: alignment, then for a store
    the loaded code, then the end of memory."""
    m.pc = pc
    store = kind == _STORE
    what = "store" if store else "load"
    if addr & (size - 1):
        why = f"misaligned {size}-byte {what}"
    elif (store and CODE_BASE <= addr < m._code_end
          and addr + size <= len(m.memory)):
        why = "store into loaded code"
    else:
        why = f"{what} outside memory"
    return MemoryFault(f"{why} at {addr:#x} (pc={pc:#x})")


def _fused(a, b, c):
    """The one entry that does the work of the entries a, b, c, or None.
    Two RV64I idioms fuse:
      srli T, A, k; slli A, A, 64-k; or A, A, T    (rotate A left by 64-k)
        -> (_ROT, None, T, A, k, 64-k, 0, 0)
      xori T, N1, -1; and T, T, N2; xor D, D, T    (D ^= ~N1 & N2)
        -> (_ANDN, None, T, N1, N2, D, 0, 0)
    Each needs T != A (T != N2), as the fused entry reads its sources
    before it writes; an x0 write has an empty entry, so never fuses."""
    if not (a and b and c):
        return None
    if (a[:2] == (_IMM, operator.rshift) and b[:2] == (_IMM, operator.lshift)
            and c[:2] == (_REG, operator.or_)):
        t, src, k = a[2], a[3], a[4]
        if (t != src and 0 < k < 64 and b[2] == b[3] == c[2] == c[3] == src
                and b[4] == 64 - k and c[4] == t):
            return (_ROT, None, t, src, k, 64 - k, 0, 0)
    elif (a[:2] == (_IMM, operator.xor) and a[4] == _M64
            and b[:2] == (_REG, operator.and_) and c[:2] == (_REG, operator.xor)):
        t, n2, d = a[2], b[4], c[2]
        if b[2] == b[3] == t != n2 and c[3] == d and c[4] == t:
            return (_ANDN, None, t, a[3], n2, d, 0, 0)
    return None


def _fuse(entries, interned):
    """entries with each fusable triple replaced by its fused entry and two
    empty ones, so every instruction keeps its slot. Fused entries are
    interned in `interned`, so equal ones are one object."""
    out = list(entries)
    i = 0
    while i + 2 < len(out):
        f = _fused(*out[i:i + 3])
        if f is None:
            i += 1
        else:
            out[i:i + 3] = interned.setdefault(f, f), (), ()
            i += 3
    return out


def _run(entries):
    """One executor for a straight-line run: the entry of each instruction,
    in order. It loads registers and memory once, executes the entries and
    moves pc once, past the run; a fault leaves pc at the faulting access,
    whose entry is copied to hold its offset (ALU entries are shared)."""
    body = tuple([e if e[0] < _LOAD else e[:-1] + (4 * i,)
                  for i, e in enumerate(entries) if e])
    def ex(m, body=body, length=4 * len(entries)):
        r = m.regs
        views = m._views
        pc = m.pc
        code_end = m._code_end
        for kind, op, d, s, x, align, mask, at in body:
            # the kinds in order of how often the software kernels run them
            if kind == _REG:
                r[d] = op(r[s], r[x]) & _M64
            elif kind == _LOAD:
                addr = (r[s] + x) & _M64
                if addr & align:
                    break
                try:
                    v = views[op][addr >> mask]
                except IndexError:      # past the end of the view
                    break
                if d > 0:
                    r[d] = v
                elif d:     # signed: mask a negative item to its 64-bit image
                    r[-d] = v & _M64
            elif kind == _STORE:
                addr = (r[s] + x) & _M64
                # CODE_BASE and addr are size-aligned, so a store that
                # overlaps the code starts in it
                if addr & align or CODE_BASE <= addr < code_end:
                    break
                try:
                    views[op][addr >> op] = r[d] & mask
                except IndexError:
                    break
            elif kind == _ROT:
                v = r[s]
                r[d] = t = v >> x
                r[s] = (v << align) & _M64 | t
            elif kind == _IMM:
                r[d] = op(r[s], x) & _M64
            else:
                # T first, so D == T ends as T ^ T
                r[d] = t = ~r[s] & r[x]
                r[align] ^= t
        else:
            m.pc = pc + length
            return
        raise _memory_fault(m, pc + at, kind, align + 1, addr)
    return ex


def _closure(inst, attached):
    """Compile an instruction without a straight-line entry to a closure
    mutating the machine. `attached` says whether the machine has a round
    unit; the closure reaches the unit through machine.round_unit when it
    runs, so it holds nothing of one machine and any machine with a unit
    may run it."""
    name = inst.mnemonic
    rd, rs1, rs2, imm = inst.rd, inst.rs1, inst.rs2, inst.imm

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
        reg_form = isa.INSTRUCTIONS[name][0] == "csr"
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
    executors: tuple        # one per straight-line run or other instruction
    categories: tuple       # category index of each instruction
    length: int
    counts: tuple           # (category index, count) pairs
    region_counts: tuple    # the same without "other", which regions skip


def _block(executors, categories):
    """Bundle executors with their accounting."""
    counts = tuple(sorted(Counter(categories).items()))
    return _Block(tuple(executors), tuple(categories), len(categories), counts,
                  tuple(c for c in counts if c[0] != _OTHER_IDX))


class Translations:
    """Translation cache for machines that run the same code, such as the
    machines of one benchmark run. Every (instruction word, unit attached)
    maps to its (closure or None, category index, straight-line entry or
    None), one of the two set, each fused entry to itself, so that the
    kernels that share a triple share its entry, and every (code bytes,
    unit attached) to its table of blocks by entry pc. Entries hold
    nothing of a machine, so any machine whose key matches may run them."""

    def __init__(self):
        self.words = {}
        self.fused = {}
        self._tables = {}

    def blocks(self, code, attached):
        """The table of blocks, by entry pc, for this key."""
        return self._tables.setdefault((code, attached), {})


class Machine:
    def __init__(self, memory_size=DEFAULT_MEMORY_SIZE, cost_model=None,
                 translations=None):
        """`translations` shares a Translations cache with other machines;
        by default the machine gets a private one."""
        if sys.byteorder != "little":
            raise EmulatorError("the emulator needs a little-endian host")
        if type(memory_size) is not int:
            raise ValueError(f"memory size must be an int, got {memory_size!r}")
        if memory_size < CODE_BASE + 4:
            raise ValueError(f"memory too small: {memory_size}")
        self._memory = bytearray(memory_size)
        memory = memoryview(self._memory)     # each view cut to whole items
        self._views = tuple(memory[:memory_size & -size].cast(f) for f, size in _VIEWS)
        self.regs = [0] * 32
        self.pc = CODE_BASE
        self.halted = False
        self.exit_status = None
        self.stats = ExecutionStats(cost_model or CostModel())
        self.emitted = []
        self.round_unit = None
        self._translations = (translations if translations is not None
                              else Translations())
        self._code = b""
        self._code_end = CODE_BASE
        self._open_regions = {}
        self._active = []

    @property
    def memory(self):
        """Guest memory, a bytearray of fixed length. It cannot be replaced
        or resized, as every load and store indexes it through the
        machine's typed views."""
        return self._memory

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
        """Fetch the word at pc and translate it to (closure or None,
        category index, straight-line entry or None), decoding only words
        the cache has not seen. Only the loaded code can be fetched."""
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
        cached = words.get((word, attached))
        if cached is None:
            try:
                inst = self.decode(word)
                entry = _entry(inst)
                ex = _closure(inst, attached) if entry is None else None
            except (DecodeError, CsrFault) as e:
                raise type(e)(f"at pc={pc:#x}: {e}") from None
            cached = words[word, attached] = (
                ex, CATEGORY_INDEX[inst.category], entry)
        return cached

    def _translate(self, pc):
        """Translate the block at pc: through the first branch, jump or
        ecall, and short of a word that does not fetch or decode (it
        faults once the guest reaches it). Each stretch of instructions
        with a straight-line entry becomes one run executor."""
        fused = self._translations.fused
        executors, cats, run = [], [], []
        ex, cat, entry = self._build(pc)
        while True:
            if entry is None:
                executors += [_run(_fuse(run, fused)), ex] if run else [ex]
                run = []
            else:
                run.append(entry)
            cats.append(cat)
            if cat in _ENDS_BLOCK:
                break
            pc += 4
            try:
                ex, cat, entry = self._build(pc)
            except (MemoryFault, CsrFault, DecodeError):
                break
        return _block(executors + [_run(_fuse(run, fused))] if run
                      else executors, cats)

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
        self._execute(1)

    def run(self, max_instructions=None):
        """Run until the guest exits; returns the exit status. Raises
        BudgetExceeded once max_instructions have retired without an exit."""
        check_budget(max_instructions)
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
        step() builds none. A halted machine raises EmulatorError."""
        if self.halted:
            raise EmulatorError("machine is halted")
        blocks = self._translations.blocks(self._code,
                                           self.round_unit is not None)
        counts = self.stats._counts
        retired = 0
        stepping = budget <= 1
        while retired < budget and not self.halted:
            start = self.pc
            if stepping:
                ex, cat, entry = self._build(start)
                block = _block((ex or _run((entry,)),), (cat,))
            else:
                block = blocks.get(start)
                if block is None:
                    block = blocks[start] = self._translate(start)
                if block.length > budget - retired:
                    stepping = True
                    continue
            # regions change only at the ecall that ends a block
            active = self._active
            try:
                for ex in block.executors:
                    ex(self)
            except BaseException:
                # an executor faults with pc at the faulting instruction:
                # account only the instructions before it
                done = (self.pc - start) >> 2
                block = _block((), block.categories[:done])
                raise
            finally:
                retired += block.length
                for cat, n in block.counts:
                    counts[cat] += n
                for rc in active:
                    for cat, n in block.region_counts:
                        rc[cat] += n

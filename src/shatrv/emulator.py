"""Deterministic RV64I+Zicsr interpreter with instruction accounting.

The machine is single-hart, machine-mode only, flat little-endian memory,
code loaded at CODE_BASE. Guests talk to the harness through an ecall
hypercall ABI selected by a7:

    0: exit        status in a0
    1: region_begin  region id in a0
    2: region_end    region id in a0
    3: emit_digest   guest address in a0, byte length in a1

Guest code is translated once and run one basic block at a time. A block
holds the instructions from its entry pc through the first branch, jump
or ecall, or up to the target of its own backward branch or jal; each
straight-line run of ALU, lui, load and store instructions in it is one
executor that loops over their entries (step() runs one as a run of
one), and every other instruction is a closure. A fault inside a run
leaves pc at the faulting instruction and raises what a step() there
would. Every load and store indexes the machine's typed view of memory
of its width and signedness; the views read host byte order, so a
machine needs a little-endian host. The interpreter of a run fuses its
RV64I rotate (srli/slli/or) and and-not (xori -1/and/xor) triples into
one entry each; a fused triple still retires and counts as three
instructions, and step() never fuses. A block's per-category counts are
added before it runs, and a fault takes back those of the faulting
instruction and the ones after it; a CostModel prices the counts outside
the machine. Regions are read off the counts (ExecutionStats) and never count
hypercall ecalls. A Translations cache, which machines may share, maps each
word to its closure or entry, each (code bytes, unit attached) to its
table of blocks by pc, each (pc, code bytes from pc on, unit attached) to
the one block, which never changes, that every code sharing them runs
there, each distinct run to the one executor every block holding it
shares, and each loop (Machine._loop) to its executor.
An executor fuses its run once and interprets it. Only code that repeats
is compiled to Python over registers in locals: a loop, on its
_HOT_LOOP-th trip, to one function that runs whole trips until a branch
leaves it or the budget is spent, and a run whose periods repeat under a
register renaming, as sw-regopt's 24 rounds do, to a loop over one period
(_period). Each segment of a compiled run or trip opens with one guard
per base register that proves no access in it can fault: the base is
aligned to its largest access and inside memory; where the segment
stores, the guard also proves the spans of its bases disjoint. Inside a
segment a load of bytes it has loaded or stored at that width reads the
local that holds them. A loop keeps each 8-byte cell it reaches with ld
and sd through a base register it never writes in a local for the whole
call, behind one guard before the first trip, and writes the stored
cells back on every way out. A failed guard hands the rest of a run to
the interpreter, with its registers renamed back, and the rest of a loop
to the blocks, which alone raise faults.
That is sound because guest code is fixed: instructions are fetched only
from the loaded code, and a store that overlaps it raises MemoryFault.

A stock machine decodes only RV64I+Zicsr and has no CSRs. shatr.attach()
fills its one round-unit slot, which brings the shatr instruction and the
lane CSRs 0x800..0x818, the only CSRs the machine has.
"""

import math
import mmap
import operator
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from itertools import combinations, product
from typing import NamedTuple

from . import isa
from .isa import (
    BRANCH, CATEGORIES, CATEGORY_INDEX, CUSTOM, LANE_CSR_BASE, LANE_CSR_LAST,
    MEM_READ, MEM_WRITE, OTHER, DecodeError, EmulatorError,
)

__all__ = [
    "CODE_BASE", "DEFAULT_MEMORY_SIZE", "MAX_MEMORY_SIZE", "CostModel",
    "ExecutionStats", "Machine", "Translations", "EmulatorError", "DecodeError",
    "MemoryFault", "CsrFault", "HypercallFault", "IllegalOperand",
    "RegistrationError", "LoadError", "BudgetExceeded", "check_budget",
]

CODE_BASE = 0x1000
DEFAULT_MEMORY_SIZE = 16 * 1024 * 1024
# memory is mapped whole and each page zeroed when first touched, so the
# ceiling bounds the host memory one guest can make a machine hold
MAX_MEMORY_SIZE = 1 << 32

_M64 = (1 << 64) - 1
# a block ends after a branch, jal, jalr (category branch) or ecall (other)
_ENDS_BLOCK = frozenset((CATEGORY_INDEX[BRANCH], CATEGORY_INDEX[OTHER]))


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
    """Cycles per retired instruction. It prices counts a machine has
    already made, so one run can be priced under any number of models."""
    base_cycles_per_instruction: int = 1
    extra_mem_access_cycles: int = 0
    shatr_cycles: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 0:
                raise ValueError(f"{f.name} must be a non-negative int, got {value!r}")

    def cycles(self, counts):
        """Cycles of a dict of per-category counts (a machine's, a region's
        or a group's): shatr costs shatr_cycles instead of the base, and a
        load or store the base plus extra_mem_access_cycles."""
        base = self.base_cycles_per_instruction
        mem = base + self.extra_mem_access_cycles
        return sum(n * (self.shatr_cycles if c == CUSTOM
                        else mem if c in (MEM_READ, MEM_WRITE) else base)
                   for c, n in counts.items())


class ExecutionStats:
    """Retired-instruction counters, per category. A region is read off
    them: its begin takes the counters away from its counts and its end
    adds them back, so each span counts what they gained in it, and an
    open region counts up to now. Regions never count "other"."""

    def __init__(self):
        self._counts = [0] * len(CATEGORIES)
        self._regions = defaultdict(lambda: [0] * len(CATEGORIES))
        self._open = set()
        self.region_entry_count = {}

    def _begin(self, rid, pc):
        if rid in self._open:
            raise HypercallFault(f"region {rid} begun twice without end (pc={pc:#x})")
        self._open.add(rid)
        self._regions[rid] = list(map(operator.sub, self._regions[rid], self._counts))
        self.region_entry_count[rid] = self.region_entry_count.get(rid, 0) + 1

    def _end(self, rid, pc):
        if rid not in self._open:
            raise HypercallFault(f"region {rid} ended without begin (pc={pc:#x})")
        self._open.remove(rid)
        self._regions[rid] = list(map(operator.add, self._regions[rid], self._counts))

    @property
    def counts(self):
        return dict(zip(CATEGORIES, self._counts))

    @property
    def regions(self):
        return {rid: dict(zip(CATEGORIES, map(operator.add, c, self._counts)
                              if rid in self._open else c), **{OTHER: 0})
                for rid, c in self._regions.items()}

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
# _ROT and _ANDN are fused idiom triples, and _XOR a register xor, which
# only _run's body holds
_REG, _IMM, _ROT, _ANDN, _XOR, _LOAD, _STORE = range(7)


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


def _fuse(entries):
    """entries with each fusable triple replaced by its fused entry and two
    empty ones, so every instruction keeps its slot. Two RV64I idioms fuse:
      srli T, A, k; slli A, A, 64-k; or A, A, T    (rotate A left by 64-k)
        -> (_ROT, None, T, A, k, 64-k, 0, 0)
      xori T, N1, -1; and T, T, N2; xor D, D, T    (D ^= ~N1 & N2)
        -> (_ANDN, None, T, N1, N2, D, 0, 0)
    Each needs T != A (T != N2), as the fused entry reads its sources
    before it writes; an x0 write has an empty entry, so never fuses. One
    pass from the left: a triple that fuses is skipped whole."""
    out = list(entries)
    i, last = 0, len(out) - 2
    while i < last:
        a = out[i]
        if a and a[0] == _IMM:
            op, t, src, k = a[1], a[2], a[3], a[4]
            b, c = out[i + 1], out[i + 2]
            if (op is operator.rshift and t != src and 0 < k < 64
                    and b and b[0] == _IMM and b[1] is operator.lshift
                    and b[2] == b[3] == src and b[4] == 64 - k
                    and c and c[0] == _REG and c[1] is operator.or_
                    and c[2] == c[3] == src and c[4] == t):
                out[i:i + 3] = (_ROT, None, t, src, k, 64 - k, 0, 0), (), ()
                i += 3
                continue
            if (op is operator.xor and k == _M64
                    and b and b[0] == _REG and b[1] is operator.and_
                    and b[2] == b[3] == t != b[4]
                    and c and c[0] == _REG and c[1] is operator.xor
                    and c[2] == c[3] and c[4] == t):
                out[i:i + 3] = (_ANDN, None, t, src, b[4], c[2], 0, 0), (), ()
                i += 3
                continue
        i += 1
    return out


def _run(entries):
    """One executor for a straight-line run: the entry of each instruction,
    in order. It loads registers and memory once, executes the entries and
    moves pc once, past the run; a fault leaves pc at the faulting access,
    whose entry is copied to hold its offset. A register xor gets its own
    kind here, _XOR, which needs no call; other ALU entries are shared."""
    body = tuple([e[:-1] + (4 * i,) if e[0] >= _LOAD
                  else (_XOR, *e[1:]) if e[0] == _REG and e[1] is operator.xor else e
                  for i, e in enumerate(entries) if e])
    def ex(m, body=body, length=4 * len(entries)):
        r = m.regs
        views = m._views
        pc = m.pc
        code_end = m._code_end
        for kind, op, d, s, x, align, mask, at in body:
            # the kinds in order of how often sw-regopt's permutation runs
            # them: 1,224 xor, 696 rotates, 600 and-nots, 366 immediates,
            # 73 loads and 49 stores of its 3,008 fused entries
            if kind == _XOR:
                r[d] = r[s] ^ r[x]
            elif kind == _ROT:
                v = r[s]
                r[d] = t = v >> x
                r[s] = (v << align) & _M64 | t
            elif kind == _ANDN:
                # T first, so D == T ends as T ^ T
                r[d] = t = ~r[s] & r[x]
                r[align] ^= t
            elif kind == _IMM:
                r[d] = op(r[s], x) & _M64
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
            else:
                r[d] = op(r[s], r[x]) & _M64
        else:
            m.pc = pc + length
            return
        raise _memory_fault(m, pc + at, kind, align + 1, addr)
    return ex


# A loop is compiled on its _HOT_LOOP-th trip, and a run that rolls up on
# its _HOT_LOOP-th period; a run that does not roll stays interpreted. Each
# breaks even after its compile time over the time a compiled trip or
# period saves, measured on a 2-vCPU Xeon with Python 3.11. sw-mem's round
# loop, 460 entries and a bne, compiles with its state in promoted cells in
# 4.7-6.6 ms and runs a trip in 8.4-10.7 us, not 78-86 us, even after
# 60-100 trips, which sets _HOT_LOOP. The driver's loops of 3 to 8
# instructions compile in 0.2-0.4 ms and save 0.85-1.3 us a trip, even
# after 200-450 trips, and each, shared by every kernel of a bench call,
# runs 2,000-7,800 trips in one short-burst call. sw-regopt's 5,600-entry
# permutation run rolls up as 24 periods of 231: checking and compiling it
# takes 4.6-5.5 ms, and a call then takes 0.21-0.23 ms, not the 0.41-0.44
# ms _run takes, so it compiles on its 4th call (96 periods) and pays back
# within about 25 calls. Unrolled it took 84-91 ms to compile and ran
# slower than _run.
_HOT_LOOP = 80

# the expression of an op on 64-bit images that needs no call; M is the
# 64-bit mask, which xor, or, and and a right shift never need
_EXPR = {
    operator.xor: "{} ^ {}", operator.or_: "{} | {}", operator.and_: "{} & {}",
    operator.rshift: "{} >> {}",
    operator.add: "({} + {}) & {M}", operator.sub: "({} - {}) & {M}",
    operator.lshift: "({} << {}) & {M}",
    _ALU_REG["sll"]: "({} << ({} & 63)) & {M}",
}
# a branch's condition; flipping the sign bit S orders signed values as unsigned
_TAKEN = {"beq": "{} == {}", "bne": "{} != {}", "bltu": "{} < {}", "bgeu": "{} >= {}",
          "blt": "{} ^ {S} < {} ^ {S}", "bge": "{} ^ {S} >= {} ^ {S}"}


def _reads(e):
    """The registers the entry e reads."""
    kind, _, d, s, x = e[:5]
    if kind == _REG:
        return s, x
    return (s, d) if kind == _STORE else (s,)


def _writes(e):
    """The registers the entry e writes (x0 among them, for a load into it)."""
    return () if e[0] == _STORE else (abs(e[2]),)


def _segments(entries):
    """The start index of each segment of a run: a segment ends before an
    access whose base register it has written."""
    starts, written = [0], set()
    for i, e in enumerate(entries):
        if e:
            if e[0] >= _LOAD and e[3] in written:
                starts.append(i)
                written = set()
            written.update(_writes(e))
    return starts


def _guard(base, accesses):
    """The test that fails unless every access in `accesses`, (kind, offset,
    size) from the register `base`, is aligned, inside memory and, for a
    store, clear of the loaded code. It requires the base aligned to the
    largest size, and is "True" unless each offset is a multiple of its own
    size; a refused segment runs interpreted. Each span is taken unwrapped,
    which is conservative: a base whose sum wraps past 2**64 fails it."""
    if any(x % n for _, x, n in accesses):
        return "True"
    size = max(n for _, _, n in accesses)
    tests = [f"{base} & {size - 1}"] if size > 1 else []
    lo = min(x for _, x, _ in accesses)
    if lo < 0:
        tests.append(f"{base} < {-lo}")
    tests.append(f"{base} > {_plus('top', -max(x + n for _, x, n in accesses))}")
    stores = [(x, n) for kind, x, n in accesses if kind == _STORE]
    if stores:
        first = min(x for x, _ in stores)
        last = max(x + n for x, n in stores)
        tests.append(f"{CODE_BASE - last} < {base} < {_plus('end', -first)}")
    return " or ".join(tests)


def _plus(name, k):
    """The expression name + k, for an int k."""
    return f"{name} {'-' if k < 0 else '+'} {abs(k)}" if k else name


def _span(base, accesses):
    """(base, lo, hi): the bytes base + lo up to base + hi cover accesses."""
    return base, min(x for _, x, _ in accesses), max(x + n for _, x, n in accesses)


def _overlaps(pairs):
    """One test per pair of spans (_span) that they overlap."""
    return [f"{lo2 - hi1} < {b1} - {b2} < {hi2 - lo1}"
            for (b1, lo1, hi1), (b2, lo2, hi2) in pairs]


# opcode -> (the register fields, the fields a period must repeat) of its
# word: an access's offset is in neither, as it may step
_R, _I, _S, _U = 0x01FF8F80, 0x000F8F80, 0x01FF8000, 0x00000F80
_FIELDS = {0x33: (_R, ~_R), 0x3B: (_R, ~_R), 0x13: (_I, ~_I), 0x1B: (_I, ~_I),
           0x03: (_I, 0x707F), 0x23: (_S, 0x707F), 0x37: (_U, ~_U)}
# per field set, per byte of a word, its byte of that mask by the word's low
# byte (an opcode and rd's low bit); other opcodes must repeat whole
_MASKS = [[bytearray(b"\0\xff"[f:f + 1] * 256) for j in range(4)] for f in (0, 1)]
for _op, _masks in _FIELDS.items():
    for _f, _j in product((0, 1), range(4)):
        _MASKS[_f][_j][_op] = _MASKS[_f][_j][_op | 0x80] = _masks[_f] >> 8 * _j & 0xFF


def _agree(d, c):
    """[s, e): the 32-bit lanes of d around lane c that are 0."""
    above = d >> 32 * c
    return ((d & ((1 << 32 * c) - 1)).bit_length() + 31) // 32, \
        c + ((above & -above).bit_length() - 1) // 32


def _period(entries, code):
    """How the straight-line run of these entries, whose words are the
    bytes code, rolls up, or None: (P, R, K, sigma, steps) when after P
    entries come K >= 2 periods of R, each the one before with every
    register n renamed sigma[n], a bijection of 0..31 fixing x0, and the
    offset of the access at index j of a period stepped by steps.get(j, 0),
    a multiple of its size. The words are compared as bytes and big ints,
    each as its fields other than registers and offsets and as its rd, rs1
    and rs2, 0 where the format has none, and a 0 byte, so that a sigma
    that moves x0 matches nothing. A candidate R is the distance to the
    next copy of the fields around the run's middle; sigma is read off the
    two periods in the middle of where those fields repeat, so a register
    it renames must appear in each period; the periods are where the fields
    and the renamed registers both repeat. The first candidate that rolls
    more than half the run, else the one that rolls the most, wins."""
    n = len(entries)
    masks = []
    for tables in _MASKS:
        buf = bytearray(len(code))
        for j in range(4):
            buf[j::4] = code[0::4].translate(tables[j])
        masks.append(int.from_bytes(buf, "little"))
    word = int.from_bytes(code, "little")
    fields, regs = word & masks[1], word & masks[0]
    # rd, rs1 and rs2 of each word in its bytes 0, 1 and 2
    regs = (regs >> 7 & int.from_bytes(b"\x1f\x1f\0\0" * n, "little")
            | regs >> 4 & int.from_bytes(b"\0\0\x1f\0" * n, "little"))
    names = regs.to_bytes(len(code), "little")
    mid, best = n // 2, None
    text = fields.to_bytes(len(code), "little")
    pattern, p = text[4 * mid:4 * (mid + 1 + n // 16)], 4 * mid
    while best is None or 2 * best[1] * best[2] <= n:
        p = text.find(pattern, p + 1)
        R = p // 4 - mid
        if p < 0 or 2 * R > n:
            break
        if p % 4:
            continue
        same = fields ^ fields >> 32 * R
        s, e = _agree(same, mid)
        if e - s < R:
            continue
        c = s + (e - s - R) // (2 * R) * R
        sigma = dict(zip(names[4 * c:4 * (c + R)], names[4 * (c + R):4 * (c + 2 * R)]))
        if len(set(sigma.values())) < len(sigma):
            continue
        free = iter(sorted(set(range(32)) - set(sigma.values())))
        sigma = [sigma[r] if r in sigma else next(free) for r in range(32)]
        renamed = int.from_bytes(names.translate(bytes(sigma) + bytes(range(32, 256))), "little")
        s, e = _agree(same | renamed ^ regs >> 32 * R, c)
        K, steps = (e + R - s) // R, {}
        for j in range(R if K > 1 else 0):
            if entries[s + j] and entries[s + j][0] >= _LOAD:
                xs = [entries[s + k * R + j][4] for k in range(K)]
                step = xs[1] - xs[0]
                if step % (entries[s + j][5] + 1) or any(
                        x != xs[0] + k * step for k, x in enumerate(xs)):
                    break
                if step:
                    steps[j] = step
        else:
            if K > 1 and (best is None or K * R > best[1] * best[2]):
                best = s, R, K, sigma, steps
    return best


def _compile(entries, jumps, categories, roll):
    """The compiled function of a loop or of a straight-line run that rolls
    up: its unfused entries (one trip of the loop, or a key of
    Translations.runs) as plain Python over registers held in locals, x0
    read as 0. The entries are cut into segments (_segments); each opens
    with one guard per base register (_guard) and, if it stores, one test
    per pair of bases that their spans overlap, after which its accesses
    are bare indexes into the views. Inside a segment a load of a (base,
    offset, view) the segment has loaded, or stored at that width, reads
    the local that holds the value, and a store forgets the values of the
    bytes it overlaps; a value's local is never written while a register
    or such a fact still holds it.
    Given `jumps`, the entries are one trip of a loop (Machine._loop):
    jumps maps the index of each branch, whose entry is empty, to
    (mnemonic, rs1, rs2, target's offset from the loop's first pc), the
    last being the back edge. The function run(m, budget) then runs whole
    trips, each a new segment at its top, until a branch leaves the loop,
    a guard fails or the budget is spent, with every register back in its
    own local at the back edge and on the way out. It points pc at the
    target or the failed segment, adds the counts of what retired, by
    `categories`, and returns how many instructions that was.
    A loop promotes each base register that no entry writes and whose
    accesses are all ld or sd (scalar replacement, Callahan, Carr and
    Kennedy, PLDI 1990): one guard before the first trip covers their
    accesses and, if any stores, each pair of their spans, or run returns
    0; each 8-byte cell is read once into a local c{base}_{i}, which a
    load copies and a store assigns; every other guard also tests its
    span against theirs; and the stored cells go back however it leaves.
    Otherwise `roll` is the run's (P, R, K, sigma, steps) from _period,
    and a call does what _run(entries) does: it loads every register into
    its local, runs the prefix, `for k in range(K)` over the first period
    (each stepped access indexed by k, each period a new segment, every
    local n renamed to hold local sigma[n]'s value at its end) and the
    suffix, and writes every register back. A guard that fails in period
    k writes the local of n back as register sigma**k(n), points pc at the
    segment and hands the rest to _run, which finishes it or raises what
    step() would."""
    names = {}      # register -> the local holding it, once written
    def reg(n):
        return names.get(n, f"x{n}") if n else "0"

    def home(perm=range(32)):
        # the line that moves the value of register perm[n], by default n
        # itself, into each register n's own local
        moved = {f"x{n}": reg(perm[n]) for n in range(1, 32) if reg(perm[n]) != f"x{n}"}
        return [f"{', '.join(moved)} = {', '.join(moved.values())}"] if moved else []

    def leave(offset, done):
        # a loop's way out, to its first pc + offset, `done` instructions
        # into the trip
        return [f"    {line}" for line in home()] + [
            f"    pc = {_plus('t', offset)}", f"    done = {done}", "    break"]

    def target(n):
        # the local a new value of register n goes in: its own, x{n}, unless
        # a fact or another register still holds that, then a fresh one
        # named by the line that writes it. Only x{n} is ever rewritten,
        # and another register holds it only through names.
        name = f"x{n}"
        if (name in facts.values()
                or list(names.values()).count(name) > (names.get(n) == name)):
            name = f"v{len(lines)}"
        names[n] = name
        return name

    env, ops, views = {"_run": _run, "E": entries}, {}, set()
    lines, written, live = [], set(), set()
    P, R, K, sigma, steps = roll or (0, 0, 1, None, {})
    body, cut, stride = entries, (0, len(entries)), {P + j: x for j, x in steps.items()}
    if roll:
        # the prefix, one period for every period and the suffix, with every
        # register in a local; in period k register j is in the local of
        # back[k][j], so home(back[K]) undoes the renaming
        body = entries[:P + R] + entries[P + K * R:]
        cut, back, inverse = (0, P, P + R, len(body)), [tuple(range(32))], sorted(
            range(32), key=sigma.__getitem__)
        for _ in range(K):
            back.append(tuple(map(inverse.__getitem__, back[-1])))
        env["T"] = back
    by_base = {}
    for e in body:
        if e and e[0] >= _LOAD:
            by_base.setdefault(e[3], []).append((e[0], e[4], e[5] + 1))
    writes = {n for e in body if e for n in _writes(e)}
    promoted = {s: a for s, a in by_base.items()
                if jumps and s not in writes and all(n == 8 for *_, n in a)}
    cells = {(s, x): f"c{s}_{i}" for s, a in promoted.items()
             for i, x in enumerate(sorted({x for _, x, _ in a}))}
    fixed = [_span(reg(s), a) for s, a in promoted.items()]
    for part, (lo, hi) in enumerate(zip(cut, cut[1:])):
        if part == 1:
            # every period starts with each register in its own local
            lines += home()
            names.clear()
            first = len(lines)
        starts = [lo + i for i in _segments(body[lo:hi])]
        for start, stop in zip(starts, starts[1:] + [hi]):
            bases, facts = {}, {}
            for i, e in enumerate(body[start:stop], start):
                if e and e[0] >= _LOAD and e[3] not in promoted:
                    # a stepped access from its first offset to its last
                    bases.setdefault(e[3], []).extend(
                        (e[0], x, e[5] + 1) for x in {e[4], e[4] + (K - 1) * stride.get(i, 0)})
            tests = [_guard(reg(s), accesses) for s, accesses in bases.items()]
            spans = [_span(reg(s), a) for s, a in bases.items()]
            if any(kind == _STORE for accesses in bases.values() for kind, _, _ in accesses):
                tests += _overlaps(combinations(spans, 2))
            tests += _overlaps(product(spans, fixed))
            if tests:
                lines.append(f"if {' or '.join(tests)}:")
                if jumps:
                    lines += leave(4 * start, start)
                else:   # T[0], in the prefix or the suffix, renames nothing
                    at = (f"{start} + {R} * k" if part == 1
                          else start + (K - 1) * R if part else start)
                    lines += [f"    r[:] = map(({', '.join(map(reg, range(32)))})"
                              f".__getitem__, T[{'k' if part == 1 else 0}])",
                              f"    m.pc += 4 * ({at})", f"    return _run(E[{at}:])(m)"]
                lines += [f"b{s}_{w} = {reg(s)} >> {w}"
                          for s, accesses in bases.items()
                          for w in sorted({n.bit_length() - 1 for _, _, n in accesses}) if w]
            for i, e in enumerate(body[start:stop], start):
                if jumps and i in jumps:
                    name, rs1, rs2, offset = jumps[i]
                    live.update(n for n in (rs1, rs2) if n not in written)
                    if i + 1 < len(entries):
                        taken = _TAKEN[name].format(reg(rs1), reg(rs2), S=1 << 63)
                        lines += [f"if {taken}:", *leave(offset, i + 1)]
                        continue
                    # the back edge tests after the moves, each register in its own local
                    lines += home() + ["n += 1"]
                    names.clear()
                    if name != "jal":
                        taken = _TAKEN[name].format(reg(rs1), reg(rs2), S=1 << 63)
                        lines += [f"if not ({taken}):",
                                  f"    pc = {_plus('t', 4 * len(entries))}", "    break"]
                if not e:
                    continue
                live.update(n for n in _reads(e) if n not in written)
                kind, op, d, s, x, align, mask, _ = e
                if kind >= _LOAD and s in promoted:
                    if kind == _STORE:
                        lines.append(f"{cells[s, x]} = {reg(d)}")
                    elif d:
                        lines.append(f"{target(d)} = {cells[s, x]}")
                elif kind >= _LOAD:
                    w = align.bit_length()
                    index = _plus(f"b{s}_{w}" if w else reg(s), x >> w)
                    step = stride.get(i)
                    if step:    # a stepped access is neither forwarded nor a fact
                        index += f" + {step >> w} * k"
                    views.add(op)
                    if kind == _STORE:
                        facts = {k: v for k, v in facts.items() if k[0] != s or not step
                                 and (k[1] + _VIEWS[k[2]][1] <= x or x + align < k[1])}
                        value = reg(d) if mask == _M64 else f"v{len(lines)}"
                        lines.append(f"V{op}[{index}] = {value}" + (
                            f" = {reg(d)} & {mask}" if mask != _M64 else ""))
                        if not step:
                            facts[s, x, op] = value
                    elif d and not step and (s, x, op) in facts:
                        names[abs(d)] = facts[s, x, op]
                    elif d:
                        value = f"V{op}[{index}]" + (f" & {_M64}" if d < 0 else "")
                        lines.append(f"{target(abs(d))} = {value}")
                        if not step:
                            facts[s, x, op] = reg(abs(d))
                elif kind == _IMM and op is operator.add and not (s and x):
                    # a copy renames, a constant is its value
                    if s:
                        names[d] = reg(s)
                    else:
                        lines.append(f"{target(d)} = {x}")
                else:
                    b = reg(x) if kind == _REG else str(x)
                    template = _EXPR.get(op)
                    if template is None:
                        template = ops.setdefault(op, f"f{len(ops)}") + "({}, {}) & {M}"
                    value = template.format(reg(s), b, M=_M64)
                    lines.append(f"{target(d)} = {value}")
                written.update(n for n in _writes(e) if n)
        if part == 1:
            # each register n's local goes on to hold register sigma[n]'s, the
            # register that the next period uses in its place
            lines += home(sigma)
            names.clear()
            lines[first:] = [f"for k in range({K}):",
                             *[f"    {line}" for line in lines[first:] or ["pass"]],
                             *home(back[K])]
    if jumps:
        # every register the loop writes has a local before the first trip
        live |= written
        entry = []
        if promoted:
            views.add(3)
            tests = [_guard(reg(s), a) for s, a in promoted.items()]
            if any(kind == _STORE for a in promoted.values() for kind, _, _ in a):
                tests += _overlaps(combinations(fixed, 2))
            entry = [f"if {' or '.join(tests)}:", "    return 0",
                     *[f"b{s}_3 = {reg(s)} >> 3" for s in promoted],
                     *[f"{c} = V3[{_plus(f'b{s}_3', x >> 3)}]" for (s, x), c in cells.items()]]
        stored = {(e[3], e[4]) for e in entries if e and e[0] == _STORE and e[3] in promoted}
        lines = [*entry, f"trips = budget // {len(entries)} if budget < inf else budget",
                 "t = pc = m.pc", "n = done = 0", "while n < trips:",
                 *[f"    {line}" for line in lines],
                 *[f"V3[{_plus(f'b{s}_3', x >> 3)}] = {c}"
                   for (s, x), c in cells.items() if (s, x) in stored],
                 *[f"r[{n}] = x{n}" for n in sorted(written)], "m.pc = pc",
                 "C = m.stats._counts", "for c in P[:done]:", "    C[c] += 1",
                 *[f"C[{c}] += n * {k}" for c, k in Counter(categories).items()],
                 f"return n * {len(entries)} + done"]
        env.update(inf=math.inf, P=categories)
    else:
        lines += [f"r[1:] = {', '.join(map(reg, range(1, 32)))},", f"m.pc += {4 * len(entries)}"]
    prologue = ["r = m.regs"] + ([f"{', '.join(f'x{n}' for n in range(1, 32))}, = r[1:]"] if roll
                                 else [f"x{n} = r[{n}]" for n in sorted(live - {0})])
    if views:
        prologue += ["V = m._views", "top = len(V[0])", "end = m._code_end"]
        prologue += [f"V{v} = V[{v}]" for v in sorted(views)]
    source = "def run(m, budget=None):\n" + "".join(f"    {line}\n"
                                                      for line in prologue + lines)
    env.update((name, op) for op, name in ops.items())
    exec(compile(source, "<compiled run>", "exec"), env)
    return env["run"]


def _executor(run, words, jumps=None, categories=()):
    """The one executor of a straight-line run, given by its unfused
    entries and the words of one code that holds them: it fuses them once
    and interprets them (_run). Its second call (or first, if _HOT_LOOP is
    1) checks whether the run rolls up (_period); one that does counts each
    period as a trip and compiles rolled (_compile) by its _HOT_LOOP-th,
    and one that does not stays interpreted. Given the jumps and
    categories of a loop (Machine._loop) and no words, it is the loop's
    executor, which _execute calls with the budget left at each dispatch
    of the loop's header; it retires nothing, and returns 0, until its
    _HOT_LOOP-th call compiles the loop."""
    cold = None if jumps else _run(_fuse(run))
    calls, compiled, roll = 0, None, None
    def ex(m, budget=None):
        nonlocal calls, compiled, roll
        if compiled is None:
            calls += 1
            if roll is None and not jumps and calls >= min(2, _HOT_LOOP):
                roll = _period(run, bytes(words)) or ()
            if (calls if jumps else calls * roll[2] if roll else 0) < _HOT_LOOP:
                return cold(m) if cold else 0
            compiled = _compile(run, jumps, categories, roll)
        return compiled(m, budget)
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
    loop: object            # the executor of the loop the block heads, or None


def _block(executors, categories, loop=None):
    """Bundle executors with their accounting."""
    return _Block(tuple(executors), tuple(categories), len(categories),
                  tuple(sorted(Counter(categories).items())), loop)


class Translations:
    """Translation cache for machines that run the same code, such as the
    machines of one benchmark run. Every instruction word, with bit 32 set
    if a unit is attached (an int key hashes faster than a pair), maps to
    its (closure or None, category index, straight-line entry or None,
    instruction or None), with a closure or an entry, and for a branch or
    jal its decoded instruction; every (code bytes, unit attached) to its
    table of blocks by entry pc, which dispatch reads; every (pc, the code
    bytes from pc to the end of the code, unit attached) to the block
    translated there (suffixes), which every table whose code has those
    bytes from pc on holds, as a block is made only of them; every
    straight-line run, by its unfused entries, to the one executor that
    all blocks holding it share (_executor); and every loop, by its words,
    to its one executor, which any code may share as a loop's jumps are
    pc-relative. Nothing here holds a machine, so any machine whose key
    matches may run it."""

    def __init__(self):
        self.words = {}
        self.runs = {}
        self.loops = {}
        self.suffixes = {}
        self._tables = {}

    def run(self, entries, words):
        """The executor of the straight-line run of these unfused entries,
        whose words the executor checks for periods (_period)."""
        runs = self.runs
        return runs.get(entries) or runs.setdefault(entries, _executor(entries, words))

    def blocks(self, code, attached):
        """The table of blocks, by entry pc, for this key."""
        return self._tables.setdefault((code, attached), {})


class Machine:
    def __init__(self, memory_size=DEFAULT_MEMORY_SIZE, translations=None):
        """`translations` shares a Translations cache with other machines;
        by default the machine gets a private one."""
        if sys.byteorder != "little":
            raise EmulatorError("the emulator needs a little-endian host")
        if type(memory_size) is not int:
            raise ValueError(f"memory size must be an int, got {memory_size!r}")
        if memory_size < CODE_BASE + 4:
            raise ValueError(f"memory too small: {memory_size}")
        if memory_size > MAX_MEMORY_SIZE:
            raise ValueError(f"memory too large: {memory_size} "
                             f"(at most {MAX_MEMORY_SIZE} bytes)")
        if translations is not None and not isinstance(translations, Translations):
            raise ValueError(
                f"translations must be a Translations, got {translations!r}")
        # each view cut to whole items; the views keep the mapping alive
        memory = memoryview(mmap.mmap(-1, memory_size))
        self._views = tuple(memory[:memory_size & -size].cast(f) for f, size in _VIEWS)
        self.regs = [0] * 32
        self.pc = CODE_BASE
        self.halted = False
        self.exit_status = None
        self.stats = ExecutionStats()
        self.emitted = []
        self.round_unit = None
        self._translations = (translations if translations is not None
                              else Translations())
        self._code = b""
        self._words = memoryview(self._code).cast("I")
        self._code_end = CODE_BASE

    @property
    def memory(self):
        """Guest memory as the machine's unsigned byte view, a writable
        memoryview of fixed length. It cannot be replaced or resized, as
        every load and store indexes the machine's typed views; a write of
        the same length shows through them."""
        return self._views[0]

    # -- construction ------------------------------------------------------

    def load_program(self, image):
        """Place an assembled image (or raw code bytes) into memory, point pc
        at CODE_BASE, and set sp to the 16-byte aligned top of memory. Data
        segments may not overlap the code or each other. Code is fetched
        from the machine's own copy, so a later change to the image's
        buffer changes nothing the machine runs."""
        raw = isinstance(image, (bytes, bytearray))
        code = image if raw else getattr(image, "code", None)
        segments = [] if raw else getattr(image, "data_segments", None)
        if not (isinstance(code, (bytes, bytearray)) and isinstance(segments, (list, tuple))):
            raise LoadError(f"not code bytes or an image of code bytes and a list "
                            f"of data segments: {image!r:.60}")
        if not code:
            raise LoadError("no code")
        mem = self.memory
        code_end = CODE_BASE + len(code)
        if code_end > len(mem):
            raise LoadError(f"code ({len(code)} bytes) exceeds memory")
        # check every segment before writing anything, so a rejected image
        # leaves memory as it was
        for segment in segments:
            if not (isinstance(segment, (tuple, list)) and len(segment) == 2):
                raise LoadError(f"data segment {segment!r:.40} is not (address, bytes)")
            addr, blob = segment
            if type(addr) is not int:
                raise LoadError(f"data segment address must be an int, got {addr!r}")
            if not isinstance(blob, (bytes, bytearray)):
                raise LoadError(f"data segment at {addr:#x} is not bytes: {blob!r}")
            if addr < 0 or addr + len(blob) > len(mem):
                raise LoadError(f"data segment at {addr:#x} exceeds memory")
            if addr < code_end and addr + len(blob) > CODE_BASE:
                raise LoadError(f"data segment at {addr:#x} overlaps the code")
        spans = sorted((addr, addr + len(blob)) for addr, blob in segments if blob)
        for (first, end), (addr, _) in zip(spans, spans[1:]):
            if addr < end:
                raise LoadError(f"data segments at {first:#x} and {addr:#x} overlap")
        mem[CODE_BASE:code_end] = code
        for addr, blob in segments:
            mem[addr:addr + len(blob)] = blob
        self.pc = CODE_BASE
        self.regs[2] = len(mem) & ~0xF
        self.halted = False
        self._code = bytes(code)
        self._words = memoryview(self._code)[:len(code) & -4].cast("I")
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
        """Fetch the word at pc and translate it to its words-cache value
        (see Translations), decoding only words the cache has not seen.
        Only the loaded code can be fetched."""
        if pc & 3:
            raise MemoryFault(f"misaligned instruction fetch at {pc:#x}")
        if pc < CODE_BASE or pc + 4 > self._code_end:
            raise MemoryFault(
                f"instruction fetch outside the loaded code at {pc:#x}")
        # the loaded code, which the cache is keyed by, equals memory there
        # since stores into it fault
        word = self._words[(pc - CODE_BASE) >> 2]
        attached = self.round_unit is not None
        words = self._translations.words
        cached = words.get(word | attached << 32)
        if cached is None:
            try:
                inst = self.decode(word)
                entry = _entry(inst)
                ex = _closure(inst, attached) if entry is None else None
            except (DecodeError, CsrFault) as e:
                raise type(e)(f"at pc={pc:#x}: {e}") from None
            jump = inst if inst.category == BRANCH and inst.mnemonic != "jalr" else None
            cached = words[word | attached << 32] = (
                ex, CATEGORY_INDEX[inst.category], entry, jump)
        return cached

    def _translate(self, pc):
        """Translate the block at pc: through the first branch, jump or
        ecall, and short of a word that does not fetch or decode (it
        faults once the guest reaches it). The first word goes through
        _build's fetch checks; the rest are read off the word view of the
        code, and only one the cache lacks goes through _build. Each stretch
        of instructions with a straight-line entry becomes one run executor.
        A block ends before the target of its own backward branch or jal,
        so that every trip of a loop starts at its header, whose block
        holds the loop's executor (_loop)."""
        words, unit = self._translations.words, (self.round_unit is not None) << 32
        code, first = self._words, (pc - CODE_BASE) >> 2
        ex, cat, entry, jump = self._build(pc)
        cats, entries, closures = [cat], [entry], {0: ex} if ex else {}
        if cat not in _ENDS_BLOCK:
            for i in range(first + 1, len(code)):
                try:
                    cached = words.get(code[i] | unit) or self._build(CODE_BASE + 4 * i)
                except (CsrFault, DecodeError):
                    break
                ex, cat, entry, jump = cached
                if ex is not None:
                    closures[len(cats)] = ex
                cats.append(cat)
                entries.append(entry)
                if cat in _ENDS_BLOCK:
                    break
        n, entries = len(cats), tuple(entries)
        if jump is not None and -4 * (n - 1) < jump.imm <= 0 and not jump.imm & 3:
            n += (jump.imm >> 2) - 1
        bounds = sorted({0, n, *[c + k for c in closures for k in (0, 1) if c < n]})
        return _block([closures.get(a) or self._translations.run(
                           entries[a:b], code[first + a:first + b])
                       for a, b in zip(bounds, bounds[1:])], cats[:n],
                      self._loop(pc) if jump is not None and n == len(cats) else None)

    def _loop(self, pc):
        """The executor of the loop headed at pc, or None. A loop runs from
        pc through its back edge, the first conditional branch or jal x0
        back to pc, and every instruction before that is straight-line or
        an exit, a conditional branch forward past the back edge. Each
        access offset is a multiple of its size, as no guard (_guard) passes
        one that is not. Loops of the same words share one executor
        (_executor)."""
        words, unit = self._translations.words, (self.round_unit is not None) << 32
        code, first = self._words, (pc - CODE_BASE) >> 2
        entries, cats, jumps = [], [], {}
        try:
            for k, word in enumerate(code[first:]):
                _, cat, entry, jump = words.get(word | unit) or self._build(pc + 4 * k)
                entries.append(entry or ())
                cats.append(cat)
                if entry is None:
                    offset = 4 * k + jump.imm if jump else -1
                    if 0 != offset <= 4 * k or jump.mnemonic == "jal" and (offset or jump.rd):
                        return None
                    jumps[k] = jump.mnemonic, jump.rs1, jump.rs2, offset
                    if offset == 0:
                        break
            else:
                return None
        except (CsrFault, DecodeError):
            return None
        if (any(0 < offset < 4 * len(cats) for *_, offset in jumps.values())
                or any(e and e[4] % (e[5] + 1) for e in entries)):
            return None
        key, loops = tuple(code[first:first + len(cats)]), self._translations.loops
        return loops.get(key) or loops.setdefault(
            key, _executor(entries, None, jumps, tuple(cats)))

    # -- hypercalls --------------------------------------------------------

    def _hypercall(self):
        fn = self.regs[17]
        a0 = self.regs[10]
        if fn == 0:
            self.halted = True
            self.exit_status = a0
        elif fn == 1:
            self.stats._begin(a0, self.pc)
        elif fn == 2:
            self.stats._end(a0, self.pc)
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
        retired, a loop's header block after the trips its loop's executor
        runs. Once the next block would overrun the budget, go on one
        instruction at a time, so the budget stops at the same instruction
        as a run of step()s; a budget of one never needs a block, so step()
        builds none. A halted machine raises EmulatorError."""
        if self.halted:
            raise EmulatorError("machine is halted")
        attached = self.round_unit is not None
        blocks = self._translations.blocks(self._code, attached)
        suffixes = self._translations.suffixes
        counts = self.stats._counts
        stepping = budget <= 1
        while budget > 0 and not self.halted:
            start = self.pc
            if stepping:
                ex, cat, entry, _ = self._build(start)
                block = _block([ex or _run((entry,))], (cat,))
            else:
                block = blocks.get(start)
                if block is None:
                    # a code with the same bytes from here on may have made it
                    key = start, self._code[start - CODE_BASE:], attached
                    block = suffixes.get(key)
                    if block is None:
                        block = suffixes[key] = self._translate(start)
                    blocks[start] = block
                if block.length > budget:
                    stepping = True
                    continue
                retired = block.loop and block.loop(self, budget)
                if retired:
                    budget -= retired
                    continue
            for cat, n in block.counts:
                counts[cat] += n
            try:
                for ex in block.executors:
                    ex(self)
            except BaseException:
                # an executor faults with pc at the faulting instruction:
                # take back its count and those of the instructions after it
                for cat in block.categories[(self.pc - start) >> 2:]:
                    counts[cat] -= 1
                raise
            budget -= block.length

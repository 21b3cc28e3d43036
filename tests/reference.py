"""A reference RV64I interpreter for differential tests of the emulator.

It is written from the RISC-V unprivileged spec (20191213: RV32I/RV64I
base, chapters 2 and 5) and shares no code with shatrv: it decodes each
word's fields itself and runs one instruction at a time over a bytearray.
It covers the register and immediate ALU ops with their W forms, lui,
auipc, every load and store, the branches, jal, jalr and the hypercalls
(ecall, selected by a7): 0 exits with status a0, 1 and 2 begin and end
region a0, and 3 emits the a1 bytes at address a0. CSR ops and shatr are
not modelled.

It follows the machine's conventions where the spec leaves a choice:
code sits at CODE_BASE and only the loaded code can be fetched; a load
or store must be aligned to its size and inside memory, and a store
must not overlap the code; a jump to a misaligned target retires and
the fetch at the target faults. A faulting instruction retires nothing
and leaves pc on itself. The counts follow the machine's categories:
ALU ops, lui and auipc are int_alu, loads mem_read, stores mem_write,
branches and jumps branch, ecall other. Each region counts, per
category, the instructions that retire while it is open, which are never
ecalls, so its "other" stays 0; beginning an open region, ending a closed
one, an emit past the end of memory and an unknown hypercall fault.
"""

CODE_BASE = 0x1000
M64 = (1 << 64) - 1


class Fault(Exception):
    """What the machine would raise, by its class name, at pc."""

    def __init__(self, kind, pc):
        super().__init__(f"{kind} at pc={pc:#x}")
        self.kind, self.pc = kind, pc


def sx(value, bits):
    """The low `bits` bits of value, sign-extended, as a Python int."""
    value &= (1 << bits) - 1
    return value - (1 << bits) if value >> (bits - 1) else value


def _op(f3, word, a, b):
    """OP (opcode 0x33), or None for a reserved encoding."""
    shamt = b & 63
    return {
        (0, 0): a + b, (0, 0x20): a - b, (1, 0): a << shamt,
        (2, 0): int(sx(a, 64) < sx(b, 64)), (3, 0): int(a < b),
        (4, 0): a ^ b, (5, 0): a >> shamt, (5, 0x20): sx(a, 64) >> shamt,
        (6, 0): a | b, (7, 0): a & b,
    }.get((f3, word >> 25))


def _op32(f3, word, a, b):
    """OP-32 (opcode 0x3B): the W forms, or None."""
    shamt = b & 31
    value = {
        (0, 0): a + b, (0, 0x20): a - b, (1, 0): a << shamt,
        (5, 0): (a & 0xFFFFFFFF) >> shamt, (5, 0x20): sx(a, 32) >> shamt,
    }.get((f3, word >> 25))
    return None if value is None else sx(value, 32)


def _op_imm(f3, word, a, b):
    """OP-IMM (opcode 0x13), or None; its shifts take a 6-bit shamt."""
    imm, shamt, f6 = sx(word >> 20, 12), (word >> 20) & 63, word >> 26
    if f3 == 1:
        return a << shamt if f6 == 0 else None
    if f3 == 5:
        return {0: a >> shamt, 0x10: sx(a, 64) >> shamt}.get(f6)
    return {0: a + imm, 2: int(sx(a, 64) < imm), 3: int(a < (imm & M64)),
            4: a ^ (imm & M64), 6: a | (imm & M64), 7: a & (imm & M64)}[f3]


def _op_imm32(f3, word, a, b):
    """OP-IMM-32 (opcode 0x1B): the W forms, or None."""
    shamt, f7 = (word >> 20) & 31, word >> 25
    value = a + sx(word >> 20, 12) if f3 == 0 else {
        (1, 0): a << shamt, (5, 0): (a & 0xFFFFFFFF) >> shamt,
        (5, 0x20): sx(a, 32) >> shamt}.get((f3, f7))
    return None if value is None else sx(value, 32)


_ALU = {0x33: _op, 0x3B: _op32, 0x13: _op_imm, 0x1B: _op_imm32}
_LOADS = {0: (1, True), 1: (2, True), 2: (4, True), 3: (8, False),
          4: (1, False), 5: (2, False), 6: (4, False)}     # funct3 -> size, signed
_BRANCHES = {
    0: lambda a, b: a == b, 1: lambda a, b: a != b,
    4: lambda a, b: sx(a, 64) < sx(b, 64), 5: lambda a, b: sx(a, 64) >= sx(b, 64),
    6: lambda a, b: a < b, 7: lambda a, b: a >= b,
}
CATEGORIES = ("int_alu", "mem_read", "mem_write", "branch", "other")


class Reference:
    """One hart: registers, pc, memory with the code at CODE_BASE, and
    per-category counts of retired instructions."""

    def __init__(self, code, memory_size):
        self.mem = bytearray(memory_size)
        self.mem[CODE_BASE:CODE_BASE + len(code)] = code
        self.code_end = CODE_BASE + len(code)
        self.x = [0] * 32
        self.x[2] = memory_size & ~0xF
        self.pc = CODE_BASE
        self.halted = False
        self.exit_status = None
        self.counts = dict.fromkeys(CATEGORIES, 0)
        self.regions = {}       # region id -> per-category counts
        self.open = set()
        self.emitted = []

    def _address(self, base, offset, size, store):
        addr = (base + offset) & M64
        if (addr % size or addr + size > len(self.mem)
                or store and addr < self.code_end and addr + size > CODE_BASE):
            raise Fault("MemoryFault", self.pc)
        return addr

    def step(self):
        """Retire one instruction, or raise Fault and change nothing."""
        pc, x = self.pc, self.x
        if pc % 4 or not CODE_BASE <= pc <= self.code_end - 4:
            raise Fault("MemoryFault", pc)
        word = int.from_bytes(self.mem[pc:pc + 4], "little")
        opcode, rd, f3 = word & 0x7F, (word >> 7) & 31, (word >> 12) & 7
        a, b = x[(word >> 15) & 31], x[(word >> 20) & 31]
        value, next_pc = None, pc + 4
        if opcode in _ALU:
            value, category = _ALU[opcode](f3, word, a, b), "int_alu"
            if value is None:
                raise Fault("DecodeError", pc)
        elif opcode == 0x37:
            value, category = sx(word & 0xFFFFF000, 32), "int_alu"
        elif opcode == 0x17:
            value, category = pc + sx(word & 0xFFFFF000, 32), "int_alu"
        elif opcode == 0x03 and f3 in _LOADS:
            size, signed = _LOADS[f3]
            addr = self._address(a, sx(word >> 20, 12), size, False)
            value = int.from_bytes(self.mem[addr:addr + size], "little", signed=signed)
            category = "mem_read"
        elif opcode == 0x23 and f3 < 4:
            size = 1 << f3
            addr = self._address(a, sx((word >> 25) << 5 | rd, 12), size, True)
            self.mem[addr:addr + size] = (b & ((1 << 8 * size) - 1)).to_bytes(size, "little")
            category = "mem_write"
        elif opcode == 0x63 and f3 in _BRANCHES:
            offset = sx((word >> 31) << 12 | (rd & 1) << 11
                        | ((word >> 25) & 63) << 5 | (rd >> 1) << 1, 13)
            if _BRANCHES[f3](a, b):
                next_pc = pc + offset
            category = "branch"
        elif opcode == 0x6F:
            offset = sx((word >> 31) << 20 | ((word >> 12) & 0xFF) << 12
                        | ((word >> 20) & 1) << 11 | ((word >> 21) & 0x3FF) << 1, 21)
            value, next_pc, category = pc + 4, pc + offset, "branch"
        elif opcode == 0x67 and f3 == 0:
            value, category = pc + 4, "branch"
            next_pc = (a + sx(word >> 20, 12)) & ~1
        elif word == 0x73:
            self._hypercall(x[17], x[10], x[11])
            category = "other"
        else:
            raise Fault("DecodeError", pc)
        if rd and value is not None:
            x[rd] = value & M64
        self.pc = next_pc & M64
        self.counts[category] += 1
        if category != "other":
            for rid in self.open:
                self.regions[rid][category] += 1

    def _hypercall(self, call, a0, a1):
        if call == 0:
            self.halted, self.exit_status = True, a0
        elif call == 1 and a0 not in self.open:
            self.open.add(a0)
            self.regions.setdefault(a0, dict.fromkeys(CATEGORIES, 0))
        elif call == 2 and a0 in self.open:
            self.open.remove(a0)
        elif call == 3 and a0 + a1 <= len(self.mem):
            self.emitted.append(bytes(self.mem[a0:a0 + a1]))
        else:
            raise Fault("HypercallFault", self.pc)

    def run(self, budget=None):
        """Step until the guest exits or `budget` instructions retired."""
        while not self.halted and (budget is None or budget > 0):
            self.step()
            if budget is not None:
                budget -= 1

"""Drive the shatr round unit directly, one CSR at a time.

Loads a state into the 25 lane CSRs, executes `shatr` once per round
index, and reads the permuted state back out. Every step is checked
against the host implementation.
"""

import random

from shatrv import keccak
from shatrv.asm import assemble
from shatrv.emulator import Machine
from shatrv.isa import LANE_CSR_BASE
from shatrv.shatr import attach, encode_shatr

rng = random.Random(7)
state = [rng.getrandbits(64) for _ in range(25)]

# shatr is a plain R-type word: opcode 0x0B, rs1 = round index register.
print(f"shatr x10 encodes as 0x{encode_shatr(10):08x}")
print(f"lane CSRs: 0x{LANE_CSR_BASE:03x}..0x{LANE_CSR_BASE + 24:03x}")

# A guest whose whole job is to execute the round sitting in t0.
source = """
    shatr   t0
    addi    a0, zero, 0
    addi    a7, zero, 0
    ecall
"""

machine = Machine(memory_size=1 << 16)
unit = attach(machine)
machine.load_program(assemble(source))

# The host can also poke the lane file directly; the CSRs alias it.
unit.lanes = list(state)

expect = list(state)
for r in range(24):
    machine.regs[5] = r                  # t0 = round index
    machine.pc = 0x1000
    machine.step()                       # one shatr == one keccak round
    expect = keccak.keccak_round(expect, r)
    assert unit.lanes == expect, f"round {r} diverged"

assert unit.lanes == keccak.keccak_f(state)
print("24 shatr executions reproduce keccak_f: ok")

counts = machine.stats.counts
print("retired:", {k: v for k, v in counts.items() if v})

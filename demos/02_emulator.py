"""Assemble a small guest program and watch the emulator count it.

The guest sums an array of dwords, brackets the loop with region
markers, and reports the result through the exit hypercall. The host
then reads back the per-category instruction counts the run produced
and prices them in cycles with a cost model.
"""

from shatrv.asm import assemble, disassemble
from shatrv.emulator import CostModel, Machine

source = """
    li      t2, 0x2000           # array base
    li      t3, 8                # element count
    addi    t0, zero, 0          # accumulator

    li      a0, 7                # region_begin(7)
    addi    a7, zero, 1
    ecall
loop:
    beq     t3, zero, done
    ld      t1, 0(t2)
    add     t0, t0, t1
    addi    t2, t2, 8
    addi    t3, t3, -1
    jal     zero, loop
done:
    li      a0, 7                # region_end(7)
    addi    a7, zero, 2
    ecall

    addi    a0, t0, 0            # exit(sum)
    addi    a7, zero, 0
    ecall
"""

prog = assemble(source)
print("disassembly (first 8 instructions):")
for line in disassemble(prog).splitlines()[:8]:
    print("   ", line)

machine = Machine(memory_size=1 << 16)
machine.load_program(prog)
for i in range(8):
    machine.memory[0x2000 + 8 * i: 0x2008 + 8 * i] = (i + 1).to_bytes(8, "little")

status = machine.run(max_instructions=10_000)
print()
print("exit status (sum of 1..8):", status)
print("retired by category:", {k: v for k, v in machine.stats.counts.items() if v})
print("region 7 counts:    ", {k: v for k, v in machine.stats.regions[7].items() if v})
print("total cycles:       ",
      CostModel(extra_mem_access_cycles=2).cycles(machine.stats.counts),
      "(each memory access costs 2 extra under this cost model)")

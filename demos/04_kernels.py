"""Generate the three guest hashing kernels and run one of them.

Each strategy assembles to a self-contained guest image that reads a
message from memory, hashes it, and emits the digest through a
hypercall. The permutation styles differ wildly in size and shape.
"""

import hashlib

from shatrv.emulator import Machine
from shatrv.kernels import MESSAGE_ADDR, STRATEGIES, generate_kernel, kernel_source
from shatrv.shatr import attach

variant = "sha3-256"
message = b"kernel demo message, long enough to span two blocks " * 3

print(f"{variant} kernels, message of {len(message)} bytes")
print()
print(f"{'strategy':10s} {'code bytes':>10s}")
for strategy in STRATEGIES:
    prog = generate_kernel(strategy, variant)
    print(f"{strategy:10s} {len(prog.code):10d}")

# A taste of each permutation style, straight from the source text.
for strategy, needle in [("sw-regopt", "xori"), ("sw-mem", "mem_round:"),
                         ("shatr", "shatr")]:
    line = next(l for l in kernel_source(strategy, variant).splitlines()
                if needle in l)
    print(f"{strategy:10s} ... {line.strip()}")

# Run the shatr kernel end to end.
machine = Machine(memory_size=1 << 22)
attach(machine)
machine.load_program(generate_kernel("shatr", variant))
machine.memory[MESSAGE_ADDR: MESSAGE_ADDR + len(message)] = message
machine.regs[10] = len(message)

status = machine.run(max_instructions=1_000_000)
digest = machine.emitted[0]
print()
print("exit status:", status)
print("guest digest:", digest.hex())
print("hashlib says:", hashlib.sha3_256(message).hexdigest())
assert digest == hashlib.sha3_256(message).digest()

blocks = len(message) // 136 + 1
regions = machine.stats.region_entry_count[1]
print(f"permutation regions entered: {regions} (= {blocks} absorbed blocks)")

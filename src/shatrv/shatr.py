"""Execution unit for the shatr instruction: one Keccak-f[1600] round per
execution over a 200-byte internal lane register file.

Encoding sheet (R-type on the custom-0 opcode):

    31      25 24   20 19   15 14    12 11    7 6      0
    funct7=0   rs2=0   rs1     funct3=0  rd=0    0001011

    "shatr x10" assembles to 0x0005000B. rs1 names the register holding
    the round index (0..23); any other value faults. Any nonzero
    funct7/rs2/funct3/rd bit under opcode 0x0B is an illegal instruction.

CSR map: lane i (state index 5*y + x) is CSR 0x800 + i, for i = 0..24.
The lanes are ordinary 64-bit CSRs: csrrw swaps a whole lane, csrrs/csrrc
set and clear bits, and the usual rs1=x0 forms give pure reads.

The encoding (the shatr row of isa.INSTRUCTIONS) and the CSR range are isa's.
"""

from . import isa
from .emulator import IllegalOperand, RegistrationError
from .keccak import ROUNDS, keccak_round

__all__ = ["KeccakRoundUnit", "attach", "encode_shatr"]


def encode_shatr(rs1):
    return isa.encode("shatr", rs1=rs1)


class KeccakRoundUnit:
    """The lane register file plus the shatr executor; attach() gives a
    Machine its one unit."""

    def __init__(self):
        self.lanes = [0] * 25

    def execute(self, machine, inst):
        round_index = machine.regs[inst.rs1]
        if round_index >= ROUNDS:
            raise IllegalOperand(
                f"shatr round index {round_index} out of range 0..{ROUNDS - 1} "
                f"(pc={machine.pc:#x})")
        self.lanes = keccak_round(self.lanes, round_index)

    def csr_access(self, index, rmw, operand):
        """Replace lane `index` with rmw(old, operand); returns the old value."""
        old = self.lanes[index]
        self.lanes[index] = rmw(old, operand)
        return old


def attach(machine):
    """Give the machine a fresh unit and return it. A machine holds at most
    one unit, so a second attach raises RegistrationError."""
    if machine.round_unit is not None:
        raise RegistrationError("a round unit is already attached")
    machine.round_unit = unit = KeccakRoundUnit()
    return unit

"""RV64 emulator with a single-round Keccak-f accelerator instruction,
a host-side SHA-3 reference, an assembler for the supported subset,
deterministic hashing kernels, and a known-answer benchmark harness."""

from .asm import AsmError, AssembledProgram, assemble, disassemble
from .bench import BenchReport, emit_report, run_benchmark
from .cavp import CavpError, CavpVectorSet, load_bundled, parse_rsp
from .emulator import CODE_BASE, CostModel, EmulatorError, Machine
from .keccak import VARIANTS, keccak_f, keccak_round, sha3_digest
from .kernels import STRATEGIES, generate_kernel, kernel_source
from .shatr import KeccakRoundUnit, attach, encode_shatr

__version__ = "0.1.0"

__all__ = [
    "AsmError", "AssembledProgram", "BenchReport", "CODE_BASE", "CavpError",
    "CavpVectorSet", "CostModel", "EmulatorError", "KeccakRoundUnit",
    "Machine", "STRATEGIES", "VARIANTS", "assemble", "attach", "disassemble",
    "emit_report", "encode_shatr", "generate_kernel", "keccak_f",
    "keccak_round", "kernel_source", "load_bundled", "parse_rsp",
    "run_benchmark", "sha3_digest",
]

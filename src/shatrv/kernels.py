"""Deterministic guest kernels that hash a message with the sponge
construction, one permutation routine per implementation strategy.

Every kernel shares the same host contract:

  * the host writes the message bytes at MESSAGE_ADDR before the run
    and passes the byte length in a0,
  * the kernel absorbs, pads (0x06 domain byte, 0x80 final bit), squeezes,
    emits the digest through hypercall 3, and exits with status 0,
  * each full state permutation runs inside region PERMUTE_REGION, so
    that region of the run statistics isolates permutation work and its
    entry count equals the number of absorbed blocks.

STRATEGY_TABLE holds the strategies in report order, one row each: the
generator of its permutation body, whether it runs on the shatr round
unit (then bench attaches one to its machines and takes its cycles as a
speedup's base against each strategy without it), and the temporary that
parks ra in scratch, or None if the body leaves ra alone.  _routine adds
the permute label, the region markers and the return.  A new strategy is
one row.

  sw-regopt  fully unrolled rounds with all 25 lanes pinned in x1..x25;
             the lane permutation step is compile-time register renaming,
             so rounds are almost pure ALU work.
  sw-mem     a round loop with the state, lane buffer, and column buffer
             all memory-resident; every lane access is a load or store.
  shatr      lanes move through the lane CSR file once per block and the
             24 rounds are 24 shatr instructions.

Strategies share the driver and variants share the routine after the
permute label.  Permute may clobber every register, so the driver keeps its
loop state in scratch spill slots.  generate_kernel assembles each variant's
driver and each strategy's pc-relative routine once per routines dict a
caller passes.
"""

from collections import namedtuple

from . import keccak
from .asm import AssembledProgram, assemble
from .isa import LANE_CSR_BASE

__all__ = ["MESSAGE_ADDR", "PERMUTE_REGION", "STRATEGIES", "STRATEGY_TABLE",
           "generate_kernel", "kernel_source", "select"]

# guest memory map, every address 8-byte aligned
_RC_TABLE = 0x100000   # 24 round constants, 192 bytes
_STATE = 0x100100      # 200-byte sponge state
_DIGEST = 0x100200     # squeezed digest, up to 64 bytes
_SCRATCH = 0x100300    # spill slots and work buffers
MESSAGE_ADDR = 0x110000  # input bytes, written by the host
PERMUTE_REGION = 1     # the statistics region every permutation runs in

# scratch area map (offsets from _SCRATCH)
_RA_SLOT = 0x00        # permute return address
_CURSOR_SLOT = 0x08    # driver message cursor across permute calls
_REMAIN_SLOT = 0x10    # driver remaining-length across permute calls
_PARITY_SLOT = 0x18    # sw-regopt column parity park
_BLOCK_OFF = 0x40      # padded final block, up to 144 bytes
_C_BUF_OFF = 0x100     # sw-mem column buffer, 40 bytes
_B_BUF_OFF = 0x200     # sw-mem lane buffer, 200 bytes


def _driver(rate, digest_len):
    return [
        f"li   s0, {_STATE:#x}",
        f"li   s1, {MESSAGE_ADDR:#x}",
        "mv   s2, a0",
        f"li   s3, {rate}",
        "addi t0, s0, 0",
        "addi t1, s0, 200",
        "zero_state:",
        "sd   x0, 0(t0)",
        "addi t0, t0, 8",
        "bne  t0, t1, zero_state",
        "absorb:",
        "blt  s2, s3, last_block",
        "addi t0, zero, 0",
        "absorb_xor:",
        "add  t1, s1, t0",
        "ld   t2, 0(t1)",
        "add  t3, s0, t0",
        "ld   t4, 0(t3)",
        "xor  t4, t4, t2",
        "sd   t4, 0(t3)",
        "addi t0, t0, 8",
        "bltu t0, s3, absorb_xor",
        f"li   t0, {_SCRATCH:#x}",
        f"sd   s1, {_CURSOR_SLOT}(t0)",
        f"sd   s2, {_REMAIN_SLOT}(t0)",
        "jal  ra, permute",
        f"li   t0, {_SCRATCH:#x}",
        f"ld   s1, {_CURSOR_SLOT}(t0)",
        f"ld   s2, {_REMAIN_SLOT}(t0)",
        f"li   s0, {_STATE:#x}",
        f"li   s3, {rate}",
        "add  s1, s1, s3",
        "sub  s2, s2, s3",
        "j    absorb",
        "last_block:",
        f"li   s6, {_SCRATCH + _BLOCK_OFF:#x}",
        "addi t1, s6, 0",
        f"addi t2, s6, {rate}",
        "pad_zero:",
        "sd   x0, 0(t1)",
        "addi t1, t1, 8",
        "bne  t1, t2, pad_zero",
        "addi t0, zero, 0",
        "copy_msg:",
        "beq  t0, s2, copy_done",
        "add  t1, s1, t0",
        "lbu  t3, 0(t1)",
        "add  t1, s6, t0",
        "sb   t3, 0(t1)",
        "addi t0, t0, 1",
        "j    copy_msg",
        "copy_done:",
        "add  t1, s6, s2",
        "addi t3, zero, 6",      # domain separation byte 0x06
        "sb   t3, 0(t1)",
        "add  t1, s6, s3",
        "addi t1, t1, -1",
        "lbu  t3, 0(t1)",
        "ori  t3, t3, 128",      # final padding bit, merges on one-byte pads
        "sb   t3, 0(t1)",
        "addi t0, zero, 0",
        "pad_xor:",
        "add  t1, s6, t0",
        "ld   t2, 0(t1)",
        "add  t3, s0, t0",
        "ld   t4, 0(t3)",
        "xor  t4, t4, t2",
        "sd   t4, 0(t3)",
        "addi t0, t0, 8",
        "bltu t0, s3, pad_xor",
        "jal  ra, permute",
        f"li   s0, {_STATE:#x}",
        f"li   t1, {_DIGEST:#x}",
        f"li   t2, {digest_len}",
        "addi t0, zero, 0",
        "squeeze:",
        "add  t3, s0, t0",
        "lbu  t4, 0(t3)",
        "add  t3, t1, t0",
        "sb   t4, 0(t3)",
        "addi t0, t0, 1",
        "bne  t0, t2, squeeze",
        f"li   a0, {_DIGEST:#x}",
        f"li   a1, {digest_len}",
    ] + _hypercall(3) + _hypercall(0, a0=0)


def _hypercall(number, a0=None):
    """The lines of hypercall `number`, setting a0 first when it is given."""
    return ([] if a0 is None else [f"addi a0, zero, {a0}"]) + [
        f"addi a7, zero, {number}", "ecall"]


def _shatr_permute():
    lines = [f"li   t0, {_STATE:#x}"]
    for i in range(25):
        lines += ["ld   t1, 0(t0)",
                  f"csrrw x0, {LANE_CSR_BASE + i:#x}, t1",
                  "addi t0, t0, 8"]
    for r in range(keccak.ROUNDS):
        lines += ["addi t2, t2, 1" if r else "addi t2, zero, 0", "shatr t2"]
    lines.append(f"li   t0, {_STATE:#x}")
    for i in range(25):
        lines += [f"csrrs t1, {LANE_CSR_BASE + i:#x}, x0",
                  "sd   t1, 0(t0)",
                  "addi t0, t0, 8"]
    return lines


def _regopt_permute():
    # lanes live in x1..x25; x26..x30 carry column parities, x31 is the
    # lone temporary, so the return address parks in scratch through it
    lines = [f"li   x31, {_STATE:#x}"]
    for i in range(25):
        lines.append(f"ld   x{i + 1}, {8 * i}(x31)")
    reg_of = list(range(1, 26))
    C = (26, 27, 28, 29, 30)
    for r in range(keccak.ROUNDS):
        for x in range(5):
            lines.append(f"xor  x{C[x]}, x{reg_of[x]}, x{reg_of[x + 5]}")
            for y in range(2, 5):
                lines.append(f"xor  x{C[x]}, x{C[x]}, x{reg_of[x + 5 * y]}")
        # each parity is needed once raw and once rotated; computing the
        # offsets in the order 0,3,1,4,2 lets every rotation happen in
        # place except the first, whose raw value parks in scratch
        lines += [f"li   x31, {_SCRATCH:#x}",
                  f"sd   x{C[1]}, {_PARITY_SLOT}(x31)"]
        dreg = {}
        for x in (0, 3, 1, 4, 2):
            rot = C[(x + 1) % 5]
            raw = C[(x + 4) % 5]
            lines += [f"srli x31, x{rot}, 63",
                      f"slli x{rot}, x{rot}, 1",
                      f"or   x{rot}, x{rot}, x31"]
            if x == 2:
                lines += [f"li   x31, {_SCRATCH:#x}",
                          f"ld   x31, {_PARITY_SLOT}(x31)",
                          f"xor  x{rot}, x{rot}, x31"]
            else:
                lines.append(f"xor  x{rot}, x{rot}, x{raw}")
            dreg[x] = rot
        for x in range(5):
            for y in range(5):
                lane = reg_of[x + 5 * y]
                lines.append(f"xor  x{lane}, x{lane}, x{dreg[x]}")
        for i in range(25):
            n = keccak.RHO_OFFSETS[i]
            if n:
                reg = reg_of[i]
                lines += [f"srli x31, x{reg}, {64 - n}",
                          f"slli x{reg}, x{reg}, {n}",
                          f"or   x{reg}, x{reg}, x31"]
        # lane shuffle is pure renaming; no instructions emitted
        reg_of = [reg_of[keccak.PI_SOURCE[i]] for i in range(25)]
        for y in range(5):
            row = [reg_of[x + 5 * y] for x in range(5)]
            saved = {0: 26, 1: 27}
            lines += [f"addi x26, x{row[0]}, 0",
                      f"addi x27, x{row[1]}, 0"]
            for x in range(5):
                n1 = row[x + 1] if x + 1 < 5 else saved[(x + 1) % 5]
                n2 = row[x + 2] if x + 2 < 5 else saved[(x + 2) % 5]
                lines += [f"xori x31, x{n1}, -1",
                          f"and  x31, x31, x{n2}",
                          f"xor  x{row[x]}, x{row[x]}, x31"]
        lines += [f"li   x26, {_RC_TABLE:#x}",
                  f"ld   x26, {8 * r}(x26)",
                  f"xor  x{reg_of[0]}, x{reg_of[0]}, x26"]
    lines.append(f"li   x31, {_STATE:#x}")
    for i in range(25):
        lines.append(f"sd   x{reg_of[i]}, {8 * i}(x31)")
    return lines


def _sw_mem_permute():
    lines = [
        f"li   s0, {_STATE:#x}",
        f"li   s1, {_SCRATCH + _C_BUF_OFF:#x}",
        f"li   s2, {_SCRATCH + _B_BUF_OFF:#x}",
        f"li   s3, {_RC_TABLE:#x}",
        "addi s4, zero, 0",
        "mem_round:",
    ]
    for x in range(5):
        lines.append(f"ld   t0, {8 * x}(s0)")
        for y in range(1, 5):
            lines += [f"ld   t1, {8 * (x + 5 * y)}(s0)", "xor  t0, t0, t1"]
        lines.append(f"sd   t0, {8 * x}(s1)")
    for x in range(5):
        lines += [f"ld   t0, {8 * ((x + 4) % 5)}(s1)",
                  f"ld   t1, {8 * ((x + 1) % 5)}(s1)",
                  "srli t2, t1, 63",
                  "slli t1, t1, 1",
                  "or   t1, t1, t2",
                  "xor  t0, t0, t1"]
        for y in range(5):
            off = 8 * (x + 5 * y)
            lines += [f"ld   t1, {off}(s0)",
                      "xor  t1, t1, t0",
                      f"sd   t1, {off}(s0)"]
    for d in range(25):
        s = keccak.PI_SOURCE[d]
        n = keccak.RHO_OFFSETS[s]
        lines.append(f"ld   t0, {8 * s}(s0)")
        if n:
            lines += [f"srli t1, t0, {64 - n}",
                      f"slli t0, t0, {n}",
                      "or   t0, t0, t1"]
        lines.append(f"sd   t0, {8 * d}(s2)")
    for y in range(5):
        for x in range(5):
            lines += [f"ld   t0, {8 * (x + 5 * y)}(s2)",
                      f"ld   t1, {8 * ((x + 1) % 5 + 5 * y)}(s2)",
                      f"ld   t2, {8 * ((x + 2) % 5 + 5 * y)}(s2)",
                      "xori t1, t1, -1",
                      "and  t1, t1, t2",
                      "xor  t0, t0, t1",
                      f"sd   t0, {8 * (x + 5 * y)}(s0)"]
    return lines + [
        "ld   t0, 0(s0)",
        "slli t1, s4, 3",
        "add  t1, t1, s3",
        "ld   t1, 0(t1)",
        "xor  t0, t0, t1",
        "sd   t0, 0(s0)",
        "addi s4, s4, 1",
        f"addi t0, zero, {keccak.ROUNDS}",
        "bne  s4, t0, mem_round",
    ]


Strategy = namedtuple("Strategy", "permute round_unit ra_temp")
STRATEGY_TABLE = {
    "sw-regopt": Strategy(_regopt_permute, False, "x31"),
    "sw-mem": Strategy(_sw_mem_permute, False, None),
    "shatr": Strategy(_shatr_permute, True, "t0"),
}
STRATEGIES = tuple(STRATEGY_TABLE)


def select(strategies):
    """The named strategies, from any iterable, in table order; a name not
    in the table, even an unhashable one, is a ValueError naming the choices."""
    names, strategies = tuple(STRATEGY_TABLE), tuple(strategies)
    for s in strategies:
        if s not in names:
            raise ValueError(f"unknown strategy {s!r}, expected one of {names}")
    return tuple(s for s in names if s in strategies)


def _routine(row):
    """A table row's permute routine: its body inside region PERMUTE_REGION,
    then the return through ra, or through the row's ra_temp, which parks
    ra in scratch first when the body clobbers ra."""
    t = row.ra_temp
    park = [f"li   {t}, {_SCRATCH:#x}", f"sd   ra, {_RA_SLOT}({t})"] if t else []
    back = [f"li   {t}, {_SCRATCH:#x}", f"ld   {t}, {_RA_SLOT}({t})"] if t else []
    return ["permute:", *park, *_hypercall(1, PERMUTE_REGION), *row.permute(),
            *_hypercall(2, PERMUTE_REGION), *back, f"jalr x0, {t or 'ra'}, 0"]


def _source(strategy, variant, routine=None):
    """The kernel's text; `routine` replaces the lines of the row's routine."""
    select([strategy])
    params = keccak.sponge_params(variant)
    lines = _driver(params.rate_bytes, params.digest_bytes)
    lines += _routine(STRATEGY_TABLE[strategy]) if routine is None else routine
    lines += [".data", f".org {_RC_TABLE:#x}", "rc_table:"]
    lines += [f".dword {rc:#018x}" for rc in keccak.ROUND_CONSTANTS]
    return "".join(line + "\n" for line in lines)


def kernel_source(strategy, variant):
    """Return the assembly source of one hashing kernel."""
    return _source(strategy, variant)


def generate_kernel(strategy, variant, routines=None):
    """Assemble one hashing kernel: the variant's driver, then the routine.
    Pass one routines dict for all the kernels built: each variant's driver
    and each strategy's routine is assembled into it once, under its name
    (no strategy is named like a variant), and only the routine's labels
    move."""
    select([strategy])
    keccak.sponge_params(variant)   # both names are checked before any lookup
    routines = {} if routines is None else routines
    if variant not in routines:
        routines[variant] = assemble(_source(strategy, variant, ["permute:"]))
    if strategy not in routines:
        routines[strategy] = assemble("\n".join(_routine(STRATEGY_TABLE[strategy])))
    driver, body = routines[variant], routines[strategy]
    shift = len(driver.code)
    return AssembledProgram(driver.code + body.code, list(driver.data_segments), {
        **driver.symbols, **{k: a + shift for k, a in body.symbols.items()}})

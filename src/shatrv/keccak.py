"""Keccak-f[1600] permutation and the four fixed-output SHA-3 digests.

State convention used everywhere in this package: 25 lanes of 64 bits,
lane (x, y) stored at index 5*y + x. Byte serialization is little-endian
per lane, lane i occupying bytes 8*i .. 8*i+7.

theta, rho, pi, chi and iota are the readable reference. keccak_round and
keccak_f run _round, one straight-line round with the five steps written
out, which _round_source builds from the step tables at import and the
tests check against their composition.
"""

from dataclasses import dataclass

__all__ = [
    "ROUNDS", "ROUND_CONSTANTS", "RHO_OFFSETS", "PI_SOURCE",
    "SpongeParams", "VARIANTS", "state_from_bytes", "state_to_bytes",
    "theta", "rho", "pi", "chi", "iota",
    "keccak_round", "keccak_f", "pad_message", "sha3_digest", "sponge_params",
]

_M64 = (1 << 64) - 1
ROUNDS = 24


def _rotl(v, n):
    return ((v << n) & _M64) | (v >> (64 - n)) if n else v


def _round_constants():
    """Derive the iota constants from the degree-8 LFSR x^8+x^6+x^5+x^4+1.

    Bit (2^j - 1) of constant ir is LFSR output bit j + 7*ir.
    """
    out = []
    lfsr = 1
    for _ in range(ROUNDS):
        rc = 0
        for j in range(7):
            if lfsr & 1:
                rc |= 1 << ((1 << j) - 1)
            lfsr <<= 1
            if lfsr & 0x100:
                lfsr ^= 0x171
        out.append(rc)
    return tuple(out)


def _rho_offsets():
    """Walk (x, y) -> (y, 2x+3y) from (1, 0); offset t is (t+1)(t+2)/2 mod 64."""
    off = [0] * 25
    x, y = 1, 0
    for t in range(24):
        off[5 * y + x] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    return tuple(off)


ROUND_CONSTANTS = _round_constants()
RHO_OFFSETS = _rho_offsets()

# pi moves lane ((x+3y)%5, x) to (x, y); precomputed as dst index -> src index.
PI_SOURCE = tuple(((x + 3 * y) % 5) + 5 * x for y in range(5) for x in range(5))


def state_from_bytes(raw):
    if len(raw) != 200:
        raise ValueError(f"state must be 200 bytes, got {len(raw)}")
    return [int.from_bytes(raw[8 * i:8 * i + 8], "little") for i in range(25)]


def state_to_bytes(lanes):
    if len(lanes) != 25:
        raise ValueError(f"state must have 25 lanes, got {len(lanes)}")
    return b"".join(v.to_bytes(8, "little") for v in lanes)


def theta(lanes):
    c = [lanes[x] ^ lanes[x + 5] ^ lanes[x + 10] ^ lanes[x + 15] ^ lanes[x + 20]
         for x in range(5)]
    d = [c[(x + 4) % 5] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
    return [lanes[i] ^ d[i % 5] for i in range(25)]


def rho(lanes):
    return [_rotl(lanes[i], RHO_OFFSETS[i]) for i in range(25)]


def pi(lanes):
    return [lanes[s] for s in PI_SOURCE]


def chi(lanes):
    out = []
    for base in range(0, 25, 5):
        row = lanes[base:base + 5]
        out += [row[x] ^ ((row[(x + 1) % 5] ^ _M64) & row[(x + 2) % 5])
                for x in range(5)]
    return out


def iota(lanes, round_index):
    out = list(lanes)
    out[0] ^= ROUND_CONSTANTS[round_index]
    return out


def _round_source():
    """The source of _round, theta..iota written out over 25 locals
    a0..a24: theta XORs d[x] into each lane of column x; b[d] =
    rotl(a[s], RHO_OFFSETS[s]) with s = PI_SOURCE[d] is rho and pi; the
    returned list is chi along each row and iota into lane 0.
    ~b & c is exact because c is never negative."""
    def rotl(v, n):
        return f"({v} << {n}) & _M64 | {v} >> {64 - n}" if n else v

    a = [f"a{i}" for i in range(25)]
    lines = [f"({', '.join(a)}) = lanes"]
    lines += [f"c{x} = " + " ^ ".join(a[x::5]) for x in range(5)]
    lines += [f"d{x} = c{(x + 4) % 5} ^ ({rotl(f'c{(x + 1) % 5}', 1)})"
              for x in range(5)]
    lines += [", ".join(a[x::5]) + " = " + ", ".join(f"{v} ^ d{x}" for v in a[x::5])
              for x in range(5)]
    lines += [f"b{d} = {rotl(a[s], RHO_OFFSETS[s])}" for d, s in enumerate(PI_SOURCE)]
    chi = [f"b{y + x} ^ (~b{y + (x + 1) % 5} & b{y + (x + 2) % 5})"
           for y in range(0, 25, 5) for x in range(5)]
    chi[0] += " ^ ROUND_CONSTANTS[round_index]"
    lines += ["return ["] + [f"    {lane}," for lane in chi] + ["]"]
    return "def _round(lanes, round_index):\n" + "".join(
        f"    {line}\n" for line in lines)


_env = {"_M64": _M64, "ROUND_CONSTANTS": ROUND_CONSTANTS}
exec(compile(_round_source(), "<keccak round>", "exec"), _env)
_round = _env["_round"]


def keccak_round(lanes, round_index):
    """One full round: iota(chi(pi(rho(theta(state)))), round_index)."""
    if not 0 <= round_index < ROUNDS:
        raise ValueError(f"round index must be 0..{ROUNDS - 1}, got {round_index}")
    return _round(lanes, round_index)


def keccak_f(lanes):
    """The Keccak-f[1600] permutation: ROUNDS (24) rounds."""
    for r in range(ROUNDS):
        lanes = _round(lanes, r)
    return lanes


@dataclass(frozen=True)
class SpongeParams:
    rate_bytes: int
    capacity_bytes: int
    digest_bytes: int

    def __post_init__(self):
        if self.rate_bytes + self.capacity_bytes != 200:
            raise ValueError("rate + capacity must equal 200 bytes")
        if self.capacity_bytes != 2 * self.digest_bytes:
            raise ValueError("capacity must be twice the digest length")
        if self.rate_bytes % 8:
            raise ValueError("rate must be a whole number of lanes")


VARIANTS = {
    "sha3-224": SpongeParams(144, 56, 28),
    "sha3-256": SpongeParams(136, 64, 32),
    "sha3-384": SpongeParams(104, 96, 48),
    "sha3-512": SpongeParams(72, 128, 64),
}


def pad_message(message, rate_bytes):
    """pad10*1 with the SHA-3 domain bits, byte-granular: first pad byte
    0x06, last pad byte ORed with 0x80 (a lone pad byte is 0x86)."""
    pad_len = rate_bytes - len(message) % rate_bytes
    pad = bytearray(pad_len)
    pad[0] = 0x06
    pad[-1] |= 0x80
    return bytes(message) + bytes(pad)


def sponge_params(variant):
    """The SpongeParams of a VARIANTS key; anything else is a ValueError."""
    if variant not in tuple(VARIANTS):
        raise ValueError(f"unknown variant {variant!r}")
    return VARIANTS[variant]


def sha3_digest(message, variant):
    """Hash message with one of the VARIANTS keys or a SpongeParams."""
    params = variant if isinstance(variant, SpongeParams) else sponge_params(variant)
    rate = params.rate_bytes
    padded = pad_message(message, rate)
    lanes = [0] * 25
    for off in range(0, len(padded), rate):
        for i in range(0, rate, 8):
            lanes[i // 8] ^= int.from_bytes(padded[off + i:off + i + 8], "little")
        lanes = keccak_f(lanes)
    return state_to_bytes(lanes)[:params.digest_bytes]

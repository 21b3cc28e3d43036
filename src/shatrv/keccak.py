"""Keccak-f[1600] permutation and the four fixed-output SHA-3 digests.

State convention used everywhere in this package: 25 lanes of 64 bits,
lane (x, y) stored at index 5*y + x. Byte serialization is little-endian
per lane, lane i occupying bytes 8*i .. 8*i+7.

theta, rho, pi, chi and iota are the readable reference. keccak_round and
keccak_f run _round, one straight-line round with the five steps written
out, which the tests check against their composition.
"""

from dataclasses import dataclass

__all__ = [
    "ROUND_CONSTANTS", "RHO_OFFSETS", "SpongeParams", "VARIANTS",
    "state_from_bytes", "state_to_bytes",
    "theta", "rho", "pi", "chi", "iota",
    "keccak_round", "keccak_f", "pad_message", "sha3_digest",
]

_M64 = (1 << 64) - 1


def _rotl(v, n):
    return ((v << n) & _M64) | (v >> (64 - n)) if n else v


def _round_constants(count=24):
    """Derive the iota constants from the degree-8 LFSR x^8+x^6+x^5+x^4+1.

    Bit (2^j - 1) of constant ir is LFSR output bit j + 7*ir.
    """
    out = []
    lfsr = 1
    for _ in range(count):
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
_PI_SOURCE = tuple(((x + 3 * y) % 5) + 5 * x for y in range(5) for x in range(5))


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
    return [lanes[s] for s in _PI_SOURCE]


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


def _round(lanes, round_index):
    """theta..iota written out over 25 locals a0..a24: theta XORs d[x] into
    each lane of column x; b[d] = rotl(a[s], RHO_OFFSETS[s]) with
    s = _PI_SOURCE[d] is rho and pi; the returned list is chi and iota.
    ~b & c is exact because c is never negative."""
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14,
     a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
    c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
    c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
    c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
    c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
    d0 = c4 ^ ((c1 << 1) & _M64 | c1 >> 63)
    d1 = c0 ^ ((c2 << 1) & _M64 | c2 >> 63)
    d2 = c1 ^ ((c3 << 1) & _M64 | c3 >> 63)
    d3 = c2 ^ ((c4 << 1) & _M64 | c4 >> 63)
    d4 = c3 ^ ((c0 << 1) & _M64 | c0 >> 63)
    a0, a5, a10, a15, a20 = a0 ^ d0, a5 ^ d0, a10 ^ d0, a15 ^ d0, a20 ^ d0
    a1, a6, a11, a16, a21 = a1 ^ d1, a6 ^ d1, a11 ^ d1, a16 ^ d1, a21 ^ d1
    a2, a7, a12, a17, a22 = a2 ^ d2, a7 ^ d2, a12 ^ d2, a17 ^ d2, a22 ^ d2
    a3, a8, a13, a18, a23 = a3 ^ d3, a8 ^ d3, a13 ^ d3, a18 ^ d3, a23 ^ d3
    a4, a9, a14, a19, a24 = a4 ^ d4, a9 ^ d4, a14 ^ d4, a19 ^ d4, a24 ^ d4
    b0 = a0
    b1 = (a6 << 44) & _M64 | a6 >> 20
    b2 = (a12 << 43) & _M64 | a12 >> 21
    b3 = (a18 << 21) & _M64 | a18 >> 43
    b4 = (a24 << 14) & _M64 | a24 >> 50
    b5 = (a3 << 28) & _M64 | a3 >> 36
    b6 = (a9 << 20) & _M64 | a9 >> 44
    b7 = (a10 << 3) & _M64 | a10 >> 61
    b8 = (a16 << 45) & _M64 | a16 >> 19
    b9 = (a22 << 61) & _M64 | a22 >> 3
    b10 = (a1 << 1) & _M64 | a1 >> 63
    b11 = (a7 << 6) & _M64 | a7 >> 58
    b12 = (a13 << 25) & _M64 | a13 >> 39
    b13 = (a19 << 8) & _M64 | a19 >> 56
    b14 = (a20 << 18) & _M64 | a20 >> 46
    b15 = (a4 << 27) & _M64 | a4 >> 37
    b16 = (a5 << 36) & _M64 | a5 >> 28
    b17 = (a11 << 10) & _M64 | a11 >> 54
    b18 = (a17 << 15) & _M64 | a17 >> 49
    b19 = (a23 << 56) & _M64 | a23 >> 8
    b20 = (a2 << 62) & _M64 | a2 >> 2
    b21 = (a8 << 55) & _M64 | a8 >> 9
    b22 = (a14 << 39) & _M64 | a14 >> 25
    b23 = (a15 << 41) & _M64 | a15 >> 23
    b24 = (a21 << 2) & _M64 | a21 >> 62
    return [
        b0 ^ (~b1 & b2) ^ ROUND_CONSTANTS[round_index],
        b1 ^ (~b2 & b3), b2 ^ (~b3 & b4), b3 ^ (~b4 & b0), b4 ^ (~b0 & b1),
        b5 ^ (~b6 & b7), b6 ^ (~b7 & b8), b7 ^ (~b8 & b9),
        b8 ^ (~b9 & b5), b9 ^ (~b5 & b6),
        b10 ^ (~b11 & b12), b11 ^ (~b12 & b13), b12 ^ (~b13 & b14),
        b13 ^ (~b14 & b10), b14 ^ (~b10 & b11),
        b15 ^ (~b16 & b17), b16 ^ (~b17 & b18), b17 ^ (~b18 & b19),
        b18 ^ (~b19 & b15), b19 ^ (~b15 & b16),
        b20 ^ (~b21 & b22), b21 ^ (~b22 & b23), b22 ^ (~b23 & b24),
        b23 ^ (~b24 & b20), b24 ^ (~b20 & b21),
    ]


def keccak_round(lanes, round_index):
    """One full round: iota(chi(pi(rho(theta(state)))), round_index)."""
    if not 0 <= round_index < 24:
        raise ValueError(f"round index must be 0..23, got {round_index}")
    return _round(lanes, round_index)


def keccak_f(lanes):
    """The 24-round Keccak-f[1600] permutation."""
    for r in range(24):
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


def sha3_digest(message, variant):
    """Hash message with one of the VARIANTS keys or a SpongeParams."""
    if not isinstance(variant, SpongeParams) and variant not in tuple(VARIANTS):
        raise ValueError(f"unknown variant {variant!r}")
    params = variant if isinstance(variant, SpongeParams) else VARIANTS[variant]
    rate = params.rate_bytes
    padded = pad_message(message, rate)
    lanes = [0] * 25
    for off in range(0, len(padded), rate):
        for i in range(0, rate, 8):
            lanes[i // 8] ^= int.from_bytes(padded[off + i:off + i + 8], "little")
        lanes = keccak_f(lanes)
    return state_to_bytes(lanes)[:params.digest_bytes]

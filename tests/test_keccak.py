"""Keccak-f[1600] core: step maps against bit-level oracles, constants
against frozen tables, digests against hashlib."""

import hashlib
import math
import random

import pytest

from shatrv import keccak

M64 = (1 << 64) - 1

# Round constants as published for Keccak-f[1600]; the module must
# reproduce these from its LFSR, it may not just quote them.
EXPECTED_RC = [
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
]

# Rotation offsets in lane order (index 5*y + x).
EXPECTED_RHO = [
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
]

EMPTY_DIGESTS = {
    "sha3-224": "6b4e03423667dbb73b6e15454f0eb1abd4597f9a1b078e3f5b5a6bc7",
    "sha3-256": "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a",
    "sha3-384": "0c63a75b845e4f7d01107d852e4c2485c51a50aaaa94fc61995e71bbee983a2a"
                "c3713831264adb47fb6bd1e058d5f004",
    "sha3-512": "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a6"
                "15b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26",
}

HASHLIB = {
    "sha3-224": hashlib.sha3_224,
    "sha3-256": hashlib.sha3_256,
    "sha3-384": hashlib.sha3_384,
    "sha3-512": hashlib.sha3_512,
}


def random_state(rng):
    return [rng.getrandbits(64) for _ in range(25)]


def bit(lanes, x, y, z):
    return (lanes[5 * y + x] >> z) & 1


def theta_oracle(lanes):
    """Column-parity definition evaluated one bit at a time."""
    out = []
    for y in range(5):
        for x in range(5):
            lane = 0
            for z in range(64):
                b = bit(lanes, x, y, z)
                for yy in range(5):
                    b ^= bit(lanes, (x - 1) % 5, yy, z)
                    b ^= bit(lanes, (x + 1) % 5, yy, (z - 1) % 64)
                lane |= b << z
            out.append(lane)
    return out


def chi_oracle(lanes):
    out = []
    for y in range(5):
        for x in range(5):
            lane = 0
            for z in range(64):
                b = bit(lanes, x, y, z)
                b ^= (1 ^ bit(lanes, (x + 1) % 5, y, z)) & bit(lanes, (x + 2) % 5, y, z)
                lane |= b << z
            out.append(lane)
    return out


def pi_index_map():
    """Destination index -> source index for one pi application."""
    src = {}
    for y in range(5):
        for x in range(5):
            src[5 * y + x] = ((x + 3 * y) % 5) + 5 * x
    return src


def pi_order():
    """Order of pi as a permutation, by cycle decomposition."""
    src = pi_index_map()
    order = 1
    seen = set()
    for start in range(25):
        if start in seen:
            continue
        length = 0
        i = start
        while True:
            seen.add(i)
            i = src[i]
            length += 1
            if i == start:
                break
        order = math.lcm(order, length)
    return order


class TestConstants:
    def test_round_constants_match_published_table(self):
        assert list(keccak.ROUND_CONSTANTS) == EXPECTED_RC

    def test_round_constant_bits_confined_to_lfsr_positions(self):
        # Nonzero bits may only sit at positions 2^j - 1, j = 0..6.
        mask = 0
        for j in range(7):
            mask |= 1 << ((1 << j) - 1)
        for rc in keccak.ROUND_CONSTANTS:
            assert rc & ~mask == 0

    def test_first_round_constant_is_one(self):
        assert keccak.ROUND_CONSTANTS[0] == 1

    def test_rho_offsets_match_published_table(self):
        assert list(keccak.RHO_OFFSETS) == EXPECTED_RHO

    def test_rho_offsets_in_range(self):
        assert all(0 <= n < 64 for n in keccak.RHO_OFFSETS)


class TestStepMaps:
    def test_theta_matches_bit_oracle(self):
        rng = random.Random(0x7E7A)
        for _ in range(8):
            lanes = random_state(rng)
            assert keccak.theta(lanes) == theta_oracle(lanes)

    def test_chi_matches_bit_oracle(self):
        rng = random.Random(0xC41)
        for _ in range(8):
            lanes = random_state(rng)
            assert keccak.chi(lanes) == chi_oracle(lanes)

    def test_pi_is_pure_lane_relabeling(self):
        rng = random.Random(0x91)
        src = pi_index_map()
        lanes = random_state(rng)
        out = keccak.pi(lanes)
        assert all(out[i] == lanes[src[i]] for i in range(25))

    def test_pi_returns_to_identity_at_cycle_order(self):
        rng = random.Random(0x92)
        order = pi_order()
        lanes = random_state(rng)
        cur = lanes
        for step in range(1, order + 1):
            cur = keccak.pi(cur)
            if step < order:
                assert cur != lanes
        assert cur == lanes

    def test_rho_preserves_bit_count(self):
        rng = random.Random(0x93)
        lanes = random_state(rng)
        out = keccak.rho(lanes)
        for a, b in zip(lanes, out):
            assert bin(a).count("1") == bin(b).count("1")

    def test_rho_leaves_origin_lane_alone(self):
        rng = random.Random(0x94)
        lanes = random_state(rng)
        assert keccak.rho(lanes)[0] == lanes[0]

    def test_linear_maps_respect_xor(self):
        # theta, rho, pi are GF(2)-linear; chi is not.
        rng = random.Random(0x95)
        for fn in (keccak.theta, keccak.rho, keccak.pi):
            for _ in range(50):
                a = random_state(rng)
                b = random_state(rng)
                ab = [x ^ y for x, y in zip(a, b)]
                want = [x ^ y for x, y in zip(fn(a), fn(b))]
                assert fn(ab) == want

    def test_iota_is_an_involution_per_round(self):
        rng = random.Random(0x96)
        lanes = random_state(rng)
        for r in range(24):
            assert keccak.iota(keccak.iota(lanes, r), r) == lanes

    def test_iota_touches_only_origin_lane(self):
        rng = random.Random(0x97)
        lanes = random_state(rng)
        out = keccak.iota(lanes, 3)
        assert out[1:] == lanes[1:]
        assert out[0] == lanes[0] ^ keccak.ROUND_CONSTANTS[3]

    def test_chi_fixes_all_zero_and_all_one_states(self):
        zeros = [0] * 25
        ones = [M64] * 25
        assert keccak.chi(zeros) == zeros
        assert keccak.chi(ones) == ones

    def test_round_is_the_documented_composition(self):
        rng = random.Random(0x98)
        lanes = random_state(rng)
        for r in (0, 11, 23):
            want = keccak.iota(keccak.chi(keccak.pi(keccak.rho(keccak.theta(lanes)))), r)
            assert keccak.keccak_round(lanes, r) == want

    def test_round_rejects_out_of_range_index(self):
        lanes = [0] * 25
        for r in (-1, 24, 100):
            with pytest.raises(ValueError):
                keccak.keccak_round(lanes, r)

    def test_permutation_is_24_chained_rounds(self):
        rng = random.Random(0x99)
        lanes = random_state(rng)
        cur = lanes
        for r in range(24):
            cur = keccak.keccak_round(cur, r)
        assert keccak.keccak_f(lanes) == cur

    def test_step_maps_preserve_lane_count_and_width(self):
        rng = random.Random(0x9A)
        lanes = random_state(rng)
        for out in (keccak.theta(lanes), keccak.rho(lanes), keccak.pi(lanes),
                    keccak.chi(lanes), keccak.iota(lanes, 0), keccak.keccak_f(lanes)):
            assert len(out) == 25
            assert all(0 <= v <= M64 for v in out)


class TestSerialization:
    def test_round_trip_bytes(self):
        rng = random.Random(0xA0)
        raw = bytes(rng.getrandbits(8) for _ in range(200))
        assert keccak.state_to_bytes(keccak.state_from_bytes(raw)) == raw

    def test_lane_zero_is_first_eight_bytes_little_endian(self):
        raw = bytes(range(200))
        lanes = keccak.state_from_bytes(raw)
        assert lanes[0] == int.from_bytes(raw[:8], "little")
        assert lanes[24] == int.from_bytes(raw[192:200], "little")

    def test_from_bytes_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            keccak.state_from_bytes(b"\x00" * 199)


class TestPadding:
    def test_padded_length_is_positive_multiple_of_rate(self):
        for rate in (144, 136, 104, 72):
            for n in (0, 1, rate - 2, rate - 1, rate, rate + 1, 3 * rate):
                padded = keccak.pad_message(b"\xAA" * n, rate)
                assert len(padded) % rate == 0
                assert len(padded) > n

    def test_pad_markers(self):
        padded = keccak.pad_message(b"", 136)
        assert len(padded) == 136
        assert padded[0] == 0x06
        assert padded[-1] == 0x80
        assert set(padded[1:-1]) == {0}

    def test_single_byte_pad_merges_markers(self):
        padded = keccak.pad_message(b"\x11" * 135, 136)
        assert len(padded) == 136
        assert padded[-1] == 0x86

    def test_full_block_message_gains_whole_pad_block(self):
        padded = keccak.pad_message(b"\x22" * 136, 136)
        assert len(padded) == 272

    def test_unpad_recovers_message(self):
        rng = random.Random(0xA1)
        for _ in range(40):
            rate = rng.choice((144, 136, 104, 72))
            msg = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 3 * rate)))
            padded = keccak.pad_message(msg, rate)
            # Strip: drop trailing zeros after clearing the 0x80 marker,
            # then the 0x06 marker itself.
            body = bytearray(padded)
            assert body[-1] & 0x80
            body[-1] ^= 0x80
            while body and body[-1] == 0:
                body.pop()
            assert body and body[-1] == 0x06
            assert bytes(body[:-1]) == msg


class TestDigests:
    def test_variant_table(self):
        want = {
            "sha3-224": (144, 56, 28),
            "sha3-256": (136, 64, 32),
            "sha3-384": (104, 96, 48),
            "sha3-512": (72, 128, 64),
        }
        assert set(keccak.VARIANTS) == set(want)
        for name, (rate, cap, digest) in want.items():
            p = keccak.VARIANTS[name]
            assert (p.rate_bytes, p.capacity_bytes, p.digest_bytes) == (rate, cap, digest)
            assert p.rate_bytes + p.capacity_bytes == 200
            assert p.capacity_bytes == 2 * p.digest_bytes

    def test_sponge_params_validated(self):
        with pytest.raises(ValueError):
            keccak.SpongeParams(rate_bytes=136, capacity_bytes=63, digest_bytes=32)

    def test_empty_message_digests_frozen(self):
        for variant, hexdigest in EMPTY_DIGESTS.items():
            assert keccak.sha3_digest(b"", variant).hex() == hexdigest

    def test_abc_digest_frozen(self):
        assert keccak.sha3_digest(b"abc", "sha3-256").hex() == (
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532")

    def test_matches_hashlib_across_variants_and_lengths(self):
        rng = random.Random(0xA2)
        lengths = [0, 1, 7, 8, 71, 72, 103, 104, 135, 136, 143, 144, 145,
                   200, 271, 272, 273, 1000]
        lengths += [rng.randrange(0, 2048) for _ in range(30)]
        for n in lengths:
            msg = bytes(rng.getrandbits(8) for _ in range(n))
            for variant, ctor in HASHLIB.items():
                assert keccak.sha3_digest(msg, variant) == ctor(msg).digest(), (
                    f"variant={variant} len={n}")

    def test_digest_length_per_variant(self):
        for variant, params in keccak.VARIANTS.items():
            assert len(keccak.sha3_digest(b"xyz", variant)) == params.digest_bytes

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant 'sha3-333'"):
            keccak.sha3_digest(b"", "sha3-333")

"""Whole software kernels against the reference interpreter. Every
variant of sw-mem and sw-regopt hashes seeded messages of length 0, r-1,
r and 3r-1 (r the rate in bytes) on the reference in reference.py, whose
digests are checked against hashlib, and on Machine.run, at the shipped
threshold and with every loop and every run that rolls compiled on its
first call. The
two must agree on the emitted bytes, per-category and region counts,
registers, pc and memory. Each threshold setting shares one Translations
over the four messages, so sw-mem's round loop compiles at the shipped
threshold too (on its 80th trip, in the fourth of the seven
permutations), and so does sw-regopt's permutation, rolled up as 24
periods of 231 (on its fourth call). Every run on either side stops at a
budget from the count law, so a compiled tier that loops fails the test
instead of hanging it."""

import hashlib
import random
from unittest import mock

import pytest

from reference import Reference
from shatrv import emulator
from shatrv.emulator import Machine, Translations
from shatrv.keccak import VARIANTS
from shatrv.kernels import MESSAGE_ADDR, generate_kernel
from test_loops import SHIPPED, _threshold

MEMORY_SIZE = 1 << 21


def _nonzero(counts):
    # the machine also counts categories the reference does not model
    return {c: n for c, n in counts.items() if n}


def _observed(m):
    return (m.emitted, _nonzero(m.stats.counts),
            {rid: _nonzero(c) for rid, c in m.stats.regions.items()}, m.regs, m.pc,
            hashlib.sha256(m.memory).hexdigest())


def _budget(message, rate):
    # a kernel retires A + B*(n // r) + 7*(n % r) for an n-byte message at
    # rate r (ROADMAP), and A, B and 7r are each below 12,000
    return 12_000 * (len(message) // rate + 2)


def _reference(image, message, rate):
    ref = Reference(image.code, MEMORY_SIZE)
    for addr, blob in image.data_segments:
        ref.mem[addr:addr + len(blob)] = blob
    ref.mem[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
    ref.x[10] = len(message)
    ref.run(_budget(message, rate))
    assert ref.exit_status == 0
    return (ref.emitted, _nonzero(ref.counts),
            {rid: _nonzero(c) for rid, c in ref.regions.items()}, ref.x, ref.pc,
            hashlib.sha256(ref.mem).hexdigest())


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("strategy", ["sw-mem", "sw-regopt"])
def test_a_kernel_runs_like_the_reference(strategy, variant):
    image = generate_kernel(strategy, variant)
    rate = VARIANTS[variant].rate_bytes
    rng = random.Random(f"{strategy} {variant}")
    messages = [rng.randbytes(n) for n in (0, rate - 1, rate, 3 * rate - 1)]
    expected = [_reference(image, message, rate) for message in messages]
    for message, (emitted, *_) in zip(messages, expected):
        assert emitted == [hashlib.new(variant.replace("-", "_"), message).digest()]
    for hot in (SHIPPED, 1):
        shared = Translations()
        with _threshold(hot), \
                mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
            for message, want in zip(messages, expected):
                m = Machine(memory_size=MEMORY_SIZE, translations=shared)
                m.load_program(image)
                m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
                m.regs[10] = len(message)
                assert m.run(_budget(message, rate)) == 0
                assert _observed(m) == want, (hot, len(message))
        loops = [len(c.args[0]) for c in compile_.call_args_list if c.args[1]]
        rolled = [c.args[3][:3] for c in compile_.call_args_list if c.args[3]]
        assert (461 in loops) == (strategy == "sw-mem"), hot
        assert ((27, 231, 24) in rolled) == (strategy == "sw-regopt"), hot

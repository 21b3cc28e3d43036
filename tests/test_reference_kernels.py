"""Whole software kernels against the reference interpreter. Every
variant of sw-mem and sw-regopt hashes seeded messages of length 0, r-1,
r and 3r-1 (r the rate in bytes) on the reference in reference.py, whose
digests are checked against hashlib, and on Machine.run, at the shipped
thresholds and with every run and loop compiled on its first call. The
two must agree on the emitted bytes, per-category and region counts,
registers, pc and memory. Each threshold setting shares one Translations
over the four messages, so sw-mem's round loop compiles at the shipped
threshold too (on its 80th trip, in the fourth of the seven
permutations)."""

import hashlib
import random
from unittest import mock

import pytest

from reference import Reference
from shatrv import emulator
from shatrv.emulator import Machine, Translations
from shatrv.keccak import VARIANTS
from shatrv.kernels import MESSAGE_ADDR, generate_kernel
from test_loops import SHIPPED, _thresholds

MEMORY_SIZE = 1 << 21


def _nonzero(counts):
    # the machine also counts categories the reference does not model
    return {c: n for c, n in counts.items() if n}


def _observed(m):
    return (m.emitted, _nonzero(m.stats.counts),
            {rid: _nonzero(c) for rid, c in m.stats.regions.items()}, m.regs, m.pc,
            hashlib.sha256(m.memory).hexdigest())


def _reference(image, message):
    ref = Reference(image.code, MEMORY_SIZE)
    for addr, blob in image.data_segments:
        ref.mem[addr:addr + len(blob)] = blob
    ref.mem[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
    ref.x[10] = len(message)
    ref.run()
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
    expected = [_reference(image, message) for message in messages]
    for message, (emitted, *_) in zip(messages, expected):
        assert emitted == [hashlib.new(variant.replace("-", "_"), message).digest()]
    for hot in (SHIPPED, (1, 1)):
        shared = Translations()
        with _thresholds(hot), \
                mock.patch.object(emulator, "_compile", wraps=emulator._compile) as compile_:
            for message, want in zip(messages, expected):
                m = Machine(memory_size=MEMORY_SIZE, translations=shared)
                m.load_program(image)
                m.memory[MESSAGE_ADDR:MESSAGE_ADDR + len(message)] = message
                m.regs[10] = len(message)
                assert m.run() == 0
                assert _observed(m) == want, (hot, len(message))
        loops = [len(c.args[0]) for c in compile_.call_args_list if c.args[1]]
        assert (461 in loops) == (strategy == "sw-mem"), hot

"""Collective.random_bits is the stream of one getrandbits(1) per symbol.

The source draws its bits in blocks of _BIT_BLOCK. This pins the block
stream to single draws across block edges. It needs no pytest, so any
interpreter can run it from the repository root:

    PYTHONPATH=src python tests/test_random_stream.py
"""

import random

from padicprob.frequency import _BIT_BLOCK, Collective

SEEDS = (0, 1, 42, 2**31 - 1, 10**12)


def _single_draws(seed, n):
    r = random.Random(seed)
    return "".join("01"[r.getrandbits(1)] for _ in range(n))


def test_random_bits_match_single_draws():
    b = _BIT_BLOCK
    for seed in SEEDS:
        ref = _single_draws(seed, 3 * b + 5)
        for n in (1, b - 1, b, b + 1, 3 * b + 5):
            assert Collective.random_bits(seed).prefix(n) == ref[:n], (seed, n)
        # successive requests on one source, by prefix and by count
        c = Collective.random_bits(seed)
        for n in (b - 1, 2, b + 1, b + 1, 2 * b, 2 * b + 3, 7, 3 * b + 5):
            assert c.count("1", n) == ref.count("1", 0, n), (seed, n)
            assert c.prefix(n) == ref[:n], (seed, n)


if __name__ == "__main__":
    test_random_bits_match_single_draws()
    print("random_bits stream: ok")

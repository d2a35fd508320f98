"""Small portable pseudorandom generator for seeded, reproducible output.

Everything seeded in this package (random graph generation, sampled
verification) must produce identical results on every platform and Python
version, so we use a fixed xorshift64* generator instead of the stdlib
random module.

Constants:
    shift triple 12 / 25 / 27 and output multiplier 0x2545F4914F6CDD1D
    (Vigna's xorshift64* parameters); zero seeds are replaced by the
    splitmix64 increment 0x9E3779B97F4A7C15 so the state never sticks at 0.
"""

from __future__ import annotations

from .errors import InputError, _require_int

_MASK64 = (1 << 64) - 1
_MULTIPLIER = 0x2545F4914F6CDD1D
_ZERO_SEED_ESCAPE = 0x9E3779B97F4A7C15


class XorShift64Star:
    """Deterministic 64-bit generator; the full sequence is a function of the seed."""

    def __init__(self, seed: int):
        _require_int(seed, name="seed")
        self._state = seed & _MASK64
        if self._state == 0:
            self._state = _ZERO_SEED_ESCAPE

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * _MULTIPLIER) & _MASK64

    def randrange(self, n: int) -> int:
        """Uniform-enough integer in [0, n). Uses the multiply-shift reduction,
        which is deterministic and avoids modulo bias for small n."""
        if n <= 0:
            raise InputError("randrange needs a positive bound")
        return (self.next_u64() * n) >> 64

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

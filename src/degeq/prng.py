"""Self-contained deterministic PRNG so corpora reproduce everywhere.

The generator is SplitMix64: state advances by the 64-bit golden-gamma
constant 0x9E3779B97F4A7C15 and each output is the standard two-round
xor-shift-multiply finalizer (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  Bounded draws use rejection sampling, so sequences do
not depend on platform integer width or library versions.

The t-th draw after state s is ``mix64(s + t * gamma)`` and needs no earlier
output, so ``shuffle`` mixes up to ``_BLOCK`` (4,096) draws at once: the
states sit on 128-bit lanes of one int, lane j (bits 128j up) holding draw
j + 1.  A lane value stays below 2**64, so a multiply by a 64-bit constant
never carries into the next lane, and the bits a right shift brings down
from the next lane land in the high half, which a mask clears.  The lanes
are read back little-endian with ``struct``, every other 64-bit word.  A
block whose largest draw could be a rejection is not used; the shuffle
finishes from that block's first position with one ``randrange`` per
position, so the output equals one ``randrange`` call per position.
"""

from __future__ import annotations

import struct
from functools import cache
from operator import mod

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_BLOCK = 4096  # draws mixed at once by ``shuffle``


def mix64(value: int) -> int:
    """SplitMix64 finalizer; also used to derive per-instance seeds."""
    z = value & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


@cache
def _full_lanes() -> tuple[int, int, int]:
    """A full block's lane constants: 1 in every lane, (j + 1) * gamma in
    lane j, and the low 64 bits of every lane set."""
    ones = int.from_bytes((b"\1" + bytes(15)) * _BLOCK, "little")
    words = [0] * (2 * _BLOCK)
    words[::2] = range(1, _BLOCK + 1)
    steps = int.from_bytes(struct.pack(f"<{2 * _BLOCK}Q", *words), "little")
    return ones, steps * _GAMMA, ones * _MASK


def _mix_block(state: int, count: int) -> tuple[int, ...]:
    """The next ``count`` (at most ``_BLOCK``) outputs after ``state``."""
    ones, steps, low = _full_lanes()
    if count < _BLOCK:
        keep = (1 << (128 * count)) - 1
        ones, steps, low = ones & keep, steps & keep, low & keep
    z = (state * ones + steps) & low
    z = ((z ^ z >> 30) & low) * _MIX1 & low
    z = ((z ^ z >> 27) & low) * _MIX2 & low
    z = (z ^ z >> 31) & low  # a cleared high word reads back as the cached int 0
    return struct.unpack(f"<{2 * count}Q", z.to_bytes(16 * count, "little"))[::2]


class SplitMix64:
    """Splittable 64-bit generator with reproducible bounded draws."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def split(self) -> "SplitMix64":
        return SplitMix64(self.next_u64())

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection of the top 2**64 % bound draws."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        while True:
            draw = self.next_u64()
            if draw <= _MASK - (bound - 1) or draw < (1 << 64) - (1 << 64) % bound:
                return draw % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates from the top, position i taking
        ``randrange(i + 1)``; draws are mixed a block at a time.  A draw at
        position i of at most _MASK - i is never rejected, so a block whose
        largest draw passes that test at its top position is used as is."""
        top = len(items) - 1
        while top > 0:
            count = min(top, _BLOCK)
            draws = _mix_block(self.state, count)
            if max(draws) > _MASK - top:  # maybe a rejection: one draw at a time
                for i in range(top, 0, -1):
                    j = self.randrange(i + 1)
                    items[i], items[j] = items[j], items[i]
                return
            self.state = (self.state + count * _GAMMA) & _MASK
            bounds = range(top + 1, top + 1 - count, -1)
            for i, j in zip(range(top, top - count, -1), map(mod, draws, bounds)):
                items[i], items[j] = items[j], items[i]
            top -= count

    def sample(self, population: int, count: int) -> list[int]:
        """Distinct draws from range(population) via partial Fisher-Yates."""
        if not 0 <= count <= population:
            raise ValueError("sample size out of range")
        items = list(range(population))
        for i in range(count):
            j = i + self.randrange(population - i)
            items[i], items[j] = items[j], items[i]
        return items[:count]


def instance_seed(base_seed: int, index: int) -> int:
    """Seed of the index-th instance drawn from a base corpus seed."""
    return mix64((base_seed + index) & _MASK)

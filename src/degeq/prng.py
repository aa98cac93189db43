"""Self-contained deterministic PRNG so corpora reproduce everywhere.

The generator is SplitMix64: state advances by the 64-bit golden-gamma
constant 0x9E3779B97F4A7C15 and each output is the standard two-round
xor-shift-multiply finalizer (constants 0xBF58476D1CE4E5B9 and
0x94D049BB133111EB).  Bounded draws use rejection sampling, so sequences do
not depend on platform integer width or library versions.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """SplitMix64 finalizer; also used to derive per-instance seeds."""
    z = value & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


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
        """In-place Fisher-Yates; each draw is ``randrange(i + 1)``, inlined."""
        state = self.state
        for i in range(len(items) - 1, 0, -1):
            while True:  # the rejection loop of randrange
                state = (state + _GAMMA) & _MASK
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK
                z ^= z >> 31
                if z <= _MASK - i or z < (1 << 64) - (1 << 64) % (i + 1):
                    break
            j = z % (i + 1)
            items[i], items[j] = items[j], items[i]
        self.state = state

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

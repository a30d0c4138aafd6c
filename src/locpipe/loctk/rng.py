"""Deterministic PRNG for the builtin stages.

A 64-bit seed is expanded by SplitMix64 into the 256-bit state of a
xoshiro256++ generator (Blackman & Vigna). Uniform doubles come from the
high 53 bits of each output word; Gaussian deviates come from Box-Muller
with the pair consumed in order. No global state anywhere: every stage
builds its own generator from a seed that is an ordinary, versioned
parameter.

Each step is one call with no helper below it: `Rng.next_u64` reads the
four state words into locals, spells out both rotations and stores the
state back once. `Rng.shuffle` (Fisher-Yates) draws ``next_u64() % (i +
1)`` straight for each position.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1


def splitmix64_next(state: int) -> tuple[int, int]:
    """One SplitMix64 step: returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class Rng:
    """xoshiro256++ seeded via SplitMix64."""

    def __init__(self, seed: int):
        state = seed & MASK64
        words = []
        for _ in range(4):
            state, word = splitmix64_next(state)
            words.append(word)
        self._s = tuple(words)
        self._gauss_spare: float | None = None

    def next_u64(self) -> int:
        """One xoshiro256++ step: the state is read into locals and written
        back once, and each rotation is spelled out in place."""
        s0, s1, s2, s3 = self._s
        word = (s0 + s3) & MASK64
        result = (((word << 23) | (word >> 41)) + s0) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = (s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & MASK64)
        return result

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the high 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_gauss(self) -> float:
        """Standard normal deviate; Box-Muller pairs are consumed in order."""
        if self._gauss_spare is not None:
            z = self._gauss_spare
            self._gauss_spare = None
            return z
        u1 = self.next_float()
        u2 = self.next_float()
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1-u1 in (0,1] keeps log finite
        theta = 2.0 * math.pi * u2
        self._gauss_spare = radius * math.sin(theta)
        return radius * math.cos(theta)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        next_u64 = self.next_u64
        for i in range(len(items) - 1, 0, -1):
            j = next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]

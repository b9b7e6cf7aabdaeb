"""Deterministic counter-based random number generation.

Every random draw in this package flows through :class:`RngStream` so that
training runs, sampling runs and synthetic datasets are exactly reproducible
from their seeds, independent of platform and of how draws are batched.
"""
from __future__ import annotations

import numpy as np

from .validation import SEED_END, is_integer

# SplitMix64 constants (Steele, Lea & Flood).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)

ALGORITHM = "splitmix64/box-muller-cos"

_INV_2POW53 = float(2.0**-53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    x = (x ^ (x >> np.uint64(30))) * _MIX_A
    x = (x ^ (x >> np.uint64(27))) * _MIX_B
    return x ^ (x >> np.uint64(31))


def _words_at(seed: int, positions) -> np.ndarray:
    """The raw words at 1-based ``positions`` (uint64) of the stream seeded with ``seed``."""
    return _mix64(np.uint64(seed) + positions * _GOLDEN)


def to_uniforms(words) -> np.ndarray:
    """Raw words as uniforms on [0, 1) with 53-bit resolution, one word each."""
    return (words >> np.uint64(11)).astype(np.float64) * _INV_2POW53


def to_integers(words, low: int, high: int) -> np.ndarray:
    """Raw words as integers in [low, high) via modular reduction, one word each."""
    return (words % np.uint64(high - low)).astype(np.int64) + low


class RngStream:
    """Counter-based PRNG: word ``k`` is a pure function of ``(seed, k)``.

    The raw 64-bit word at counter ``c`` is
    ``splitmix64_finalizer(seed + (c + 1) * GOLDEN)``, i.e. the SplitMix64
    sequence seeded with ``seed`` and jumped to position ``c``.  Gaussian
    values use the Box-Muller cosine branch and consume exactly two words
    each, so the value of any draw depends only on the counter where it
    starts, never on how surrounding draws were shaped or batched.
    """

    algorithm = ALGORITHM

    def __init__(self, seed: int, counter: int = 0):
        for key, value, end in (("seed", seed, SEED_END), ("counter", counter, 2**63)):
            if not is_integer(value):
                raise ValueError(f"rng {key} {value!r} is not an integer")
            if not is_integer(value, 0, end):
                raise ValueError(f"rng {key} {int(value)!r} is not in [0, {end})")
        self.seed, self.counter = int(seed), int(counter)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, counter={self.counter})"

    def state(self) -> dict:
        return {"algorithm": self.algorithm, "seed": self.seed, "counter": self.counter}

    @classmethod
    def from_state(cls, state: dict) -> "RngStream":
        if state.get("algorithm", ALGORITHM) != ALGORITHM:
            raise ValueError(f"unknown rng algorithm: {state.get('algorithm')!r}")
        return cls(state["seed"], state["counter"])

    def words(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words; advances the counter by ``n``."""
        counters = np.arange(self.counter + 1, self.counter + n + 1, dtype=np.uint64)
        self.counter += int(n)
        return _words_at(self.seed, counters)

    def word_at(self, counter: int) -> np.uint64:
        """The raw word at ``counter``, the one that :meth:`words` draws there; the
        stream's own counter does not move."""
        with np.errstate(over="ignore"):  # uint64 scalar arithmetic wraps, as arrays do
            return _words_at(self.seed, np.uint64(counter + 1))

    def uniform(self, shape=()) -> np.ndarray:
        """I.i.d. uniforms on [0, 1) with 53-bit resolution."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return to_uniforms(self.words(n)).reshape(shape)

    def gaussian(self, shape=()) -> np.ndarray:
        """I.i.d. standard normals; two words per value (cosine branch)."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        w = self.words(2 * n)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((w[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2POW53
        u2 = to_uniforms(w[1::2])
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        return z.reshape(shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """I.i.d. integers in [low, high) via modular reduction.

        The modulo bias is at most (high-low)/2**64, negligible for the
        ranges used here (timesteps, dataset indices).
        """
        if high <= low:
            raise ValueError(f"empty integer range [{low}, {high})")
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return to_integers(self.words(n), low, high).reshape(shape)

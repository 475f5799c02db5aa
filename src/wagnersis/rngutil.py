"""Deterministic random-stream derivation.

A single 64-bit master seed expands into independent child streams via a
counter-style hash derivation: the child seed for path ``(a, b, ...)`` is the
first 16 bytes of ``blake2b("wagnersis|<seed>|a|b|...")``.  The initial list
and every stage sampler get their own path, so runs are reproducible for a
fixed seed.  The samplers' bulk draws run on SFC64 (``derive_np_rng``), and
their exact fallbacks on ``random.Random`` (``derive_rng``, seeded on first
use through ``LazyRandom``); instances are drawn on Philox
(``derive_instance_rng``), a stream that stays fixed when the samplers'
generator changes.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def child_seed(seed: int, *path) -> int:
    """128-bit child seed for the given derivation path."""
    tag = "wagnersis|" + "|".join(str(p) for p in (seed,) + tuple(path))
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, *path) -> random.Random:
    """Python RNG stream for the given path."""
    return random.Random(child_seed(seed, *path))


class LazyRandom:
    """``derive_rng(seed, *path)``, built at its first ``getrandbits`` call:
    the same stream, at no cost to a caller that never reads it (heuristic
    draws almost never fall back to exact arithmetic)."""

    __slots__ = ("_path", "_rng")

    def __init__(self, seed: int, *path):
        self._path, self._rng = (seed,) + path, None

    def getrandbits(self, k: int) -> int:
        if self._rng is None:
            self._rng = derive_rng(*self._path)
        return self._rng.getrandbits(k)


def derive_np_rng(seed: int, *path) -> np.random.Generator:
    """NumPy SFC64 stream for the given path, for the samplers' bulk array
    draws: about four times Philox's rate on ``random`` and twice on
    ``integers``."""
    return np.random.Generator(np.random.SFC64(child_seed(seed, *path)))


def derive_instance_rng(seed: int, n: int, m: int, q: int) -> np.random.Generator:
    """NumPy Philox stream at path ``("instance", n, m, q)``, for
    ``zqlin.random_instance``: the instances, and so ``gen`` stdout and the
    benchmark's inputs, stay fixed when the samplers' generator changes."""
    return np.random.Generator(np.random.Philox(key=child_seed(seed, "instance", n, m, q)))

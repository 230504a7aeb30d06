"""Deterministic, splittable random streams.

Every stochastic routine in the package draws from a :class:`RandomStream`.
A stream is identified by a master seed plus a path of integer branch
indices; the underlying bit generator is counter-based (Philox), so streams
with distinct paths are statistically independent and a stream's draws are
reproducible bit for bit regardless of what happens on sibling streams.
"""

from __future__ import annotations

import os

import numpy as np

SEED_ENV_VAR = "POLYAKERN_SEED"
DEFAULT_SEED = 20240 + 817


def default_seed():
    """Master seed used when the caller does not supply one.

    The environment variable ``POLYAKERN_SEED``, a non-negative integer,
    overrides the built-in default, which lets scripted runs change the
    seed without editing command lines.
    """
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise ValueError(f"{SEED_ENV_VAR} must be non-negative, got {raw!r}")
    return seed


class RandomStream:
    """A named, reproducible source of randomness.

    Parameters
    ----------
    seed : int
        Master seed shared by every stream of one experiment.
    path : tuple of int
        Branch indices leading to this stream. ``child(i)`` appends one
        index, so distinct paths never collide.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, index):
        """Derive the ``index``-th independent sub-stream.

        Children depend only on (seed, path, index), never on how much the
        parent has already drawn, so work split across children can be
        scheduled in any order and still reproduce.
        """
        if index < 0:
            raise ValueError("stream index must be nonnegative")
        return RandomStream(self.seed, self.path + (int(index),))

    # Primitive draws; everything else in the package is built from these.

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def uniform_open(self, size=None):
        """Uniform draws strictly inside (0, 1): those of ``uniform`` moved to
        the midpoints (j + 1/2) 2^-52, so both u and 1 - u are exact and
        lie in [2^-53, 1 - 2^-53]."""
        return (np.floor(self._gen.random(size) * 2.0 ** 52) + 0.5) * 2.0 ** -52

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def __repr__(self):
        return f"RandomStream(seed={self.seed}, path={self.path})"


def derived_seed(seed, path):
    """A seed in [0, 2^63 - 1) drawn from the stream at (seed, path), for a
    sub-experiment that builds its own streams from one integer seed."""
    return int(RandomStream(seed, path).integers(0, 2 ** 63 - 1, 1)[0])

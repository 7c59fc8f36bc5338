"""Deterministic random-number plumbing.

Every stochastic component in the library accepts a ``seed`` argument that may
be ``None`` (non-deterministic), an ``int``, or an already-constructed
:class:`numpy.random.Generator`.  :func:`as_generator` normalizes all three.

Reproducibility policy
----------------------
* Experiments always pass explicit integer seeds so that tables/figures are
  bit-reproducible run-to-run.
* Components that need several independent streams (e.g. one per random-walk
  worker) use :func:`spawn_generators`, which derives child generators via
  ``Generator.spawn`` so streams never collide.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

__all__ = ["SeedLike", "as_generator", "draw_seed", "spawn_generators", "RngMixin"]

#: anything :func:`as_generator` accepts — the ``seed`` type of every
#: stochastic component in the library
SeedLike: TypeAlias = "int | None | np.random.Generator | np.random.SeedSequence"


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so that callers can thread
        one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if seed is None or isinstance(seed, (int, np.integer)):
        # reprolint: disable=rng-discipline(this IS the canonical constructor)
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {type(seed).__name__!r} as a random seed")


def draw_seed(rng: SeedLike) -> int:
    """Draw one 63-bit integer seed from ``rng``.

    The single seed-derivation rule of the training engine and the
    scenario drivers: every component seed (model init, negative sampler,
    per-epoch walk generators, forest split) is one draw from the caller's
    stream, in a fixed documented order, so no component narrows the
    stream.
    """
    return int(as_generator(rng).integers(2**63))


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return as_generator(seed).spawn(n)


class RngMixin:
    """Mixin giving a class a lazily-created ``self.rng`` generator.

    Subclasses call ``self._init_rng(seed)`` in ``__init__``; the stream is
    stored and reused so repeated sampling advances one deterministic stream.
    """

    _rng: np.random.Generator

    def _init_rng(self, seed: SeedLike) -> None:
        self._rng = as_generator(seed)

    @property
    def rng(self) -> np.random.Generator:
        if not hasattr(self, "_rng"):
            # reprolint: disable=rng-discipline(documented unseeded fallback for subclasses that skip _init_rng)
            self._rng = np.random.default_rng()
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Replace the internal stream (used by tests to replay a component)."""
        self._rng = as_generator(seed)

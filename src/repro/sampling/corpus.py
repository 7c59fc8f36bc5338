"""Walk corpus → skip-gram training contexts.

A walk ``RW`` of length *l* is partitioned with a sliding window of size *w*
into ``l − w + 1`` contexts (the paper trains "over 73 iterations of the
outermost loop" for l=80, w=8).  Each context has:

* a **center** node: the window's first element (``node-u`` of Figure 1 —
  NS(u) is the forward-looking neighborhood collected by the walk started
  at/through u);
* ``w − 1`` **positive** nodes: the remaining window elements.

Each (center, positive) pair is one "window" iteration of Algorithm 1 lines
8–15: the positive plus ``ns`` negatives are trained against targets 1/0.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from repro.utils.validation import check_positive

__all__ = [
    "WalkContexts", "check_window", "contexts_from_walk", "corpus_contexts",
    "n_contexts",
]


def n_contexts(walk_length: int, window: int) -> int:
    """Number of sliding windows in a walk (0 when the walk is too short)."""
    check_positive("walk_length", walk_length, integer=True)
    check_positive("window", window, integer=True)
    return max(0, walk_length - window + 1)


@dataclass(frozen=True)
class WalkContexts:
    """All contexts of one walk, in struct-of-arrays form.

    Attributes
    ----------
    centers:
        (C,) center node per context.
    positives:
        (C, w−1) positive nodes per context (the rest of each window).
    """

    centers: np.ndarray
    positives: np.ndarray

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def window(self) -> int:
        return self.positives.shape[1] + 1

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for i in range(self.n):
            yield int(self.centers[i]), self.positives[i]


def check_window(window: int) -> None:
    """A context window holds its center and at least one positive."""
    check_positive("window", window, integer=True)
    if window < 2:
        raise ValueError("window must be >= 2 (needs at least one positive)")


def contexts_from_walk(walk: np.ndarray, window: int) -> WalkContexts:
    """Slide a ``window``-sized window over ``walk``.

    Walks shorter than the window produce zero contexts (the dynamic
    scenario can generate stubby walks from low-degree nodes).
    """
    check_window(window)
    walk = np.asarray(walk, dtype=np.int64)
    c = n_contexts(walk.shape[0], window)
    if c == 0:
        return WalkContexts(
            centers=np.empty(0, dtype=np.int64),
            positives=np.empty((0, window - 1), dtype=np.int64),
        )
    # stride trick: windows[i] = walk[i : i + window], zero copies
    windows = np.lib.stride_tricks.sliding_window_view(walk, window)[:c]
    return WalkContexts(centers=windows[:, 0].copy(), positives=windows[:, 1:].copy())


def corpus_contexts(
    walks: Sequence[np.ndarray], window: int
) -> Iterator[WalkContexts]:
    """Contexts for every walk in a corpus, skipping walks with none."""
    for walk in walks:
        ctx = contexts_from_walk(walk, window)
        if ctx.n:
            yield ctx

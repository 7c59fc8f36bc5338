"""Negative sampling [16] for skip-gram training.

The sampler draws "noise" nodes with probability proportional to their
frequency in the walk corpus (the paper: "the sampled frequency as negative
nodes depends on the number of appearances of each node in the entire RW"),
optionally smoothed by the word2vec 3/4 power.  Sampling uses Walker's alias
method, so per-draw cost is O(1) regardless of graph size.

The FPGA implementation reuses one batch of negatives for a whole random walk
(§3.2, following Ji et al. [18]) to save DRAM↔BRAM transfers;
:meth:`NegativeSampler.sample_for_walk` models both policies.
"""

from __future__ import annotations

import numpy as np

from repro.sampling.alias import AliasTable
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set, check_positive

__all__ = ["NegativeSampler", "walk_frequencies"]


def walk_frequencies(walks, n_nodes: int) -> np.ndarray:
    """Count node appearances over a walk corpus ``RW`` (or one chunk of it).

    One ``np.bincount`` over the concatenated corpus — it runs on every
    chunk of the ``"corpus"`` bootstrap pass and on every virtual chunk of
    the ``"decayed"`` streaming source.  Returns raw
    int64 counts (zeros included — the sample-ability floor is applied by
    :class:`NegativeSampler`, never here).  Ids ``>= n_nodes`` raise
    ``IndexError`` like the indexed-add implementation this replaced;
    negative ids now raise ``ValueError`` (``np.add.at`` silently wrapped
    them to count the wrong node — stricter on purpose).
    """
    check_positive("n_nodes", n_nodes, integer=True)
    arrays = [a for a in (np.asarray(w, dtype=np.int64) for w in walks) if a.size]
    if not arrays:
        return np.zeros(n_nodes, dtype=np.int64)
    flat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    counts = np.bincount(flat, minlength=n_nodes)  # raises on negative ids
    if counts.shape[0] > n_nodes:
        raise IndexError(
            f"walk node id {int(flat.max())} out of range for n_nodes={n_nodes}"
        )
    return counts.astype(np.int64, copy=False)


class NegativeSampler:
    """Alias-backed unigram negative sampler.

    Parameters
    ----------
    frequencies:
        per-node appearance counts (e.g. from :func:`walk_frequencies`), or
        any non-negative weight vector.  Nodes with *exactly zero* frequency
        get a floor of 1 so every node remains sample-able (the corpus may
        not have visited isolated nodes yet in the dynamic scenario); all
        positive weights — including fractional ones below 1 — are used
        as given.
    power:
        smoothing exponent on the frequencies.  1.0 follows the paper's text
        literally; 0.75 is the word2vec default [16] and ours.
    seed:
        stream for the draws.
    """

    def __init__(self, frequencies, *, power: float = 0.75, seed=None):
        freq = np.asarray(frequencies, dtype=np.float64)
        if freq.ndim != 1 or freq.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D array")
        if np.any(freq < 0):
            raise ValueError("frequencies must be non-negative")
        check_positive("power", power, strict=False)
        self.n_nodes = freq.size
        self.power = float(power)
        # floor only exact zeros: np.maximum(freq, 1.0) would silently lift
        # every fractional weight below 1 and distort user-supplied vectors
        weights = np.where(freq > 0.0, freq, 1.0) ** self.power
        self.table = AliasTable(weights)
        self.rng = as_generator(seed)

    @classmethod
    def from_walks(cls, walks, n_nodes: int, *, power: float = 0.75, seed=None):
        """Build from a walk corpus (the paper's construction)."""
        return cls(walk_frequencies(walks, n_nodes), power=power, seed=seed)

    @classmethod
    def from_degrees(cls, graph, *, power: float = 0.75, seed=None):
        """Degree-proportional fallback used before any walks exist."""
        return cls(
            graph.degree().astype(np.float64), power=power, seed=seed
        )

    # ------------------------------------------------------------------ #

    def sample(self, size=None) -> np.ndarray:
        """Draw negative node ids (scalar if ``size is None``)."""
        return self.table.sample(size, seed=self.rng)

    def draw_batch(self, n_rows: int, n_samples: int) -> np.ndarray:
        """Bulk negatives for a whole chunk: one ``(n_rows, n_samples)``
        alias pass.

        This is the chunk-kernel counterpart of :meth:`sample_for_walk` —
        one vectorized draw for every window (or walk, under per-walk
        reuse) of a chunk, instead of one RNG call pair per walk.  The
        distribution is identical to per-walk draws from the same table;
        the RNG *call pattern* differs, so bulk and per-walk consumers of
        one stream produce different (equally valid) negative sequences.
        """
        check_positive("n_rows", n_rows, integer=True)
        check_positive("n_samples", n_samples, integer=True)
        return self.sample((n_rows, n_samples))

    def sample_for_walk(
        self, n_contexts: int, n_samples: int, *, reuse: str = "per_walk"
    ) -> np.ndarray:
        """Negatives for one random walk's training pass.

        Parameters
        ----------
        n_contexts:
            number of center positions in the walk (l − w + 1 = 73 for the
            paper's l=80, w=8).
        n_samples:
            ``ns`` negatives per window (Table 2: 10).
        reuse:
            ``"per_walk"`` — one batch shared by every context (the FPGA
            policy from [18]); ``"per_context"`` — fresh negatives per
            center position (the CPU Algorithm 1 policy).

        Returns
        -------
        (n_contexts, n_samples) int64 array (rows identical when shared).
        """
        check_in_set("reuse", reuse, ("per_walk", "per_context"))
        check_positive("n_contexts", n_contexts, integer=True)
        check_positive("n_samples", n_samples, integer=True)
        if reuse == "per_walk":
            batch = self.sample(n_samples)
            return np.broadcast_to(batch, (n_contexts, n_samples)).copy()
        return self.sample((n_contexts, n_samples))

    def probabilities(self) -> np.ndarray:
        """The exact sampling distribution (for tests/diagnostics)."""
        return self.table.probabilities()

    def __repr__(self) -> str:
        return f"NegativeSampler(n_nodes={self.n_nodes}, power={self.power})"

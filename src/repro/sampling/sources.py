"""Negative-sampling *sources*: strategy objects behind ``negative_source``.

The paper builds its negative table from node frequencies over the entire
walk corpus (§3.1); the streaming pipeline cannot know those frequencies
before the last walk exists.  Each strategy for closing that gap used to be
an inline branch of ``train_parallel``; they are now first-class objects so
the pipeline (and the dynamic-graph replay driving it) can treat "where do
negatives come from" as a pluggable layer.

Protocol
--------
A source is a small stateful object the pipeline drives through three
hooks:

``bootstrap(graph)``
    called once before streaming starts; builds whatever initial state the
    strategy needs (a degree table, an empty count vector, …).
``observe(chunk_frequencies, n_walks)``
    called with the node-frequency vector of each consumed group of walks
    (``n_walks`` of them); folds the evidence into the source's state and
    returns the number of alias-table rebuilds it triggered (0 or 1) so the
    pipeline can account for them (``PipelineTelemetry.sampler_rebuilds``).
``sampler()``
    the :class:`~repro.sampling.negative.NegativeSampler` training should
    draw negatives from *right now* (``None`` while a bootstrap pass is
    still pending).

Two class attributes tell the pipeline how to schedule a source:

``bootstrap_mode``
    ``None`` — the sampler is ready right after :meth:`bootstrap` and
    training streams immediately; ``"buffer"`` — the pipeline buffers the
    first pass while :meth:`observe` counts it, calls :meth:`finalize`, and
    only then trains the buffered walks (the paper's exact construction).
``virtual_chunk``
    ``None`` — physical chunk boundaries are irrelevant to the source;
    an int ``V`` — the source folds evidence at *canonical virtual chunk*
    boundaries (every ``V`` consumed walks, counted globally), and the
    pipeline aligns its ``observe`` calls to those boundaries.  This is
    what pins ``"decayed"``'s determinism: the fold/rebuild schedule
    depends only on ``V``, never on worker count, transport or the
    physical ``chunk_size``.

Sources are single-use: one :meth:`bootstrap` per instance (a second call
raises), mirroring the fact that they accumulate per-run sampling state.

Registry
--------
``SOURCE_REGISTRY`` maps the public names to their classes and is the
single source of truth for the valid ``negative_source`` strings
(``NEGATIVE_SOURCES``), the validation error messages, and the rendered
API documentation — adding a strategy here is all it takes to expose it
everywhere.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.sampling.negative import NegativeSampler
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_set, check_positive

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

__all__ = [
    "DEFAULT_VIRTUAL_CHUNK",
    "NEGATIVE_SOURCES",
    "SOURCE_REGISTRY",
    "CorpusSource",
    "DecayedSource",
    "DegreeSource",
    "NegativeSource",
    "make_source",
    "resolve_source",
]

#: Canonical virtual chunk size (walks) used by :class:`DecayedSource`.
#: Deliberately a sampling-layer constant, decoupled from the pipeline's
#: physical ``chunk_size`` default: two runs agree bit-for-bit whenever
#: their *virtual* chunk size agrees, whatever their physical chunking.
DEFAULT_VIRTUAL_CHUNK = 256


class NegativeSource:
    """Base class / protocol for negative-sampling sources.

    Parameters
    ----------
    power, seed:
        smoothing exponent and RNG seed for the sampler(s) this source
        builds.  Either may be left ``None`` at construction; the pipeline
        fills unset knobs from its own ``negative_power`` argument and its
        deterministic sampler-seed draw via :meth:`configure`, so an
        explicitly-constructed source can pin its own values while
        registry-name usage inherits the run's.
    """

    #: registry name (class attribute, set by subclasses)
    name: str = "?"
    #: one-line trade-off summary rendered into the API docs
    summary: str = ""
    #: ``None`` | ``"buffer"`` (see module docstring)
    bootstrap_mode: str | None = None
    #: canonical virtual chunk size in walks, or ``None`` (see module docstring)
    virtual_chunk: int | None = None

    def __init__(self, *, power: float | None = None, seed: SeedLike = None):
        if power is not None:
            check_positive("power", power, strict=False)
        self.power = power
        self.seed = seed
        self._bootstrapped = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def fresh(self) -> "NegativeSource":
        """An unbootstrapped copy carrying the same construction knobs.

        The pipeline trains against a fresh copy of any user-supplied
        instance (see :func:`resolve_source`), so one configured source can
        parameterize many runs — e.g. the drift scenario's before/after
        training phases — without leaking per-run sampling state between
        them.
        """
        if self._bootstrapped:
            raise RuntimeError(
                f"cannot copy a bootstrapped {type(self).__name__}: construct "
                "a fresh source instead"
            )
        return copy.deepcopy(self)

    def configure(
        self, *, power: float | None = None, seed: SeedLike = None
    ) -> "NegativeSource":
        """Fill knobs left unset at construction (explicit values win)."""
        if self.power is None and power is not None:
            check_positive("power", power, strict=False)
            self.power = float(power)
        if self.seed is None and seed is not None:
            self.seed = seed
        return self

    def bootstrap(self, graph: CSRGraph) -> None:
        """Initialize per-run state from the starting ``graph`` snapshot."""
        if self._bootstrapped:
            raise RuntimeError(
                f"{type(self).__name__} instances are single-use: construct a "
                "fresh source per training run"
            )
        if self.power is None:
            self.power = 0.75
        self._bootstrapped = True
        self._bootstrap(graph)

    def _bootstrap(self, graph: CSRGraph) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    @property
    def wants_frequencies(self) -> bool:
        """Whether the pipeline should compute and feed chunk frequencies
        right now (False once a source's sampler is frozen — computing them
        would be pure overhead on the hot path)."""
        return False

    @property
    def pending_bootstrap(self) -> str | None:
        """The bootstrap pass the pipeline still owes this source
        (``None`` once the sampler exists / is finalized)."""
        return None

    def observe(self, chunk_frequencies: np.ndarray, n_walks: int) -> int:
        """Fold one consumed group's node frequencies; returns the number
        of alias-table rebuilds triggered (0 or 1)."""
        return 0

    def finalize(self) -> None:
        """Complete a pending bootstrap pass (buffering sources only)."""

    def sampler(self) -> NegativeSampler | None:
        """The sampler training should currently draw from."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(power={self.power})"


class DegreeSource(NegativeSource):
    """Degree-proportional bootstrap — the stationary visit distribution of
    an unbiased walk, a close proxy for corpus frequency.  Training streams
    from the very first chunk; the distribution differs slightly from the
    paper's corpus construction."""

    name = "degree"
    summary = "degree-bootstrapped sampler; streams immediately, bounded memory"

    def _bootstrap(self, graph: CSRGraph) -> None:
        self._sampler = NegativeSampler.from_degrees(
            graph, power=self.power, seed=self.seed
        )

    def sampler(self) -> NegativeSampler | None:
        return self._sampler


class CorpusSource(NegativeSource):
    """The paper's construction, verbatim: buffer the whole first-epoch
    corpus, count its int64 node frequencies, freeze one sampler, then
    train.  Exact semantics; O(corpus) peak memory and no first-epoch
    overlap."""

    name = "corpus"
    summary = "paper-exact; buffers the first epoch, O(corpus) memory"
    bootstrap_mode = "buffer"

    def _bootstrap(self, graph: CSRGraph) -> None:
        self._counts = np.zeros(graph.n_nodes, dtype=np.int64)
        self._sampler: NegativeSampler | None = None

    @property
    def wants_frequencies(self) -> bool:
        return self._sampler is None

    @property
    def pending_bootstrap(self) -> str | None:
        return self.bootstrap_mode if self._sampler is None else None

    def observe(self, chunk_frequencies: np.ndarray, n_walks: int) -> int:
        if self._sampler is None:
            self._counts += chunk_frequencies
        return 0

    def finalize(self) -> None:
        if self._sampler is None:
            self._sampler = NegativeSampler(
                self._counts, power=self.power, seed=self.seed
            )

    def sampler(self) -> NegativeSampler | None:
        return self._sampler


class DecayedSource(NegativeSource):
    """Online source for streams whose node-visit distribution *moves*
    (the dynamic-graph replay): degree bootstrap, exponentially-decayed
    per-virtual-chunk frequency folding, alias rebuild every K folds.

    State per virtual chunk ``c`` (a canonical group of ``virtual_chunk``
    consecutive walks in global consumption order)::

        counts <- decay * counts + frequencies(chunk c)

    and every ``rebuild_every``-th fold the alias table is rebuilt from
    ``counts`` (a rebuild is O(n), so K trades fidelity against overhead).

    Determinism contract: the fold/rebuild schedule is pinned to the
    canonical virtual chunk size, so results are bit-identical across
    worker counts, transports and physical chunk sizes — but *not* across
    different ``virtual_chunk`` values.  ``"decayed"`` thereby relaxes the
    pipeline's bit-identity guarantee to fixed-virtual-chunking runs.

    Floor semantics are decay-aware: weights that have *decayed* below 1
    are used as-is (never re-floored up to 1), and genuinely unvisited
    zero-weight nodes get ``min(1, smallest positive weight)`` so they stay
    sample-able without outranking any node that carries real evidence.

    Parameters
    ----------
    decay:
        per-virtual-chunk retention factor in (0, 1].  1.0 never forgets
        (pure accumulation); smaller values track drift faster.
    rebuild_every:
        rebuild the alias table every this many folds (K).
    virtual_chunk:
        canonical fold granularity in walks (V).
    """

    name = "decayed"
    summary = (
        "online: degree bootstrap + exponentially-decayed streaming "
        "frequencies, alias rebuild every K virtual chunks"
    )

    def __init__(
        self,
        *,
        decay: float = 0.98,
        rebuild_every: int = 4,
        virtual_chunk: int = DEFAULT_VIRTUAL_CHUNK,
        power: float | None = None,
        seed: SeedLike = None,
    ):
        super().__init__(power=power, seed=seed)
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        check_positive("rebuild_every", rebuild_every, integer=True)
        check_positive("virtual_chunk", virtual_chunk, integer=True)
        self.decay = float(decay)
        self.rebuild_every = int(rebuild_every)
        self.virtual_chunk = int(virtual_chunk)

    def _bootstrap(self, graph: CSRGraph) -> None:
        self._counts = graph.degree().astype(np.float64)
        self._pending = np.zeros(graph.n_nodes, dtype=np.float64)
        self._pending_walks = 0
        self.folds = 0
        self.rebuilds = 0
        # One persistent stream across every rebuild: a rebuilt sampler
        # continues drawing where its predecessor stopped, so the negative
        # stream is a single deterministic sequence for the whole run.
        self._rng = as_generator(self.seed)
        self._build()

    def _build(self) -> None:
        counts = self._counts
        positive = counts > 0.0
        if positive.any():
            floor = min(1.0, float(counts[positive].min()))
            weights = np.where(positive, counts, floor)
        else:  # all-isolated graph: uniform
            weights = np.ones_like(counts)
        self._sampler = NegativeSampler(weights, power=self.power, seed=self._rng)

    @property
    def wants_frequencies(self) -> bool:
        return True

    def observe(self, chunk_frequencies: np.ndarray, n_walks: int) -> int:
        """Accumulate one boundary-aligned group; fold (and maybe rebuild)
        when the pending walk count completes a virtual chunk.

        The pipeline splits physical chunks at virtual boundaries, so
        ``pending`` reaches exactly ``virtual_chunk`` walks; an unaligned
        caller's oversized group is folded whole as one virtual chunk
        (still deterministic for a fixed call pattern).
        """
        self._pending += chunk_frequencies
        self._pending_walks += int(n_walks)
        if self._pending_walks < self.virtual_chunk:
            return 0
        self._counts = self.decay * self._counts + self._pending
        self._pending = np.zeros_like(self._pending)
        self._pending_walks = 0
        self.folds += 1
        if self.folds % self.rebuild_every == 0:
            self._build()
            self.rebuilds += 1
            return 1
        return 0

    def sampler(self) -> NegativeSampler | None:
        return self._sampler

    def __repr__(self) -> str:
        return (
            f"DecayedSource(decay={self.decay}, rebuild_every={self.rebuild_every}, "
            f"virtual_chunk={self.virtual_chunk}, power={self.power})"
        )


#: Single source of truth for the valid ``negative_source`` strategies:
#: the pipeline's validation, the API docs and the tests all render from
#: this registry.
SOURCE_REGISTRY: dict[str, type[NegativeSource]] = {
    cls.name: cls
    for cls in (CorpusSource, DegreeSource, DecayedSource)
}

#: Valid ``negative_source`` names, in registry order.
NEGATIVE_SOURCES = tuple(SOURCE_REGISTRY)


def make_source(name: str, **kwargs: Any) -> NegativeSource:
    """Instantiate a source by registry name, forwarding keyword knobs."""
    check_in_set("negative_source", name, NEGATIVE_SOURCES)
    return SOURCE_REGISTRY[name](**kwargs)


def resolve_source(spec: str | NegativeSource) -> NegativeSource:
    """Normalize a ``negative_source`` argument: a registry name becomes a
    fresh instance; an already-constructed :class:`NegativeSource` yields a
    :meth:`~NegativeSource.fresh` copy (the caller's knobs win over pipeline
    defaults, and the caller's instance is never mutated — it can
    parameterize any number of runs)."""
    if isinstance(spec, NegativeSource):
        return spec.fresh()
    if isinstance(spec, str):
        return make_source(spec)
    raise TypeError(
        "negative_source must be a NegativeSource instance or one of "
        f"{NEGATIVE_SOURCES}, got {spec!r}"
    )

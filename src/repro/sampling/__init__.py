"""Sampling substrate: Walker's alias method, negative sampling and the
pluggable negative-source strategy layer, node2vec second-order random
walks, and window partitioning of walks into skip-gram training contexts."""

from repro.sampling.alias import AliasTable
from repro.sampling.corpus import (
    WalkContexts,
    contexts_from_walk,
    corpus_contexts,
    n_contexts,
)
from repro.sampling.negative import NegativeSampler, walk_frequencies
from repro.sampling.sources import (
    NEGATIVE_SOURCES,
    SOURCE_REGISTRY,
    CorpusSource,
    DecayedSource,
    DegreeSource,
    NegativeSource,
    make_source,
    resolve_source,
)
from repro.sampling.walks import Node2VecWalker, WalkParams

__all__ = [
    "AliasTable",
    "NegativeSampler",
    "NEGATIVE_SOURCES",
    "SOURCE_REGISTRY",
    "NegativeSource",
    "CorpusSource",
    "DegreeSource",
    "DecayedSource",
    "make_source",
    "resolve_source",
    "walk_frequencies",
    "Node2VecWalker",
    "WalkParams",
    "WalkContexts",
    "contexts_from_walk",
    "corpus_contexts",
    "n_contexts",
]

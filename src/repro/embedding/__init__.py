"""Embedding models: the SGD skip-gram baseline ("Original model"), generic
OS-ELM, and the paper's proposed OS-ELM skip-gram in both its sequential
(Algorithm 1) and dataflow-optimized (Algorithm 2) forms."""

from repro.embedding.base import EmbeddingModel
from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.kernels import (
    EXEC_BACKENDS,
    EXEC_REGISTRY,
    ChunkStats,
    ExecBackend,
    make_backend,
    resolve_backend,
)
from repro.embedding.oselm import OSELM
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.skipgram import SkipGramSGD
from repro.embedding.trainer import (
    MODEL_REGISTRY,
    TrainingResult,
    WalkTrainer,
    make_model,
    train_on_graph,
)

__all__ = [
    "EmbeddingModel",
    "SkipGramSGD",
    "OSELM",
    "OSELMSkipGram",
    "DataflowOSELMSkipGram",
    "BatchRLSSkipGram",
    "WalkTrainer",
    "TrainingResult",
    "MODEL_REGISTRY",
    "EXEC_BACKENDS",
    "EXEC_REGISTRY",
    "ChunkStats",
    "ExecBackend",
    "make_backend",
    "make_model",
    "resolve_backend",
    "train_on_graph",
]

"""repro — reproduction of "An FPGA-Based Accelerator for Graph Embedding
using Sequential Training Algorithm" (Sunaga, Sugiura, Matsutani, 2024).

Subpackages
-----------
``repro.graph``
    CSR graphs, generators, Table 1 dataset surrogates, dynamic edge streams.
``repro.sampling``
    Walker's alias method, negative sampling, node2vec second-order walks.
``repro.embedding``
    The paper's models: the SGD skip-gram baseline, generic OS-ELM, the
    proposed OS-ELM skip-gram (Algorithm 1) and its dataflow-optimized
    variant (Algorithm 2).
``repro.fixedpoint``
    Parametric Q-format fixed-point arithmetic used by the FPGA model.
``repro.fpga``
    Cycle-level simulator of the proposed accelerator (ZCU104 / XCZU7EV).
``repro.hw``
    CPU timing models (Cortex-A53, Core i7-11700), op counting, model sizes.
``repro.evaluation``
    One-vs-rest logistic regression, F1 metrics, the paper's 90/10 protocol.
``repro.dynamic``
    The "all" and "seq" dynamic-graph training scenarios of §4.3.2.
``repro.experiments``
    One runner per paper table/figure producing paper-vs-measured reports.

Quickstart
----------
>>> from repro import quick_embedding
>>> from repro.graph import cora_like
>>> graph = cora_like(scale=0.1, seed=0)
>>> emb = quick_embedding(graph, dim=32, seed=0)   # doctest: +SKIP
"""

from repro._version import __version__
from repro.api import (
    quick_embedding,
    serve_embedding,
    train_dynamic,
    train_embedding,
)

__all__ = [
    "__version__",
    "quick_embedding",
    "serve_embedding",
    "train_dynamic",
    "train_embedding",
]

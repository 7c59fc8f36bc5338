"""Model checkpointing — persistence for the IoT deployment story.

An edge device training continuously (the paper's setting) must survive
restarts: the trainable state of the proposed model is exactly (β, P) plus
its scalar hyper-parameters, all of which round-trip through one ``.npz``
file.  The SGD baseline checkpoints (W_in, W_out) the same way.

The format is intentionally plain NumPy so a host tool-chain (or the PS-side
firmware) can read it without this library.

The config block also records the model's preferred execution backend
(:attr:`~repro.embedding.base.EmbeddingModel.exec_backend`), so a restored
model resumes training through the same chunk kernel it was trained with —
any :data:`~repro.embedding.kernels.EXEC_REGISTRY` name (``"reference"``,
``"blocked"``) round-trips; checkpoints written before the kernel layer
load as ``"reference"``, ones naming the retired ``"fused"`` backend
(``"blocked"`` without the OS-ELM block kernel) load as ``"blocked"``, and
ones naming the retired ``"compiled"`` backend (the reference loops as
numba kernels, bit-identical to ``"reference"``) load as
``"reference"``.

The ``kind`` field names the model class.  A ``"batch_rls"`` checkpoint
also records its ``defer_span``.  The ``"block"`` model is ``"batch_rls"``
at ``defer_span="walk"``, so it saves as ``"batch_rls"``; files of kind
``"block"`` (written before the two merged) still load, as
``defer_span="walk"``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.skipgram import SkipGramSGD

__all__ = ["save_model", "load_model"]

_FORMAT_VERSION = 1

#: retired backend names a checkpoint may still carry → their successors
_LEGACY_BACKENDS = {"fused": "blocked", "compiled": "reference"}


def _exec_backend(cfg: dict) -> str:
    # version-1 checkpoints predate the kernel layer: default to the
    # bit-identical reference backend
    name = cfg.get("exec_backend", "reference")
    return _LEGACY_BACKENDS.get(name, name)


def _config_of(model: EmbeddingModel) -> dict:
    if isinstance(model, OSELMSkipGram):  # covers the deferred subclasses
        if isinstance(model, DataflowOSELMSkipGram):
            kind = "dataflow"
        elif isinstance(model, BatchRLSSkipGram):
            kind = "batch_rls"
        else:
            kind = "proposed"
        config = {
            "kind": kind,
            "n_nodes": model.n_nodes,
            "dim": model.dim,
            "mu": model.mu,
            "p0": model.p0,
            "weight_tying": model.weight_tying,
            "denominator": model.denominator,
            "duplicate_policy": model.duplicate_policy,
            "forgetting_factor": model.forgetting_factor,
            "n_walks_trained": model.n_walks_trained,
            "exec_backend": model.exec_backend,
        }
        if kind == "batch_rls":
            # the deferral unit is model state ("walk" | int | "chunk"):
            # a restored model must keep the spans it was trained with
            config["defer_span"] = model.defer_span
        return config
    if isinstance(model, SkipGramSGD):
        return {
            "kind": "original",
            "n_nodes": model.n_nodes,
            "dim": model.dim,
            "lr": model.lr,
            "exec_backend": model.exec_backend,
        }
    raise TypeError(f"don't know how to checkpoint {type(model).__name__}")


def save_model(model: EmbeddingModel, path: str) -> None:
    """Write a model checkpoint (.npz)."""
    config = _config_of(model)
    arrays: dict[str, np.ndarray] = {}
    if isinstance(model, OSELMSkipGram):
        arrays["B"] = model.B
        arrays["P"] = model.P
        if model._alpha is not None:
            arrays["alpha"] = model._alpha
    else:
        arrays["w_in"] = model.w_in
        arrays["w_out"] = model.w_out
    np.savez(
        path,
        __meta__=np.frombuffer(
            json.dumps({"version": _FORMAT_VERSION, "config": config}).encode(),
            dtype=np.uint8,
        ),
        **arrays,
    )


def load_model(path: str) -> EmbeddingModel:
    """Reconstruct a model from :func:`save_model` output."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
        if meta.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta.get('version')}")
        cfg = meta["config"]
        kind = cfg["kind"]
        if kind in ("proposed", "dataflow", "block", "batch_rls"):
            cls = {
                "proposed": OSELMSkipGram,
                "dataflow": DataflowOSELMSkipGram,
                "block": BatchRLSSkipGram,
                "batch_rls": BatchRLSSkipGram,
            }[kind]
            extra = {}
            if cls is BatchRLSSkipGram:
                # "block" files predate the alias and carry no span: they
                # are batch_rls at its default defer_span="walk"
                extra["defer_span"] = cfg.get("defer_span", "walk")
            model = cls(
                cfg["n_nodes"],
                cfg["dim"],
                mu=cfg["mu"],
                p0=cfg["p0"],
                weight_tying=cfg["weight_tying"],
                denominator=cfg["denominator"],
                duplicate_policy=cfg["duplicate_policy"],
                forgetting_factor=cfg["forgetting_factor"],
                exec_backend=_exec_backend(cfg),
                seed=0,
                **extra,
            )
            model.B = data["B"].copy()
            model.P = data["P"].copy()
            if "alpha" in data:
                model._alpha = data["alpha"].copy()
            model.n_walks_trained = int(cfg["n_walks_trained"])
            return model
        if kind == "original":
            model = SkipGramSGD(
                cfg["n_nodes"],
                cfg["dim"],
                lr=cfg["lr"],
                exec_backend=_exec_backend(cfg),
                seed=0,
            )
            model.w_in = data["w_in"].copy()
            model.w_out = data["w_out"].copy()
            return model
        raise ValueError(f"unknown checkpoint kind {kind!r}")

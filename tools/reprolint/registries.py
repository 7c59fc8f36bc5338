"""Extract the repo's name registries from source, without importing it.

The registry-sync rule needs the authoritative vocabularies — negative-source
names, execution-backend names, model names, snapshot transports — but
reprolint must not import ``repro`` (stdlib-only, and the tree being linted
may be broken).  So the vocabularies are read off the AST of the modules that
define them.  A missing module disables only the checks that need it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

__all__ = ["Registries", "load_registries", "find_repo_root"]


@dataclass(frozen=True)
class Registries:
    """Authoritative name sets; ``None`` means "could not be determined"."""

    sources: frozenset[str] | None = None
    backends: frozenset[str] | None = None
    models: frozenset[str] | None = None
    transports: frozenset[str] | None = None
    stores: frozenset[str] | None = None
    #: ``chunk_size`` is an int: no string is a valid value
    chunk_size_tokens: frozenset[str] = frozenset()

    def vocabulary(self, knob: str) -> frozenset[str] | None:
        return {
            "negative_source": self.sources,
            "exec_backend": self.backends,
            "model": self.models,
            "transport": self.transports,
            "store": self.stores,
            "chunk_size": self.chunk_size_tokens,
        }.get(knob)


def find_repo_root(start: Path) -> Path | None:
    """Walk upward from ``start`` to the directory containing ``src/repro``."""
    cur = start if start.is_dir() else start.parent
    cur = cur.resolve()
    for candidate in (cur, *cur.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return None


def _parse(path: Path) -> ast.Module | None:
    try:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    except (OSError, SyntaxError):
        return None


def _class_name_attrs(tree: ast.Module) -> frozenset[str]:
    """Collect ``name = "literal"`` class attributes (the registry pattern).

    The placeholder ``"?"`` on abstract bases is skipped, matching how
    ``SOURCE_REGISTRY``/``EXEC_REGISTRY`` are built from concrete classes.
    """
    names: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and target.id == "name"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value != "?"
            ):
                names.add(value.value)
    return frozenset(names)


def _dict_literal_keys(tree: ast.Module, var: str) -> frozenset[str] | None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == var for t in node.targets)
            and isinstance(node.value, ast.Dict)
        ):
            keys = {
                k.value
                for k in node.value.keys
                if isinstance(k, ast.Constant) and isinstance(k.value, str)
            }
            return frozenset(keys)
    return None


def _tuple_literal(tree: ast.Module, var: str) -> frozenset[str] | None:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == var for t in node.targets)
            and isinstance(node.value, (ast.Tuple, ast.List))
        ):
            items = {
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            return frozenset(items)
    return None


def load_registries(start: Path) -> Registries:
    """Load every vocabulary reachable from ``start``'s repo root."""
    root = find_repo_root(start)
    if root is None:
        return Registries()
    repro = root / "src" / "repro"
    sources = backends = models = transports = stores = None

    tree = _parse(repro / "sampling" / "sources.py")
    if tree is not None:
        extracted = _class_name_attrs(tree)
        sources = extracted or None
    tree = _parse(repro / "embedding" / "kernels.py")
    if tree is not None:
        backends = _class_name_attrs(tree) or None
    tree = _parse(repro / "embedding" / "trainer.py")
    if tree is not None:
        models = _dict_literal_keys(tree, "MODEL_REGISTRY")
    tree = _parse(repro / "parallel" / "pipeline.py")
    if tree is not None:
        transports = _tuple_literal(tree, "TRANSPORTS")
    store_names: set[str] = set()
    for path in sorted((repro / "store").glob("*.py")):
        tree = _parse(path)
        if tree is not None:
            store_names |= _class_name_attrs(tree)
    stores = frozenset(store_names) or None
    return Registries(
        sources=sources,
        backends=backends,
        models=models,
        transports=transports,
        stores=stores,
    )

"""The six invariant rules.

Each rule is a generator ``rule(ctx: FileContext) -> Iterator[Violation]``.
Rules only *report*; waiver filtering and unused-waiver detection live in
:mod:`tools.reprolint.core`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from tools.reprolint.core import FileContext, Violation

__all__ = ["RULES"]

_NP_ALIASES = frozenset({"np", "numpy"})

# ---------------------------------------------------------------------------#
# shared AST helpers
# ---------------------------------------------------------------------------#


def _dotted(node: ast.expr) -> str | None:
    """``np.random.default_rng`` for nested attribute access, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None


def _calls_of(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _has_kwarg(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


# ---------------------------------------------------------------------------#
# rule: rng-discipline
# ---------------------------------------------------------------------------#

#: samplers/mutators on the *module-level* ``np.random`` global state — these
#: are process-wide and therefore never reproducible across pool workers.
_MODULE_STATE_ATTRS = frozenset(
    {
        "seed", "get_state", "set_state",
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "bytes",
        "normal", "uniform", "standard_normal", "integers",
        "beta", "binomial", "poisson", "exponential", "gamma", "geometric",
        "lognormal", "multinomial", "pareto", "power", "zipf",
    }
)
_GENERATOR_CTORS = frozenset({"default_rng", "RandomState"})


def rule_rng_discipline(ctx: FileContext) -> Iterator[Violation]:
    """All randomness flows through ``repro.utils.rng`` seed helpers.

    Library code (under ``src/``) must not construct generators directly —
    ``as_generator``/``spawn_generators`` are the only constructors, so every
    stream is seedable and every seed derivation is auditable.  Test/bench
    code may construct seeded generators but never unseeded ones, and nobody
    may touch the module-level ``np.random`` global state (it is shared
    process state: invisible coupling between tests and, after ``fork``,
    identical streams in every pool worker).
    """
    for call in _calls_of(ctx.tree):
        name = _dotted(call.func)
        if name is None:
            continue
        parts = name.split(".")
        if len(parts) != 3 or parts[0] not in _NP_ALIASES or parts[1] != "random":
            continue
        attr = parts[2]
        if attr in _GENERATOR_CTORS:
            seeded = (
                bool(call.args)
                and not (
                    isinstance(call.args[0], ast.Constant)
                    and call.args[0].value is None
                )
            ) or _has_kwarg(call, "seed")
            if ctx.is_library:
                yield Violation(
                    ctx.path,
                    call.lineno,
                    "rng-discipline",
                    f"library code must not call np.random.{attr} directly — "
                    "route seeds through repro.utils.rng.as_generator so every "
                    "stream stays seedable and auditable",
                )
            elif not seeded:
                yield Violation(
                    ctx.path,
                    call.lineno,
                    "rng-discipline",
                    f"unseeded np.random.{attr}() — pass an explicit seed "
                    "(fresh OS entropy makes the run unreproducible)",
                )
        elif attr in _MODULE_STATE_ATTRS:
            yield Violation(
                ctx.path,
                call.lineno,
                "rng-discipline",
                f"np.random.{attr} uses the process-global RNG state — use a "
                "Generator from repro.utils.rng.as_generator instead "
                "(global state is shared by every forked pool worker)",
            )


# ---------------------------------------------------------------------------#
# rule: shm-lifecycle
# ---------------------------------------------------------------------------#


def _is_shm_create(call: ast.Call) -> bool:
    name = _dotted(call.func)
    if name is None or name.split(".")[-1] != "SharedMemory":
        return False
    create = _kwarg(call, "create")
    return isinstance(create, ast.Constant) and create.value is True


def _attr_call_names(tree: ast.AST) -> set[str]:
    """Names of ``obj.<name>()`` method calls anywhere under ``tree``."""
    out = set()
    for call in _calls_of(tree):
        if isinstance(call.func, ast.Attribute):
            out.add(call.func.attr)
    return out


def _class_has_cleanup(cls: ast.ClassDef) -> bool:
    methods = {
        stmt.name
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    if {"close", "unlink"} <= methods:
        return True
    performed = _attr_call_names(cls)
    return {"close", "unlink"} <= performed


def _guarded_by_unlinking_try(ctx: FileContext, call: ast.Call) -> bool:
    """The creation sits in/just before a try whose cleanup unlinks."""
    scope = ctx.enclosing(call, ast.FunctionDef, ast.AsyncFunctionDef) or ctx.tree
    for node in ast.walk(scope):
        if not isinstance(node, ast.Try):
            continue
        cleanup_calls = set()
        for handler in node.handlers:
            cleanup_calls |= _attr_call_names(handler)
        cleanup_calls |= _attr_call_names(ast.Module(body=node.finalbody, type_ignores=[]))
        if "unlink" in cleanup_calls:
            return True
    return False


def rule_shm_lifecycle(ctx: FileContext) -> Iterator[Violation]:
    """Every ``SharedMemory(create=True)`` has cleanup reachable on failure.

    The creating process owns the segment; without ``close()``/``unlink()``
    on exception paths the name leaks into ``/dev/shm`` until reboot (the
    leak tests in ``tests/parallel`` assert zero residue).  A creation
    passes if the owning class defines or performs both ``close`` and
    ``unlink``, or the surrounding function guards it with a try whose
    handler/finally unlinks.
    """
    for call in _calls_of(ctx.tree):
        if not _is_shm_create(call):
            continue
        cls = ctx.enclosing(call, ast.ClassDef)
        if isinstance(cls, ast.ClassDef) and _class_has_cleanup(cls):
            continue
        if _guarded_by_unlinking_try(ctx, call):
            continue
        yield Violation(
            ctx.path,
            call.lineno,
            "shm-lifecycle",
            "SharedMemory(create=True) with no close()/unlink() reachable on "
            "exception paths — the segment leaks into /dev/shm; own it with a "
            "class that defines close/unlink or a try/finally that unlinks",
        )


# ---------------------------------------------------------------------------#
# rule: registry-sync
# ---------------------------------------------------------------------------#

_KNOBS = (
    "negative_source", "exec_backend", "model", "transport", "chunk_size", "store",
)
_STRING_KNOB_RE = re.compile(
    r"\b(negative_source|exec_backend|model|transport|store|chunk_size)"
    r"\s*=\s*\"([A-Za-z_0-9]+)\""
)


def _known(vocab: frozenset[str]) -> str:
    return ", ".join(sorted(vocab)) if vocab else "none; the knob takes no string"


def _check_knob(
    ctx: FileContext, knob: str, value: ast.expr, line: int
) -> Iterator[Violation]:
    if not (isinstance(value, ast.Constant) and isinstance(value.value, str)):
        return
    vocab = ctx.registries.vocabulary(knob)
    if vocab is None or value.value in vocab:
        return
    yield Violation(
        ctx.path,
        line,
        "registry-sync",
        f'{knob}="{value.value}" is not a registered name '
        f"(known: {_known(vocab)}) — registries are the single "
        "source of truth; hand-written name literals drift",
    )


def rule_registry_sync(ctx: FileContext) -> Iterator[Violation]:
    """Name literals for registry knobs must be registry members.

    ``EXEC_REGISTRY``/``SOURCE_REGISTRY``/``MODEL_REGISTRY``/``TRANSPORTS``/
    ``STORE_REGISTRY`` are the single source of truth; the rule checks every
    ``negative_source=``/``exec_backend=``/``model=``/``transport=``/
    ``store=`` keyword argument, function-signature default, and
    ``knob="value"`` token inside string constants (docstrings, error
    messages) against them.  ``chunk_size`` has an empty vocabulary: it
    takes an int, so any string value is flagged.
    """
    # (a) keyword arguments at call sites
    for call in _calls_of(ctx.tree):
        for kw in call.keywords:
            if kw.arg in _KNOBS:
                yield from _check_knob(ctx, kw.arg, kw.value, kw.value.lineno)
    # (b) function-signature defaults
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        for params, defaults in (
            (a.posonlyargs + a.args, a.defaults),
            (a.kwonlyargs, a.kw_defaults),
        ):
            pairs = zip(params[len(params) - len(defaults) :], defaults)
            for param, default in pairs:
                if param.arg in _KNOBS and default is not None:
                    yield from _check_knob(ctx, param.arg, default, default.lineno)
    # (c) knob="value" tokens inside string constants (docstrings, messages)
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        for match in _STRING_KNOB_RE.finditer(node.value):
            knob, value = match.group(1), match.group(2)
            vocab = ctx.registries.vocabulary(knob)
            if vocab is None or value in vocab:
                continue
            line = node.lineno + node.value[: match.start()].count("\n")
            yield Violation(
                ctx.path,
                line,
                "registry-sync",
                f'string mentions {knob}="{value}" but the registry only '
                f"knows: {_known(vocab)} — update the doc/message "
                "or register the name",
            )


# ---------------------------------------------------------------------------#
# rule: fork-safety
# ---------------------------------------------------------------------------#

_SUBMIT_METHODS = frozenset(
    {
        "apply", "apply_async", "map", "map_async",
        "imap", "imap_unordered", "starmap", "starmap_async", "submit",
    }
)
#: constructors whose results must not be pickled across the fork boundary:
#: generators fork into identical streams, shm handles into double owners.
_RISKY_CTORS = frozenset(
    {"default_rng", "as_generator", "spawn_generators", "SharedMemory",
     "ShmWalkRing", "create", "attach", "RandomState"}
)


def _risky_assignments(scope: ast.AST) -> dict[str, int]:
    """Local names bound to RNG/shm constructor results, name → line."""
    risky: dict[str, int] = {}
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        ctor = _dotted(node.value.func)
        if ctor is None or ctor.split(".")[-1] not in _RISKY_CTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                risky[target.id] = node.lineno
    return risky


def _local_function_names(scope: ast.AST) -> set[str]:
    """Functions defined *inside* this function (closures)."""
    names = set()
    for node in ast.walk(scope):
        if node is scope:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _payload_names(nodes: list[ast.expr]) -> Iterator[ast.Name]:
    """Name nodes appearing as payload data (not attribute/subscript bases).

    ``ring.spec`` passes plain data derived *from* a handle; only the bare
    name crossing the boundary is dangerous.
    """
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Dict):
            stack.extend(v for v in node.values if v is not None)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        # Attribute/Subscript/Call payloads: the *result* crosses, not the
        # base object — do not descend.


def rule_fork_safety(ctx: FileContext) -> Iterator[Violation]:
    """Pool submissions carry module-level callables and plain data only.

    Closures and locally-constructed ``Generator``/shm handles pickle (or
    silently fork-share) process state: every worker would inherit the same
    RNG stream, and shm handles would be double-owned.  The pipeline's
    contract is module-level worker functions plus plain-data tuples
    (``ring.spec``, ints, arrays).
    """
    for call in _calls_of(ctx.tree):
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _SUBMIT_METHODS
            and call.args
        ):
            continue
        scope = ctx.enclosing(call, ast.FunctionDef, ast.AsyncFunctionDef)
        risky = _risky_assignments(scope) if scope is not None else {}
        local_funcs = _local_function_names(scope) if scope is not None else set()

        target = call.args[0]
        if isinstance(target, ast.Lambda):
            yield Violation(
                ctx.path, target.lineno, "fork-safety",
                "lambda submitted to a pool — lambdas do not pickle and close "
                "over parent state; submit a module-level function",
            )
        elif isinstance(target, ast.Name) and target.id in local_funcs:
            yield Violation(
                ctx.path, target.lineno, "fork-safety",
                f"locally-defined function {target.id!r} submitted to a pool — "
                "closures capture parent state (RNGs fork into identical "
                "streams); submit a module-level function",
            )

        payload: list[ast.expr] = list(call.args[1:])
        payload.extend(kw.value for kw in call.keywords)
        for name in _payload_names(payload):
            if name.id in risky:
                yield Violation(
                    ctx.path, name.lineno, "fork-safety",
                    f"{name.id!r} (RNG/shm handle constructed at line "
                    f"{risky[name.id]}) submitted across the fork boundary — "
                    "pass plain data (seeds, specs) and reconstruct in the "
                    "worker",
                )


# ---------------------------------------------------------------------------#
# rules: hot-loop-alloc + dtype-discipline (kernel modules only)
# ---------------------------------------------------------------------------#

#: allocating/concatenating calls that PR 5 hoisted out of per-context loops.
#: np.outer/np.bincount/np.unique/np.arange/np.einsum stay allowed: the
#: blocked-RLS kernel needs them per block by construction.
_HOT_ALLOC_ATTRS = frozenset(
    {
        "zeros", "ones", "empty", "full", "eye", "identity",
        "concatenate", "tile", "stack", "vstack", "hstack",
        "column_stack", "repeat",
    }
)
#: float-defaulting constructors that must pin their dtype in kernel code.
_DTYPE_CTORS = frozenset({"zeros", "ones", "empty", "full", "eye", "identity"})
#: positional index at which ``dtype`` may be passed, per constructor.
_DTYPE_POS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2, "eye": 3, "identity": 1}


def _np_call_attr(call: ast.Call) -> str | None:
    name = _dotted(call.func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 2 and parts[0] in _NP_ALIASES:
        return parts[1]
    return None


def rule_hot_loop_alloc(ctx: FileContext) -> Iterator[Violation]:
    """No fresh numpy allocation inside kernel ``for``/``while`` loops.

    PR 5's profiling showed ``np.concatenate``/``np.tile``/``np.zeros`` in
    the per-context loop dominating small-dim training; the kernels hoist
    every such buffer.  Applies only to files marked
    ``# reprolint: kernel-module``.
    """
    if not ctx.is_kernel_module:
        return
    for call in _calls_of(ctx.tree):
        attr = _np_call_attr(call)
        if attr not in _HOT_ALLOC_ATTRS:
            continue
        loop = ctx.enclosing(call, ast.For, ast.While)
        if loop is None:
            continue
        yield Violation(
            ctx.path,
            call.lineno,
            "hot-loop-alloc",
            f"np.{attr} allocates inside a kernel loop — hoist the buffer "
            "out of the loop (PR 5 pattern) or waive with the profiling "
            "evidence",
        )


def rule_dtype_discipline(ctx: FileContext) -> Iterator[Violation]:
    """Float array constructors in kernel code pin an explicit dtype.

    Mixed float32/float64 arithmetic silently upcasts and breaks the
    bit-identical golden contract; constructors that default to float64
    must say so.  ``*_like``/``asarray`` inherit dtype and stay exempt.
    Applies only to files marked ``# reprolint: kernel-module``.
    """
    if not ctx.is_kernel_module:
        return
    for call in _calls_of(ctx.tree):
        attr = _np_call_attr(call)
        if attr not in _DTYPE_CTORS:
            continue
        if _has_kwarg(call, "dtype"):
            continue
        if len(call.args) > _DTYPE_POS[attr]:
            continue
        yield Violation(
            ctx.path,
            call.lineno,
            "dtype-discipline",
            f"np.{attr} without an explicit dtype in kernel code — pass "
            "dtype=np.float64 (or the intended dtype) so float32/float64 "
            "never mix implicitly",
        )


RULES = (
    rule_rng_discipline,
    rule_shm_lifecycle,
    rule_registry_sync,
    rule_fork_safety,
    rule_hot_loop_alloc,
    rule_dtype_discipline,
)

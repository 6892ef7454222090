"""Codebase-aware AST lint rules.

Each rule is a subclass of :class:`Rule` registered in :data:`ALL_RULES`
and receives a parsed :class:`FileContext`; it yields
:class:`~repro.analysis.findings.Finding` objects.  The rules encode
invariants this repository actually depends on — dtype discipline for
the configurable-precision engine, lock discipline for the threaded
serving layer, atomic-write discipline for artifact stores — rather
than generic style.

Adding a rule: subclass :class:`Rule`, set ``id``/``summary``,
implement ``check``, append an instance to :data:`ALL_RULES`, and add a
bad/good fixture pair to ``tests/test_analysis_lint.py``.  Suppress a
single line with ``# repro: ignore[rule-id] -- reason`` (the reason is
mandatory; the engine rejects bare suppressions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

__all__ = ["ALL_RULES", "FileContext", "Rule", "rule_ids"]


@dataclass(frozen=True)
class FileContext:
    """One parsed source file handed to every rule.

    ``module_path`` is normalised to start at the ``repro/`` package
    component (``repro/serve/batching.py``), so path-scoped rules work
    identically on the real tree and on test fixtures.
    """

    module_path: str
    tree: ast.Module
    source_lines: Sequence[str]


class Rule:
    """Base class: one invariant, one stable id, one ``check`` pass."""

    id: str = ""
    summary: str = ""

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=context.module_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


def _attribute_chain(node: ast.AST) -> Optional[str]:
    """Dotted name of an attribute/name chain (``np.float64``), else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attribute_root(node: ast.AST) -> Optional[str]:
    """The first attribute hanging off ``self`` in an access chain.

    ``self._stats.requests`` -> ``_stats``; ``self._paths[name]`` ->
    ``_paths``; anything not rooted at ``self`` -> ``None``.
    """
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        parent = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(parent, ast.Name)
            and parent.id == "self"
        ):
            return node.attr
        node = parent
    return None


# ----------------------------------------------------------------------
# dtype discipline
# ----------------------------------------------------------------------
class DtypeLiteralRule(Rule):
    """No bare float dtype literals outside ``repro/tensor/dtypes.py``.

    The engine computes in a configurable precision; a literal
    ``np.float64`` (or ``dtype="float32"``) hard-wires one, silently
    promoting (or truncating) every array it touches — the exact class
    of bug PR 1 spent a sweep chasing.  Code must route through
    :func:`repro.tensor.dtypes.default_dtype` or, for deliberately
    double-precision statistics, ``ACCUMULATION_DTYPE``.
    """

    id = "dtype-literal"
    summary = "bare float dtype literal outside repro/tensor/dtypes.py"

    ALLOWED_FILES = ("repro/tensor/dtypes.py",)
    FLOAT_ATTRIBUTES = {
        "np.float32",
        "np.float64",
        "numpy.float32",
        "numpy.float64",
    }
    FLOAT_STRINGS = {"float32", "float64"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.module_path in self.ALLOWED_FILES:
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                chain = _attribute_chain(node)
                if chain in self.FLOAT_ATTRIBUTES:
                    yield self.finding(
                        context,
                        node,
                        f"bare dtype literal {chain}; route through default_dtype() "
                        "(or ACCUMULATION_DTYPE for double-precision statistics) "
                        "from repro.tensor.dtypes",
                    )
            elif isinstance(node, ast.keyword) and node.arg == "dtype":
                value = node.value
                if isinstance(value, ast.Constant) and value.value in self.FLOAT_STRINGS:
                    yield self.finding(
                        context,
                        value,
                        f"string dtype literal {value.value!r}; route through "
                        "default_dtype() from repro.tensor.dtypes",
                    )


# ----------------------------------------------------------------------
# lock discipline
# ----------------------------------------------------------------------
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "move_to_end",
    "put",
    "put_nowait",
}

_LOCK_CONSTRUCTORS = {"Lock", "RLock", "threading.Lock", "threading.RLock"}


class LockDisciplineRule(Rule):
    """Lock-guarded attributes must stay behind their class's locks.

    For every class that creates a ``threading.Lock`` in ``__init__``,
    any ``self.*`` attribute that is ever mutated inside a
    ``with self.<lock>:`` block is *guarded*: every other mutation
    **and read** of it (outside ``__init__``) must also sit inside a
    with-lock block.  This is a lightweight static race detector — it
    caught the class of bug PR 2/PR 4 fixed by review, and it is the
    gate every future shard-pool actor must pass.  Thread-safe
    primitives accessed lock-free by design (a ``SimpleQueue`` consumer
    side, say) carry an explicit suppression with the reason.
    """

    id = "lock-discipline"
    summary = "guarded attribute touched outside its lock"

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(context, node)

    def _check_class(self, context: FileContext, cls: ast.ClassDef) -> Iterator[Finding]:
        locks = self._lock_attributes(cls)
        if not locks:
            return
        methods = [
            node
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name != "__init__"
        ]
        guarded: Set[str] = set()
        for method in methods:
            for attr, _node, under_lock, _is_read in self._accesses(method, locks):
                if under_lock and not _is_read:
                    guarded.add(attr)
        guarded -= locks  # the locks themselves are not data
        if not guarded:
            return
        for method in methods:
            for attr, node, under_lock, is_read in self._accesses(method, locks):
                if attr in guarded and not under_lock:
                    action = "read" if is_read else "mutated"
                    yield self.finding(
                        context,
                        node,
                        f"{cls.name}.{attr} is {action} outside a with-lock block "
                        f"but is mutated under {sorted(locks)} elsewhere in the class",
                    )

    @staticmethod
    def _lock_attributes(cls: ast.ClassDef) -> Set[str]:
        locks: Set[str] = set()
        for node in cls.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for statement in ast.walk(node):
                    if not isinstance(statement, ast.Assign):
                        continue
                    chain = _attribute_chain(statement.value) if not isinstance(
                        statement.value, ast.Call
                    ) else _attribute_chain(statement.value.func)
                    if not isinstance(statement.value, ast.Call):
                        continue
                    if chain not in _LOCK_CONSTRUCTORS:
                        continue
                    for target in statement.targets:
                        attr = _self_attribute_root(target)
                        if attr is not None:
                            locks.add(attr)
        return locks

    def _accesses(
        self, method: ast.FunctionDef, locks: Set[str]
    ) -> List[Tuple[str, ast.AST, bool, bool]]:
        """Every ``self.X`` access in ``method``: (attr, node, under_lock, is_read)."""
        accesses: List[Tuple[str, ast.AST, bool, bool]] = []

        def is_lock_with(item: ast.withitem) -> bool:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            attr = _self_attribute_root(expr)
            return attr is not None and attr in locks

        def visit(node: ast.AST, under_lock: bool) -> None:
            if isinstance(node, ast.With):
                locked = under_lock or any(is_lock_with(item) for item in node.items)
                for item in node.items:
                    visit_expr(item.context_expr, under_lock)
                for child in node.body:
                    visit(child, locked)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # nested scopes analysed on their own if ever needed
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    attr = _self_attribute_root(target)
                    if attr is not None:
                        accesses.append((attr, target, under_lock, False))
                    else:
                        visit_expr(target, under_lock)
                visit_expr(node.value, under_lock)
                return
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    visit_expr(child, under_lock)
                else:
                    visit(child, under_lock)

        def visit_expr(node: ast.AST, under_lock: bool) -> None:
            receivers: Set[int] = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    if isinstance(func, ast.Attribute) and func.attr in _MUTATOR_METHODS:
                        attr = _self_attribute_root(func.value)
                        if attr is not None:
                            accesses.append((attr, sub, under_lock, False))
                            # The receiver is part of the mutation; do
                            # not double-report it as a read below.
                            for inner in ast.walk(func.value):
                                receivers.add(id(inner))
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Load)
                    and id(sub) not in receivers
                ):
                    parent = sub.value
                    if isinstance(parent, ast.Name) and parent.id == "self":
                        accesses.append((sub.attr, sub, under_lock, True))

        for statement in method.body:
            visit(statement, False)
        return accesses


# ----------------------------------------------------------------------
# atomic-write discipline
# ----------------------------------------------------------------------
class AtomicWriteRule(Rule):
    """Files are written by :mod:`repro.utils.checkpoint` alone.

    A direct ``open(path, "w")``, ``np.save(path, ...)`` or
    ``Path.write_text`` can be killed mid-write and leave a truncated
    file for a reader (a server, a resumed sweep, a CI step) to trip
    over.  The checkpoint writers stage to a unique name next to the
    target and ``os.replace`` it into place; no other module opens a
    file for writing.
    """

    id = "atomic-write"
    summary = "file write outside repro.utils.checkpoint"

    WRITER = "repro/utils/checkpoint.py"
    WRITE_MODES = set("wax")
    SAVE_CALLS = {"np.save", "np.savez", "np.savez_compressed", "numpy.save", "numpy.savez"}
    PATH_WRITES = {"write_text", "write_bytes"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.module_path == self.WRITER:
            return
        for node in ast.walk(context.tree):
            kind = self._write_call(node)
            if kind is not None:
                yield self.finding(
                    context,
                    node,
                    f"{kind} writes a file directly; write through repro.utils.checkpoint "
                    "(write_json, write_file, save_bundle, save_state_dict)",
                )

    def _write_call(self, node: ast.AST) -> Optional[str]:
        if not isinstance(node, ast.Call):
            return None
        chain = _attribute_chain(node.func)
        if chain == "open":
            mode = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = node.args[1].value
            for keyword in node.keywords:
                if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                    mode = keyword.value.value
            if isinstance(mode, str) and self.WRITE_MODES & set(mode):
                return f"open(..., {mode!r})"
            return None
        if chain in self.SAVE_CALLS:
            return chain
        if isinstance(node.func, ast.Attribute) and node.func.attr in self.PATH_WRITES:
            return f".{node.func.attr}()"
        return None


# ----------------------------------------------------------------------
# general hygiene
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """No mutable default arguments.

    A ``def f(cache={})`` default is shared across every call — state
    leaks between grid points, requests, and tests.  Use ``None`` and
    materialise inside the function.
    """

    id = "mutable-default"
    summary = "mutable default argument"

    MUTABLE_CALLS = {"list", "dict", "set", "OrderedDict", "defaultdict", "deque"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        context,
                        default,
                        f"mutable default argument in {node.name}(); default to None "
                        "and build the container inside the function",
                    )

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            chain = _attribute_chain(node.func)
            return chain is not None and chain.split(".")[-1] in self.MUTABLE_CALLS
        return False


class BenchWallclockRule(Rule):
    """No ``time.time()`` in benchmark or serving timing paths.

    Wall-clock time jumps under NTP slew; every latency and throughput
    number in ``repro.bench``/``repro.serve`` must come from the
    monotonic clocks (``time.perf_counter`` / ``time.monotonic``) or a
    baseline-gated benchmark can regress or pass on clock noise.
    """

    id = "bench-wallclock"
    summary = "time.time() in a timing-sensitive package"

    SCOPES = ("repro/bench/", "repro/serve/")

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.module_path.startswith(self.SCOPES):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call) and _attribute_chain(node.func) == "time.time":
                yield self.finding(
                    context,
                    node,
                    "time.time() is not monotonic; use time.perf_counter() "
                    "(or time.monotonic()) for anything measured or scheduled",
                )


class EvalNoGradRule(Rule):
    """Eval-path forwards must run under ``no_grad``.

    In functions named ``predict*``/``evaluate*``, calling the model
    parameter outside a ``with no_grad():`` block records a full
    autograd tape nobody will ever backward through — memory scales
    with dataset size and the forward slows down for nothing.
    """

    id = "eval-no-grad"
    summary = "model forward outside no_grad in an eval helper"

    NAME_PREFIXES = ("predict", "evaluate")
    MODEL_PARAMS = {"model", "inference_model"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith(self.NAME_PREFIXES):
                continue
            params = {
                arg.arg
                for arg in list(node.args.args) + list(node.args.kwonlyargs)
                if arg.arg in self.MODEL_PARAMS
            }
            # Locals bound to a model-ish value (``inference_model = maybe_fuse(...)``)
            # count too when they reuse a recognised name.
            if not params:
                continue
            yield from self._scan(context, node.body, params, False, node.name)

    def _scan(
        self,
        context: FileContext,
        statements: Iterable[ast.AST],
        params: Set[str],
        under_no_grad: bool,
        function_name: str,
    ) -> Iterator[Finding]:
        """Recurse block structure so no_grad scoping is tracked exactly."""
        for statement in statements:
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                guarded = under_no_grad or any(
                    self._is_no_grad(item.context_expr) for item in statement.items
                )
                for item in statement.items:
                    yield from self._scan_expr(
                        context, item.context_expr, params, under_no_grad, function_name
                    )
                yield from self._scan(context, statement.body, params, guarded, function_name)
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            elif isinstance(statement, (ast.For, ast.AsyncFor, ast.While, ast.If)):
                header = statement.iter if isinstance(statement, (ast.For, ast.AsyncFor)) else statement.test
                yield from self._scan_expr(context, header, params, under_no_grad, function_name)
                yield from self._scan(context, statement.body, params, under_no_grad, function_name)
                yield from self._scan(context, statement.orelse, params, under_no_grad, function_name)
            elif isinstance(statement, ast.Try):
                yield from self._scan(context, statement.body, params, under_no_grad, function_name)
                for handler in statement.handlers:
                    yield from self._scan(context, handler.body, params, under_no_grad, function_name)
                yield from self._scan(context, statement.orelse, params, under_no_grad, function_name)
                yield from self._scan(context, statement.finalbody, params, under_no_grad, function_name)
            else:
                yield from self._scan_expr(context, statement, params, under_no_grad, function_name)

    def _scan_expr(
        self,
        context: FileContext,
        node: ast.AST,
        params: Set[str],
        under_no_grad: bool,
        function_name: str,
    ) -> Iterator[Finding]:
        if under_no_grad:
            return
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in params
            ):
                yield self.finding(
                    context,
                    sub,
                    f"{function_name}() calls {sub.func.id}(...) outside a "
                    "no_grad() block; evaluation forwards must not record the tape",
                )

    @staticmethod
    def _is_no_grad(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            expr = expr.func
        chain = _attribute_chain(expr)
        return chain is not None and chain.split(".")[-1] == "no_grad"


class DenseMaskMultiplyRule(Rule):
    """Pruning masks are applied through ``PruningMask.apply``, nowhere else.

    A stray ``weights * mask`` (or ``np.multiply(weights, mask)``)
    outside :mod:`repro.pruning.mask` re-densifies sparsity the
    sparse-execution layer works to exploit: it bypasses the all-ones
    fast path, skips the CSR-cache invalidation hook, and re-touches
    every zero the compaction pass would have deleted.  The
    ``repro/tensor/`` engine is out of scope — its ``mask`` locals are
    elementwise-op internals (dropout keeps, pooling argmax indicators),
    not pruning masks.
    """

    id = "dense-mask-multiply"
    summary = "dense pruning-mask multiply outside repro/pruning/mask.py"

    ALLOWED_FILES = ("repro/pruning/mask.py",)
    EXCLUDED_SCOPES = ("repro/tensor/",)
    MULTIPLY_CALLS = {"np.multiply", "numpy.multiply"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.module_path in self.ALLOWED_FILES:
            return
        if context.module_path.startswith(self.EXCLUDED_SCOPES):
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                operand = self._mask_operand(node.left) or self._mask_operand(node.right)
                if operand:
                    yield self.finding(
                        context,
                        node,
                        f"dense multiply against {operand!r}; apply pruning masks "
                        "through PruningMask.apply (all-ones skip + sparse-cache "
                        "invalidation live there)",
                    )
            elif isinstance(node, ast.Call) and _attribute_chain(node.func) in self.MULTIPLY_CALLS:
                for arg in node.args:
                    operand = self._mask_operand(arg)
                    if operand:
                        yield self.finding(
                            context,
                            node,
                            f"np.multiply against {operand!r}; apply pruning masks "
                            "through PruningMask.apply",
                        )
                        break

    @staticmethod
    def _mask_operand(node: ast.AST) -> Optional[str]:
        """Terminal identifier of an operand that names a mask, else None."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            return None
        return name if "mask" in name.lower() else None


class AdhocMetricsRule(Rule):
    """Instrumented modules go through the metrics registry, not ad hoc.

    The modules that :mod:`repro.obs` documents as instrumented (the
    serving stack, the fleet supervisor, the sweep runner and stores)
    must not grow side-channel telemetry: a hand-rolled counter dict
    (``self._stats["crashes"] += 1``) or stats struct
    (``self._stats.crashes += 1``) is invisible to ``/metrics`` and
    un-mergeable across shards, and a raw ``time.time()`` latency
    sample bypasses the histogram buckets the operations story reads
    percentiles from.  Declare an instrument in the module's registry
    block instead; ``stats()`` readers derive from instruments.
    """

    id = "adhoc-metrics"
    summary = "hand-rolled counter or wall-clock sample in an instrumented module"

    #: Files whose telemetry is registry-backed — the path twins of
    #: :data:`repro.obs.docgen.INSTRUMENTED_MODULES`.
    SCOPES = (
        "repro/serve/batching.py",
        "repro/serve/engine.py",
        "repro/serve/store.py",
        "repro/serve/http.py",
        "repro/serve/fleet/supervisor.py",
        "repro/serve/fleet/worker.py",
        "repro/core/parallel.py",
        "repro/core/cache.py",
        "repro/core/runstore.py",
    )

    #: ``self.<attr>`` containers that smell like a counter table.
    COUNTER_ATTRS = {"stats", "_stats", "counters", "_counters", "metrics_dict"}

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.module_path not in self.SCOPES:
            return
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call) and _attribute_chain(node.func) == "time.time":
                yield self.finding(
                    context,
                    node,
                    "time.time() in an instrumented module; record latency "
                    "through a registry histogram (or time.perf_counter for "
                    "control flow)",
                )
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Subscript):
                attribute = _self_attribute_root(node.target)
                if attribute in self.COUNTER_ATTRS:
                    yield self.finding(
                        context,
                        node,
                        f"hand-rolled counter self.{attribute}[...] in an "
                        "instrumented module; declare a registry counter so "
                        "/metrics and merge_snapshots see it",
                    )
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                attribute = _self_attribute_root(node.target.value)
                if attribute in self.COUNTER_ATTRS:
                    yield self.finding(
                        context,
                        node,
                        f"hand-rolled stats field self.{attribute}.{node.target.attr} "
                        "in an instrumented module; record into a registry "
                        "instrument and read stats() back from it",
                    )


#: The shipped rule set, in reporting order.
ALL_RULES: Tuple[Rule, ...] = (
    DtypeLiteralRule(),
    LockDisciplineRule(),
    AtomicWriteRule(),
    MutableDefaultRule(),
    BenchWallclockRule(),
    EvalNoGradRule(),
    DenseMaskMultiplyRule(),
    AdhocMetricsRule(),
)


def rule_ids() -> List[str]:
    """Stable ids of every shipped rule (what suppressions may name)."""
    return [rule.id for rule in ALL_RULES]

"""Concurrency-safety analysis for the Python codebase itself.

The third static-analysis surface beside the Cypher linter and the graph
validator: an ``ast``-based pass over the serving stack that checks the
lock contracts declared through :mod:`repro.concurrency` (class-level
``GUARDED_BY`` maps and ``@guarded_by`` decorators) and the ``_locked``
naming convention, and builds the static acquires-while-holding graph to
find potential deadlocks.  Run it with ``repro check-concurrency``; CI
keeps the repo at zero findings.

Codes (documented in ``documentation/linting.md``):

``RACE001``  mutation of a guarded attribute outside its lock's
             exclusive region (or assignment to a ``frozen`` attribute
             outside ``__init__``).
``RACE002``  read of a fully guarded attribute without the lock held
             (shared or exclusive).  ``write:``-guarded attributes are
             deliberately lock-free to read.
``RACE003``  call of a ``_locked``-suffixed or ``@guarded_by`` method on
             a path that does not hold the required lock exclusively —
             the ``_locked`` contract says the *caller* locks.
``RACE004``  check-then-act: a conditional tests guarded state without
             the lock and then mutates the same state in its body; the
             state can change between the check and the act.
``RACE005``  mutable module-level container in a server/obs module —
             shared across every request thread with no lock to name.
``RACE006``  malformed annotation: unparsable guard spec, a guard
             naming a lock attribute the class never creates, or a bad
             ``@guarded_by`` argument.
``RACE007``  cycle in the static lock-order graph: two locks acquired
             in opposite orders on different code paths can deadlock.

The analysis is interprocedural through the annotation system: a method
body is checked under the locks its own annotations promise, and every
*callsite* of an annotated method is checked for the promised locks
(RACE003), so a ``_locked`` method reachable from an unlocked public
entry point is flagged at the call edge.  Lock-order summaries propagate
through resolvable calls to a fixpoint, so a cycle spanning several
methods (or classes) is still found.

Lock acquisitions are recognized in the forms the codebase uses::

    with self._lock: ...                  # mutex / RLock / Condition
    with self._rwlock.read(): ...         # shared
    with self._rwlock.write(): ...        # exclusive
    with self.read_lock(): ...            # provider method
    with store.write_lock(): ...          # provider on a typed attribute
    with self._mutation(): ...            # @contextmanager wrapping yield

Receivers other than ``self`` are resolved through ``self.X = Class()``
attribute typing, falling back to a unique method name across every
analyzed class.  Known limitations, by design: aliasing through locals
(``d = self._d; d[k] = v``) is invisible, and a spec can always be
silenced with ``# concurrency: ignore[RACE001]`` on the offending line.

Reentrancy: the store's RWLock and ``threading.RLock`` may be
re-acquired by their holder, so self-edges on those locks are not
deadlocks; a plain ``threading.Lock`` self-edge is reported (RACE007).
``threading.Condition`` attributes are excluded from the order graph
entirely — the RWLock is *implemented* on one.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.concurrency.guards import GuardSpec, parse_guard_spec
from repro.cypher.ast import Span
from repro.lint.diagnostics import Diagnostic, diagnostic

#: Constructor name -> lock kind, for recognizing lock attributes.
LOCK_CONSTRUCTORS = {
    "Lock": "mutex",
    "RLock": "rlock",
    "Condition": "cond",
    "RWLock": "rwlock",
    "DebugRWLock": "rwlock",
    "new_rwlock": "rwlock",
    "new_lock": "mutex",
    "TrackedLock": "mutex",
}

#: Container-mutating method names: calling one of these on a guarded
#: attribute is a mutation of that attribute.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "setdefault", "update",
})

#: Module-level container constructors flagged by RACE005.
MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter",
})

#: Builtin container types recorded as attribute types so that method
#: calls on them (``self._data.get(...)``) are never resolved to a
#: same-named method of an analyzed class via the unique-name fallback.
BUILTIN_CONTAINERS = frozenset({
    "dict", "frozenset", "list", "set", "tuple",
    "Counter", "OrderedDict", "defaultdict", "deque",
})

#: Method names the builtin containers define: excluded from the
#: unique-name fallback, because ``entry.get(...)`` on an untyped
#: receiver is almost always a dict — not the one analyzed class that
#: happens to define a method of the same name.
CONTAINER_METHOD_NAMES = MUTATOR_METHODS | frozenset({
    "copy", "count", "get", "index", "items", "keys", "values",
})

#: Packages whose modules must not hold module-level mutable state
#: (every request thread shares them); matched on the file path.
SHARED_STATE_PACKAGES = ("server", "obs", "columnar")

_IGNORE_RE = re.compile(r"#\s*concurrency:\s*ignore(?:\[([A-Z0-9,\s]+)\])?")


# ---------------------------------------------------------------------------
# Per-file model
# ---------------------------------------------------------------------------


@dataclass
class MethodInfo:
    """One function of an analyzed class."""

    node: ast.FunctionDef
    #: Locks promised held by ``@guarded_by`` (attribute names).
    required: tuple[str, ...] = ()
    #: ``(lock_attr, mode)`` when the method is a lock provider —
    #: returns ``self.<lock>.read()/.write()``, the lock itself, or is a
    #: ``@contextmanager`` whose ``yield`` sits inside such a ``with``.
    provides: tuple[str, str] | None = None


@dataclass
class ClassInfo:
    """Locking-relevant facts about one class."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    #: attribute -> parsed guard spec, from the GUARDED_BY literal.
    guards: dict[str, GuardSpec] = field(default_factory=dict)
    #: lock attribute -> kind ("mutex" | "rlock" | "cond" | "rwlock").
    locks: dict[str, str] = field(default_factory=dict)
    #: attribute -> class name, from ``self.X = ClassName(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)
    methods: dict[str, MethodInfo] = field(default_factory=dict)

    def canon(self, lock_attr: str) -> str:
        return f"{self.name}.{lock_attr}"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    tree: ast.Module
    line_starts: list[int]
    #: line number -> set of suppressed codes (empty set = all codes).
    ignores: dict[int, frozenset[str]]
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)


@dataclass(frozen=True)
class _Acquire:
    """One resolved lock acquisition."""

    attr: str | None  # lock attribute when the receiver is self
    canon: str  # "Class.attr" canonical name
    kind: str
    mode: str  # "shared" | "exclusive"


# ---------------------------------------------------------------------------
# Parsing helpers
# ---------------------------------------------------------------------------


def _line_starts(source: str) -> list[int]:
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _scan_ignores(source: str) -> dict[int, frozenset[str]]:
    ignores: dict[int, frozenset[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None:
            ignores[lineno] = frozenset()
        else:
            ignores[lineno] = frozenset(
                code.strip() for code in codes.split(",") if code.strip()
            )
    return ignores


def _span(module: ModuleInfo, node: ast.AST) -> Span:
    line = getattr(node, "lineno", 1)
    column = getattr(node, "col_offset", 0) + 1
    offset = module.line_starts[min(line - 1, len(module.line_starts) - 1)]
    return Span(offset + column - 1, line, column)


def _call_name(func: ast.expr) -> str | None:
    """The trailing identifier of a call target (``a.b.c() -> "c"``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _value_type_name(value: ast.expr) -> str | None:
    """The type an ``__init__`` assignment gives an attribute, if clear.

    Class constructors (capitalized calls) resolve method calls on the
    attribute to the right analyzed class; builtin container types —
    literals, comprehensions, and their constructors — are recorded so
    calls on them are *not* mis-resolved by the unique-name fallback
    (``self._data.get(...)`` is never ``SomeClass.get``).
    """
    if isinstance(value, ast.Call):
        name = _call_name(value.func)
        if name is not None and (name[:1].isupper() or name in BUILTIN_CONTAINERS):
            return name
        return None
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    return None


def _lock_kind_of_value(value: ast.expr) -> str | None:
    """Lock kind when ``value`` constructs a lock, else None."""
    if isinstance(value, ast.Call):
        name = _call_name(value.func)
        if name in LOCK_CONSTRUCTORS:
            return LOCK_CONSTRUCTORS[name]
    return None


def _is_self(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


def _self_attr(expr: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``, else None."""
    if isinstance(expr, ast.Attribute) and _is_self(expr.value):
        return expr.attr
    return None


def _mutation_root(target: ast.expr) -> tuple[str | None, list[ast.AST]]:
    """Resolve a store/delete target to the self attribute it mutates.

    ``self.X``, ``self.X[k]``, ``self.X[k][j]``, ``self.X.attr`` all
    mutate ``X``.  Returns ``(attr, consumed_nodes)``; attr is None for
    targets not rooted at ``self``.
    """
    consumed: list[ast.AST] = []
    node = target
    while True:
        consumed.append(node)
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Attribute):
            if _is_self(node.value):
                return node.attr, consumed
            node = node.value
        else:
            return None, consumed


def _contextmanager_provider(
    func: ast.FunctionDef, cls: "ClassInfo"
) -> tuple[str, str] | None:
    """``(lock, mode)`` for a ``@contextmanager`` whose yield is locked."""
    decorated = any(
        _call_name(dec) == "contextmanager" or
        (isinstance(dec, ast.Name) and dec.id == "contextmanager")
        for dec in func.decorator_list
    )
    if not decorated:
        return None

    found: list[tuple[str, str]] = []

    def walk(node: ast.AST, acquires: list[tuple[str, str]]) -> None:
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if acquires:
                found.append(acquires[-1])
            return
        if isinstance(node, ast.With):
            inner = list(acquires)
            for item in node.items:
                resolved = _resolve_self_acquire(item.context_expr, cls)
                if resolved is not None:
                    inner.append(resolved)
            for child in node.body:
                walk(child, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        for child in ast.iter_child_nodes(node):
            walk(child, acquires)

    for statement in func.body:
        walk(statement, [])
    return found[0] if found else None


def _resolve_self_acquire(
    expr: ast.expr, cls: "ClassInfo"
) -> tuple[str, str] | None:
    """``(lock_attr, mode)`` for ``self.<lock>`` / ``self.<lock>.read()``
    / ``self.<lock>.write()`` acquisition expressions."""
    attr = _self_attr(expr)
    if attr is not None and attr in cls.locks:
        return attr, "exclusive"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        receiver = expr.func.value
        attr = _self_attr(receiver)
        if attr is not None and attr in cls.locks:
            if expr.func.attr == "read":
                return attr, "shared"
            if expr.func.attr in ("write", "acquire"):
                return attr, "exclusive"
    return None


def _decorator_required(
    func: ast.FunctionDef,
) -> tuple[tuple[str, ...], list[ast.expr]]:
    """Lock names from an ``@guarded_by(...)`` decorator, plus any
    non-constant arguments (reported as RACE006 by the caller)."""
    required: list[str] = []
    bad: list[ast.expr] = []
    for dec in func.decorator_list:
        if isinstance(dec, ast.Call) and _call_name(dec.func) == "guarded_by":
            for arg in dec.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    required.append(arg.value)
                else:
                    bad.append(arg)
    return tuple(required), bad


# ---------------------------------------------------------------------------
# Module collection
# ---------------------------------------------------------------------------


def _collect_class(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(name=node.name, module=module, node=node)

    for statement in node.body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            if (
                len(targets) == 1
                and isinstance(targets[0], ast.Name)
                and targets[0].id == "GUARDED_BY"
            ):
                _parse_guard_map(module, cls, statement.value)
        elif isinstance(statement, ast.FunctionDef):
            cls.methods[statement.name] = MethodInfo(node=statement)

    init = cls.methods.get("__init__")
    init_bodies = [init.node] if init else []
    # Lock attributes and attribute types come from __init__ (and, for
    # lock attributes, any method — a lazily created lock still counts).
    for info in cls.methods.values():
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                target, value = sub.target, sub.value
            else:
                continue
            attr = _self_attr(target)
            if attr is None:
                continue
            kind = _lock_kind_of_value(value)
            if kind is not None:
                cls.locks[attr] = kind
            elif info.node in init_bodies:
                type_name = _value_type_name(value)
                if type_name is not None:
                    cls.attr_types[attr] = type_name

    for name, info in cls.methods.items():
        required, bad_args = _decorator_required(info.node)
        info.required = required
        for arg in bad_args:
            _emit(module, "RACE006",
                  "guarded_by() arguments must be string literals",
                  _span(module, arg))
        for lock in required:
            if cls.locks and lock not in cls.locks:
                _emit(module, "RACE006",
                      f"@guarded_by({lock!r}) on {cls.name}.{name}: class "
                      f"creates no lock attribute {lock!r}",
                      _span(module, info.node))
        info.provides = _method_provider(info.node, cls)

    for attr, spec in cls.guards.items():
        if spec.lock is not None and cls.locks and spec.lock not in cls.locks:
            _emit(module, "RACE006",
                  f"GUARDED_BY[{attr!r}] names lock {spec.lock!r} but "
                  f"{cls.name} creates no such lock attribute",
                  _span(module, cls.node))
    return cls


def _method_provider(func: ast.FunctionDef, cls: ClassInfo) -> tuple[str, str] | None:
    """Detect lock-provider methods (``return self._rwlock.read()`` or a
    locked ``@contextmanager``)."""
    provider = _contextmanager_provider(func, cls)
    if provider is not None:
        return provider
    for statement in func.body:
        if isinstance(statement, ast.Return) and statement.value is not None:
            return _resolve_self_acquire(statement.value, cls)
    return None


def _parse_guard_map(module: ModuleInfo, cls: ClassInfo, value: ast.expr) -> None:
    if not isinstance(value, ast.Dict):
        _emit(module, "RACE006",
              f"{cls.name}.GUARDED_BY must be a dict literal",
              _span(module, value))
        return
    for key, val in zip(value.keys, value.values, strict=True):
        if (
            not isinstance(key, ast.Constant) or not isinstance(key.value, str)
            or not isinstance(val, ast.Constant) or not isinstance(val.value, str)
        ):
            _emit(module, "RACE006",
                  f"{cls.name}.GUARDED_BY entries must map attribute name "
                  "strings to guard spec strings",
                  _span(module, val if val is not None else value))
            continue
        try:
            cls.guards[key.value] = parse_guard_spec(val.value)
        except ValueError as exc:
            _emit(module, "RACE006", str(exc), _span(module, val))


def _emit(module: ModuleInfo, code: str, message: str, span: Span) -> None:
    suppressed = module.ignores.get(span.line)
    if suppressed is not None and (not suppressed or code in suppressed):
        return
    module.diagnostics.append(diagnostic(code, message, span))


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------


class ConcurrencyAnalyzer:
    """Whole-program pass: guarded-by checking plus lock-order analysis."""

    def __init__(self) -> None:
        self.modules: list[ModuleInfo] = []
        #: class name -> ClassInfo (last definition wins; names are
        #: unique across the analyzed packages).
        self.classes: dict[str, ClassInfo] = {}
        #: method name -> class names defining it (unique-name fallback).
        self.method_owners: dict[str, list[str]] = {}
        #: canonical lock name -> kind.
        self.lock_kinds: dict[str, str] = {}
        #: direct order edges: (held, acquired) -> first witnessing span.
        self.order_edges: dict[tuple[str, str], tuple[ModuleInfo, Span]] = {}
        #: calls made while holding locks, for summary propagation.
        self.calls_under_hold: list[
            tuple[tuple[str, ...], str, str, ModuleInfo, Span]
        ] = []
        #: (class, method) -> canonical locks it may acquire (fixpoint).
        self.summaries: dict[tuple[str, str], set[str]] = {}
        #: call graph edges for the fixpoint: caller -> callees.
        self.call_graph: dict[tuple[str, str], set[tuple[str, str]]] = {}

    # -- loading ---------------------------------------------------------

    def add_source(self, source: str, path: str) -> ModuleInfo | None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            module = ModuleInfo(path, ast.Module(body=[], type_ignores=[]),
                                _line_starts(source), {})
            module.diagnostics.append(diagnostic(
                "RACE006", f"cannot parse: {exc.msg}",
                Span(0, exc.lineno or 1, (exc.offset or 0) + 1)))
            self.modules.append(module)
            return module
        module = ModuleInfo(
            path, tree, _line_starts(source), _scan_ignores(source)
        )
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                cls = _collect_class(module, node)
                module.classes[cls.name] = cls
                self.classes[cls.name] = cls
                for name in cls.methods:
                    self.method_owners.setdefault(name, []).append(cls.name)
                for attr, kind in cls.locks.items():
                    self.lock_kinds[cls.canon(attr)] = kind
        self.modules.append(module)
        return module

    def add_file(self, path: Path) -> None:
        self.add_source(path.read_text(encoding="utf-8"), str(path))

    # -- resolution ------------------------------------------------------

    def _unique_owner(self, method: str) -> ClassInfo | None:
        if method in CONTAINER_METHOD_NAMES:
            return None
        owners = self.method_owners.get(method, [])
        if len(owners) == 1:
            return self.classes[owners[0]]
        return None

    def _resolve_target(
        self, call: ast.Call, cls: ClassInfo | None
    ) -> tuple[ClassInfo, str] | None:
        """The (class, method) a call lands on, when statically known."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return None
        name = func.attr
        receiver = func.value
        if cls is not None:
            if _is_self(receiver):
                if name in cls.methods:
                    return cls, name
                return None
            attr = _self_attr(receiver)
            if attr is not None:
                type_name = cls.attr_types.get(attr)
                if type_name is not None:
                    if type_name in self.classes:
                        target = self.classes[type_name]
                        if name in target.methods:
                            return target, name
                    # The type is known but outside the analyzed
                    # universe (a builtin container, say): the
                    # unique-name fallback would mis-resolve.
                    return None
        owner = self._unique_owner(name)
        if owner is not None:
            return owner, name
        return None

    def _resolve_acquires(
        self, expr: ast.expr, cls: ClassInfo | None
    ) -> list[_Acquire]:
        """Lock acquisitions performed by a ``with`` context expression."""
        if cls is not None:
            self_acquire = _resolve_self_acquire(expr, cls)
            if self_acquire is not None:
                attr, mode = self_acquire
                return [_Acquire(attr, cls.canon(attr), cls.locks[attr], mode)]
        if isinstance(expr, ast.Call):
            target = self._resolve_target(expr, cls)
            if target is not None:
                owner, name = target
                provides = owner.methods[name].provides
                if provides is not None:
                    lock, mode = provides
                    kind = owner.locks.get(lock, "mutex")
                    attr = lock if owner is cls and _is_self_call(expr) else None
                    return [_Acquire(attr, owner.canon(lock), kind, mode)]
        return []

    # -- analysis --------------------------------------------------------

    def run(self) -> None:
        """Check every collected module, then close the order graph."""
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    cls = module.classes[node.name]
                    for info in cls.methods.values():
                        self._check_method(module, cls, info)
                elif isinstance(node, ast.FunctionDef):
                    self._walk(module, None, None, node.body, {}, (), set())
            self._check_module_state(module)
        self._propagate_summaries()
        self._report_cycles()

    # .. guarded-by + order-edge walk .....................................

    def _check_method(
        self, module: ModuleInfo, cls: ClassInfo, info: MethodInfo
    ) -> None:
        func = info.node
        held: dict[str, str] = {}
        canon_held: tuple[str, ...] = ()
        if func.name == "__init__":
            # Construction is single-threaded: every guard is satisfied.
            for attr in cls.locks:
                held[attr] = "exclusive"
        else:
            assumed: Iterable[str] = info.required
            if not assumed and func.name.endswith("_locked"):
                # The naming convention: the caller holds the class's
                # lock(s); callsites are checked instead (RACE003).
                assumed = tuple(cls.locks)
            for lock in assumed:
                if lock in cls.locks:
                    held[lock] = "exclusive"
                    canon_held += (cls.canon(lock),)
        key = (cls.name, func.name)
        self.summaries.setdefault(key, set())
        self.call_graph.setdefault(key, set())
        self._walk(module, cls, key, func.body, held, canon_held, set())

    def _walk(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        key: tuple[str, str] | None,
        body: Sequence[ast.stmt],
        held: dict[str, str],
        canon_held: tuple[str, ...],
        consumed: set[int],
    ) -> None:
        for statement in body:
            self._visit(module, cls, key, statement, held, canon_held, consumed)

    def _visit(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        key: tuple[str, str] | None,
        node: ast.AST,
        held: dict[str, str],
        canon_held: tuple[str, ...],
        consumed: set[int],
    ) -> None:
        if isinstance(node, ast.With):
            acquires: list[_Acquire] = []
            for item in node.items:
                self._visit(module, cls, key, item.context_expr,
                            held, canon_held, consumed)
                acquires.extend(self._resolve_acquires(item.context_expr, cls))
            inner_held = dict(held)
            inner_canon = canon_held
            for acq in acquires:
                self._record_acquire(module, key, acq, inner_canon, node)
                if acq.attr is not None:
                    mode = inner_held.get(acq.attr)
                    if mode != "exclusive":  # don't downgrade a reentrant hold
                        inner_held[acq.attr] = acq.mode
                if acq.canon not in inner_canon:
                    inner_canon += (acq.canon,)
            self._walk(module, cls, key, node.body,
                       inner_held, inner_canon, consumed)
            return

        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested function: usually an inline helper (sort key); check
            # it under the current holds rather than skipping it.
            self._walk(module, cls, key, node.body, held, canon_held, consumed)
            return

        if isinstance(node, ast.If) and cls is not None:
            self._check_then_act(module, cls, node, held, consumed)

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for target in targets:
                self._check_mutation_target(
                    module, cls, key, target, held, consumed)

        if isinstance(node, ast.Call):
            self._check_call(module, cls, key, node, held, canon_held, consumed)

        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in consumed
            and cls is not None
        ):
            attr = _self_attr(node)
            if attr is not None:
                self._check_read(module, cls, attr, node, held)

        for child in ast.iter_child_nodes(node):
            self._visit(module, cls, key, child, held, canon_held, consumed)

    # .. individual checks ................................................

    def _check_mutation_target(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        key: tuple[str, str] | None,
        target: ast.expr,
        held: dict[str, str],
        consumed: set[int],
    ) -> None:
        if cls is None:
            return
        attr, nodes = _mutation_root(target)
        if attr is None:
            return
        for sub in nodes:
            consumed.add(id(sub))
            for inner in ast.walk(sub):
                if _self_attr(inner) == attr:
                    consumed.add(id(inner))
        self._report_mutation(
            module, cls, attr, target, held,
            in_init=key is not None and key[1] == "__init__",
            rebind=_self_attr(target) is not None,
        )

    def _report_mutation(
        self,
        module: ModuleInfo,
        cls: ClassInfo,
        attr: str,
        node: ast.AST,
        held: dict[str, str],
        *,
        in_init: bool = False,
        rebind: bool = False,
    ) -> None:
        spec = cls.guards.get(attr)
        if spec is None:
            return
        if spec.mode == "atomic":
            return
        if spec.mode == "frozen":
            # Frozen guards the *binding* only: a method call or item
            # write goes to the referenced object, whose thread-safety
            # is its own contract.
            if rebind and not in_init:
                _emit(module, "RACE001",
                      f"{cls.name}.{attr} is frozen (assign only in __init__)",
                      _span(module, node))
            return
        if in_init:
            # Construction is single-threaded: guards are vacuous.
            return
        if held.get(spec.lock or "") != "exclusive":
            _emit(module, "RACE001",
                  f"mutation of {cls.name}.{attr} without holding "
                  f"{spec.lock!r} exclusively",
                  _span(module, node))

    def _check_read(
        self,
        module: ModuleInfo,
        cls: ClassInfo,
        attr: str,
        node: ast.AST,
        held: dict[str, str],
    ) -> None:
        spec = cls.guards.get(attr)
        if spec is None or spec.mode != "full":
            return
        if spec.lock not in held:
            _emit(module, "RACE002",
                  f"read of {cls.name}.{attr} without holding {spec.lock!r} "
                  "(guard mode 'full': reads need the lock too)",
                  _span(module, node))

    def _check_call(
        self,
        module: ModuleInfo,
        cls: ClassInfo | None,
        key: tuple[str, str] | None,
        call: ast.Call,
        held: dict[str, str],
        canon_held: tuple[str, ...],
        consumed: set[int],
    ) -> None:
        # Mutating container method on a guarded attribute?
        if cls is not None and isinstance(call.func, ast.Attribute):
            if call.func.attr in MUTATOR_METHODS:
                attr, nodes = _mutation_root(call.func.value)
                if attr is not None and attr in cls.guards:
                    for sub in nodes:
                        consumed.add(id(sub))
                        for inner in ast.walk(sub):
                            if _self_attr(inner) == attr:
                                consumed.add(id(inner))
                    self._report_mutation(
                        module, cls, attr, call, held,
                        in_init=key is not None and key[1] == "__init__",
                    )

        target = self._resolve_target(call, cls)
        if target is None:
            return
        owner, name = target
        info = owner.methods[name]

        # RACE003: the _locked / @guarded_by contract at the callsite.
        required = info.required
        if not required and name.endswith("_locked"):
            required = tuple(owner.locks) if len(owner.locks) == 1 else ()
        for lock in required:
            canon = owner.canon(lock)
            satisfied = (
                (owner is cls and held.get(lock) == "exclusive")
                or canon in canon_held
            )
            if not satisfied:
                enclosing = ""
                if key is not None:
                    enclosing = f" (in {key[0]}.{key[1]})"
                _emit(module, "RACE003",
                      f"call of {owner.name}.{name} requires {lock!r} held "
                      f"exclusively by the caller{enclosing}",
                      _span(module, call))

        # Lock-order bookkeeping: remember the call for the fixpoint.
        if key is not None:
            self.call_graph[key].add((owner.name, name))
            if canon_held:
                self.calls_under_hold.append(
                    (canon_held, owner.name, name, module, _span(module, call))
                )
        # A provider called outside `with` (rare) still acquires.
        if info.provides is not None and canon_held and key is not None:
            pass  # the with-handler records real acquisitions

    def _check_then_act(
        self,
        module: ModuleInfo,
        cls: ClassInfo,
        node: ast.If,
        held: dict[str, str],
        consumed: set[int],
    ) -> None:
        """RACE004: test reads guarded state unlocked, body mutates it."""
        for attr, spec in cls.guards.items():
            if spec.mode in ("frozen", "atomic") or spec.lock is None:
                continue
            if held.get(spec.lock) == "exclusive":
                continue
            test_reads = [
                sub for sub in ast.walk(node.test) if _self_attr(sub) == attr
            ]
            if not test_reads:
                continue
            mutation = self._find_mutation(node.body, attr)
            if mutation is None:
                continue
            if self._double_checked(node.body, cls, attr, spec.lock):
                # Double-checked locking: the unguarded outer read is the
                # deliberate fast path — exempt it from RACE002 too.
                for read in test_reads:
                    consumed.add(id(read))
                continue
            _emit(module, "RACE004",
                  f"check-then-act on {cls.name}.{attr}: tested without "
                  f"{spec.lock!r} held, then mutated — the state can change "
                  "between the check and the act",
                  _span(module, node))
            for read in test_reads:
                consumed.add(id(read))

    def _find_mutation(self, body: Sequence[ast.stmt], attr: str) -> ast.AST | None:
        for statement in body:
            for sub in ast.walk(statement):
                if isinstance(sub, (ast.Assign, ast.AugAssign, ast.Delete)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target] if isinstance(sub, ast.AugAssign)
                        else sub.targets
                    )
                    for target in targets:
                        root, _ = _mutation_root(target)
                        if root == attr:
                            return sub
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in MUTATOR_METHODS
                ):
                    root, _ = _mutation_root(sub.func.value)
                    if root == attr:
                        return sub
        return None

    def _double_checked(
        self, body: Sequence[ast.stmt], cls: ClassInfo, attr: str, lock: str
    ) -> bool:
        """True when the body re-checks the attribute under the lock
        (double-checked locking — the mutation is safe)."""
        for statement in body:
            for sub in ast.walk(statement):
                if not isinstance(sub, ast.With):
                    continue
                acquires = [
                    _resolve_self_acquire(item.context_expr, cls)
                    for item in sub.items
                ]
                if not any(a is not None and a[0] == lock for a in acquires):
                    continue
                for inner in sub.body:
                    for candidate in ast.walk(inner):
                        if isinstance(candidate, ast.If) and any(
                            _self_attr(read) == attr
                            for read in ast.walk(candidate.test)
                        ):
                            return True
        return False

    # .. module-level state (RACE005) .....................................

    def _check_module_state(self, module: ModuleInfo) -> None:
        parts = Path(module.path).parts
        if not any(pkg in parts for pkg in SHARED_STATE_PACKAGES):
            return
        for node in module.tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None:
                continue
            if isinstance(value, (ast.List, ast.Dict, ast.Set,
                                  ast.ListComp, ast.DictComp, ast.SetComp)):
                mutable = True
            elif isinstance(value, ast.Call):
                name = _call_name(value.func)
                mutable = name in MUTABLE_CONSTRUCTORS
            else:
                mutable = False
            if not mutable:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue
            _emit(module, "RACE005",
                  f"module-level mutable container "
                  f"{', '.join(names) or '<target>'} in a shared module — "
                  "every request thread sees it; guard it in a class or "
                  "make it immutable",
                  _span(module, node))

    # .. lock-order closure (RACE007) .....................................

    def _record_acquire(
        self,
        module: ModuleInfo,
        key: tuple[str, str] | None,
        acq: _Acquire,
        canon_held: tuple[str, ...],
        node: ast.AST,
    ) -> None:
        if acq.kind == "cond":
            return  # the RWLock is implemented on a Condition
        if key is not None:
            self.summaries.setdefault(key, set()).add(acq.canon)
        for held in canon_held:
            if self.lock_kinds.get(held) == "cond":
                continue
            if held == acq.canon:
                if acq.kind in ("rwlock", "rlock"):
                    continue  # reentrant: a self-edge is not a deadlock
            self.order_edges.setdefault(
                (held, acq.canon), (module, _span(module, node))
            )

    def _propagate_summaries(self) -> None:
        """Fixpoint: a method may acquire whatever its callees acquire."""
        changed = True
        while changed:
            changed = False
            for caller, callees in self.call_graph.items():
                acc = self.summaries.setdefault(caller, set())
                before = len(acc)
                for callee in callees:
                    acc |= self.summaries.get(callee, set())
                if len(acc) != before:
                    changed = True
        for canon_held, owner, name, module, span in self.calls_under_hold:
            acquired = self.summaries.get((owner, name), set())
            for acq_canon in acquired:
                kind = self.lock_kinds.get(acq_canon, "mutex")
                if kind == "cond":
                    continue
                for held in canon_held:
                    if self.lock_kinds.get(held) == "cond":
                        continue
                    if held == acq_canon and kind in ("rwlock", "rlock"):
                        continue
                    self.order_edges.setdefault(
                        (held, acq_canon), (module, span)
                    )

    def _report_cycles(self) -> None:
        graph: dict[str, set[str]] = {}
        for held, acquired in self.order_edges:
            graph.setdefault(held, set()).add(acquired)

        reported: set[frozenset[str]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            signature = frozenset(cycle)
            if signature in reported:
                continue
            reported.add(signature)
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            module, span = self.order_edges.get(
                first_edge, (self.modules[0], Span(0, 1, 1))
            )
            chain = " -> ".join([*cycle, cycle[0]])
            _emit(module, "RACE007",
                  f"lock-order cycle: {chain} — these locks are acquired "
                  "in opposite orders on different code paths and can "
                  "deadlock",
                  span)

    @staticmethod
    def _find_cycle(graph: dict[str, set[str]], start: str) -> list[str] | None:
        """A cycle through ``start`` (DFS), as an ordered node list."""
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        seen: set[str] = set()
        while stack:
            node, path = stack.pop()
            for succ in sorted(graph.get(node, ())):
                if succ == start:
                    return path
                if succ in seen:
                    continue
                seen.add(succ)
                stack.append((succ, path + [succ]))
        return None

    # -- results ---------------------------------------------------------

    def diagnostics(self) -> list[tuple[str, Diagnostic]]:
        """Every finding as ``(path, diagnostic)``, in file/line order."""
        results: list[tuple[str, Diagnostic]] = []
        for module in self.modules:
            ordered = sorted(
                module.diagnostics,
                key=lambda d: (d.span.line, d.span.column) if d.span else (0, 0),
            )
            results.extend((module.path, diag) for diag in ordered)
        return results


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: Packages (relative to the ``repro`` package root) analyzed by default.
DEFAULT_PACKAGES = (
    "graphdb",
    "server",
    "obs",
    "archive",
    "concurrency",
    "columnar",
    "delta",
)

#: Individual extra modules analyzed by default.
DEFAULT_EXTRA_FILES = ("cypher/lru.py",)


def default_targets() -> list[Path]:
    """The source files ``repro check-concurrency`` analyzes by default."""
    import repro

    root = Path(repro.__file__).parent
    files: list[Path] = []
    for package in DEFAULT_PACKAGES:
        files.extend(sorted((root / package).glob("*.py")))
    for extra in DEFAULT_EXTRA_FILES:
        files.append(root / extra)
    return [path for path in files if path.is_file()]


def analyze_paths(paths: Sequence[Path]) -> list[tuple[str, Diagnostic]]:
    """Analyze ``paths`` together (one order graph) and return findings."""
    analyzer = ConcurrencyAnalyzer()
    for path in paths:
        analyzer.add_file(path)
    analyzer.run()
    return analyzer.diagnostics()


def analyze_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Analyze one source string (the unit-test entry point)."""
    analyzer = ConcurrencyAnalyzer()
    analyzer.add_source(source, path)
    analyzer.run()
    return [diag for _, diag in analyzer.diagnostics()]


def _is_self_call(expr: ast.Call) -> bool:
    return (
        isinstance(expr.func, ast.Attribute) and _is_self(expr.func.value)
    )

"""Concurrency-safety analysis: shared state and lock discipline.

PR 6 proved which operations are safe to *batch* and PR 8 which are
safe to *stream*; this module proves which are safe to run from more
than one thread at once -- the question blocking both concurrent
multi-session serving and cross-thread plan materialisation.  It
reuses the same stdlib-only AST substrate (the effects alias helpers,
the vectorize source loader, the streamable carrier fixed-point) and
classifies every registered operation, stream body and core-module
global into one of four verdicts:

``session-confined``
    touches only parameters, locals and per-session carried state --
    nothing reachable from another thread;
``lock-guarded``
    mutates shared state, but every mutation site lexically holds the
    one ``threading.Lock`` that guards that state;
``read-only-shared``
    reads mutable module state but never writes it -- safe to run
    concurrently as long as every *writer* of that state is refused,
    which the same gate guarantees;
``racy``
    unguarded or inconsistently guarded shared mutation, carried
    state escaping its session, or a thread-hostile callee.

Alongside the verdict the pass infers lock discipline (which lock
guards which attribute, flagging fields mutated both under and
outside their lock), performs escape analysis on carried stream state
(does a session's state dict leak through module globals, mutable
default arguments or shared carrier objects), and builds a static
lock-acquisition graph with cycle detection for deadlock potential --
emitting the stable diagnostics L049-L056.  The verdicts audit code
before it is shared across threads; no runtime mode is gated on them
(the parallel engine's wave hold-back reads the effect analyzer's
``parallel_safe`` verdict instead).

Soundness boundary: like the vectorize and streamable passes, the
analysis is intraprocedural over each operation body plus its module
context -- callees are not chased transitively.  That is safe for the
gate because the operation purity audit (``repro audit --strict``)
already refuses stateful/IO operations, so a body that is clean here
and pure there cannot reach shared state through a helper without the
helper itself being registered (and therefore audited).

Import-time registration is exempt by convention: writes at module
top level and inside top-level functions whose names start with
``register`` run once under the import lock, before any worker thread
exists, so ``OPERATIONS[name] = op`` inside ``register_operation``
does not make the registry racy.  UPPER_CASE bindings stay read-only
registries by convention (the effects pass enforces the convention;
this pass still flags any *write* to them from an operation body).

The module is importable standalone by file path (``tools/astlint.py``
loads it next to the other analyzers for the AL011 check), so the top
level imports nothing from the repo besides those analyzers, with
fallbacks to the lint loader's module names.
"""

from __future__ import annotations

import ast
import inspect
import threading
from dataclasses import dataclass, field
from pathlib import Path

try:  # normal package import
    from repro.analysis.effects import (
        _MUTATING_METHODS,
        _base_name,
        _collect_locals,
        _dotted,
        collect_module_context,
        is_constant_style,
    )
except ImportError:  # loaded standalone by file path (tools/astlint.py)
    from _astlint_effects import (  # type: ignore
        _MUTATING_METHODS,
        _base_name,
        _collect_locals,
        _dotted,
        collect_module_context,
        is_constant_style,
    )

try:
    from repro.analysis.vectorize import OPAQUE, RowKind, _fn_findings, _function_node
except ImportError:
    from _astlint_vectorize import (  # type: ignore
        OPAQUE,
        RowKind,
        _fn_findings,
        _function_node,
    )

try:
    from repro.analysis.streamable import _carrier_names, _state_arg_name
except ImportError:
    from _astlint_streamable import _carrier_names, _state_arg_name  # type: ignore

__all__ = [
    "SESSION_CONFINED",
    "LOCK_GUARDED",
    "READ_ONLY_SHARED",
    "RACY",
    "CONCURRENT_SAFE_VERDICTS",
    "AccessSite",
    "module_locks",
    "class_locks",
    "walk_held",
    "shared_access_sites",
    "classify_shared",
    "lock_order_edges",
    "lock_cycles",
    "bare_lock_ops",
    "thread_hostile_calls",
    "state_escape_audit",
    "unguarded_module_state",
    "ConcurrencyReport",
    "operation_concurrency_report",
    "module_concurrency_report",
    "audit_concurrency",
    "pass_concurrency",
    "CORE_MODULES",
]


SESSION_CONFINED = "session-confined"
LOCK_GUARDED = "lock-guarded"
READ_ONLY_SHARED = "read-only-shared"
RACY = "racy"

#: verdicts the concurrent-serving gate admits.  ``read-only-shared``
#: is safe *because* the same gate refuses every racy writer: with all
#: writers refused, concurrent readers observe a frozen value.
CONCURRENT_SAFE_VERDICTS = frozenset(
    {SESSION_CONFINED, LOCK_GUARDED, READ_ONLY_SHARED}
)

#: constructors that produce a lock-like object worth tracking.
_LOCK_FACTORIES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: callees with process-global side effects that are hostile to any
#: concurrent caller (they mutate interpreter- or OS-level state that
#: cannot be confined to a session).  Dotted suffix match.
_THREAD_HOSTILE_CALLS = frozenset(
    {
        "os.chdir",
        "os.putenv",
        "os.unsetenv",
        "os.umask",
        "signal.signal",
        "signal.setitimer",
        "locale.setlocale",
        "sys.settrace",
        "sys.setprofile",
        "sys.setrecursionlimit",
        "sys.setswitchinterval",
        "gc.enable",
        "gc.disable",
        "gc.freeze",
        "tracemalloc.start",
        "tracemalloc.stop",
        "warnings.filterwarnings",
        "warnings.simplefilter",
        "warnings.resetwarnings",
        "np.seterr",
        "numpy.seterr",
        "random.seed",
        "np.random.seed",
        "numpy.random.seed",
    }
)


# ---------------------------------------------------------------------------
# Lock discovery
# ---------------------------------------------------------------------------


def _is_lock_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    if dotted is None:
        return False
    return dotted.rsplit(".", 1)[-1] in _LOCK_FACTORIES


def _lock_like(name: str | None) -> bool:
    """Heuristic: names ending in ``lock`` are treated as locks."""
    return bool(name) and name.lower().rstrip("_").endswith("lock")


def module_locks(tree: ast.AST) -> dict:
    """Module-global names bound to threading lock objects, name -> line."""
    locks: dict = {}
    for stmt in getattr(tree, "body", []):
        targets: list = []
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if value is not None and _is_lock_factory(value):
            for target in targets:
                locks[target.id] = stmt.lineno
    return locks


def class_locks(cls: ast.ClassDef) -> dict:
    """``self.<attr>`` names bound to lock objects anywhere in ``cls``."""
    locks: dict = {}
    for sub in ast.walk(cls):
        if isinstance(sub, ast.Assign):
            targets, value = sub.targets, sub.value
        elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
            targets, value = [sub.target], sub.value
        else:
            continue
        if not _is_lock_factory(value):
            continue
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                locks[target.attr] = sub.lineno
    return locks


def _make_resolver(module_lock_names, class_lock_attrs=frozenset(), qualifier=""):
    """A ``with``-item resolver mapping context expressions to lock keys.

    ``qualifier`` prefixes ``self.X`` keys (class name) so lock-graph
    nodes from different classes stay distinct.
    """

    def resolve(expr: ast.AST) -> str | None:
        dotted = _dotted(expr)
        if dotted is None:
            return None
        if dotted in module_lock_names:
            return dotted
        if dotted.startswith("self."):
            attr = dotted.split(".", 1)[1]
            if attr in class_lock_attrs or _lock_like(attr):
                return f"{qualifier}.{attr}" if qualifier else dotted
        if _lock_like(dotted):
            return dotted
        return None

    return resolve


def walk_held(node: ast.AST, resolve, held: tuple = ()):
    """Yield ``(node, held_locks)`` for every node under ``node``.

    ``held_locks`` is the tuple of lock keys lexically held at that
    node -- extended inside the body of ``with <lock>:`` blocks.
    Nested function bodies reset to no-locks-held: a closure runs
    later, outside the enclosing ``with``.
    """
    yield node, held
    if isinstance(node, (ast.With, ast.AsyncWith)):
        acquired: list = []
        for item in node.items:
            # the context expression itself evaluates before acquisition
            for child in ast.walk(item.context_expr):
                if child is not item.context_expr:
                    yield child, held
            key = resolve(item.context_expr)
            if key is not None and key not in held and key not in acquired:
                acquired.append(key)
        inner = held + tuple(acquired)
        for stmt in node.body:
            yield from walk_held(stmt, resolve, inner)
        return
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        for child in ast.iter_child_nodes(node):
            yield from walk_held(child, resolve, ())
        return
    for child in ast.iter_child_nodes(node):
        yield from walk_held(child, resolve, held)


# ---------------------------------------------------------------------------
# Shared-state access sites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccessSite:
    """One read or write of a shared binding inside a function body."""

    name: str  # the shared binding: a module global or "self.<attr>"
    line: int
    kind: str  # "read" | "write"
    guards: tuple = ()  # lock keys lexically held at the site
    detail: str = ""


def _self_attr(node: ast.AST) -> str | None:
    """The first-level attribute of a ``self.x...`` chain, else None."""
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    chain: list = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
        while isinstance(node, ast.Subscript):
            node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


def shared_access_sites(
    fn_node: ast.AST,
    shared: frozenset,
    resolve,
    *,
    self_attrs: frozenset = frozenset(),
    imports: frozenset = frozenset(),
) -> list:
    """Every read/write of ``shared`` globals (and ``self`` attrs) in a body.

    ``shared`` is the set of module-global names to track.  When
    ``self_attrs`` is non-empty, direct ``self.<attr>`` accesses on
    those attributes are tracked too (keyed ``self.<attr>``); alias
    tracking is deliberately *not* applied to ``self`` here -- method
    extraction like ``stack = self._stack()`` commonly returns
    thread-local or fresh objects, and flagging through it would
    drown the signal (the operation level applies carrier aliasing
    where it is sound: on the explicit carried-state argument).
    """
    locals_, declared_global = _collect_locals(fn_node)
    sites: list = []

    def global_base(expr: ast.AST) -> str | None:
        base = _base_name(expr)
        if base in shared and (base not in locals_ or base in declared_global):
            return base
        return None

    def record_write_target(target: ast.AST, held, detail: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in shared and target.id in declared_global:
                sites.append(
                    AccessSite(target.id, target.lineno, "write", held, detail)
                )
            return
        if isinstance(target, (ast.Attribute, ast.Subscript, ast.Starred)):
            base = global_base(target)
            if base is not None:
                sites.append(
                    AccessSite(base, target.lineno, "write", held, detail)
                )
            attr = _self_attr(target)
            if attr in self_attrs:
                sites.append(
                    AccessSite(f"self.{attr}", target.lineno, "write", held, detail)
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                record_write_target(elt, held, detail)

    for sub, held in walk_held(fn_node, resolve):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                record_write_target(target, held, "assignment")
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(sub, ast.AnnAssign) and sub.value is None:
                continue
            detail = (
                "augmented assignment"
                if isinstance(sub, ast.AugAssign)
                else "assignment"
            )
            record_write_target(sub.target, held, detail)
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                record_write_target(target, held, "del")
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in _MUTATING_METHODS:
                recv = sub.func.value
                base = global_base(recv)
                # ``np.sort(x)`` is a module *function*, not a mutation
                # of the ``np`` binding -- imported modules are exempt.
                if base in imports and isinstance(recv, ast.Name):
                    base = None
                if base is not None:
                    sites.append(
                        AccessSite(
                            base,
                            sub.lineno,
                            "write",
                            held,
                            f".{sub.func.attr}() call",
                        )
                    )
                attr = _self_attr(recv)
                if attr in self_attrs:
                    sites.append(
                        AccessSite(
                            f"self.{attr}",
                            sub.lineno,
                            "write",
                            held,
                            f".{sub.func.attr}() call",
                        )
                    )
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in shared and sub.id not in locals_:
                sites.append(AccessSite(sub.id, sub.lineno, "read", held))
    return sites


def classify_shared(sites) -> dict:
    """Per shared name: verdict + evidence from its access sites.

    Returns ``{name: {"verdict", "guard", "writes", "reads",
    "unguarded", "mixed"}}`` where verdict is one of the four module
    verdicts, ``guard`` the common lock when lock-guarded, and
    ``unguarded``/``mixed`` carry offending (line, detail) evidence.
    """
    by_name: dict = {}
    for site in sites:
        by_name.setdefault(site.name, []).append(site)
    out: dict = {}
    for name in sorted(by_name):
        entries = by_name[name]
        writes = [s for s in entries if s.kind == "write"]
        reads = [s for s in entries if s.kind == "read"]
        info = {
            "verdict": READ_ONLY_SHARED,
            "guard": None,
            "writes": tuple((s.line, s.detail) for s in writes),
            "reads": len(reads),
            "unguarded": (),
            "mixed": (),
        }
        if writes:
            guarded = [s for s in writes if s.guards]
            unguarded = [s for s in writes if not s.guards]
            if not unguarded:
                common = set(guarded[0].guards)
                for s in guarded[1:]:
                    common &= set(s.guards)
                if common:
                    info["verdict"] = LOCK_GUARDED
                    info["guard"] = sorted(common)[0]
                else:
                    info["verdict"] = RACY
                    info["mixed"] = tuple(
                        (s.line, ";".join(s.guards)) for s in guarded
                    )
            elif guarded:
                info["verdict"] = RACY
                info["mixed"] = tuple((s.line, s.detail) for s in unguarded)
            else:
                info["verdict"] = RACY
                info["unguarded"] = tuple((s.line, s.detail) for s in unguarded)
        out[name] = info
    return out


# ---------------------------------------------------------------------------
# Lock-acquisition graph
# ---------------------------------------------------------------------------


def lock_order_edges(node: ast.AST, resolve) -> dict:
    """Static lock-order edges: ``{held: {acquired: line}}``."""
    edges: dict = {}
    for sub, held in walk_held(node, resolve):
        if not isinstance(sub, (ast.With, ast.AsyncWith)) or not held:
            continue
        for item in sub.items:
            key = resolve(item.context_expr)
            if key is None or key in held:
                continue
            for holder in held:
                edges.setdefault(holder, {}).setdefault(key, sub.lineno)
    return edges


def lock_cycles(edges: dict) -> list:
    """Cycles in the lock-order graph (deadlock potential), deterministic."""
    cycles: list = []
    color: dict = {}
    stack: list = []

    def dfs(n: str) -> None:
        color[n] = 1
        stack.append(n)
        for m in sorted(edges.get(n, ())):
            state = color.get(m, 0)
            if state == 1:
                cycle = tuple(stack[stack.index(m):] + [m])
                if cycle not in cycles:
                    cycles.append(cycle)
            elif state == 0:
                dfs(m)
        stack.pop()
        color[n] = 2

    for n in sorted(edges):
        if color.get(n, 0) == 0:
            dfs(n)
    return cycles


def bare_lock_ops(tree: ast.AST, known: frozenset = frozenset()) -> list:
    """``lock.acquire()`` / ``lock.release()`` outside a ``with`` block.

    Returns ``[(line, receiver, method)]`` for receivers that are
    known locks or lock-like names -- manual pairing leaks the lock on
    any exception path between the two calls.
    """
    sites: list = []
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.Call) or not isinstance(sub.func, ast.Attribute):
            continue
        if sub.func.attr not in ("acquire", "release"):
            continue
        dotted = _dotted(sub.func.value)
        if dotted is None:
            continue
        last = dotted.rsplit(".", 1)[-1]
        if dotted in known or _lock_like(dotted) or _lock_like(last):
            sites.append((sub.lineno, dotted, sub.func.attr))
    return sites


# ---------------------------------------------------------------------------
# Thread-hostile callees and state escape
# ---------------------------------------------------------------------------


def thread_hostile_calls(node: ast.AST) -> list:
    """Calls with process-global side effects: ``[(line, dotted)]``."""
    sites: list = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            dotted = _dotted(sub.func)
            if dotted is not None and dotted in _THREAD_HOSTILE_CALLS:
                sites.append((sub.lineno, dotted))
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if isinstance(target, ast.Subscript):
                    dotted = _dotted(target.value)
                    if dotted == "os.environ":
                        sites.append((sub.lineno, "os.environ[...]"))
    return sites


def _mutable_default_params(fn_node: ast.AST) -> dict:
    """Parameters with mutable literal defaults, name -> line."""
    args = getattr(fn_node, "args", None)
    if args is None:
        return {}
    out: dict = {}
    positional = [*args.posonlyargs, *args.args]
    for arg, default in zip(positional[len(positional) - len(args.defaults):],
                            args.defaults):
        if isinstance(default, (ast.List, ast.Dict, ast.Set, ast.Call)):
            out[arg.arg] = default.lineno
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and isinstance(
            default, (ast.List, ast.Dict, ast.Set, ast.Call)
        ):
            out[arg.arg] = default.lineno
    return out


def state_escape_audit(
    fn_node: ast.AST, state_name: str, module_bindings: frozenset
) -> list:
    """Channels through which carried session state leaks cross-session.

    ``state_name`` is the carried-state parameter of a stream body;
    carriers are its transitive aliases.  An escape is any store of a
    carrier into a module global, a mutable default argument, or a
    container reachable through either -- after which two sessions
    would share (and race on) what must stay per-session.  Returns
    ``[(line, detail)]``.
    """
    carriers = _carrier_names(fn_node, {state_name})
    locals_, declared_global = _collect_locals(fn_node)
    shared_defaults = _mutable_default_params(fn_node)
    escapes: list = []

    def is_module_global(name: str | None) -> bool:
        if name is None:
            return False
        if name in declared_global:
            return True
        return name in module_bindings and name not in locals_

    for sub in ast.walk(fn_node):
        if isinstance(sub, ast.Assign):
            value_base = _base_name(sub.value)
            if value_base not in carriers:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        escapes.append(
                            (sub.lineno,
                             f"carried state assigned to global {target.id!r}")
                        )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = _base_name(target)
                    if is_module_global(base):
                        escapes.append(
                            (sub.lineno,
                             f"carried state stored into module global {base!r}")
                        )
                    elif base in shared_defaults:
                        escapes.append(
                            (sub.lineno,
                             f"carried state stored into mutable default {base!r}")
                        )
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr not in _MUTATING_METHODS:
                continue
            recv = _base_name(sub.func.value)
            shared_recv = is_module_global(recv) or recv in shared_defaults
            if not shared_recv:
                continue
            passed = [a for a in sub.args if _base_name(a) in carriers]
            passed += [
                kw.value for kw in sub.keywords
                if _base_name(kw.value) in carriers
            ]
            if passed:
                escapes.append(
                    (sub.lineno,
                     f"carried state published via {recv}.{sub.func.attr}(...)")
                )
            elif recv in shared_defaults:
                escapes.append(
                    (sub.lineno,
                     f"mutable default {recv!r} is cross-session shared state")
                )
    return sorted(set(escapes))


# ---------------------------------------------------------------------------
# Module-level audit helpers (shared with astlint AL011)
# ---------------------------------------------------------------------------


def unguarded_module_state(tree: ast.AST) -> list:
    """Mutable module globals never written under a lock: AL011 helper.

    Returns ``[(line, name, detail)]`` for module-level mutable
    bindings (non-constant-style) plus any function-body write to a
    module global outside every lock.  Import-time registration
    functions (``register*``) are exempt.
    """
    ctx = collect_module_context(tree)
    locks = module_locks(tree)
    problems: list = []
    for name, line in sorted(ctx.mutable_globals.items(), key=lambda kv: kv[1]):
        if not is_constant_style(name):
            problems.append(
                (line, name, "module-level mutable state without constant style")
            )
    resolve = _make_resolver(frozenset(locks))
    shared = frozenset(ctx.bindings)
    for stmt in getattr(tree, "body", []):
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name.startswith("register"):
            continue
        for site in shared_access_sites(stmt, shared, resolve, imports=ctx.imports):
            if site.kind == "write" and not site.guards:
                problems.append(
                    (site.line, site.name,
                     f"module global mutated without a lock ({site.detail})")
                )
    return sorted(set(problems))


def _shared_class_names(tree: ast.AST) -> dict:
    """Classes whose instances are shared across threads, name -> why.

    A class is *shared* when a module global is bound to (or annotated
    with) an instance of it, or when it declares an instance lock in
    its own body -- declaring a lock opts the class into the
    discipline that every non-``__init__`` mutation holds it.
    """
    class_defs = {
        stmt.name: stmt
        for stmt in getattr(tree, "body", [])
        if isinstance(stmt, ast.ClassDef)
    }
    shared: dict = {}
    for stmt in getattr(tree, "body", []):
        value = None
        annotation = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            value = stmt.value
            annotation = stmt.annotation
        else:
            continue
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None:
                last = dotted.rsplit(".", 1)[-1]
                if last in class_defs:
                    shared.setdefault(last, "bound to a module global")
        if annotation is not None:
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Name) and sub.id in class_defs:
                    shared.setdefault(sub.id, "annotated on a module global")
    for name, cls in class_defs.items():
        if class_locks(cls):
            shared.setdefault(name, "declares an instance lock")
    return {name: (class_defs[name], why) for name, why in shared.items()}


def _class_tracked_attrs(cls: ast.ClassDef) -> frozenset:
    """Instance attributes of a shared class worth race-tracking.

    Everything assigned in ``__init__`` except locks and
    ``threading.local()`` slots (thread-local by construction), plus
    any attribute first introduced outside ``__init__``.
    """
    locks = frozenset(class_locks(cls))
    confined: set = set(locks)
    tracked: set = set()
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    targets, value = sub.targets, sub.value
                elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                    targets, value = [sub.target], sub.value
                else:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if isinstance(value, ast.Call):
                        dotted = _dotted(value.func) or ""
                        if dotted.rsplit(".", 1)[-1] == "local":
                            confined.add(attr)
                            continue
                    if _is_lock_factory(value):
                        confined.add(attr)
                        continue
                    tracked.add(attr)
    return frozenset(tracked - confined)


def _class_access_sites(cls: ast.ClassDef, module_lock_names) -> list:
    """Access sites on tracked instance attrs across non-init methods."""
    attrs = _class_tracked_attrs(cls)
    if not attrs:
        return []
    resolve = _make_resolver(
        module_lock_names, frozenset(class_locks(cls)), qualifier=cls.name
    )
    sites: list = []
    for stmt in cls.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if stmt.name == "__init__":
            continue
        for site in shared_access_sites(
            stmt, frozenset(), resolve, self_attrs=attrs
        ):
            if site.kind != "write":
                continue
            attr = site.name.split(".", 1)[1]
            sites.append(
                AccessSite(
                    f"{cls.name}.{attr}",
                    site.line,
                    site.kind,
                    site.guards,
                    site.detail,
                )
            )
    return sites


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConcurrencyReport:
    """Everything the concurrency pass proved about one operation."""

    operation: str
    verdict: str
    declared: str | None = None
    shared_reads: tuple = ()  # global names read
    shared_writes: tuple = ()  # (name, line, guard-or-"")
    guards: tuple = ()  # lock keys guarding writes
    escapes: tuple = ()  # (line, detail)
    hostile: tuple = ()  # (line, callee)
    cycles: tuple = ()  # lock-order cycles
    bare_locks: tuple = ()  # (line, receiver, method)
    diagnostics: tuple = ()
    refusal: str | None = None

    @property
    def concurrent_safe(self) -> bool:
        """Whether the gate admits this operation (refusal is None)."""
        return self.refusal is None

    def codes(self) -> set:
        return {d.code for d in self.diagnostics}

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "verdict": self.verdict,
            "declared": self.declared,
            "concurrent_safe": self.concurrent_safe,
            "shared_reads": list(self.shared_reads),
            "shared_writes": [list(w) for w in self.shared_writes],
            "guards": list(self.guards),
            "escapes": [list(e) for e in self.escapes],
            "hostile": [list(h) for h in self.hostile],
            "cycles": [list(c) for c in self.cycles],
            "bare_locks": [list(b) for b in self.bare_locks],
            "diagnostics": [str(d) for d in self.diagnostics],
            "refusal": self.refusal,
        }


_RACE_CACHE: dict = {}
_MODULE_TREE_CACHE: dict = {}
_RACE_LOCK = threading.Lock()


def _module_tree(fn):
    """The parsed module AST for the module defining ``fn`` (cached)."""
    try:
        path = inspect.getsourcefile(fn)
    except TypeError:
        path = None
    if path is None:
        return None
    with _RACE_LOCK:
        if path in _MODULE_TREE_CACHE:
            return _MODULE_TREE_CACHE[path]
    try:
        tree = ast.parse(Path(path).read_text())
    except (OSError, SyntaxError, ValueError):
        tree = None
    with _RACE_LOCK:
        _MODULE_TREE_CACHE[path] = tree
    return tree


def _body_audit(fn, *, state_name=None):
    """Shared-state evidence for one operation body (fn/batch/stream)."""
    node = _function_node(fn)
    if node is None:
        return None
    tree = _module_tree(fn)
    if tree is not None:
        ctx = collect_module_context(tree)
        locks = module_locks(tree)
    else:
        ctx = collect_module_context(ast.Module(body=[], type_ignores=[]))
        locks = {}
    resolve = _make_resolver(frozenset(locks))
    shared = frozenset(ctx.bindings) | frozenset(ctx.mutable_globals)
    sites = shared_access_sites(node, shared, resolve, imports=ctx.imports)
    # constant-style reads are read-only registries by convention and
    # immutable-binding reads (imports, functions) carry no race;
    # only reads of *mutable, non-constant* globals demote the verdict.
    reads = sorted(
        {
            s.name
            for s in sites
            if s.kind == "read"
            and s.name in ctx.mutable_globals
            and not is_constant_style(s.name)
        }
    )
    writes = [s for s in sites if s.kind == "write"]
    escapes: list = []
    if state_name is not None:
        escapes = state_escape_audit(node, state_name, frozenset(ctx.bindings))
    for name, line in sorted(_mutable_default_params(node).items()):
        detail = f"mutable default {name!r} is cross-session shared state"
        for site in shared_access_sites(
            node, frozenset({name}), resolve
        ):
            if site.kind == "write":
                escapes.append((site.line, detail))
                break
    edges = lock_order_edges(node, resolve)
    return {
        "reads": reads,
        "writes": writes,
        "escapes": sorted(set(escapes)),
        "hostile": thread_hostile_calls(node),
        "cycles": lock_cycles(edges),
        "bare_locks": bare_lock_ops(node, frozenset(locks)),
    }


def operation_concurrency_report(operation) -> "ConcurrencyReport":
    """Analyze (and cache) one operation's concurrency safety."""
    batch = getattr(operation, "batch", None)
    stream_fn = getattr(operation, "stream_fn", None)
    declared = getattr(operation, "concurrency", None)
    key = (operation.name, operation.fn, batch, stream_fn, declared)
    with _RACE_LOCK:
        cached = _RACE_CACHE.get(key)
    if cached is not None:
        return cached

    from repro.analysis.diagnostics import Diagnostic, Severity

    bodies = [("", operation.fn)]
    if batch is not None:
        bodies.append(("batch:", batch))
    if stream_fn is not None:
        bodies.append(("stream:", stream_fn))

    opaque = False
    reads: set = set()
    write_sites: list = []
    escapes: list = []
    hostile: list = []
    cycles: list = []
    bare: list = []
    for prefix, fn in bodies:
        findings = _fn_findings(fn, prefix=prefix)
        if any(f.kind is RowKind.SOURCE_UNAVAILABLE for f in findings):
            opaque = True
            continue
        node = _function_node(fn)
        state_name = None
        if prefix == "stream:" and node is not None:
            state_name = _state_arg_name(node)
        audit = _body_audit(fn, state_name=state_name)
        if audit is None:
            opaque = True
            continue
        reads.update(audit["reads"])
        write_sites.extend(audit["writes"])
        escapes.extend((line, prefix + detail) for line, detail in audit["escapes"])
        hostile.extend(audit["hostile"])
        cycles.extend(audit["cycles"])
        bare.extend(audit["bare_locks"])

    shared = classify_shared(write_sites)
    diagnostics: list = []
    guards: list = []
    racy = bool(escapes or hostile or cycles)
    for name, info in shared.items():
        if info["verdict"] == LOCK_GUARDED:
            guards.append(info["guard"])
        elif info["verdict"] == RACY:
            racy = True
            if info["mixed"]:
                line = info["mixed"][0][0]
                diagnostics.append(
                    Diagnostic(
                        "L050",
                        Severity.ERROR,
                        f"{name!r} mutated both under and outside its lock"
                        f" (line {line})",
                        operation=operation.name,
                        hint="move every mutation of the field inside the"
                        " same with-lock block",
                    )
                )
            else:
                line = info["unguarded"][0][0]
                diagnostics.append(
                    Diagnostic(
                        "L049",
                        Severity.ERROR,
                        f"unguarded mutation of shared state {name!r}"
                        f" (line {line}: {info['unguarded'][0][1]})",
                        operation=operation.name,
                        hint="guard the state with a threading.Lock or keep"
                        " it session-confined",
                    )
                )
    for cycle in cycles:
        diagnostics.append(
            Diagnostic(
                "L051",
                Severity.ERROR,
                "lock-acquisition cycle: " + " -> ".join(cycle),
                operation=operation.name,
                hint="acquire locks in one global order",
            )
        )
    for line, detail in sorted(set(escapes)):
        diagnostics.append(
            Diagnostic(
                "L052",
                Severity.ERROR,
                f"carried stream state escapes its session (line {line}:"
                f" {detail})",
                operation=operation.name,
                hint="keep carried state reachable only through the state"
                " argument",
            )
        )
    for line, recv, method in sorted(set(bare)):
        diagnostics.append(
            Diagnostic(
                "L053",
                Severity.WARNING,
                f"bare {recv}.{method}() (line {line})",
                operation=operation.name,
                hint="use `with lock:` so exceptions cannot leak the lock",
            )
        )
    for line, callee in sorted(set(hostile)):
        diagnostics.append(
            Diagnostic(
                "L056",
                Severity.ERROR,
                f"thread-hostile callee {callee} (line {line})",
                operation=operation.name,
                hint="process-global side effects cannot be confined to a"
                " session",
            )
        )

    if opaque and not racy:
        verdict = OPAQUE
    elif racy:
        verdict = RACY
    elif guards:
        verdict = LOCK_GUARDED
    elif reads:
        verdict = READ_ONLY_SHARED
    else:
        verdict = SESSION_CONFINED

    if declared is not None and declared != verdict:
        diagnostics.append(
            Diagnostic(
                "L054",
                Severity.ERROR,
                f"declared concurrency={declared!r} but analysis infers"
                f" {verdict!r}",
                operation=operation.name,
                hint="fix the declaration or the implementation",
            )
        )

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if verdict not in CONCURRENT_SAFE_VERDICTS:
        refusal = f"verdict:{verdict}"
    elif errors:
        refusal = f"diagnostics:{errors[0].code}"
    else:
        refusal = None

    report = ConcurrencyReport(
        operation=operation.name,
        verdict=verdict,
        declared=declared,
        shared_reads=tuple(sorted(reads)),
        shared_writes=tuple(
            (s.name, s.line, ";".join(s.guards)) for s in write_sites
        ),
        guards=tuple(sorted(set(guards))),
        escapes=tuple(sorted(set(escapes))),
        hostile=tuple(sorted(set(hostile))),
        cycles=tuple(tuple(c) for c in cycles),
        bare_locks=tuple(sorted(set(bare))),
        diagnostics=tuple(diagnostics),
        refusal=refusal,
    )
    with _RACE_LOCK:
        _RACE_CACHE[key] = report
    return report


#: core modules the ``repro races`` audit proves race-free.
CORE_MODULES = (
    "repro.core.engine",
    "repro.core.operations",
    "repro.analysis.safety",
    "repro.analysis.vectorize",
    "repro.analysis.streamable",
    "repro.analysis.concurrency",
    "repro.obs.metrics",
    "repro.obs.spans",
    "repro.obs.sinks",
    "repro.serve.daemon",
    "repro.serve.queue",
)


def module_concurrency_report(module_name: str) -> dict:
    """Classify one core module's globals and shared-class attributes.

    Returns a JSON-ready payload: per-global and per-class-attribute
    verdicts, the declared locks, the lock-order graph with any
    cycles, bare acquire/release sites, and L049/L050/L051/L053
    diagnostics scoped to the module.
    """
    import importlib

    from repro.analysis.diagnostics import Diagnostic, Severity

    module = importlib.import_module(module_name)
    path = inspect.getsourcefile(module)
    tree = ast.parse(Path(path).read_text())
    ctx = collect_module_context(tree)
    locks = module_locks(tree)
    resolve = _make_resolver(frozenset(locks))
    shared = frozenset(ctx.bindings) | frozenset(ctx.mutable_globals)

    shared_classes = _shared_class_names(tree)
    sites: list = []
    edges: dict = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name.startswith("register"):
                continue  # import-time registration (see module docstring)
            sites.extend(
                shared_access_sites(stmt, shared, resolve, imports=ctx.imports)
            )
            for held, acq in lock_order_edges(stmt, resolve).items():
                edges.setdefault(held, {}).update(acq)
        elif isinstance(stmt, ast.ClassDef):
            if stmt.name in shared_classes:
                sites.extend(_class_access_sites(stmt, frozenset(locks)))
            class_resolve = _make_resolver(
                frozenset(locks),
                frozenset(class_locks(stmt)),
                qualifier=stmt.name,
            )
            for held, acq in lock_order_edges(stmt, class_resolve).items():
                edges.setdefault(held, {}).update(acq)

    verdicts = classify_shared([s for s in sites if s.kind == "write"])
    cycles = lock_cycles(edges)
    bare = bare_lock_ops(tree, frozenset(locks))

    diagnostics: list = []
    for name, info in verdicts.items():
        if info["verdict"] != RACY:
            continue
        if info["mixed"]:
            diagnostics.append(
                Diagnostic(
                    "L050",
                    Severity.ERROR,
                    f"{module_name}: {name!r} mutated both under and outside"
                    f" its lock (line {info['mixed'][0][0]})",
                    operation=module_name,
                )
            )
        else:
            line, detail = info["unguarded"][0]
            diagnostics.append(
                Diagnostic(
                    "L049",
                    Severity.ERROR,
                    f"{module_name}: unguarded mutation of {name!r}"
                    f" (line {line}: {detail})",
                    operation=module_name,
                )
            )
    for cycle in cycles:
        diagnostics.append(
            Diagnostic(
                "L051",
                Severity.ERROR,
                f"{module_name}: lock-acquisition cycle: " + " -> ".join(cycle),
                operation=module_name,
            )
        )
    for line, recv, method in bare:
        diagnostics.append(
            Diagnostic(
                "L053",
                Severity.WARNING,
                f"{module_name}: bare {recv}.{method}() (line {line})",
                operation=module_name,
            )
        )

    worst = SESSION_CONFINED
    order = {SESSION_CONFINED: 0, READ_ONLY_SHARED: 1, LOCK_GUARDED: 2, RACY: 3}
    for info in verdicts.values():
        if order[info["verdict"]] > order[worst]:
            worst = info["verdict"]
    return {
        "module": module_name,
        "verdict": worst,
        "locks": sorted(locks),
        "state": {
            name: {
                "verdict": info["verdict"],
                "guard": info["guard"],
                "writes": [list(w) for w in info["writes"]],
            }
            for name, info in verdicts.items()
        },
        "lock_edges": {
            held: sorted(acq) for held, acq in sorted(edges.items())
        },
        "cycles": [list(c) for c in cycles],
        "bare_locks": [list(b) for b in bare],
        "diagnostics": [str(d) for d in diagnostics],
        "errors": sum(
            1 for d in diagnostics if d.severity.value == "error"
        ),
        "warnings": sum(
            1 for d in diagnostics if d.severity.value == "warning"
        ),
    }


def audit_concurrency(operations=None, modules=CORE_MODULES) -> dict:
    """Concurrency-classify the whole registry plus the core modules."""
    if operations is None:
        from repro.core.operations import OPERATIONS

        operations = OPERATIONS
    op_reports = [
        operation_concurrency_report(operations[name])
        for name in sorted(operations)
    ]
    module_reports = [module_concurrency_report(name) for name in modules]
    summary = {
        "total": len(op_reports),
        "concurrent_safe": sum(1 for r in op_reports if r.concurrent_safe),
        "declared": sum(1 for r in op_reports if r.declared is not None),
        "errors": sum(
            sum(1 for d in r.diagnostics if d.severity.value == "error")
            for r in op_reports
        )
        + sum(m["errors"] for m in module_reports),
        "warnings": sum(
            sum(1 for d in r.diagnostics if d.severity.value == "warning")
            for r in op_reports
        )
        + sum(m["warnings"] for m in module_reports),
        "module_cycles": sum(len(m["cycles"]) for m in module_reports),
        "racy_modules": sum(
            1 for m in module_reports if m["verdict"] == RACY
        ),
    }
    for verdict in (SESSION_CONFINED, LOCK_GUARDED, READ_ONLY_SHARED, RACY, OPAQUE):
        summary[verdict.replace("-", "_")] = sum(
            1 for r in op_reports if r.verdict == verdict
        )
    return {
        "operations": [r.to_dict() for r in op_reports],
        "modules": module_reports,
        "summary": summary,
    }


def pass_concurrency(graph, diagnostics) -> None:
    """Template pass: surface per-step concurrency refusals (L055).

    A template whose steps are all concurrent-safe except one is worth
    a warning -- that one step alone keeps the template from being
    shared across threads.  Purely advisory.
    """
    from repro.analysis.diagnostics import Diagnostic, Severity

    reports = []
    for node in graph.nodes:
        if node.operation is None:
            return  # earlier passes already errored
        try:
            report = operation_concurrency_report(node.operation)
        except Exception:
            return
        reports.append((node, report))
    unsafe = [(node, r) for node, r in reports if not r.concurrent_safe]
    if not unsafe or len(unsafe) == len(reports):
        return
    for node, report in unsafe:
        diagnostics.append(
            Diagnostic(
                "L055",
                Severity.WARNING,
                f"step {node.index} ({node.func}) is racy and pins this"
                " otherwise concurrent-safe template to one thread"
                f" ({report.refusal})",
                step=node.index,
                operation=node.func,
                hint="make the operation session-confined or lock-guarded"
                " so the whole template is concurrent-safe",
            )
        )

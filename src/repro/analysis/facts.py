"""The facts layer: every AST walk the operation analyzers share.

Four analyzers judge every registered operation: three decide what
the engine may do with it -- :mod:`~repro.analysis.safety` (cache),
:mod:`~repro.analysis.vectorize` (batch) and
:mod:`~repro.analysis.streamable` (stream) -- and
:mod:`~repro.analysis.concurrency` audits whether it could be shared
across threads.
They read the same function bodies, so this module recovers each body
once, walks it once per question, and hands the analyzers a frozen
:class:`BodyFacts` record:

* **effect findings** -- what a body does besides compute its return
  value (argument mutation, module/closure state, RNG, I/O);
* **row findings** -- per-row dependence (Python row loops,
  loop-carried state, cross-row and grouped callees);
* **carried-state growth and eviction** -- container growth on the
  state argument of a stream body and the paths that shrink it;
* **shared-access sites** -- reads and writes of module globals with
  the stack of locks lexically held at each site, plus the lock-order
  edges, bare acquire/release calls, thread-hostile callees and state
  escapes.  This walk is the expensive one, so it runs lazily: only
  the concurrency analyzer asks for it (``body_facts(fn, access=True)``)
  and the engine's per-step verdicts never pay for it.

Records (and the reports built from them) live in one cache behind one
lock.  The analyses are flow-insensitive, intraprocedural and
deliberately conservative; each section below documents its soundness
boundary.

The module is **stdlib-only and repo-import-free** so that
``tools/astlint.py`` can load this one file by path without importing
the ``repro`` package (or numpy).
"""

from __future__ import annotations

import ast
import builtins
import enum
import inspect
import textwrap
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "AccessFacts",
    "AccessSite",
    "BodyFacts",
    "EffectFinding",
    "EffectKind",
    "FunctionEffects",
    "ModuleContext",
    "ModuleFacts",
    "RowFinding",
    "RowKind",
    "analyze_function",
    "analyze_rows",
    "bare_lock_ops",
    "body_facts",
    "classify",
    "collect_module_context",
    "load_source",
    "memo",
    "module_facts",
    "module_locks",
    "row_domain",
    "stream_state_audit",
    "unguarded_module_state",
]

# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def base_name(node: ast.AST) -> str | None:
    """The innermost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def collect_locals(node: ast.AST) -> tuple:
    """All names bound anywhere inside ``node`` (flat scope model).

    Nested function/lambda arguments and comprehension targets count as
    locals too: the analysis does not distinguish scopes, which is
    conservative in the safe direction (a nested binding can only
    *shadow* a global, never create new global state).
    Names declared ``global``/``nonlocal`` are excluded (and returned
    separately).
    """
    local: set = set()
    declared: set = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if not isinstance(sub, ast.Lambda):
                local.add(sub.name)
            args = sub.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                local.add(arg.arg)
            if args.vararg:
                local.add(args.vararg.arg)
            if args.kwarg:
                local.add(args.kwarg.arg)
        elif isinstance(sub, ast.ClassDef):
            local.add(sub.name)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                local.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
            local.add(sub.id)
        elif isinstance(sub, ast.ExceptHandler) and sub.name:
            local.add(sub.name)
        elif isinstance(sub, (ast.Global, ast.Nonlocal)):
            declared.update(sub.names)
    return local - declared, declared


def _target_names(target: ast.AST, into: set) -> None:
    if isinstance(target, ast.Name):
        into.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _target_names(elt, into)
    elif isinstance(target, ast.Starred):
        _target_names(target.value, into)


def _positional(node: ast.AST) -> list:
    args = getattr(node, "args", None)
    if args is None:
        return []
    return [arg.arg for arg in (*args.posonlyargs, *args.args)]


def _default_roles(node: ast.AST) -> dict:
    """First positional arg -> inputs, second -> params (the op ABI)."""
    positional = _positional(node)
    roles: dict = {}
    if positional:
        roles[positional[0]] = "inputs"
    if len(positional) > 1:
        roles[positional[1]] = "params"
    return roles


def state_arg_name(node: ast.AST) -> str:
    """The carried-state argument of a stream body (third positional)."""
    positional = _positional(node)
    return positional[2] if len(positional) > 2 else "state"


def carrier_names(node: ast.AST, seeds) -> set:
    """Names (transitively) bound from the carried-state seeds.

    Flat fixed-point over assignments: ``buffer = self._buffers.get(k)``
    makes ``buffer`` a carrier when ``self`` is a seed.
    """
    names = set(seeds)
    changed = True
    while changed:
        changed = False
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            value = sub.value
            if isinstance(value, ast.Call):
                # the return of a carrier's method (get/setdefault/...)
                # aliases the carried container
                value = value.func
            if base_name(value) not in names:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id not in names:
                    names.add(target.id)
                    changed = True
    return names


#: method names that mutate their receiver in place (exact match).
#: Deliberately excludes ``partition`` (str.partition is pure and far
#: more common than ndarray.partition in this codebase).
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
        "fill",
        "put",
        "itemset",
        "setfield",
        "setflags",
        "resize",
        "byteswap",
    }
)

#: container methods that grow state: a row accumulator in a row loop,
#: carried-state growth in a stream body
_GROWTH_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault",
     "appendleft", "push"}
)

# ---------------------------------------------------------------------------
# Module context: what does the surrounding module bind at top level?
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleContext:
    """Top-level bindings of the module a function lives in.

    ``mutable_globals`` maps names bound to mutable literals (or bare
    ``list()``/``dict()``/``set()`` calls) to the line of the binding.
    Names that follow the ``UPPER_CASE`` constant convention or are
    dunders are *recorded* here but exempted by callers -- the
    convention marks them as read-only registries/config.
    """

    bindings: frozenset
    mutable_globals: dict
    imports: frozenset = frozenset()


_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "bytearray",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


def _binding_targets(stmt: ast.stmt):
    """Yield ``(name, value_or_None, line)`` for a top-level statement."""
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                yield target.id, stmt.value, stmt.lineno
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        yield elt.id, None, stmt.lineno
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id, stmt.value, stmt.lineno
    elif isinstance(stmt, ast.AugAssign) and isinstance(stmt.target, ast.Name):
        yield stmt.target.id, None, stmt.lineno
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, None, stmt.lineno
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name, None, stmt.lineno


def collect_module_context(tree: ast.Module) -> ModuleContext:
    """Scan a module's top level (and shallow ``if``/``try`` blocks)."""
    bindings: set = set()
    mutable: dict = {}
    imports: set = set()

    def scan(body):
        for stmt in body:
            for name, value, line in _binding_targets(stmt):
                bindings.add(name)
                if value is not None and _is_mutable_literal(value):
                    mutable.setdefault(name, line)
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    imports.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.If):
                scan(stmt.body)
                scan(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                scan(stmt.body)
                scan(stmt.orelse)
                for handler in stmt.handlers:
                    scan(handler.body)

    scan(tree.body)
    return ModuleContext(
        bindings=frozenset(bindings),
        mutable_globals=mutable,
        imports=frozenset(imports),
    )


def is_constant_style(name: str) -> bool:
    """UPPER_CASE or dunder names are read-only registries by convention."""
    return name == name.upper() or (name.startswith("__") and name.endswith("__"))


# ---------------------------------------------------------------------------
# Effect findings
#
# The effect walk is *flow-insensitive but alias-aware*: a single
# forward pass tracks which local names alias the function's
# ``inputs`` / ``params`` arguments (through attribute access,
# subscripting, tuple unpacking, and transparent iterators such as
# ``enumerate``/``zip``), and flags writes through those aliases.
# Results of arbitrary calls (``.copy()``, ``np.diff(...)``,
# constructors) are treated as *fresh* values -- the soundness boundary
# that keeps the common "copy, then mutate the copy" idiom pure, at the
# cost of missing mutations performed by callees.
# ---------------------------------------------------------------------------

# Purity class names (strings so they serialize directly into JSON,
# span attributes, and CLI tables).
PURE = "pure"
SEEDED = "seeded-stochastic"
STATEFUL = "stateful"
IO = "io"


class EffectKind(enum.Enum):
    """One observable effect detected in a function body."""

    MUTATES_INPUT = "mutates-input"
    MUTATES_PARAMS = "mutates-params"
    WRITES_GLOBAL = "writes-global"
    READS_MUTABLE_GLOBAL = "reads-mutable-global"
    MUTABLE_CLOSURE = "mutable-closure"
    UNSEEDED_RNG = "unseeded-rng"
    CONST_SEEDED_RNG = "const-seeded-rng"
    PARAM_SEEDED_RNG = "param-seeded-rng"
    PERFORMS_IO = "performs-io"
    SOURCE_UNAVAILABLE = "source-unavailable"


#: effect kinds that force the ``stateful`` classification
STATEFUL_KINDS = frozenset(
    {
        EffectKind.MUTATES_INPUT,
        EffectKind.MUTATES_PARAMS,
        EffectKind.WRITES_GLOBAL,
        EffectKind.READS_MUTABLE_GLOBAL,
        EffectKind.MUTABLE_CLOSURE,
        EffectKind.UNSEEDED_RNG,
        EffectKind.SOURCE_UNAVAILABLE,
    }
)

#: effect kinds that mark randomness with an explicit seed
SEEDED_KINDS = frozenset(
    {EffectKind.CONST_SEEDED_RNG, EffectKind.PARAM_SEEDED_RNG}
)


@dataclass(frozen=True)
class EffectFinding:
    """A single effect site: what happened, where, and on what."""

    kind: EffectKind
    line: int
    detail: str


def purity_of(findings) -> str:
    """The worst purity class a set of effect findings justifies."""
    kinds = {finding.kind for finding in findings}
    if kinds & STATEFUL_KINDS:
        return STATEFUL
    if EffectKind.PERFORMS_IO in kinds:
        return IO
    if kinds & SEEDED_KINDS:
        return SEEDED
    return PURE


@dataclass
class FunctionEffects:
    """All effects found in one function, plus derived classification."""

    name: str
    findings: list[EffectFinding] = field(default_factory=list)
    seed_params: tuple[str, ...] = ()

    def kinds(self) -> set[EffectKind]:
        return {finding.kind for finding in self.findings}

    @property
    def purity(self) -> str:
        return purity_of(self.findings)


_BUILTIN_NAMES = frozenset(dir(builtins))

#: calls through which the taint of the first argument flows unchanged
_TRANSPARENT_CALLS = frozenset({"enumerate", "zip", "sorted", "reversed", "iter"})

#: numeric/str converters that preserve a params-derived seed key
_SCALAR_CONVERTERS = frozenset({"int", "float", "str", "bool", "abs"})

#: method names that mutate their *first argument* in place
_ARG_MUTATING_METHODS = frozenset({"shuffle"})

#: ``np.<fn>(target, ...)`` functions that mutate their first argument
_NP_ARG_MUTATORS = frozenset(
    {"fill_diagonal", "copyto", "put", "place", "putmask", "shuffle"}
)

#: legacy module-level numpy RNG entry points (always unseeded)
_LEGACY_NP_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "binomial",
        "poisson",
        "exponential",
        "beta",
        "gamma",
        "seed",
    }
)

#: stdlib ``random`` module-level functions (shared unseeded generator)
_STDLIB_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "seed",
        "getrandbits",
    }
)

#: RNG constructors that take an explicit seed as first arg
_RNG_CONSTRUCTORS = frozenset(
    {
        "np.random.default_rng",
        "numpy.random.default_rng",
        "np.random.RandomState",
        "numpy.random.RandomState",
        "np.random.Generator",
        "numpy.random.Generator",
        "random.Random",
    }
)

_IO_MODULE_ROOTS = frozenset(
    {"shutil", "socket", "urllib", "requests", "subprocess", "http", "ftplib"}
)

#: ``os.<name>`` members that are pure (everything else under os is IO)
_OS_PURE = frozenset(
    {"path", "fspath", "sep", "linesep", "pathsep", "name", "curdir", "pardir"}
)

_NP_IO_FUNCS = frozenset(
    {"save", "savez", "savez_compressed", "savetxt", "load", "loadtxt",
     "fromfile", "genfromtxt", "memmap"}
)

_IO_METHODS = frozenset(
    {
        "write_text",
        "write_bytes",
        "read_text",
        "read_bytes",
        "unlink",
        "touch",
        "mkdir",
        "rmdir",
        "rename",
        "replace_file",
        "to_csv",
        "to_json",
        "to_pickle",
        "to_parquet",
        "savefig",
        "urlopen",
    }
)

_IO_DOTTED = frozenset(
    {"pickle.dump", "pickle.load", "json.dump", "json.load", "os.environ.get"}
)


class _EffectVisitor(ast.NodeVisitor):
    """Single forward pass over a function body.

    ``self.taint`` maps local names to ``(role, seed_key)`` where role
    is ``"inputs"`` or ``"params"``.  Assigning a name to the result of
    an opaque call *clears* its taint (fresh value), which is what makes
    copy-then-mutate pure.
    """

    def __init__(self, fn_node, module: ModuleContext | None, roles: dict):
        self.module = module
        self.roles = dict(roles)
        self.locals, self.declared = collect_locals(fn_node)
        # taint: name -> (role, params_key_or_None)
        self.taint = {name: (role, None) for name, role in roles.items()}
        self.findings: list[EffectFinding] = []
        self.seed_params: set = set()
        self._seen_global_reads: set = set()

    # -- helpers -------------------------------------------------------

    def _add(self, kind: EffectKind, node: ast.AST, detail: str) -> None:
        self.findings.append(
            EffectFinding(kind=kind, line=getattr(node, "lineno", 0), detail=detail)
        )

    def _root(self, expr: ast.AST):
        """Resolve an expression to a taint ``(role, seed_key)`` or (None, None)."""
        while True:
            if isinstance(expr, ast.Name):
                return self.taint.get(expr.id, (None, None))
            if isinstance(expr, (ast.Attribute, ast.Subscript, ast.Starred)):
                expr = expr.value
                continue
            if isinstance(expr, ast.NamedExpr):
                expr = expr.value
                continue
            if isinstance(expr, ast.IfExp):
                role, key = self._root(expr.body)
                if role:
                    return role, key
                expr = expr.orelse
                continue
            if isinstance(expr, ast.BoolOp):
                for value in expr.values:
                    role, key = self._root(value)
                    if role:
                        return role, key
                return None, None
            if isinstance(expr, ast.Call):
                func = expr.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _TRANSPARENT_CALLS
                    and func.id not in self.locals
                    and expr.args
                ):
                    expr = expr.args[0]
                    continue
                return None, None
            return None, None

    def _params_key(self, expr: ast.AST) -> str | None:
        """The params key an expression reads (``params["seed"]`` -> ``seed``)."""
        if isinstance(expr, ast.Call):
            func = expr.func
            # int(params["seed"]) / float(...) wrappers
            if (
                isinstance(func, ast.Name)
                and func.id in _SCALAR_CONVERTERS
                and func.id not in self.locals
                and expr.args
            ):
                return self._params_key(expr.args[0])
            # params.get("seed", default)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and self._root(func.value)[0] == "params"
                and expr.args
                and isinstance(expr.args[0], ast.Constant)
                and isinstance(expr.args[0].value, str)
            ):
                return expr.args[0].value
            return None
        if isinstance(expr, ast.Subscript):
            if self._root(expr.value)[0] == "params":
                sl = expr.slice
                if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                    return sl.value
            return None
        if isinstance(expr, ast.Name):
            role, key = self.taint.get(expr.id, (None, None))
            if role == "params":
                return key
        return None

    def _flag_mutation(self, role: str, node: ast.AST, detail: str) -> None:
        kind = (
            EffectKind.MUTATES_INPUT
            if role == "inputs"
            else EffectKind.MUTATES_PARAMS
        )
        self._add(kind, node, detail)

    def _flag_external_write(self, base: str, node: ast.AST, detail: str) -> None:
        """A write through a name that is neither local nor an argument."""
        if base in _BUILTIN_NAMES and (
            self.module is None or base not in self.module.bindings
        ):
            return
        if self.module is not None and base in self.module.imports:
            # attribute access on an imported module is a function call
            # (np.sort(x) returns a copy), not receiver mutation
            return
        self._add(EffectKind.WRITES_GLOBAL, node, detail)

    # -- statements ----------------------------------------------------

    def _bind(self, target: ast.AST, value: ast.AST) -> None:
        """Record aliasing introduced by ``target = value``."""
        if isinstance(target, ast.Name):
            role, key = self._root(value)
            params_key = self._params_key(value)
            if params_key is not None:
                # int(params["seed"]) yields a fresh value, but we keep
                # the key so a later default_rng(seed) resolves to it.
                self.taint[target.id] = ("params", params_key)
            elif role:
                self.taint[target.id] = (role, key)
            else:
                self.taint.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            role, _ = self._root(value)
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                if isinstance(inner, ast.Name):
                    if role:
                        self.taint[inner.id] = (role, None)
                    else:
                        self.taint.pop(inner.id, None)

    def _check_store_target(self, target: ast.AST, stmt: ast.AST) -> None:
        """Flag a subscript/attribute store through a tainted or global base."""
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            role, _ = self._root(target.value)
            base = base_name(target.value)
            what = "attribute" if isinstance(target, ast.Attribute) else "item"
            if role:
                self._flag_mutation(
                    role, stmt, f"{what} assignment through {base or role!r}"
                )
            elif base and base not in self.locals and base not in self.roles:
                self._flag_external_write(
                    base, stmt, f"{what} assignment on non-local {base!r}"
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_store_target(elt, stmt)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store_target(target, node)
        self.generic_visit(node)
        for target in node.targets:
            self._bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store_target(node.target, node)
        self.generic_visit(node)
        if node.value is not None:
            self._bind(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            role, _ = self.taint.get(target.id, (None, None))
            if role:
                self._flag_mutation(
                    role, node, f"augmented assignment to alias {target.id!r}"
                )
            elif target.id in self.declared:
                self._add(
                    EffectKind.WRITES_GLOBAL,
                    node,
                    f"augmented assignment to global {target.id!r}",
                )
        else:
            self._check_store_target(target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_store_target(target, node)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._bind(node.target, node.iter)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        assigned = sorted(set(node.names))
        self._add(
            EffectKind.WRITES_GLOBAL,
            node,
            f"declares global {', '.join(repr(n) for n in assigned)}",
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._add(
            EffectKind.WRITES_GLOBAL,
            node,
            f"declares nonlocal {', '.join(repr(n) for n in sorted(set(node.names)))}",
        )

    # -- expressions ---------------------------------------------------

    def _check_rng_call(self, node: ast.Call, dotted: str | None) -> bool:
        if dotted in _RNG_CONSTRUCTORS:
            seed_expr = None
            if node.args:
                seed_expr = node.args[0]
            elif node.keywords:
                for kw in node.keywords:
                    if kw.arg in ("seed", "x"):
                        seed_expr = kw.value
                        break
            if seed_expr is None or (
                isinstance(seed_expr, ast.Constant) and seed_expr.value is None
            ):
                self._add(
                    EffectKind.UNSEEDED_RNG, node, f"{dotted}() without a seed"
                )
                return True
            key = self._params_key(seed_expr)
            role, _ = self._root(seed_expr)
            if key is not None or role == "params":
                if key:
                    self.seed_params.add(key)
                self._add(
                    EffectKind.PARAM_SEEDED_RNG,
                    node,
                    f"{dotted}(params[{key!r}])" if key else f"{dotted}(<params>)",
                )
            else:
                self._add(
                    EffectKind.CONST_SEEDED_RNG,
                    node,
                    f"{dotted}() seeded with a constant not threaded"
                    " through params",
                )
            return True
        if dotted:
            parts = dotted.split(".")
            if (
                len(parts) == 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] in _LEGACY_NP_RANDOM
            ):
                self._add(
                    EffectKind.UNSEEDED_RNG,
                    node,
                    f"legacy global numpy RNG {dotted}()",
                )
                return True
            if (
                len(parts) == 2
                and parts[0] == "random"
                and "random" not in self.locals
                and parts[1] in _STDLIB_RANDOM
            ):
                self._add(
                    EffectKind.UNSEEDED_RNG,
                    node,
                    f"stdlib shared RNG {dotted}()",
                )
                return True
        return False

    def _check_io_call(self, node: ast.Call, dotted: str | None) -> bool:
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in ("open", "input", "print")
            and func.id not in self.locals
        ):
            if func.id == "print":
                return False  # noisy but harmless; not an effect we gate on
            self._add(EffectKind.PERFORMS_IO, node, f"calls {func.id}()")
            return True
        if not dotted:
            return False
        parts = dotted.split(".")
        if dotted in _IO_DOTTED:
            self._add(EffectKind.PERFORMS_IO, node, f"calls {dotted}()")
            return True
        if parts[0] in _IO_MODULE_ROOTS and parts[0] not in self.locals:
            self._add(EffectKind.PERFORMS_IO, node, f"calls {dotted}()")
            return True
        if parts[0] == "os" and "os" not in self.locals and len(parts) > 1:
            if parts[1] not in _OS_PURE:
                self._add(EffectKind.PERFORMS_IO, node, f"calls {dotted}()")
                return True
        if (
            parts[0] in ("np", "numpy")
            and len(parts) == 2
            and parts[1] in _NP_IO_FUNCS
        ):
            self._add(EffectKind.PERFORMS_IO, node, f"calls {dotted}()")
            return True
        if isinstance(func, ast.Attribute) and func.attr in _IO_METHODS:
            self._add(EffectKind.PERFORMS_IO, node, f"calls .{func.attr}()")
            return True
        return False

    def _check_mutating_call(self, node: ast.Call, dotted: str | None) -> None:
        func = node.func
        # np.fill_diagonal(x, ...) style: mutates first positional arg
        if dotted:
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] in ("np", "numpy")
                and parts[1] in _NP_ARG_MUTATORS
                and node.args
            ):
                role, _ = self._root(node.args[0])
                if role:
                    self._flag_mutation(role, node, f"{dotted}() mutates its argument")
                else:
                    base = base_name(node.args[0])
                    if (
                        base
                        and base not in self.locals
                        and base not in self.roles
                    ):
                        self._flag_external_write(
                            base, node, f"{dotted}() mutates non-local {base!r}"
                        )
                return
        if isinstance(func, ast.Attribute):
            # rng.shuffle(x) mutates x, not rng
            if func.attr in _ARG_MUTATING_METHODS and node.args:
                role, _ = self._root(node.args[0])
                if role:
                    self._flag_mutation(
                        role, node, f".{func.attr}() mutates its argument"
                    )
                return
            if func.attr in _MUTATING_METHODS:
                role, _ = self._root(func.value)
                base = base_name(func.value)
                if role:
                    self._flag_mutation(
                        role,
                        node,
                        f".{func.attr}() on {base or 'argument alias'!r}",
                    )
                elif base and base not in self.locals and base not in self.roles:
                    self._flag_external_write(
                        base, node, f".{func.attr}() on non-local {base!r}"
                    )
            # pandas-style method(..., inplace=True) on a tainted base
            for kw in node.keywords:
                if (
                    kw.arg == "inplace"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    role, _ = self._root(func.value)
                    if role:
                        self._flag_mutation(
                            role, node, f".{func.attr}(inplace=True)"
                        )
        # out= keyword aimed at a tainted array
        for kw in node.keywords:
            if kw.arg == "out":
                role, _ = self._root(kw.value)
                if role:
                    self._flag_mutation(
                        role, node, "out= targets an argument alias"
                    )

    def visit_Call(self, node: ast.Call) -> None:
        callee = dotted(node.func)
        if not self._check_rng_call(node, callee):
            self._check_io_call(node, callee)
        self._check_mutating_call(node, callee)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            isinstance(node.ctx, ast.Load)
            and self.module is not None
            and node.id not in self.locals
            and node.id not in self.roles
            and node.id not in self.taint
            and node.id in self.module.mutable_globals
            and not is_constant_style(node.id)
            and node.id not in self._seen_global_reads
        ):
            self._seen_global_reads.add(node.id)
            self._add(
                EffectKind.READS_MUTABLE_GLOBAL,
                node,
                f"reads mutable module global {node.id!r}",
            )


def analyze_function(
    node,
    module: ModuleContext | None = None,
    roles: dict | None = None,
) -> FunctionEffects:
    """Analyze one function/lambda AST node.

    ``roles`` maps argument names to ``"inputs"`` / ``"params"``.  When
    omitted, the registered-operation calling convention is assumed:
    first positional argument is the inputs list, second is the params
    dict.
    """
    if roles is None:
        roles = _default_roles(node)
    visitor = _EffectVisitor(node, module, roles)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        visitor.visit(stmt)
    name = getattr(node, "name", "<lambda>")
    findings = sorted(visitor.findings, key=lambda f: (f.line, f.kind.value))
    return FunctionEffects(
        name=name,
        findings=findings,
        seed_params=tuple(sorted(visitor.seed_params)),
    )


_IMMUTABLE_CLOSURE_TYPES = (
    int,
    float,
    complex,
    bool,
    str,
    bytes,
    tuple,
    frozenset,
    type(None),
    type,
)


def _closure_findings(fn) -> list:
    """Mutable objects captured by reference in ``fn.__closure__``."""
    findings = []
    cells = getattr(fn, "__closure__", None) or ()
    names = getattr(fn.__code__, "co_freevars", ()) if hasattr(fn, "__code__") else ()
    for name, cell in zip(names, cells):
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        if callable(value) or isinstance(value, _IMMUTABLE_CLOSURE_TYPES):
            continue
        findings.append(
            EffectFinding(
                kind=EffectKind.MUTABLE_CLOSURE,
                line=getattr(fn.__code__, "co_firstlineno", 0),
                detail=(
                    f"captures mutable {type(value).__name__} {name!r}"
                    " by closure"
                ),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Row findings and the per-row verdict
#
# A lightweight *input-taint* walk: a ``for`` loop is a **row loop**
# only when its iterable derives from the operation's row-structured
# inputs, and a row loop is **loop carried** when it accumulates into
# state bound outside the loop.  Callee names mark cross-row,
# order-sensitive, grouped and row-subset computations.
# ---------------------------------------------------------------------------

ELEMENTWISE = "elementwise"
ROW_PARALLEL = "row-parallel"
SEQUENTIAL = "windowed-sequential"
OPAQUE = "opaque"

#: verdicts that permit the engine's batched execution path
BATCHABLE_VERDICTS = frozenset({ELEMENTWISE, ROW_PARALLEL})

#: :class:`~repro.core.types.ValueType` values with row structure
ROW_VALUE_KINDS = frozenset(
    {"packets", "flows", "features", "labels", "predictions"}
)


class RowKind(enum.Enum):
    """What one row-dependence finding is about."""

    ROW_LOOP = "python-row-loop"
    LOOP_CARRIED = "loop-carried-dependence"
    SEQUENTIAL_CALL = "cross-row-sequential-call"
    ORDER_SENSITIVE = "row-order-sensitive-call"
    GROUPED_REDUCTION = "grouped-reduction-call"
    ROW_SELECTION = "row-subset-call"
    OBJECT_DTYPE = "object-dtype-fallback"
    WHOLE_INPUT = "whole-input-reduction"
    SOURCE_UNAVAILABLE = "source-unavailable"


@dataclass(frozen=True)
class RowFinding:
    """One row-dependence fact found in an operation body."""

    kind: RowKind
    line: int
    detail: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "line": self.line,
            "detail": self.detail,
        }


# Callees that force a cross-row (sequential) verdict when applied to
# input-derived data: incremental statistics, fits, sorts, prefix scans.
_SEQ_CALLS = frozenset(
    {
        "assemble_flows",
        "kitsune_packet_features",
        "damped_group_stats",
        "damped_interarrival_stats",
        "fit",
        "fit_transform",
        "fit_predict",
        "partial_fit",
        "sort",
        "argsort",
        "lexsort",
        "sort_by_time",
        "cumsum",
        "cumprod",
        "accumulate",
        "mean",
        "std",
        "var",
        "median",
        "average",
        "nanmean",
        "nanstd",
        "percentile",
        "quantile",
    }
)

# Callees that are order-sensitive *within* a row's segment: demote to
# sequential only when the rows themselves are the unit they run over.
_ORDER_CALLS = frozenset({"diff", "ediff1d"})

# Segmented per-group reductions: independent output rows, any order.
_GROUP_CALLS = frozenset(
    {
        "reduce",
        "reduceat",
        "segment",
        "segmented_median",
        "segmented_nunique",
        "segmented_entropy",
        "flow_membership",
        "propagate_labels",
    }
)

# Row-subset operations: each output row is one input row.
_SELECT_CALLS = frozenset({"select", "compress"})

# Python-level fallbacks numpy cannot fuse (object arrays, ufunc shims).
_OBJECT_CALLS = frozenset(
    {"vectorize", "frompyfunc", "apply_along_axis"}
)

# Callee names whose presence makes an operation row-order sensitive
# (it must declare a sort key, or emit L038/L044).
_ORDER_SENSITIVE_NAMES = frozenset(
    {
        "diff",
        "ediff1d",
        "cumsum",
        "cumprod",
        "accumulate",
        "kitsune_packet_features",
        "damped_group_stats",
        "damped_interarrival_stats",
    }
)


def _final_name(func: ast.AST) -> str | None:
    """The last component of a call target: ``np.diff`` -> ``diff``."""
    callee = dotted(func)
    if callee is not None:
        return callee.rsplit(".", 1)[-1]
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_object_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name) and node.id == "object":
        return True
    if isinstance(node, ast.Constant) and node.value in ("object", "O"):
        return True
    return dotted(node) in ("np.object_", "numpy.object_")


class _RowVisitor(ast.NodeVisitor):
    """Single forward pass tracking which names derive from the inputs.

    The taint map assigns each name a role (``"inputs"`` or
    ``"params"``); call results inherit the strongest role of their
    receiver and arguments, literal collections are always fresh.
    Flow-insensitive like the effect walk: one taint map for the whole
    function, which is conservative in the safe direction.
    """

    def __init__(self, roles: dict) -> None:
        self.taint: dict = dict(roles)
        self.findings: list = []

    # -- taint -----------------------------------------------------------

    def _combine(self, *roles):
        if "inputs" in roles:
            return "inputs"
        if "params" in roles:
            return "params"
        return None

    def _role(self, node: ast.AST):
        if isinstance(node, ast.Name):
            return self.taint.get(node.id)
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self._role(node.value)
        if isinstance(node, ast.NamedExpr):
            return self._role(node.value)
        if isinstance(node, ast.IfExp):
            return self._combine(self._role(node.body), self._role(node.orelse))
        if isinstance(node, ast.BoolOp):
            return self._combine(*(self._role(v) for v in node.values))
        if isinstance(node, ast.BinOp):
            return self._combine(self._role(node.left), self._role(node.right))
        if isinstance(node, ast.UnaryOp):
            return self._role(node.operand)
        if isinstance(node, ast.Compare):
            return self._combine(
                self._role(node.left),
                *(self._role(c) for c in node.comparators),
            )
        if isinstance(node, ast.Call):
            return self._call_role(node)
        # literal collections and comprehensions build fresh values; a
        # loop over them is a constant-arity loop, not a row loop
        return None

    def _call_role(self, node: ast.Call):
        roles = []
        if isinstance(node.func, ast.Attribute):
            roles.append(self._role(node.func.value))
        roles.extend(self._role(arg) for arg in node.args)
        roles.extend(self._role(kw.value) for kw in node.keywords)
        return self._combine(*roles)

    def _bind(self, target: ast.AST, role) -> None:
        names: set = set()
        _target_names(target, names)
        for name in names:
            if role is None:
                self.taint.pop(name, None)
            else:
                self.taint[name] = role

    # -- statements ------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        role = self._role(node.value)
        for target in node.targets:
            self._bind(target, role)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._role(node.value))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        role = self._role(node.iter)
        self._bind(node.target, role)
        if role == "inputs":
            detail = dotted(node.iter) or base_name(node.iter) or "<expr>"
            self.findings.append(
                RowFinding(RowKind.ROW_LOOP, node.lineno,
                           f"for-loop over {detail}")
            )
            self._check_carried(node)
        self.generic_visit(node)

    # -- loop-carried state ---------------------------------------------

    def _check_carried(self, loop: ast.For) -> None:
        bound: set = set()
        _target_names(loop.target, bound)
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        _target_names(target, bound)
                elif isinstance(sub, (ast.For, ast.AnnAssign)):
                    _target_names(sub.target, bound)
        for stmt in loop.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.AugAssign):
                    base = base_name(sub.target)
                    if base and base not in bound:
                        self.findings.append(
                            RowFinding(RowKind.LOOP_CARRIED, sub.lineno,
                                       f"augmented update of {base}")
                        )
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _GROWTH_METHODS
                ):
                    base = base_name(sub.func.value)
                    if base and base not in bound:
                        self.findings.append(
                            RowFinding(
                                RowKind.LOOP_CARRIED, sub.lineno,
                                f"{base}.{sub.func.attr}() accumulates "
                                "across rows",
                            )
                        )
                elif isinstance(sub, ast.Assign):
                    # x = f(x, row): self-referential rebinding carries
                    # state even though x is (re)bound inside the loop
                    targets: set = set()
                    for target in sub.targets:
                        _target_names(target, targets)
                    reads = {
                        n.id
                        for n in ast.walk(sub.value)
                        if isinstance(n, ast.Name)
                    }
                    for name in sorted(targets & reads):
                        self.findings.append(
                            RowFinding(RowKind.LOOP_CARRIED, sub.lineno,
                                       f"self-referential update of {name}")
                        )

    # -- calls -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        final = _final_name(node.func)
        if final is not None:
            tainted = self._call_role(node) == "inputs"
            marker = None
            if final in _SEQ_CALLS:
                marker = RowKind.SEQUENTIAL_CALL
            elif final in _ORDER_CALLS:
                marker = RowKind.ORDER_SENSITIVE
            elif final in _GROUP_CALLS:
                marker = RowKind.GROUPED_REDUCTION
            elif final in _SELECT_CALLS:
                marker = RowKind.ROW_SELECTION
            if tainted and marker is not None:
                self.findings.append(RowFinding(marker, node.lineno, final))
            if final in _OBJECT_CALLS:
                self.findings.append(
                    RowFinding(RowKind.OBJECT_DTYPE, node.lineno, final)
                )
            if final == "astype" and node.args:
                if _is_object_dtype(node.args[0]):
                    self.findings.append(
                        RowFinding(RowKind.OBJECT_DTYPE, node.lineno,
                                   "astype(object)")
                    )
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_object_dtype(kw.value):
                self.findings.append(
                    RowFinding(RowKind.OBJECT_DTYPE, node.lineno,
                               "dtype=object")
                )
        self.generic_visit(node)


def analyze_rows(node: ast.AST, *, roles: dict | None = None) -> list:
    """Row-dependence findings for one function's AST.

    ``node`` is a ``FunctionDef``/``Lambda``; ``roles`` overrides the
    default argument-role assignment (first positional argument is the
    ``inputs`` list, second the ``params`` dict).
    """
    if roles is None:
        roles = _default_roles(node)
    visitor = _RowVisitor(roles)
    body = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body:
        visitor.visit(stmt)
    return sorted(
        visitor.findings, key=lambda f: (f.line, f.kind.value, f.detail)
    )


def row_domain(input_kinds, output_kind) -> str:
    """``"rows"`` when row-structured data flows through the op."""
    if any(kind in ROW_VALUE_KINDS for kind in input_kinds):
        return "rows"
    if output_kind in ROW_VALUE_KINDS:
        return "rows"
    return "scalar"


def classify(findings, input_kinds, output_kind) -> str:
    """The per-row verdict for one operation.

    ``input_kinds``/``output_kind`` are :class:`ValueType` value
    strings; they decide row granularity questions the AST alone
    cannot (an intra-flow ``np.diff`` is row-local at flow granularity
    but cross-row at packet granularity) and classify whole-input
    reductions (features -> model/metrics) as sequential.
    """
    kinds = {finding.kind for finding in findings}
    if RowKind.SOURCE_UNAVAILABLE in kinds:
        return OPAQUE
    if row_domain(input_kinds, output_kind) == "scalar":
        # no rows flow through (model factories/wrappers): vacuously
        # elementwise, and there is nothing to batch anyway
        return ELEMENTWISE
    row_inputs = [kind for kind in input_kinds if kind in ROW_VALUE_KINDS]
    if row_inputs and output_kind not in ROW_VALUE_KINDS:
        # whole-input reduction: every output fact depends on all rows
        return SEQUENTIAL
    if RowKind.SEQUENTIAL_CALL in kinds or RowKind.LOOP_CARRIED in kinds:
        return SEQUENTIAL
    if RowKind.ORDER_SENSITIVE in kinds and "flows" not in input_kinds:
        # diff/scan over the row axis itself couples neighbouring rows
        return SEQUENTIAL
    if RowKind.GROUPED_REDUCTION in kinds or RowKind.ROW_SELECTION in kinds:
        return ROW_PARALLEL
    return ELEMENTWISE


def order_sensitive(findings) -> bool:
    """Whether any finding names an order-sensitive callee."""
    return any(
        finding.detail.rsplit(".", 1)[-1] in _ORDER_SENSITIVE_NAMES
        for finding in findings
    )


def prefixed(findings, prefix: str) -> tuple:
    """Row findings with ``prefix`` (``batch:``/``stream:``) on each detail."""
    return tuple(RowFinding(f.kind, f.line, prefix + f.detail) for f in findings)


# ---------------------------------------------------------------------------
# Carried-state growth and eviction
# ---------------------------------------------------------------------------

#: container methods that shrink carried state (an eviction path)
_SHRINK_METHODS = frozenset({"pop", "popitem", "clear", "remove", "discard"})

#: method-name fragments that count as an eviction/timeout path
_EVICTION_NAME_HINTS = ("evict", "expire", "flush", "timeout", "prune")


def stream_state_audit(node: ast.AST, seeds) -> dict:
    """Growth and eviction sites for carried state under ``node``.

    ``seeds`` are the base names holding carried state (``{"self"}``
    for a detector class, ``{"state"}`` for a stream body).  Growth is
    a container-growing method call or a non-constant subscript
    assignment on a carrier; eviction is any shrink call, ``del`` on a
    carrier subscript, or a call whose name suggests an eviction path
    (evict/expire/flush/timeout/prune).
    """
    carriers = carrier_names(node, seeds)
    growth: list = []
    eviction: list = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            method = sub.func.attr
            base = base_name(sub.func.value)
            receiver = ast.unparse(sub.func.value)
            if any(hint in method.lower() for hint in _EVICTION_NAME_HINTS):
                eviction.append((sub.lineno, f"{receiver}.{method}()"))
            elif base in carriers and method in _SHRINK_METHODS:
                eviction.append((sub.lineno, f"{receiver}.{method}()"))
            elif base in carriers and method in _GROWTH_METHODS:
                growth.append((sub.lineno, f"{receiver}.{method}()"))
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                if not isinstance(target, ast.Subscript):
                    continue
                base = base_name(target.value)
                if base not in carriers:
                    continue
                if isinstance(target.slice, ast.Constant):
                    continue  # fixed-key slot, not per-row growth
                growth.append(
                    (sub.lineno,
                     f"{ast.unparse(target.value)}[...] grows per key")
                )
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and base_name(target.value) in carriers
                ):
                    eviction.append(
                        (target.value.lineno,
                         f"del {ast.unparse(target.value)}[...]")
                    )
    return {"growth": sorted(growth), "eviction": sorted(eviction)}


# ---------------------------------------------------------------------------
# Shared-access sites, locks and escapes
#
# Intraprocedural over each body plus its module context: callees are
# not chased transitively.  Writes at module top level and inside
# top-level functions named ``register*`` run once under the import
# lock and are exempt.
# ---------------------------------------------------------------------------

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


def _is_lock_factory(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    callee = dotted(node.func)
    if callee is None:
        return False
    return callee.rsplit(".", 1)[-1] in _LOCK_FACTORIES


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


def make_resolver(module_lock_names, class_lock_attrs=frozenset(), qualifier=""):
    """A ``with``-item resolver mapping context expressions to lock keys.

    ``qualifier`` prefixes ``self.X`` keys (class name) so lock-graph
    nodes from different classes stay distinct.
    """

    def resolve(expr: ast.AST) -> str | None:
        name = dotted(expr)
        if name is None:
            return None
        if name in module_lock_names:
            return name
        if name.startswith("self."):
            attr = name.split(".", 1)[1]
            if attr in class_lock_attrs or _lock_like(attr):
                return f"{qualifier}.{attr}" if qualifier else name
        if _lock_like(name):
            return name
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
    locals_, declared_global = collect_locals(fn_node)
    sites: list = []

    def global_base(expr: ast.AST) -> str | None:
        base = base_name(expr)
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
                detail = f".{sub.func.attr}() call"
                if base is not None:
                    sites.append(
                        AccessSite(base, sub.lineno, "write", held, detail)
                    )
                attr = _self_attr(recv)
                if attr in self_attrs:
                    sites.append(
                        AccessSite(f"self.{attr}", sub.lineno, "write", held, detail)
                    )
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in shared and sub.id not in locals_:
                sites.append(AccessSite(sub.id, sub.lineno, "read", held))
    return sites


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
        receiver = dotted(sub.func.value)
        if receiver is None:
            continue
        last = receiver.rsplit(".", 1)[-1]
        if receiver in known or _lock_like(receiver) or _lock_like(last):
            sites.append((sub.lineno, receiver, sub.func.attr))
    return sites


def thread_hostile_calls(node: ast.AST) -> list:
    """Calls with process-global side effects: ``[(line, dotted)]``."""
    sites: list = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            callee = dotted(sub.func)
            if callee is not None and callee in _THREAD_HOSTILE_CALLS:
                sites.append((sub.lineno, callee))
        elif isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and dotted(target.value) == "os.environ"
                ):
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
    carriers = carrier_names(fn_node, {state_name})
    locals_, declared_global = collect_locals(fn_node)
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
            if base_name(sub.value) not in carriers:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    if target.id in declared_global:
                        escapes.append(
                            (sub.lineno,
                             f"carried state assigned to global {target.id!r}")
                        )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    base = base_name(target)
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
            recv = base_name(sub.func.value)
            shared_recv = is_module_global(recv) or recv in shared_defaults
            if not shared_recv:
                continue
            passed = [a for a in sub.args if base_name(a) in carriers]
            passed += [
                kw.value for kw in sub.keywords
                if base_name(kw.value) in carriers
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
    resolve = make_resolver(frozenset(locks))
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
            callee = dotted(value.func)
            if callee is not None:
                last = callee.rsplit(".", 1)[-1]
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
                        callee = dotted(value.func) or ""
                        if callee.rsplit(".", 1)[-1] == "local":
                            confined.add(attr)
                            continue
                    if _is_lock_factory(value):
                        confined.add(attr)
                        continue
                    tracked.add(attr)
    return frozenset(tracked - confined)


def class_access_sites(cls: ast.ClassDef, module_lock_names) -> list:
    """Write sites on tracked instance attrs across non-init methods."""
    attrs = _class_tracked_attrs(cls)
    if not attrs:
        return []
    resolve = make_resolver(
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
# Live bodies: one source load, one record, one cache
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleFacts:
    """One parsed module: its tree, top-level context and locks."""

    tree: ast.Module
    context: ModuleContext
    locks: dict

    def module_access(self) -> tuple:
        """``(write sites, lock-order edges)`` across the module's bodies.

        Covers every top-level function (``register*`` exempt) and the
        instance attributes of shared classes.
        """
        resolve = make_resolver(frozenset(self.locks))
        shared = frozenset(self.context.bindings) | frozenset(
            self.context.mutable_globals
        )
        shared_classes = _shared_class_names(self.tree)
        sites: list = []
        edges: dict = {}
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if stmt.name.startswith("register"):
                    continue  # import-time registration
                sites.extend(
                    shared_access_sites(
                        stmt, shared, resolve, imports=self.context.imports
                    )
                )
                for held, acq in lock_order_edges(stmt, resolve).items():
                    edges.setdefault(held, {}).update(acq)
            elif isinstance(stmt, ast.ClassDef):
                if stmt.name in shared_classes:
                    sites.extend(class_access_sites(stmt, frozenset(self.locks)))
                class_resolve = make_resolver(
                    frozenset(self.locks),
                    frozenset(class_locks(stmt)),
                    qualifier=stmt.name,
                )
                for held, acq in lock_order_edges(stmt, class_resolve).items():
                    edges.setdefault(held, {}).update(acq)
        return [s for s in sites if s.kind == "write"], edges


@dataclass(frozen=True)
class AccessFacts:
    """Shared-state evidence for one body (the lazily computed walk)."""

    reads: tuple  # mutable, non-constant module globals read
    writes: tuple  # AccessSite writes, each with its guard stack
    escapes: tuple  # (line, detail): mutable defaults written
    state_escapes: tuple  # (line, detail): carried state leaking out
    hostile: tuple  # (line, callee)
    cycles: tuple  # lock-order cycles
    bare_locks: tuple  # (line, receiver, method)


@dataclass(frozen=True)
class BodyFacts:
    """Everything the analyzers know about one body (fn/batch/stream_fn).

    ``node`` is ``None`` when no source could be recovered; the effect
    and row findings then hold a single source-unavailable finding.
    ``access`` stays ``None`` until a caller asks for it.
    """

    node: object
    module: ModuleFacts | None
    effects: tuple
    seed_params: tuple
    rows: tuple
    growth: tuple
    eviction: tuple
    access: AccessFacts | None = None

    @property
    def purity(self) -> str:
        return purity_of(self.effects)


_CACHE: dict = {}
_LOCK = threading.Lock()


def load_source(fn):
    """The source loader: ``(function node or None, module path or None)``."""
    try:
        path = inspect.getsourcefile(fn)
    except TypeError:
        path = None
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError, ValueError):
        return None, path
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node, path
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            return node, path
    return None, path


def _parse_module(path: str) -> ModuleFacts | None:
    try:
        tree = ast.parse(Path(path).read_text())
    except (OSError, SyntaxError, ValueError):
        return None
    return ModuleFacts(tree, collect_module_context(tree), module_locks(tree))


def module_facts(path: str) -> ModuleFacts | None:
    """The parsed module at ``path`` (``None`` when unreadable), cached."""
    key = ("module", path)
    with _LOCK:
        if key not in _CACHE:
            _CACHE[key] = _parse_module(path)
        return _CACHE[key]


def _body(fn, node, module: ModuleFacts | None) -> BodyFacts:
    if node is None:
        name = getattr(fn, "__name__", repr(fn))
        return BodyFacts(
            node=None,
            module=None,
            effects=(
                EffectFinding(
                    EffectKind.SOURCE_UNAVAILABLE, 0,
                    f"cannot recover source for {name}",
                ),
            ),
            seed_params=(),
            rows=(RowFinding(RowKind.SOURCE_UNAVAILABLE, 0, name),),
            growth=(),
            eviction=(),
        )
    fx = analyze_function(
        node, module=module.context if module is not None else None
    )
    state = stream_state_audit(node, {state_arg_name(node)})
    return BodyFacts(
        node=node,
        module=module,
        effects=tuple(fx.findings) + tuple(_closure_findings(fn)),
        seed_params=fx.seed_params,
        rows=tuple(analyze_rows(node)),
        growth=tuple(state["growth"]),
        eviction=tuple(state["eviction"]),
    )


def _access(record: BodyFacts) -> AccessFacts:
    node = record.node
    if record.module is not None:
        ctx, locks = record.module.context, record.module.locks
    else:
        ctx, locks = collect_module_context(ast.Module(body=[], type_ignores=[])), {}
    resolve = make_resolver(frozenset(locks))
    shared = frozenset(ctx.bindings) | frozenset(ctx.mutable_globals)
    sites = shared_access_sites(node, shared, resolve, imports=ctx.imports)
    # constant-style reads are read-only registries by convention and
    # immutable-binding reads (imports, functions) carry no race;
    # only reads of *mutable, non-constant* globals demote the verdict.
    reads = {
        s.name
        for s in sites
        if s.kind == "read"
        and s.name in ctx.mutable_globals
        and not is_constant_style(s.name)
    }
    escapes = []
    for name, _ in sorted(_mutable_default_params(node).items()):
        detail = f"mutable default {name!r} is cross-session shared state"
        for site in shared_access_sites(node, frozenset({name}), resolve):
            if site.kind == "write":
                escapes.append((site.line, detail))
                break
    return AccessFacts(
        reads=tuple(sorted(reads)),
        writes=tuple(s for s in sites if s.kind == "write"),
        escapes=tuple(escapes),
        state_escapes=tuple(
            state_escape_audit(
                node, state_arg_name(node), frozenset(ctx.bindings)
            )
        ),
        hostile=tuple(thread_hostile_calls(node)),
        cycles=tuple(lock_cycles(lock_order_edges(node, resolve))),
        bare_locks=tuple(bare_lock_ops(node, frozenset(locks))),
    )


def body_facts(fn, *, access: bool = False) -> BodyFacts:
    """The cached :class:`BodyFacts` for a live callable.

    The source is loaded and walked once per body; ``access=True``
    additionally fills in the shared-access walk (once) on the cached
    record.
    """
    key = ("body", fn)
    with _LOCK:
        record = _CACHE.get(key)
        if record is None:
            node, path = load_source(fn)
            module = None
            if node is not None and path is not None:
                # module_facts() inline: _LOCK is held and not reentrant
                module_key = ("module", path)
                if module_key not in _CACHE:
                    _CACHE[module_key] = _parse_module(path)
                module = _CACHE[module_key]
            record = _CACHE[key] = _body(fn, node, module)
        if access and record.access is None and record.node is not None:
            record = _CACHE[key] = replace(record, access=_access(record))
    return record


def memo(key, compute):
    """``compute()`` cached under ``key`` in the shared analysis cache.

    ``compute`` runs outside the lock (it reads body facts, which take
    it); when two threads race, the first stored value wins.
    """
    with _LOCK:
        if key in _CACHE:
            return _CACHE[key]
    value = compute()
    with _LOCK:
        return _CACHE.setdefault(key, value)


def operation_rows(operation) -> tuple:
    """Row findings of an operation's scalar body plus its ``batch:`` body."""
    findings = body_facts(operation.fn).rows
    batch = getattr(operation, "batch", None)
    if batch is not None:
        findings += prefixed(body_facts(batch).rows, "batch:")
    return findings


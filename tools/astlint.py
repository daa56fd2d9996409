#!/usr/bin/env python3
"""Repo-wide AST lint gate (stdlib only, no imports of the repo).

Rules:

* **AL001** -- unseeded randomness: calls to the legacy global numpy
  RNG (``np.random.rand`` etc.), ``np.random.default_rng()`` with no
  seed, or the stdlib ``random`` module's global functions.  Every
  experiment in this repo must be reproducible, so randomness flows
  from explicitly-seeded ``Generator`` objects.
* **AL002** -- mutable default argument: a list/dict/set literal (or
  bare ``list()``/``dict()``/``set()`` call) as a parameter default.
* **AL003** -- a ``@register_operation`` declaration whose declared
  ``output_type`` contradicts the decorated function's return
  annotation, or whose function does not take the operation calling
  convention's two arguments ``(inputs, params)``.
* **AL004** -- raw ``time.time()`` in library code (any file under a
  ``src`` directory): wall-clock time is not monotonic and duplicates
  the observability layer.  Use ``time.perf_counter()`` for durations
  or an obs span (:mod:`repro.obs`) for anything worth reporting.
* **AL005** -- a ``@register_operation`` function that mutates its
  ``inputs``/``params`` binding in place (item/attribute assignment,
  mutating method calls, ``np.fill_diagonal``/``out=`` aimed at an
  argument alias).  Operations must copy before mutating: the engine
  caches on the assumption that inputs survive a call unchanged.
* **AL006** -- module-level mutable state (lowercase-named list/dict/
  set literal bindings) in the engine-critical packages
  ``src/repro/core/`` and ``src/repro/analysis/``.  Name read-only
  tables ``UPPER_CASE``, or move the state into an object.
* **AL007** -- exception swallowing in library code (any file under a
  ``src`` directory): a bare ``except:`` handler, or an
  ``except Exception:``/``except BaseException:`` handler whose body
  is only ``pass``/``...``.  The fault-tolerance layer's contract is
  that failures are *recorded or re-raised*, never silently dropped;
  catch specific types, or do something with what you caught.
* **AL008** -- builtin ``hash()`` in library code (any file under a
  ``src`` directory): ``hash()`` is salted per process
  (``PYTHONHASHSEED``) and truncates to machine width, so any
  fingerprint, cache key or dedup decision built on it silently
  changes between runs.  Use ``hashlib`` (the engine and the
  equivalence analyzer both use sha-family digests).
* **AL009** -- a ``for ... in packets``-style Python row loop inside a
  ``@register_operation`` function whose analyzer verdict is
  elementwise/row-parallel: its rows are provably independent, so
  replace the row loop with a numpy body.
* **AL010** -- unbounded carried-state growth in streaming code: a
  ``@register_stream`` body or a class with a ``process_chunk`` method
  that grows a carried container (``append``/``setdefault``/non-constant
  ``dict[key] =`` on its state/``self`` attributes) with no eviction
  path anywhere (``pop``/``del``/``clear`` on the same state, or a
  method whose name mentions evict/expire/flush/timeout/prune).  Live
  detectors must bound their memory; see
  ``KitsuneStreamState.evict_idle``.

* **AL011** -- lock-discipline violations: bare ``lock.acquire()`` /
  ``lock.release()`` calls on lock-like receivers anywhere (manual
  pairing leaks the lock on any exception path between the two calls
  -- use ``with lock:``), plus, in serving code (any file under a
  ``serve`` package), mutable module-level state that is written from
  a function body outside every lock.  Serving code is long-lived and
  its module globals outlive every session, so they must be guarded or
  confined.

AL005/AL006 and AL009-AL011 read the analyzers' AST walks from one
file, ``src/repro/analysis/facts.py``: it is stdlib-only and loaded by
file path, so this gate still imports nothing from the repo (and no
numpy).  When that file cannot be loaded the gate prints why and exits
2 instead of skipping those checks.

Paths whose components include ``fixtures`` are skipped, as is any
line carrying an ``# astlint: disable`` comment.

Usage:  python tools/astlint.py SRC_DIR [MORE_DIRS_OR_FILES...]
Exit status 1 when any violation is found, 2 when the analyzer facts
cannot be loaded.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path


#: the analyzer facts layer the AL005/AL006/AL009-AL011 checks read
_FACTS_PATH = (
    Path(__file__).resolve().parent.parent
    / "src" / "repro" / "analysis" / "facts.py"
)

#: every name this gate uses from the facts layer
_FACTS_API = (
    "BATCHABLE_VERDICTS", "EffectKind", "LEGACY_NP_RANDOM", "RowKind",
    "STDLIB_RANDOM", "analyze_function", "analyze_rows", "bare_lock_ops",
    "classify", "collect_module_context", "dotted", "is_constant_style",
    "module_locks", "state_arg_name", "stream_state_audit",
    "unguarded_module_state",
)


def _load_facts():
    """Load the facts layer by file path, or exit 2 naming the reason.

    A gate that skipped its analyzer checks on a load failure would
    report code it never looked at as clean.
    """
    try:
        spec = importlib.util.spec_from_file_location(
            "repro_facts", _FACTS_PATH
        )
        module = importlib.util.module_from_spec(spec)
        # dataclass machinery resolves string annotations through
        # sys.modules[cls.__module__]; register before executing
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        missing = [name for name in _FACTS_API if not hasattr(module, name)]
        if missing:
            raise AttributeError(f"missing {', '.join(missing)}")
    except Exception as exc:
        print(f"astlint: cannot load {_FACTS_PATH}: {exc!r}", file=sys.stderr)
        raise SystemExit(2) from exc
    return module


_facts = _load_facts()

#: declared ValueType -> acceptable return-annotation spellings.
#: ``None`` means any annotation (or none) is fine.
_RETURN_ANNOTATIONS = {
    "PACKETS": {"PacketTable"},
    "FLOWS": {"FlowTable"},
    "FEATURES": {"np.ndarray", "numpy.ndarray", "ndarray"},
    "LABELS": {"np.ndarray", "numpy.ndarray", "ndarray"},
    "PREDICTIONS": {"np.ndarray", "numpy.ndarray", "ndarray"},
    "MODEL": {"object"},
    "METRICS": None,  # checked by prefix: dict[...]
    "ANY": None,
}


@dataclass(frozen=True)
class Violation:
    path: Path
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _check_randomness(tree: ast.AST, path: Path, out: list[Violation]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _facts.dotted(node.func)
        if dotted is None:
            continue
        parts = dotted.split(".")
        # np.random.rand(...) / numpy.random.shuffle(...)
        if (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] in _facts.LEGACY_NP_RANDOM
        ):
            out.append(Violation(
                path, node.lineno, "AL001",
                f"call to unseeded global RNG: {dotted}() -- use a "
                f"seeded np.random.default_rng(seed)",
            ))
        # np.random.default_rng() with no seed argument
        elif (
            len(parts) == 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] == "default_rng"
            and not node.args
            and not node.keywords
        ):
            out.append(Violation(
                path, node.lineno, "AL001",
                "np.random.default_rng() without a seed is "
                "entropy-seeded -- pass an explicit seed",
            ))
        # random.choice(...) etc. from the stdlib global instance
        elif (
            len(parts) == 2
            and parts[0] == "random"
            and parts[1] in _facts.STDLIB_RANDOM
        ):
            out.append(Violation(
                path, node.lineno, "AL001",
                f"call to the stdlib global RNG: {dotted}() -- use "
                f"random.Random(seed) or a numpy Generator",
            ))


def _check_mutable_defaults(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            ):
                mutable = True
            if mutable:
                out.append(Violation(
                    path, default.lineno, "AL002",
                    f"mutable default argument in {node.name}() -- "
                    f"default to None and create inside the function",
                ))


def _decorator_output_type(decorator: ast.Call) -> tuple[str | None, int]:
    """Extract the declared output ValueType name from the decorator."""
    node = None
    if len(decorator.args) >= 3:
        node = decorator.args[2]
    else:
        for keyword in decorator.keywords:
            if keyword.arg == "output_type":
                node = keyword.value
    dotted = _facts.dotted(node) if node is not None else None
    if dotted and dotted.startswith("ValueType."):
        return dotted.split(".", 1)[1], getattr(node, "lineno", decorator.lineno)
    return None, decorator.lineno


def _check_register_operation(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            if _facts.dotted(decorator.func) != "register_operation":
                continue
            args = node.args
            n_args = len(args.posonlyargs) + len(args.args)
            if n_args != 2 or args.vararg or args.kwonlyargs:
                out.append(Violation(
                    path, node.lineno, "AL003",
                    f"{node.name}() must take exactly (inputs, params) "
                    f"-- the operation calling convention",
                ))
            declared, line = _decorator_output_type(decorator)
            if declared is None:
                continue
            annotation = (
                ast.unparse(node.returns) if node.returns is not None else None
            )
            allowed = _RETURN_ANNOTATIONS.get(declared)
            ok = (
                annotation is None
                or declared == "ANY"
                or (declared == "METRICS" and annotation.startswith("dict"))
                or (allowed is not None and annotation in allowed)
            )
            if not ok:
                out.append(Violation(
                    path, line, "AL003",
                    f"{node.name}() declares output_type "
                    f"ValueType.{declared} but is annotated "
                    f"'-> {annotation}'",
                ))


def _check_wall_clock(tree: ast.AST, path: Path, out: list[Violation]) -> None:
    if "src" not in path.parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _facts.dotted(node.func) == "time.time":
            out.append(Violation(
                path, node.lineno, "AL004",
                "raw time.time() in library code -- use "
                "time.perf_counter() for durations or an obs span "
                "(repro.obs) for reported timings",
            ))


def _check_operation_effects(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL005: a registered operation mutates an argument binding."""
    module_ctx = _facts.collect_module_context(tree)
    mutation_kinds = (
        _facts.EffectKind.MUTATES_INPUT,
        _facts.EffectKind.MUTATES_PARAMS,
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        registered = any(
            isinstance(decorator, ast.Call)
            and _facts.dotted(decorator.func) == "register_operation"
            for decorator in node.decorator_list
        )
        if not registered:
            continue
        effects = _facts.analyze_function(node, module=module_ctx)
        for finding in effects.findings:
            if finding.kind not in mutation_kinds:
                continue
            binding = (
                "inputs"
                if finding.kind is _facts.EffectKind.MUTATES_INPUT
                else "params"
            )
            out.append(Violation(
                path, finding.line, "AL005",
                f"{node.name}() mutates its {binding} binding in place "
                f"({finding.detail}) -- operations must copy before "
                f"mutating",
            ))


def _check_module_state(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL006: lowercase module-level mutable state in engine packages."""
    parts = path.parts
    critical = any(
        parts[i:i + 2] in (("repro", "core"), ("repro", "analysis"))
        for i in range(len(parts) - 1)
    )
    if not critical:
        return
    module_ctx = _facts.collect_module_context(tree)
    for name, line in sorted(
        module_ctx.mutable_globals.items(), key=lambda item: item[1]
    ):
        if _facts.is_constant_style(name):
            continue
        out.append(Violation(
            path, line, "AL006",
            f"module-level mutable state {name!r} in an engine-critical "
            f"package -- name it UPPER_CASE if it is a read-only table, "
            f"or move it into an object",
        ))


def _check_exception_swallowing(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL007: bare ``except:`` / pass-only ``except Exception:``."""
    if "src" not in path.parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            out.append(Violation(
                path, node.lineno, "AL007",
                "bare 'except:' catches everything (including "
                "KeyboardInterrupt) -- catch specific exception types",
            ))
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [
            node.type
        ]
        names = {_facts.dotted(item) for item in caught}
        if not names & {"Exception", "BaseException"}:
            continue
        body_swallows = all(
            isinstance(statement, ast.Pass)
            or (
                isinstance(statement, ast.Expr)
                and isinstance(statement.value, ast.Constant)
                and statement.value.value is Ellipsis
            )
            for statement in node.body
        )
        if body_swallows:
            out.append(Violation(
                path, node.lineno, "AL007",
                "'except Exception: pass' silently swallows failures "
                "-- record the failure or re-raise",
            ))


def _check_builtin_hash(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL008: builtin ``hash()`` has no place in library fingerprints."""
    if "src" not in path.parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            out.append(Violation(
                path, node.lineno, "AL008",
                "builtin hash() is per-process salted "
                "(PYTHONHASHSEED) -- derive fingerprints and cache "
                "keys from hashlib digests",
            ))


def _decorator_call(node: ast.FunctionDef, name: str) -> ast.Call | None:
    for decorator in node.decorator_list:
        if (
            isinstance(decorator, ast.Call)
            and _facts.dotted(decorator.func) == name
        ):
            return decorator
    return None


def _value_kinds(node: ast.AST | None) -> list[str] | None:
    """Lowercased ValueType kind strings from a decorator argument."""
    if node is None:
        return None
    items = node.elts if isinstance(node, (ast.Tuple, ast.List)) else [node]
    kinds: list[str] = []
    for item in items:
        dotted = _facts.dotted(item)
        if not dotted or not dotted.startswith("ValueType."):
            return None
        kinds.append(dotted.split(".", 1)[1].lower())
    return kinds


def _check_row_loops(tree: ast.AST, path: Path, out: list[Violation]) -> None:
    """AL009: Python row loops where the analyzer proves independence."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        reg = _decorator_call(node, "register_operation")
        if reg is None:
            continue
        name = (
            reg.args[0].value
            if reg.args and isinstance(reg.args[0], ast.Constant)
            else node.name
        )
        if len(reg.args) >= 2:
            inputs_node: ast.AST | None = reg.args[1]
        else:
            inputs_node = next(
                (
                    kw.value
                    for kw in reg.keywords
                    if kw.arg == "input_types"
                ),
                None,
            )
        input_kinds = _value_kinds(inputs_node)
        declared, _ = _decorator_output_type(reg)
        if input_kinds is None or declared is None:
            continue
        findings = _facts.analyze_rows(node)
        verdict = _facts.classify(findings, input_kinds, declared.lower())
        if verdict not in _facts.BATCHABLE_VERDICTS:
            continue
        loop = next(
            (f for f in findings if f.kind is _facts.RowKind.ROW_LOOP),
            None,
        )
        if loop is not None:
            out.append(Violation(
                path, loop.line, "AL009",
                f"{node.name}() iterates rows in Python "
                f"({loop.detail}) but the analyzer classifies "
                f"{name!r} as {verdict} -- replace the row loop "
                f"with a numpy body",
            ))


def _check_stream_growth(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL010: carried-state growth with no eviction in streaming code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if _decorator_call(node, "register_stream") is None:
                continue
            audit = _facts.stream_state_audit(
                node, {_facts.state_arg_name(node)}
            )
            if audit["growth"] and not audit["eviction"]:
                line, detail = audit["growth"][0]
                out.append(Violation(
                    path, line, "AL010",
                    f"{node.name}() grows carried stream state "
                    f"({detail}) with no eviction/timeout path -- bound "
                    f"the state or add eviction",
                ))
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            if "process_chunk" not in methods:
                continue
            audit = _facts.stream_state_audit(node, {"self"})
            if audit["growth"] and not audit["eviction"]:
                line, detail = audit["growth"][0]
                out.append(Violation(
                    path, line, "AL010",
                    f"{node.name}.process_chunk carries state that "
                    f"grows ({detail}) with no eviction/timeout path "
                    f"-- live detectors must bound their memory",
                ))


def _check_lock_discipline(
    tree: ast.AST, path: Path, out: list[Violation]
) -> None:
    """AL011: bare acquire/release; unguarded globals in serving code."""
    known = frozenset(_facts.module_locks(tree))
    for line, receiver, method in _facts.bare_lock_ops(tree, known):
        out.append(Violation(
            path, line, "AL011",
            f"bare {receiver}.{method}() -- manual lock pairing leaks "
            f"the lock on any exception path; use 'with {receiver}:'",
        ))
    if "serve" not in path.parts:
        return
    for line, name, detail in _facts.unguarded_module_state(tree):
        out.append(Violation(
            path, line, "AL011",
            f"module global '{name}' in serving code is {detail} -- "
            f"threads that share module state race on it; guard it "
            f"with a lock or confine it to the session",
        ))


def lint_file(path: Path) -> list[Violation]:
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "AL000",
                          f"syntax error: {exc.msg}")]
    violations: list[Violation] = []
    _check_randomness(tree, path, violations)
    _check_mutable_defaults(tree, path, violations)
    _check_register_operation(tree, path, violations)
    _check_wall_clock(tree, path, violations)
    _check_operation_effects(tree, path, violations)
    _check_module_state(tree, path, violations)
    _check_exception_swallowing(tree, path, violations)
    _check_builtin_hash(tree, path, violations)
    _check_row_loops(tree, path, violations)
    _check_stream_growth(tree, path, violations)
    _check_lock_discipline(tree, path, violations)
    disabled = {
        number
        for number, text in enumerate(source.splitlines(), start=1)
        if "# astlint: disable" in text
    }
    return [v for v in violations if v.line not in disabled]


def iter_python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return [f for f in files if "fixtures" not in f.parts]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="files or directories to lint")
    args = parser.parse_args(argv)
    violations: list[Violation] = []
    files = iter_python_files(args.paths)
    for path in files:
        violations.extend(lint_file(path))
    for violation in violations:
        print(violation)
    print(f"{len(files)} file(s): {len(violations)} violation(s)")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())

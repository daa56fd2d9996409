"""Concurrency safety: shared state and lock discipline (L049-L053, L056).

The effect and streaming analyzers prove which operations are safe to
cache and to stream; this module proves which are safe to run
from more than one thread at once.  It reads the shared-access facts
of every body from :mod:`repro.analysis.facts` (module-global reads
and writes with the locks held at each site, lock-order edges, bare
acquire/release calls, thread-hostile callees and carried-state
escapes) and classifies every registered operation, stream body and
core-module global into one of four verdicts:

``session-confined``
    touches only parameters, locals and per-session carried state --
    nothing reachable from another thread;
``lock-guarded``
    mutates shared state, but every mutation site lexically holds the
    one ``threading.Lock`` that guards that state;
``read-only-shared``
    reads mutable module state but never writes it -- safe to run
    concurrently as long as no *writer* of that state is racy, which
    ``repro audit --strict`` enforces;
``racy``
    unguarded or inconsistently guarded shared mutation, carried
    state escaping its session, or a thread-hostile callee.

Lock-order cycles mark deadlock potential.  The verdicts audit code
before it is shared across threads; no runtime mode is gated on them
-- the engine runs a pipeline's steps one after another on the
caller's thread, and ``repro audit --strict`` is the only consumer.

Soundness boundary: the analysis is intraprocedural over each
operation body plus its module context -- callees are not chased
transitively.  That is sound for the audit because the operation
purity audit (``repro audit --strict``) already refuses stateful/IO
operations, so a body that is clean here and pure there cannot reach
shared state through a helper without the helper itself being
registered (and therefore audited).

Import-time registration is exempt by convention: writes at module
top level and inside top-level functions whose names start with
``register`` run once under the import lock, before any worker thread
exists, so ``OPERATIONS[name] = op`` inside ``register_operation``
does not make the registry racy.  UPPER_CASE bindings stay read-only
registries by convention (the effects pass enforces the convention;
this pass still flags any *write* to them from an operation body).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.facts import (
    OPAQUE,
    body_facts,
    bare_lock_ops,
    lock_cycles,
    memo,
    module_facts,
)

__all__ = [
    "SESSION_CONFINED",
    "LOCK_GUARDED",
    "READ_ONLY_SHARED",
    "RACY",
    "classify_shared",
    "ConcurrencyReport",
    "operation_concurrency_report",
    "module_concurrency_report",
    "CORE_MODULES",
]


SESSION_CONFINED = "session-confined"
LOCK_GUARDED = "lock-guarded"
READ_ONLY_SHARED = "read-only-shared"
RACY = "racy"


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


@dataclass(frozen=True)
class ConcurrencyReport:
    """Everything the concurrency pass proved about one operation."""

    operation: str
    verdict: str
    shared_reads: tuple = ()  # global names read
    shared_writes: tuple = ()  # (name, line, guard-or-"")
    guards: tuple = ()  # lock keys guarding writes
    escapes: tuple = ()  # (line, detail)
    hostile: tuple = ()  # (line, callee)
    cycles: tuple = ()  # lock-order cycles
    bare_locks: tuple = ()  # (line, receiver, method)
    diagnostics: tuple = ()

    def codes(self) -> set:
        return {d.code for d in self.diagnostics}

    def to_dict(self) -> dict:
        return {
            "operation": self.operation,
            "verdict": self.verdict,
            "shared_reads": list(self.shared_reads),
            "shared_writes": [list(w) for w in self.shared_writes],
            "guards": list(self.guards),
            "escapes": [list(e) for e in self.escapes],
            "hostile": [list(h) for h in self.hostile],
            "cycles": [list(c) for c in self.cycles],
            "bare_locks": [list(b) for b in self.bare_locks],
            "diagnostics": [str(d) for d in self.diagnostics],
        }


def _lock_diagnostics(owner: str, shared: dict, cycles, bare) -> list:
    """L049/L050/L051/L053 for one operation or core module.

    ``shared`` is the :func:`classify_shared` result, ``cycles`` the
    lock-order cycles and ``bare`` the ``(line, receiver, method)``
    sites of bare acquire/release calls.
    """
    diagnostics: list = []
    for name, info in shared.items():
        if info["verdict"] != RACY:
            continue
        if info["mixed"]:
            diagnostics.append(
                Diagnostic(
                    "L050",
                    Severity.ERROR,
                    f"{name!r} mutated both under and outside its lock"
                    f" (line {info['mixed'][0][0]})",
                    operation=owner,
                    hint="move every mutation of the field inside the"
                    " same with-lock block",
                )
            )
        else:
            line, detail = info["unguarded"][0]
            diagnostics.append(
                Diagnostic(
                    "L049",
                    Severity.ERROR,
                    f"unguarded mutation of shared state {name!r}"
                    f" (line {line}: {detail})",
                    operation=owner,
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
                operation=owner,
                hint="acquire locks in one global order",
            )
        )
    for line, recv, method in bare:
        diagnostics.append(
            Diagnostic(
                "L053",
                Severity.WARNING,
                f"bare {recv}.{method}() (line {line})",
                operation=owner,
                hint="use `with lock:` so exceptions cannot leak the lock",
            )
        )
    return diagnostics


def _report(operation) -> ConcurrencyReport:
    opaque = False
    reads: set = set()
    write_sites: list = []
    escapes: list = []
    hostile: list = []
    cycles: list = []
    bare: list = []
    bodies = (
        ("", operation.fn),
        ("stream:", getattr(operation, "stream_fn", None)),
    )
    for prefix, fn in bodies:
        if fn is None:
            continue
        access = body_facts(fn, access=True).access
        if access is None:
            opaque = True
            continue
        body_escapes = access.escapes
        if prefix == "stream:":
            body_escapes += access.state_escapes
        reads.update(access.reads)
        write_sites.extend(access.writes)
        escapes.extend((line, prefix + detail) for line, detail in body_escapes)
        hostile.extend(access.hostile)
        cycles.extend(access.cycles)
        bare.extend(access.bare_locks)

    shared = classify_shared(write_sites)
    verdicts = {info["verdict"] for info in shared.values()}
    guards = {
        info["guard"]
        for info in shared.values()
        if info["verdict"] == LOCK_GUARDED
    }
    racy = bool(escapes or hostile or cycles) or RACY in verdicts
    bare_locks = tuple(sorted(set(bare)))
    diagnostics = _lock_diagnostics(operation.name, shared, cycles, bare_locks)
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

    return ConcurrencyReport(
        operation=operation.name,
        verdict=verdict,
        shared_reads=tuple(sorted(reads)),
        shared_writes=tuple(
            (s.name, s.line, ";".join(s.guards)) for s in write_sites
        ),
        guards=tuple(sorted(guards)),
        escapes=tuple(sorted(set(escapes))),
        hostile=tuple(sorted(set(hostile))),
        cycles=tuple(tuple(c) for c in cycles),
        bare_locks=bare_locks,
        diagnostics=tuple(diagnostics),
    )


def operation_concurrency_report(operation) -> ConcurrencyReport:
    """The cached concurrency-safety report for one operation."""
    return memo(
        (
            "races", operation.name, operation.fn,
            getattr(operation, "stream_fn", None),
        ),
        lambda: _report(operation),
    )


#: core modules the races section of ``repro audit`` proves race-free;
#: ``repro.analysis.facts`` holds the one analysis cache and its lock.
CORE_MODULES = (
    "repro.core.engine",
    "repro.core.operations",
    "repro.analysis.facts",
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
    module = importlib.import_module(module_name)
    facts = module_facts(module.__file__)
    locks = facts.locks
    writes, edges = facts.module_access()

    verdicts = classify_shared(writes)
    cycles = lock_cycles(edges)
    bare = bare_lock_ops(facts.tree, frozenset(locks))

    diagnostics = _lock_diagnostics(module_name, verdicts, cycles, bare)

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


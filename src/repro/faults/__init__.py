"""Deterministic fault injection and the guards that tolerate it.

Long evaluation campaigns fail in boring ways -- a truncated cache
file, a model that blows up on one dataset, a disk that briefly
refuses writes.  This package makes those failures *reproducible* so
the fault-tolerance machinery (retries, checkpoints, quarantine,
graceful degradation) can be exercised on demand:

* :mod:`repro.faults.plan` -- :class:`FaultPlan`: a seed plus per-site
  rate/fail-first rules; whether invocation *i* at a site fires is a
  pure function of ``(seed, site, i)``.
* :mod:`repro.faults.injector` -- :class:`FaultInjector` plus the
  process-wide :func:`install`/:func:`uninstall`/:func:`maybe_inject`
  hooks the engine, runner and serve daemon call.
* :mod:`repro.faults.guard` -- the wall-clock
  :func:`call_with_deadline` and the seeded :func:`backoff_seconds`
  that ``repro matrix`` and ``repro serve`` share.

See ``docs/ROBUSTNESS.md`` for the fault-plan spec and the failure
model it tests.
"""

from repro.faults.guard import backoff_seconds, call_with_deadline
from repro.faults.injector import (
    EXCEPTIONS,
    FaultInjected,
    FaultInjector,
    FiredFault,
    active,
    get_injector,
    install,
    maybe_inject,
    uninstall,
)
from repro.faults.plan import SITES, FaultPlan, FaultRule

__all__ = [
    "EXCEPTIONS",
    "FaultInjected",
    "FaultInjector",
    "FiredFault",
    "FaultPlan",
    "FaultRule",
    "SITES",
    "active",
    "backoff_seconds",
    "call_with_deadline",
    "get_injector",
    "install",
    "maybe_inject",
    "uninstall",
]

"""Deterministic fault plans: *where* and *how often* to break things.

A :class:`FaultPlan` maps injection sites (``featurize``, ``train``,
``predict``, ``cache_disk_read``, ``cache_disk_write``, and the serve
path's ``ingest``, ``score_chunk``, ``checkpoint_write``) to firing
rules.
Whether invocation *i* at a site fires is a pure function of
``(seed, site, i)`` -- a SHA-256 hash scaled to [0, 1) and compared to
the site's rate -- so the same plan breaks the same calls every run, on
every machine, regardless of thread scheduling or call interleaving
across sites.  That determinism is what makes the retry, checkpoint and
degradation paths *testable*: a chaos test can assert exactly which
cells failed.

Plans are built programmatically or parsed from a compact spec string
(the ``--faults`` CLI flag)::

    featurize:0.25                 25% of featurize calls raise
    train:#2                       the first 2 train calls raise
    cache_disk_read:0.5:oserror    half of disk reads raise OSError

Multiple comma-separated clauses compose into one plan.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.errors import InputError

#: the call sites the engine, runner and serve daemon expose to the
#: injector
SITES = (
    "featurize",
    "train",
    "predict",
    "cache_disk_read",
    "cache_disk_write",
    "ingest",
    "score_chunk",
    "checkpoint_write",
)

#: spellings accepted by the spec parser for the injected exception type
EXCEPTION_NAMES = (
    "fault",
    "oserror",
    "valueerror",
    "runtimeerror",
    "badzipfile",
)


@dataclass(frozen=True)
class FaultRule:
    """One site's firing rule: a rate, a fail-first count, or both."""

    site: str
    rate: float = 0.0
    fail_first: int = 0
    exception: str = "fault"

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise InputError(
                f"unknown fault site {self.site!r}; choose from "
                f"{', '.join(SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise InputError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.fail_first < 0:
            raise InputError("fail_first must be >= 0")
        if self.exception not in EXCEPTION_NAMES:
            raise InputError(
                f"unknown exception name {self.exception!r}; choose from "
                f"{', '.join(EXCEPTION_NAMES)}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus per-site rules; decisions are pure and repeatable."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        seen = set()
        for rule in self.rules:
            if rule.site in seen:
                raise InputError(f"duplicate rule for site {rule.site!r}")
            seen.add(rule.site)

    def rule_for(self, site: str) -> FaultRule | None:
        for rule in self.rules:
            if rule.site == site:
                return rule
        return None

    def should_fire(self, site: str, index: int) -> bool:
        """Deterministic decision for invocation ``index`` at ``site``."""
        rule = self.rule_for(site)
        if rule is None:
            return False
        if index < rule.fail_first:
            return True
        if rule.rate <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}|{site}|{index}".encode()
        ).digest()
        # 8 bytes of hash -> uniform [0, 1); compare to the site's rate
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < rule.rate

    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse ``site:rate[:exception]`` clauses (see module docs)."""
        rules: list[FaultRule] = []
        for clause in spec.split(","):
            clause = clause.strip()
            if not clause:
                continue
            parts = clause.split(":")
            if len(parts) not in (2, 3):
                raise InputError(
                    f"bad fault clause {clause!r}; expected "
                    f"site:rate[:exception] or site:#N[:exception]"
                )
            site, amount = parts[0], parts[1]
            if site not in SITES:
                # reject typos loudly, with a nudge: a spec clause that
                # names a nonexistent site would otherwise describe a
                # fault that can never fire
                import difflib

                close = difflib.get_close_matches(site, SITES, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                raise InputError(
                    f"unknown fault site {site!r} in clause "
                    f"{clause!r}{hint} valid sites: {', '.join(SITES)}"
                )
            exception = parts[2] if len(parts) == 3 else "fault"
            rate, fail_first = 0.0, 0
            try:
                if amount.startswith("#"):
                    fail_first = int(amount[1:])
                else:
                    rate = float(amount)
            except ValueError:
                raise InputError(
                    f"bad fault amount {amount!r} in clause {clause!r}; "
                    f"expected a rate or #N"
                ) from None
            rules.append(FaultRule(site, rate, fail_first, exception))
        if not rules:
            raise InputError(f"empty fault spec {spec!r}")
        return cls(seed=seed, rules=tuple(rules))

    def describe(self) -> str:
        """The plan back in spec form (plus the seed)."""
        clauses = []
        for rule in self.rules:
            amount = f"#{rule.fail_first}" if rule.fail_first else f"{rule.rate}"
            clause = f"{rule.site}:{amount}"
            if rule.exception != "fault":
                clause += f":{rule.exception}"
            clauses.append(clause)
        return f"{','.join(clauses)} (seed={self.seed})"

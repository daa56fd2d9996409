"""Damped incremental statistics (Kitsune's "AfterImage" substrate).

Kitsune computes, for every packet, online statistics of the traffic
seen so far from the same source / channel / socket, where older
observations decay exponentially with age: an observation ``dt`` seconds
old contributes weight ``2^(-lam * dt)``.  For each (grouping, key,
decay rate) the maintained state is the damped weight ``w``, linear sum
``ls`` and squared sum ``ss``, from which weight/mean/std features are
read off at every packet arrival.

:class:`KitsuneStreamState` is the one implementation of the
recurrence: the whole-trace :func:`kitsune_packet_features` runs it on
a fresh state, the chunked op carries it across chunks.  The update is
sequential per key, so it stays a python-float loop -- one pass per
grouping that updates every decay rate of the touched key.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from repro.core.errors import StateLayoutError

#: Kitsune's default decay rates (per second, in powers of two).
DEFAULT_LAMBDAS = (1.0, 0.1, 0.01)

#: the key groupings, in feature-column order; the source grouping also
#: carries the inter-arrival streams (column block 3)
_GROUPINGS = ("src", "chan", "sock")

#: rows per update pass: bounds the python floats one pass holds
_BLOCK_ROWS = 4096

#: what a state that is not an overlay reads through to
_EMPTY: dict = {}


class KitsuneStreamState:
    """Carried Kitsune accumulators, for one chunk or a whole trace.

    State is keyed by (grouping, key value).  Each entry is one flat
    list ``[last_t, (w, ls, ss) x lambdas]``; a source entry appends the
    inter-arrival triples, since the source size streams and the
    inter-arrival streams of a host share every arrival time.  Feeding
    a time-ordered trace through :meth:`features` chunk by chunk applies
    the same python-float update sequence as one whole-trace call, so
    the rows concatenate to the batch matrix byte for byte, for any
    chunking.

    One chunk's update is a transaction: :meth:`begin` returns an
    overlay that reads this state and copies an entry into itself on
    first touch, so :meth:`features` on the overlay never writes here;
    :meth:`commit` folds the touched entries in.  Both cost O(entries
    touched), and dropping an uncommitted overlay is the rollback.

    :meth:`evict_idle` bounds the carried state for long-running live
    streams; the op-level stream body never evicts, keeping the
    ``run_stream``-vs-batch equality exact.
    """

    def __init__(self, lambdas: tuple[float, ...] = DEFAULT_LAMBDAS) -> None:
        self.lambdas = tuple(lambdas)
        self._entries: dict[str, dict] = {name: {} for name in _GROUPINGS}
        #: the committed state an overlay reads through, else None
        self._base: KitsuneStreamState | None = None
        #: ``sys.getsizeof`` bytes of the entries created here
        self._entry_bytes = 0

    def __setstate__(self, state: dict) -> None:
        if "_entries" not in state:
            raise StateLayoutError(
                "Kitsune state was pickled with an older state layout"
            )
        self.__dict__.update(state)

    def __len__(self) -> int:
        return sum(map(len, self._entries.values()))

    @property
    def state_bytes(self) -> int:
        """In-memory size of the carried state, kept up to date in O(1).

        For an overlay: the committed size plus the entries it created.
        """
        if self._base is not None:
            return self._base.state_bytes + self._entry_bytes
        attrs = vars(self)
        return (
            sys.getsizeof(self)
            + sum(map(sys.getsizeof, (attrs, *attrs, *attrs.values())))
            + len(self.lambdas) * sys.getsizeof(0.0)
            + sum(map(sys.getsizeof, (*self._entries, *self._entries.values())))
            + self._entry_bytes
        )

    def _bytes_of(self, grouping: str, key) -> int:
        """Bytes one entry holds: its key, its list and its floats."""
        slots = 1 + 3 * len(self.lambdas) * (2 if grouping == "src" else 1)
        size = sys.getsizeof(key) + sys.getsizeof([0.0] * slots)
        size += slots * sys.getsizeof(0.0)
        if isinstance(key, tuple):
            # ints up to 256 (ports, protocol numbers) are interpreter
            # singletons, held once however many keys name them
            size += sum(sys.getsizeof(item) for item in key if item > 256)
        return size

    def begin(self) -> "KitsuneStreamState":
        """A chunk overlay over this (committed) state."""
        overlay = KitsuneStreamState(self.lambdas)
        overlay._base = self
        return overlay

    def commit(self, overlay: "KitsuneStreamState") -> None:
        """Fold an overlay from :meth:`begin` in; the overlay is spent."""
        if overlay._base is not self:
            raise ValueError("overlay was not begun on this state")
        for name, entries in overlay._entries.items():
            self._entries[name].update(entries)
        self._entry_bytes += overlay._entry_bytes
        overlay._base = None

    def features(self, table) -> np.ndarray:
        """Per-packet feature rows for one chunk, updating this state
        (on an overlay: its own copies, never the committed state).

        Column layout: for each decay rate, (w, mean, std) over the
        source, channel and socket size streams and the source
        inter-arrival stream.
        """
        non_ip = table.l3 == 0
        fields = (
            np.where(non_ip, table.src_mac.astype(np.uint64),
                     table.src_ip.astype(np.uint64)),
            np.where(non_ip, table.dst_mac.astype(np.uint64),
                     table.dst_ip.astype(np.uint64)),
            table.src_port, table.dst_port, table.proto,
            table.length.astype(np.float64), table.ts,
        )
        n, width = len(table.ts), len(self.lambdas)
        # (row, rate, stream, statistic) view of the output columns
        out = np.empty((n, width, 4, 3), dtype=np.float64)
        # python-object copies of the rows exist one block at a time
        for lo in range(0, n, _BLOCK_ROWS):
            src, dst, sport, dport, proto, sizes, ts = (
                field[lo:lo + _BLOCK_ROWS].tolist() for field in fields
            )
            keys = {
                "src": src,
                "chan": list(zip(src, dst)),
                "sock": list(zip(src, dst, sport, dport, proto)),
            }
            rows = out[lo:lo + _BLOCK_ROWS]
            for column, name in enumerate(_GROUPINGS):
                block = np.array(
                    self._update(name, keys[name], ts, sizes), dtype=np.float64
                ).reshape(len(ts), -1, width, 3)
                rows[:, :, column] = block[:, 0]
                if name == "src":
                    rows[:, :, 3] = block[:, 1]
        return out.reshape(n, 12 * width)

    def _update(self, grouping: str, keys: list, ts: list, sizes: list) -> list:
        """One pass of the damped update over one grouping's keys.

        Returns the flat per-row (w, mean, std) values: every decay rate
        of the size streams, then (source grouping only) of the
        inter-arrival streams, whose first gap per key is 0.
        """
        entries = self._entries[grouping]
        base = _EMPTY if self._base is None else self._base._entries[grouping]
        with_gap = grouping == "src"
        rates = [-lam for lam in self.lambdas]
        fresh = [0.0] * (3 * len(rates) * (2 if with_gap else 1))
        values: list = []
        emit = values.extend
        sqrt = math.sqrt
        for t, key, size in zip(ts, keys, sizes):
            entry = entries.get(key)
            if entry is None:
                entry = base.get(key)
                if entry is None:
                    # an empty entry last seen now: its first update
                    # adds the observation undamped
                    entry = [t] + fresh
                    self._entry_bytes += self._bytes_of(grouping, key)
                else:
                    entry = entry.copy()
                entries[key] = entry
            gap = t - entry[0]
            entry[0] = t
            dt = max(gap, 0.0)
            decays = [2.0 ** (rate * dt) for rate in rates]
            j = 1
            for value in (size, gap) if with_gap else (size,):
                square = value * value
                for decay in decays:
                    w = entry[j] * decay + 1.0
                    ls = entry[j + 1] * decay + value
                    ss = entry[j + 2] * decay + square
                    entry[j] = w
                    entry[j + 1] = ls
                    entry[j + 2] = ss
                    mean = ls / w
                    emit((w, mean, sqrt(max(ss / w - mean**2, 0.0))))
                    j += 3
        return values

    def evict_idle(self, now: float, max_idle: float = 3600.0) -> int:
        """Drop entries idle for more than ``max_idle`` seconds.

        Documented float tolerance of the *live* (evicting) path: at
        the smallest stock decay rate (lam=0.01) an entry idle 3600 s
        re-enters with damped weight <= 2**-36 (~1.5e-11), so dropping
        its size statistics perturbs later features by at most that
        relative weight.  Dropping a source entry's inter-arrival
        baseline treats a returning host as new (gap 0 instead of
        ~max_idle), which is the conventional choice for live
        detectors.  Returns the number of evicted entries, the unit of
        ``len()``.
        """
        evicted = 0
        for name, entries in self._entries.items():
            stale = [
                key for key, entry in entries.items()
                if now - entry[0] > max_idle
            ]
            for key in stale:
                del entries[key]
                self._entry_bytes -= self._bytes_of(name, key)
            evicted += len(stale)
        return evicted


def kitsune_packet_features(
    table,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> np.ndarray:
    """The full Kitsune-style per-packet feature matrix.

    For each decay rate, damped size statistics over three groupings
    (source host, channel = src->dst, socket = 5-tuple) plus damped
    inter-arrival statistics per source host: 4 streams x 3 statistics
    x len(lambdas) features per packet.  Non-IP packets group by MAC,
    handled by the same key columns the flow assembler uses.  This is
    one :meth:`KitsuneStreamState.features` call on a fresh state.
    """
    return KitsuneStreamState(lambdas).features(table)


def kitsune_packet_features_stream(
    table,
    lambdas: tuple[float, ...],
    state: KitsuneStreamState,
) -> np.ndarray:
    """Chunked :func:`kitsune_packet_features` with carried state.

    Feeding the chunks of a time-ordered trace through one
    :class:`KitsuneStreamState` yields rows that concatenate to the
    batch matrix byte for byte (see the class docstring).
    """
    if not isinstance(state, KitsuneStreamState):
        raise TypeError("state must be a KitsuneStreamState")
    if tuple(lambdas) != state.lambdas:
        raise ValueError(
            f"decay rates changed mid-stream: state carries "
            f"{state.lambdas}, got {tuple(lambdas)}"
        )
    return state.features(table)

"""Damped incremental statistics (Kitsune's "AfterImage" substrate).

Kitsune computes, for every packet, online statistics of the traffic
seen so far from the same source / channel / socket, where older
observations decay exponentially with age: an observation ``dt`` seconds
old contributes weight ``2^(-lam * dt)``.  For each (group, decay rate)
the maintained state is the damped weight ``w``, linear sum ``ls`` and
squared sum ``ss``, from which weight/mean/std features are read off at
every packet arrival.

The update is inherently sequential per group, so this module keeps the
per-packet loop tight and lets callers batch over (key, lambda)
combinations; results are computed once per dataset and cached by the
engine.
"""

from __future__ import annotations

import sys

import numpy as np

#: Kitsune's default decay rates (per second, in powers of two).
DEFAULT_LAMBDAS = (1.0, 0.1, 0.01)


class IncStat:
    """One damped statistic stream (single group, single decay rate)."""

    __slots__ = ("lam", "w", "ls", "ss", "last_t")

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.w = 0.0
        self.ls = 0.0
        self.ss = 0.0
        self.last_t = None

    def update(self, t: float, value: float) -> None:
        if self.last_t is not None:
            decay = 2.0 ** (-self.lam * max(t - self.last_t, 0.0))
            self.w *= decay
            self.ls *= decay
            self.ss *= decay
        self.last_t = t
        self.w += 1.0
        self.ls += value
        self.ss += value * value

    def copy(self) -> "IncStat":
        twin = IncStat(self.lam)
        twin.w = self.w
        twin.ls = self.ls
        twin.ss = self.ss
        twin.last_t = self.last_t
        return twin

    @property
    def mean(self) -> float:
        return self.ls / self.w if self.w > 0 else 0.0

    @property
    def std(self) -> float:
        if self.w <= 0:
            return 0.0
        variance = self.ss / self.w - self.mean**2
        return float(np.sqrt(max(variance, 0.0)))


def damped_group_stats(
    group_ids: np.ndarray,
    timestamps: np.ndarray,
    values: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Per-packet damped (weight, mean, std) of ``values`` within groups.

    ``group_ids`` assigns each packet to a group (any integer ids);
    packets must be in time order.  Returns an ``(n, 3)`` array whose row
    ``i`` reflects the group's statistics *after* observing packet ``i``
    -- this is the feature Kitsune attaches to the packet.
    """
    n = len(group_ids)
    if not (len(timestamps) == len(values) == n):
        raise ValueError("group_ids, timestamps and values must align")
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict[int, IncStat] = {}
    ids = group_ids.tolist()
    ts = timestamps.tolist()
    vals = values.tolist()
    for i in range(n):
        stream = streams.get(ids[i])
        if stream is None:
            stream = IncStat(lam)
            streams[ids[i]] = stream
        stream.update(ts[i], vals[i])
        out[i, 0] = stream.w
        out[i, 1] = stream.mean
        out[i, 2] = stream.std
    return out


def damped_interarrival_stats(
    group_ids: np.ndarray, timestamps: np.ndarray, lam: float
) -> np.ndarray:
    """Per-packet damped (weight, mean, std) of inter-arrival times.

    The first packet of each group contributes an inter-arrival of 0.
    """
    n = len(group_ids)
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict[int, IncStat] = {}
    last_seen: dict[int, float] = {}
    ids = group_ids.tolist()
    ts = timestamps.tolist()
    for i in range(n):
        key = ids[i]
        stream = streams.get(key)
        if stream is None:
            stream = IncStat(lam)
            streams[key] = stream
        gap = ts[i] - last_seen.get(key, ts[i])
        last_seen[key] = ts[i]
        stream.update(ts[i], gap)
        out[i, 0] = stream.w
        out[i, 1] = stream.mean
        out[i, 2] = stream.std
    return out


def group_ids_from_columns(columns: list[np.ndarray]) -> np.ndarray:
    """Dense integer group ids for the combination of key columns."""
    if not columns:
        raise ValueError("need at least one key column")
    n = len(columns[0])
    if n == 0:
        return np.empty(0, dtype=np.int64)
    stacked = np.stack([np.asarray(c) for c in columns], axis=1)
    _, ids = np.unique(stacked, axis=0, return_inverse=True)
    return ids.astype(np.int64)


def kitsune_packet_features(
    table,
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS,
) -> np.ndarray:
    """The full Kitsune-style per-packet feature matrix.

    For each decay rate, damped size statistics over three groupings
    (source host, channel = src->dst, socket = 5-tuple) plus damped
    inter-arrival statistics per source host: 4 streams x 3 statistics
    x len(lambdas) features per packet.  Non-IP packets group by MAC,
    handled by the same key columns the flow assembler uses.
    """
    non_ip = table.l3 == 0
    src_host = np.where(non_ip, table.src_mac.astype(np.uint64), table.src_ip.astype(np.uint64))
    dst_host = np.where(non_ip, table.dst_mac.astype(np.uint64), table.dst_ip.astype(np.uint64))
    source = group_ids_from_columns([src_host])
    channel = group_ids_from_columns([src_host, dst_host])
    socket = group_ids_from_columns(
        [src_host, dst_host, table.src_port, table.dst_port, table.proto]
    )
    sizes = table.length.astype(np.float64)
    ts = table.ts
    blocks = []
    for lam in lambdas:
        blocks.append(damped_group_stats(source, ts, sizes, lam))
        blocks.append(damped_group_stats(channel, ts, sizes, lam))
        blocks.append(damped_group_stats(socket, ts, sizes, lam))
        blocks.append(damped_interarrival_stats(source, ts, lam))
    return np.hstack(blocks)


#: one carried stream: its (tag, lambda, key) tuple, the IncStat and
#: the w/ls/ss floats it owns
_STREAM_BYTES = (
    sys.getsizeof(("src", 1.0, 0)) + sys.getsizeof(IncStat(1.0))
    + 3 * sys.getsizeof(0.0)
)
#: what a state that is not an overlay reads through to
_EMPTY: dict = {}


class KitsuneStreamState:
    """Carried Kitsune accumulators for chunked execution.

    The batch path (:func:`kitsune_packet_features`) partitions packets
    by dense ``np.unique`` group ids and replays every group's damped
    update sequence in row order.  This state keys the same
    :class:`IncStat` accumulators by the group *value tuples* instead,
    which partition identically -- so feeding a time-ordered trace
    through :meth:`features` chunk by chunk applies the exact same
    python-float update sequence and reproduces the batch matrix byte
    for byte, for any chunking.

    One chunk's update is a transaction: :meth:`begin` returns an
    overlay that reads this state and copies an accumulator into
    itself on first touch, so :meth:`features` on the overlay never
    writes here; :meth:`commit` folds the touched accumulators in.
    Both cost O(streams touched), and dropping an uncommitted overlay
    is the rollback.

    :meth:`evict_idle` bounds the carried state for long-running live
    streams; the op-level stream body never evicts, keeping the
    ``run_stream``-vs-batch equality exact.
    """

    def __init__(self, lambdas: tuple[float, ...] = DEFAULT_LAMBDAS) -> None:
        self.lambdas = tuple(lambdas)
        self._streams: dict[tuple, IncStat] = {}
        self._last_seen: dict[int, float] = {}
        #: the committed state an overlay reads through, else None
        self._base: KitsuneStreamState | None = None
        #: ``sys.getsizeof`` bytes of the stream entries created here
        self._entry_bytes = 0

    def __len__(self) -> int:
        return len(self._streams)

    @property
    def state_bytes(self) -> int:
        """In-memory size of the carried state, kept up to date in O(1).

        For an overlay: the committed size plus the streams it created.
        """
        if self._base is not None:
            return self._base.state_bytes + self._entry_bytes
        return (
            sys.getsizeof(self)
            + sys.getsizeof(self._streams)
            + sys.getsizeof(self._last_seen)
            + self._entry_bytes
        )

    def _stream_bytes(self, tag: str, lam: float, key) -> int:
        """Bytes one stream entry holds; every decay rate and the ``iat``
        stream share the group key and its last arrival time, so those
        count once, with the first rate's ``src``/``chan``/``sock`` entry."""
        size = _STREAM_BYTES
        if tag != "iat" and lam == self.lambdas[0]:
            size += sys.getsizeof(key) + sys.getsizeof(0.0)
            if isinstance(key, tuple):
                size += sum(map(sys.getsizeof, key))
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
        self._streams.update(overlay._streams)
        self._last_seen.update(overlay._last_seen)
        self._entry_bytes += overlay._entry_bytes
        overlay._base = None

    def features(self, table) -> np.ndarray:
        """Per-packet feature rows for one chunk, updating this state
        (on an overlay: its own copies, never the committed state).

        Column layout matches the batch ``np.hstack``: for each decay
        rate, (w, mean, std) over source, channel, socket size streams
        and the source inter-arrival stream.
        """
        non_ip = table.l3 == 0
        src_host = np.where(
            non_ip, table.src_mac.astype(np.uint64), table.src_ip.astype(np.uint64)
        )
        dst_host = np.where(
            non_ip, table.dst_mac.astype(np.uint64), table.dst_ip.astype(np.uint64)
        )
        src = src_host.tolist()
        dst = dst_host.tolist()
        sport = table.src_port.tolist()
        dport = table.dst_port.tolist()
        proto = table.proto.tolist()
        sizes = table.length.astype(np.float64).tolist()
        ts = table.ts.tolist()
        n = len(src)
        lambdas = self.lambdas
        out = np.empty((n, 12 * len(lambdas)), dtype=np.float64)
        streams = self._streams
        last_seen = self._last_seen
        if self._base is None:
            committed_streams = committed_seen = _EMPTY
        else:
            committed_streams = self._base._streams
            committed_seen = self._base._last_seen
        for i in range(n):
            t = ts[i]
            size = sizes[i]
            src_key = src[i]
            chan_key = (src[i], dst[i])
            sock_key = (src[i], dst[i], sport[i], dport[i], proto[i])
            previous = last_seen.get(src_key)
            if previous is None:
                previous = committed_seen.get(src_key, t)
            gap = t - previous
            last_seen[src_key] = t
            col = 0
            for lam in lambdas:
                for tag, key, value in (
                    ("src", src_key, size),
                    ("chan", chan_key, size),
                    ("sock", sock_key, size),
                    ("iat", src_key, gap),
                ):
                    stream = streams.get((tag, lam, key))
                    if stream is None:
                        stream = committed_streams.get((tag, lam, key))
                        if stream is None:
                            stream = IncStat(lam)
                            self._entry_bytes += self._stream_bytes(
                                tag, lam, key
                            )
                        else:
                            stream = stream.copy()
                        streams[(tag, lam, key)] = stream
                    stream.update(t, value)
                    out[i, col] = stream.w
                    out[i, col + 1] = stream.mean
                    out[i, col + 2] = stream.std
                    col += 3
        return out

    def evict_idle(self, now: float, max_idle: float = 3600.0) -> int:
        """Drop accumulators idle for more than ``max_idle`` seconds.

        Documented float tolerance of the *live* (evicting) path: at
        the smallest stock decay rate (lam=0.01) a stream idle 3600 s
        re-enters with damped weight <= 2**-36 (~1.5e-11), so dropping
        its size statistics perturbs later features by at most that
        relative weight.  Dropping the inter-arrival baseline treats a
        returning host as new (gap 0 instead of ~max_idle), which is
        the conventional choice for live detectors.  Returns the number
        of evicted streams.
        """
        stale = [
            key
            for key, stream in self._streams.items()
            if stream.last_t is not None and now - stream.last_t > max_idle
        ]
        for key in stale:
            del self._streams[key]
            self._entry_bytes -= self._stream_bytes(*key)
        stale_seen = [
            key for key, t in self._last_seen.items() if now - t > max_idle
        ]
        for key in stale_seen:
            del self._last_seen[key]
        return len(stale)


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

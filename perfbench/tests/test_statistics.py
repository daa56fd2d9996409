"""The percentile rule, calibration, and latency measured from the
replay schedule."""

import signal
import statistics
import time

import pytest

from common import (
    KERNEL_REFERENCE_S,
    HostSpeed,
    Outcome,
    Sample,
    first_due_from_ingests,
    latencies_from_due,
    summary,
    tail_percentile,
)


@pytest.mark.parametrize("n, p", [
    (1000, 99), (200, 95), (100, 90), (99, 80), (63, 80), (50, 80),
    (49, 75), (40, 75), (39, 50), (20, 50), (19, None), (0, None),
])
def test_highest_percentile_with_ten_samples_beyond_it(n, p):
    assert tail_percentile(n) == p


def test_summary_uses_statistics_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summary(values) == {"median": median, "q1": q1, "q3": q3, "n": 6}


def _sampled(*samples) -> HostSpeed:
    """A sampler holding ``(start, end, kernel in reference units)``."""
    speed = HostSpeed()
    speed.samples = [Sample(a, b, k * KERNEL_REFERENCE_S) for a, b, k in samples]
    return speed


# the kernel runs at the reference speed, then at a third of it: the
# second second of work counts as half a second at the reference speed
SPEED = ((0.0, 0.1, 1), (1.1, 1.2, 1), (2.2, 2.3, 3))


def test_calibrated_seconds_scale_each_stretch_by_its_kernels():
    speed = _sampled(*SPEED)
    assert speed.seconds(0.0, 2.3) == pytest.approx(1.0 + 0.5)
    assert speed.seconds(0.6, 1.7) == pytest.approx(0.5 + 0.25)
    assert speed.seconds(0.15, 0.2) == pytest.approx(0.05)


def test_the_sampler_pauses_count_for_nothing():
    speed = _sampled(*SPEED)
    assert speed.active(0.0, 2.3) == pytest.approx(2.0)
    assert speed.active(0.6, 1.7) == pytest.approx(1.0)
    assert speed.active(1.12, 1.18) == 0


def test_throughput_is_work_over_the_median_pass():
    speed = _sampled(*SPEED)
    out = Outcome(work=12.0)
    out.add_pass(speed, [(0.0, 1.1), (1.2, 2.3)])
    out.add_pass(speed, [(0.1, 0.6)])
    out.add_pass(speed, [(1.7, 2.2)])
    assert out.pass_seconds == pytest.approx([1.5, 0.5, 0.25])
    assert out.wall_seconds == pytest.approx([2.0, 0.5, 0.5])
    assert out.throughput == pytest.approx(12.0 / 0.5)


def test_the_sampler_samples_on_a_timer_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed(interval=0.02) as speed:
        t0 = time.monotonic()
        while time.monotonic() - t0 < 0.3:
            sum(range(1000))
        t1 = time.monotonic()
    assert len(speed.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(a.end <= b.start for a, b in zip(speed.samples, speed.samples[1:]))
    assert 0 < speed.active(t0, t1) < t1 - t0 and speed.seconds(t0, t1) > 0


def test_latency_when_the_daemon_keeps_up():
    # 200-packet chunks at 1000 pkt/s, each scored 5 ms after its last
    # packet fell due
    first_due = 50.0
    chunks = [(k * 200 + 199, first_due + (k * 200 + 199) / 1000 + 0.005) for k in range(5)]
    assert latencies_from_due(first_due, 1000, chunks) == pytest.approx([0.005] * 5)


def test_latency_accrues_the_backlog_under_overload():
    # offered 1000 pkt/s, scored at 500 pkt/s: every chunk waits for all
    # the earlier ones, so latency grows by 0.2 s per 200-packet chunk
    first_due = 0.0
    chunks = [((k + 1) * 200 - 1, (k + 1) * 200 / 500) for k in range(5)]
    latencies = latencies_from_due(first_due, 1000, chunks)
    assert latencies == pytest.approx([(k + 1) * 0.2 + 0.001 for k in range(5)])
    assert latencies == sorted(latencies)


SPAN = 2e-4  # length of one synthetic ingest span


def _ingest_spans(t0, rate, first_tick, tick, rows, batch_max=512):
    """``(closed, row, rows)`` of the ingest spans of a paced replay.

    Packet ``row`` falls due at ``t0 + (row + 1) / rate``; the daemon
    first ingests at ``first_tick``, after its idle sleep, then every
    ``tick`` seconds, taking what is due mid-span, at most ``batch_max``.
    """
    spans, cursor, t = [], 0, first_tick
    while cursor < rows:
        take = min(min(rows, int((t + SPAN / 2 - t0) * rate)) - cursor, batch_max)
        if take > 0:
            spans.append((t + SPAN, cursor, take))
            cursor += take
        t += tick
    return spans


@pytest.mark.parametrize("rate, tick", [(1000, 0.02), (20000, 0.05)])
def test_first_due_is_rebuilt_past_the_idle_sleep(rate, tick):
    # the schedule is anchored at t0, then the daemon sleeps 10 ms
    # before its first ingest span opens; at 20000 pkt/s with 50 ms
    # ticks every later span is capped at 512 rows
    t0 = 100.0
    spans = _ingest_spans(t0, rate, t0 + 0.0103, tick, rows=2000)
    first_start = spans[0][0] - SPAN
    assert first_start - (t0 + 1 / rate) > 0.009  # the span start is late
    first_due = first_due_from_ingests(rate, spans)
    assert first_due == pytest.approx(t0 + 1 / rate, abs=1 / rate + SPAN)
    # a chunk ending at row 1999, scored 5 ms after that row fell due
    scored = t0 + 2000 / rate + 0.005
    [latency] = latencies_from_due(first_due, rate, [(1999, scored)])
    assert latency == pytest.approx(0.005, abs=1 / rate + SPAN)

"""Benign IoT / enterprise device behaviour models.

Each :class:`DeviceModel` is a small generative program: given a device
instance, the scenario's servers and a time range, it appends this
device's benign traffic to a :class:`~repro.traffic.builder.TraceBuilder`.
The models capture the paper's key insight that "IoT devices exhibit
fairly constrained normal behavior": fixed peers, narrow port sets,
regular timing -- in contrast to the heavy-tailed workstation model used
for the enterprise (CICIDS-like) scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.traffic.builder import TraceBuilder


@dataclass
class Device:
    """One device on the network."""

    ip: int
    mac: int
    model: str
    name: str = ""


@dataclass
class Servers:
    """External endpoints the devices talk to."""

    dns: int
    ntp: int
    cloud: list[int] = field(default_factory=list)
    web: list[int] = field(default_factory=list)

    def pick_cloud(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.cloud)) if self.cloud else self.dns

    def pick_web(self, rng: np.random.Generator) -> int:
        return int(rng.choice(self.web)) if self.web else self.dns


GeneratorFn = Callable[
    [TraceBuilder, Device, Servers, np.random.Generator, float, float, float], None
]


@dataclass(frozen=True)
class DeviceModel:
    """A named behaviour program with a human description."""

    name: str
    description: str
    generate: GeneratorFn


def _ephemeral(rng: np.random.Generator) -> int:
    return int(rng.integers(32768, 60999))


def _dns_lookup(
    builder: TraceBuilder,
    device: Device,
    servers: Servers,
    rng: np.random.Generator,
    ts: float,
) -> None:
    builder.add_udp_exchange(
        ts,
        device.ip,
        servers.dns,
        _ephemeral(rng),
        53,
        query_len=int(rng.integers(28, 60)),
        reply_len=int(rng.integers(44, 180)),
        rng=rng,
    )


def _ntp_sync(
    builder: TraceBuilder,
    device: Device,
    servers: Servers,
    rng: np.random.Generator,
    ts: float,
) -> None:
    builder.add_udp_exchange(
        ts, device.ip, servers.ntp, 123, 123, query_len=48, reply_len=48, rng=rng
    )


def _camera(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Continuous video upstream to one cloud server + housekeeping."""
    cloud = servers.pick_cloud(rng)
    port = _ephemeral(rng)
    ts = t0 + float(rng.uniform(0.0, 0.5))
    rate = 18.0 * intensity  # frames per second-ish
    while ts < t1:
        size = int(min(max(rng.normal(1100, 120), 400), 1460))
        builder.add_tcp(ts, device.ip, cloud, port, 443, size)
        if rng.random() < 0.15:  # server ACK with small reply
            builder.add_tcp(
                ts + 0.004, cloud, device.ip, 443, port, int(rng.integers(0, 60))
            )
        ts += float(rng.exponential(1.0 / rate))
    for sync_ts in np.arange(t0 + 5.0, t1, 64.0):
        _ntp_sync(builder, device, servers, rng, float(sync_ts))
    for lookup_ts in np.arange(t0 + 1.0, t1, 120.0):
        _dns_lookup(builder, device, servers, rng, float(lookup_ts))


def _thermostat(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Periodic MQTT telemetry publishes to the cloud broker."""
    broker = servers.pick_cloud(rng)
    ts = t0 + float(rng.uniform(0, 20))
    while ts < t1:
        ts = builder.add_tcp_session(
            ts,
            device.ip,
            broker,
            _ephemeral(rng),
            1883,
            request_sizes=[int(rng.integers(20, 80))],
            response_sizes=[4],
            rng=rng,
        )
        ts += float(rng.normal(45.0, 5.0) / max(intensity, 0.1))
    for sync_ts in np.arange(t0 + 9.0, t1, 256.0):
        _ntp_sync(builder, device, servers, rng, float(sync_ts))


def _smart_plug(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Sparse TCP keepalives; almost silent."""
    cloud = servers.pick_cloud(rng)
    port = _ephemeral(rng)
    ts = t0 + float(rng.uniform(0, 30))
    while ts < t1:
        builder.add_tcp(ts, device.ip, cloud, port, 8883, int(rng.integers(2, 16)))
        builder.add_tcp(
            ts + 0.05, cloud, device.ip, 8883, port, int(rng.integers(2, 16))
        )
        ts += float(rng.normal(60.0, 8.0) / max(intensity, 0.1))


def _motion_sensor(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Quiet until an event, then a small UDP burst to the hub/cloud."""
    cloud = servers.pick_cloud(rng)
    ts = t0 + float(rng.exponential(30.0))
    while ts < t1:
        burst = int(rng.integers(3, 10))
        port = _ephemeral(rng)  # one source port per event burst
        for i in range(burst):
            builder.add_udp(
                ts + i * 0.01,
                device.ip,
                cloud,
                port,
                5683,  # CoAP
                int(rng.integers(16, 64)),
            )
        ts += float(rng.exponential(40.0 / max(intensity, 0.1)))


def _smart_hub(builder, device, servers, rng, t0, t1, intensity) -> None:
    """DNS-chatty hub with periodic HTTPS API polls."""
    ts = t0 + float(rng.uniform(0, 5))
    while ts < t1:
        _dns_lookup(builder, device, servers, rng, ts)
        ts = builder.add_tcp_session(
            ts + 0.1,
            device.ip,
            servers.pick_cloud(rng),
            _ephemeral(rng),
            443,
            request_sizes=[int(rng.integers(100, 400))],
            response_sizes=[int(rng.integers(200, 1460)) for _ in range(int(rng.integers(1, 4)))],
            rng=rng,
        )
        ts += float(rng.normal(20.0, 4.0) / max(intensity, 0.1))


def _voice_assistant(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Mostly idle; short heavy bursts when spoken to."""
    ts = t0 + float(rng.exponential(20.0))
    while ts < t1:
        ts = builder.add_tcp_session(
            ts,
            device.ip,
            servers.pick_cloud(rng),
            _ephemeral(rng),
            443,
            request_sizes=[int(rng.integers(400, 1460)) for _ in range(int(rng.integers(4, 15)))],
            response_sizes=[int(rng.integers(100, 1000)) for _ in range(int(rng.integers(2, 8)))],
            rng=rng,
            gap=0.02,
        )
        ts += float(rng.exponential(60.0 / max(intensity, 0.1)))


def _workstation(builder, device, servers, rng, t0, t1, intensity) -> None:
    """An enterprise user machine: heavy-tailed web browsing + DNS."""
    ts = t0 + float(rng.uniform(0, 3))
    while ts < t1:
        _dns_lookup(builder, device, servers, rng, ts)
        n_objects = int(rng.pareto(1.5) + 1)
        server = servers.pick_web(rng)
        port = 443 if rng.random() < 0.7 else 80
        ts = builder.add_tcp_session(
            ts + 0.05,
            device.ip,
            server,
            _ephemeral(rng),
            port,
            request_sizes=[int(rng.integers(80, 700)) for _ in range(min(n_objects, 20))],
            response_sizes=[
                int(min(max(rng.pareto(1.2) * 300, 60), 1460))
                for _ in range(min(n_objects * 2, 40))
            ],
            rng=rng,
            gap=0.03,
        )
        ts += float(rng.exponential(8.0 / max(intensity, 0.1)))


def _smart_tv(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Streaming video downstream in viewing sessions, idle otherwise."""
    ts = t0 + float(rng.exponential(15.0))
    while ts < t1:
        cloud = servers.pick_cloud(rng)
        port = _ephemeral(rng)
        session_end = min(ts + float(rng.uniform(20.0, 90.0)), t1)
        _dns_lookup(builder, device, servers, rng, ts)
        rate = 40.0 * intensity  # download-heavy
        t = ts + 0.2
        while t < session_end:
            builder.add_tcp(t, cloud, device.ip, 443, port,
                            int(min(max(rng.normal(1350, 80), 400), 1460)))
            if rng.random() < 0.05:  # sparse ACK upstream
                builder.add_tcp(t + 0.002, device.ip, cloud, port, 443, 0)
            t += float(rng.exponential(1.0 / rate))
        ts = session_end + float(rng.exponential(120.0 / max(intensity, 0.1)))


def _printer(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Mostly silent; periodic mDNS announcements and rare print jobs."""
    for announce_ts in np.arange(t0 + float(rng.uniform(0, 10)), t1, 30.0):
        builder.add_udp(
            float(announce_ts), device.ip, 0xE00000FB, 5353, 5353,
            int(rng.integers(80, 200)),
        )
    ts = t0 + float(rng.exponential(100.0))
    while ts < t1:
        # an inbound print job: bulk data to port 9100
        client = servers.pick_web(rng)
        port = _ephemeral(rng)
        n_chunks = int(rng.integers(10, 60))
        for i in range(n_chunks):
            builder.add_tcp(ts + i * 0.01, client, device.ip, port, 9100, 1460)
        builder.add_tcp(ts + n_chunks * 0.01, device.ip, client, 9100, port, 20)
        ts += float(rng.exponential(150.0 / max(intensity, 0.1)))


def _scada_plc(builder, device, servers, rng, t0, t1, intensity) -> None:
    """Industrial controller: metronomic Modbus-style polling."""
    master = servers.pick_cloud(rng)
    port = _ephemeral(rng)
    period = 2.0 / max(intensity, 0.1)
    for ts in np.arange(t0 + float(rng.uniform(0, period)), t1, period):
        jitter = float(rng.normal(0.0, 0.002))
        builder.add_tcp(ts + jitter, master, device.ip, port, 502, 12)
        builder.add_tcp(ts + jitter + 0.01, device.ip, master, 502, port, int(rng.integers(10, 40)))


DEVICE_MODELS: dict[str, DeviceModel] = {
    model.name: model
    for model in [
        DeviceModel("camera", "IP camera streaming video to the cloud", _camera),
        DeviceModel("thermostat", "MQTT telemetry publisher", _thermostat),
        DeviceModel("smart_plug", "sparse keepalive traffic", _smart_plug),
        DeviceModel("motion_sensor", "bursty CoAP event reports", _motion_sensor),
        DeviceModel("smart_hub", "DNS-chatty HTTPS poller", _smart_hub),
        DeviceModel("voice_assistant", "idle with interaction bursts", _voice_assistant),
        DeviceModel("workstation", "heavy-tailed enterprise browsing", _workstation),
        DeviceModel("smart_tv", "download-heavy streaming sessions", _smart_tv),
        DeviceModel("printer", "mDNS announcements and rare bulk jobs", _printer),
        DeviceModel("scada_plc", "metronomic industrial polling", _scada_plc),
    ]
}

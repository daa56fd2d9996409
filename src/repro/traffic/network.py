"""Network scenarios: devices + servers + attacks -> one labelled trace.

A :class:`NetworkScenario` is the generative description of one dataset:
the device population, benign intensity, trace duration, and a list of
:class:`~repro.traffic.attacks.AttackSpec` windows.  ``generate()`` is
deterministic in the seed, so every dataset in the registry is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.net.addresses import ip_to_int, prefix_to_range
from repro.net.headers import Dot11Header
from repro.net.table import PacketTable
from repro.traffic.attacks import ATTACK_GENERATORS, AttackContext, AttackSpec
from repro.traffic.builder import TraceBuilder
from repro.traffic.devices import DEVICE_MODELS, Device, Servers


@dataclass(frozen=True)
class NetworkScenario:
    """A reproducible traffic scenario.

    ``device_counts`` maps device-model names to instance counts.
    ``victim_model`` picks which device model the attacks target (or
    originate from, for infection-style attacks); when ``None`` a random
    device is chosen.  ``wifi=True`` generates 802.11 frames without IP
    headers (the AWID3 substitution) instead of Ethernet/IP traffic.
    """

    name: str
    device_counts: dict[str, int]
    duration: float = 300.0
    seed: int = 0
    benign_intensity: float = 1.0
    attacks: tuple[AttackSpec, ...] = ()
    subnet: str = "192.168.1.0/24"
    victim_model: str | None = None
    n_local_servers: int = 1
    wifi: bool = False

    def __post_init__(self) -> None:
        for model in self.device_counts:
            if model not in DEVICE_MODELS:
                raise ValueError(f"unknown device model: {model!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    # ------------------------------------------------------------------

    def _allocate_hosts(
        self, rng: np.random.Generator
    ) -> tuple[list[Device], list[int], Servers]:
        low, _ = prefix_to_range(self.subnet)
        next_host = low + 10
        devices: list[Device] = []
        mac_base = 0x02AA00000000 + (self.seed % 1000) * 0x10000
        for model, count in sorted(self.device_counts.items()):
            for i in range(count):
                devices.append(
                    Device(
                        ip=next_host,
                        mac=mac_base + len(devices) + 1,
                        model=model,
                        name=f"{model}-{i}",
                    )
                )
                next_host += 1
        local_servers = [next_host + i for i in range(self.n_local_servers)]
        # External endpoints live in distinct, seed-dependent /8-ish pools
        # so different datasets genuinely have different address spaces.
        pool = 0x08000000 + (self.seed % 7) * 0x04000000
        servers = Servers(
            dns=pool + 0x0101,
            ntp=pool + 0x0202,
            cloud=[pool + 0x1000 + i for i in range(4)],
            web=local_servers + [pool + 0x2000 + i for i in range(8)],
        )
        return devices, local_servers, servers

    def _run_benign(
        self,
        builder: TraceBuilder,
        devices: list[Device],
        servers: Servers,
        rng: np.random.Generator,
    ) -> None:
        for device in devices:
            model = DEVICE_MODELS[device.model]
            device_rng = np.random.default_rng(
                rng.integers(0, 2**63 - 1)
            )
            model.generate(
                builder, device, servers, device_rng, 0.0, self.duration,
                self.benign_intensity,
            )

    def _run_benign_wifi(
        self, builder: TraceBuilder, devices: list[Device], rng: np.random.Generator
    ) -> None:
        """802.11 benign traffic: AP beacons + station data frames."""
        ap_mac = 0x02AC000000FE
        for ts in np.arange(0.0, self.duration, 0.1024):
            builder.add_dot11(
                float(ts), Dot11Header.TYPE_MANAGEMENT,
                Dot11Header.SUBTYPE_BEACON, ap_mac, 0xFFFFFFFFFFFF,
                payload_len=80,
            )
        for device in devices:
            ts = float(rng.uniform(0, 2.0))
            rate = 4.0 * self.benign_intensity
            while ts < self.duration:
                up = rng.random() < 0.6
                src, dst = (device.mac, ap_mac) if up else (ap_mac, device.mac)
                builder.add_dot11(
                    ts, Dot11Header.TYPE_DATA, 0, src, dst,
                    payload_len=int(min(max(rng.normal(220, 120), 28), 1400)),
                )
                ts += float(rng.exponential(1.0 / rate))

    def _pick_victim(self, devices: list[Device], local_servers: list[int],
                     spec: AttackSpec, rng: np.random.Generator) -> Device:
        candidates = devices
        if self.victim_model is not None:
            filtered = [d for d in devices if d.model == self.victim_model]
            if filtered:
                candidates = filtered
        return candidates[int(rng.integers(0, len(candidates)))]

    def _run_attacks(
        self,
        builder: TraceBuilder,
        devices: list[Device],
        local_servers: list[int],
        rng: np.random.Generator,
    ) -> dict[str, list[tuple[int, float, float]]]:
        low, _ = prefix_to_range(self.subnet)
        gateway_ip = low + 1
        cnc_ip = 0xC0000200 + (self.seed % 250)  # 192.0.2.x, attacker space
        victims: dict[str, list[tuple[int, float, float]]] = {}
        for spec in self.attacks:
            victim = self._pick_victim(devices, local_servers, spec, rng)
            # DoS-style attacks on networks with local servers hit those.
            server_targets = {"dos_syn_flood", "dos_udp_flood", "dos_http_flood",
                              "dos_slowloris", "ddos_reflection", "web_attack",
                              "brute_force_ssh", "brute_force_ftp"}
            if spec.name in server_targets and local_servers and self.victim_model is None:
                victim_ips = [int(rng.choice(local_servers))]
            else:
                victim_ips = [victim.ip]
            context = AttackContext(
                builder=builder,
                rng=np.random.default_rng(rng.integers(0, 2**63 - 1)),
                t0=self.duration * spec.start_frac,
                t1=self.duration * spec.end_frac,
                attacker_ips=[cnc_ip],
                victim_ips=victim_ips,
                intensity=spec.intensity,
                attacker_mac=0x02BAD0000001,
                victim_mac=victim.mac,
                gateway_ip=gateway_ip,
            )
            ATTACK_GENERATORS[spec.name](context)
            victims.setdefault(spec.name, []).append(
                (victim_ips[0], context.t0, context.t1)
            )
        return victims

    # ------------------------------------------------------------------

    def generate(self) -> PacketTable:
        """Produce the labelled, time-sorted trace for this scenario."""
        rng = np.random.default_rng(self.seed)
        builder = TraceBuilder()
        devices, local_servers, servers = self._allocate_hosts(rng)
        if self.wifi:
            self._run_benign_wifi(builder, devices, rng)
        else:
            self._run_benign(builder, devices, servers, rng)
        victims = self._run_attacks(builder, devices, local_servers, rng)
        table = builder.build()
        self._label_interceptions(table, victims)
        return table

    def _label_interceptions(
        self, table: PacketTable, victims: dict[str, list[tuple[int, float, float]]]
    ) -> None:
        """Mark MitM-intercepted packets inside ongoing benign flows.

        An ARP man-in-the-middle reroutes the victim's *existing*
        traffic through the attacker; datasets such as the IEEE IoT
        intrusion dataset label those relayed packets malicious.  The
        result is connections that mix benign and malicious packets --
        the precise situation that makes packet-granularity datasets
        unusable for connection-level algorithms (Section 2.1).
        """
        windows = victims.get("arp_mitm", [])
        if not windows:
            return
        attack_id = table.attacks.index("arp_mitm")
        for victim_ip, t0, t1 in windows:
            involved = (table.src_ip == victim_ip) | (table.dst_ip == victim_ip)
            in_window = (table.ts >= t0) & (table.ts <= t1)
            intercepted = involved & in_window & (table.label == 0)
            table.columns["label"][intercepted] = 1
            table.columns["attack_id"][intercepted] = attack_id

"""The 15 dataset profiles and their loaders.

Each profile was tuned so that (a) same-dataset train/test is learnable,
(b) profiles from different "sources" (enterprise vs IoT-botnet vs smart
home vs Wi-Fi) differ in address space, device mix, timing and attack
inventory -- which is what drives the paper's cross-dataset collapse --
and (c) attack class balance at the dataset's native granularity is not
degenerate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.flows import FlowTable, Granularity, assemble_flows
from repro.net.table import PacketTable
from repro.traffic.attacks import AttackSpec
from repro.traffic.network import NetworkScenario


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one benchmark dataset."""

    dataset_id: str
    title: str
    stands_in_for: str
    granularity: Granularity
    scenario: NetworkScenario

    @property
    def attacks(self) -> list[str]:
        return [spec.name for spec in self.scenario.attacks]


_ENTERPRISE_DEVICES = {
    "workstation": 6,
    "smart_hub": 2,
    "camera": 1,
}

_IOT_HOME_DEVICES = {
    "camera": 2,
    "thermostat": 3,
    "smart_plug": 3,
    "motion_sensor": 3,
    "smart_hub": 3,
    "voice_assistant": 2,
}

_CAMERA_NETWORK_DEVICES = {"camera": 4, "smart_hub": 1}

_SMART_HOME_DEVICES = {
    "camera": 1,
    "thermostat": 1,
    "smart_plug": 2,
    "motion_sensor": 1,
    "smart_hub": 1,
    "voice_assistant": 1,
    "workstation": 1,
}


def _spec(
    dataset_id: str,
    title: str,
    stands_in_for: str,
    granularity: Granularity,
    devices: dict[str, int],
    attacks: tuple[AttackSpec, ...],
    seed: int,
    duration: float = 600.0,
    benign_intensity: float = 1.0,
    subnet: str = "192.168.1.0/24",
    victim_model: str | None = None,
    wifi: bool = False,
    n_local_servers: int = 1,
) -> DatasetSpec:
    scenario = NetworkScenario(
        name=dataset_id,
        device_counts=devices,
        duration=duration,
        seed=seed,
        benign_intensity=benign_intensity,
        attacks=attacks,
        subnet=subnet,
        victim_model=victim_model,
        wifi=wifi,
        n_local_servers=n_local_servers,
    )
    return DatasetSpec(dataset_id, title, stands_in_for, granularity, scenario)


DATASETS: dict[str, DatasetSpec] = {
    spec.dataset_id: spec
    for spec in [
        # ---------------- connection-granularity (F) ----------------
        _spec(
            "F0", "Enterprise Tuesday: credential brute force",
            "CICIDS 2017, Tuesday",
            Granularity.CONNECTION, _ENTERPRISE_DEVICES,
            (
                AttackSpec("brute_force_ftp", 0.15, 0.45, intensity=0.8),
                AttackSpec("brute_force_ssh", 0.55, 0.85, intensity=0.8),
            ),
            seed=100, subnet="172.16.0.0/24", n_local_servers=2,
        ),
        _spec(
            "F1", "Enterprise Wednesday: DoS family",
            "CICIDS 2017, Wednesday",
            Granularity.CONNECTION, _ENTERPRISE_DEVICES,
            (
                AttackSpec("dos_http_flood", 0.1, 0.3, intensity=0.2),
                AttackSpec("dos_slowloris", 0.4, 0.6, intensity=0.8),
                AttackSpec("dos_syn_flood", 0.7, 0.85, intensity=0.06),
            ),
            seed=101, subnet="172.16.0.0/24", n_local_servers=2,
        ),
        _spec(
            "F2", "Enterprise Thursday: web attacks and infiltration",
            "CICIDS 2017, Thursday",
            Granularity.CONNECTION, _ENTERPRISE_DEVICES,
            (
                AttackSpec("web_attack", 0.1, 0.4, intensity=1.2),
                AttackSpec("infiltration", 0.55, 0.9),
            ),
            seed=102, subnet="172.16.0.0/24", n_local_servers=2,
        ),
        _spec(
            "F3", "Reflection DDoS day",
            "CICIDS 2019, 01-11",
            Granularity.CONNECTION, _ENTERPRISE_DEVICES,
            (
                AttackSpec("ddos_reflection", 0.25, 0.55, intensity=0.1),
                AttackSpec("dos_udp_flood", 0.65, 0.8, intensity=0.06),
            ),
            seed=103, subnet="10.50.0.0/24", n_local_servers=2,
        ),
        _spec(
            "F4", "IoT botnet: Neris-style C&C plus spreading",
            "CTU, 1-1",
            Granularity.CONNECTION, _IOT_HOME_DEVICES,
            (
                AttackSpec("botnet_cnc", 0.1, 0.9, intensity=2.0),
                AttackSpec("botnet_spread", 0.3, 0.7, intensity=0.3),
                AttackSpec("dns_tunnel", 0.4, 0.8, intensity=0.5),
            ),
            seed=104, subnet="192.168.10.0/24", victim_model="camera",
            benign_intensity=2.0,
        ),
        _spec(
            "F5", "IoT botnet: stealthy Torii-style implant",
            "CTU, 20-1 (Torii)",
            Granularity.CONNECTION, _IOT_HOME_DEVICES,
            (
                # Torii is deliberately quiet: low-rate beaconing plus a
                # single slow exfiltration -- hard to learn from other
                # datasets, but a model trained here sees subtle signals.
                AttackSpec("botnet_cnc", 0.05, 0.95, intensity=1.0),
                AttackSpec("exfiltration", 0.35, 0.95, intensity=1.5),
            ),
            seed=105, subnet="192.168.20.0/24", victim_model="smart_plug",
            benign_intensity=2.0,
        ),
        _spec(
            "F6", "IoT botnet: scanning and spam",
            "CTU, 3-1",
            Granularity.CONNECTION, _IOT_HOME_DEVICES,
            (
                AttackSpec("port_scan", 0.2, 0.5, intensity=0.8),
                AttackSpec("botnet_spread", 0.55, 0.9, intensity=0.5),
            ),
            seed=106, subnet="192.168.30.0/24", victim_model="smart_hub",
            benign_intensity=2.0,
        ),
        _spec(
            "F7", "IoT botnet: Mirai-style infect-and-flood",
            "CTU, 7-1",
            Granularity.CONNECTION, _CAMERA_NETWORK_DEVICES,
            (
                AttackSpec("brute_force_telnet", 0.1, 0.3, intensity=0.6),
                AttackSpec("botnet_spread", 0.35, 0.7, intensity=0.4),
                AttackSpec("dos_syn_flood", 0.75, 0.9, intensity=0.05),
            ),
            seed=107, subnet="192.168.40.0/24", victim_model="camera",
            benign_intensity=2.5,
        ),
        _spec(
            "F8", "IoT botnet: mixed malware activity",
            "CTU, 34-1",
            Granularity.CONNECTION, _IOT_HOME_DEVICES,
            (
                AttackSpec("botnet_cnc", 0.1, 0.9, intensity=1.5),
                AttackSpec("dos_udp_flood", 0.3, 0.45, intensity=0.05),
                AttackSpec("port_scan", 0.6, 0.8, intensity=0.5),
            ),
            seed=108, subnet="192.168.50.0/24", victim_model="voice_assistant",
            benign_intensity=2.0,
        ),
        _spec(
            "F9", "IoT botnet: Hajime-style scan and tunnel",
            "CTU, 8-1",
            Granularity.CONNECTION, _IOT_HOME_DEVICES,
            (
                AttackSpec("botnet_spread", 0.15, 0.6, intensity=0.35),
                AttackSpec("dns_tunnel", 0.65, 0.95, intensity=1.0),
            ),
            seed=109, subnet="192.168.60.0/24", victim_model="motion_sensor",
            benign_intensity=2.0,
        ),
        # ---------------- packet-granularity (P) ----------------
        _spec(
            "P0", "Smart home intrusion: scan, MitM, flood",
            "IEEE IoT network intrusion dataset",
            Granularity.PACKET, _SMART_HOME_DEVICES,
            (
                AttackSpec("port_scan", 0.1, 0.3, intensity=0.6),
                AttackSpec("arp_mitm", 0.4, 0.6, intensity=2.0),
                AttackSpec("dos_syn_flood", 0.7, 0.85, intensity=0.2),
            ),
            seed=110, subnet="192.168.70.0/24",
        ),
        _spec(
            "P1", "Camera network under Mirai-style attack phases",
            "Kitsune (camera traffic)",
            Granularity.PACKET, _CAMERA_NETWORK_DEVICES,
            (
                AttackSpec("port_scan", 0.05, 0.2, intensity=0.5),
                AttackSpec("brute_force_telnet", 0.25, 0.4, intensity=0.8),
                AttackSpec("arp_mitm", 0.45, 0.6, intensity=1.5),
                AttackSpec("dos_syn_flood", 0.65, 0.8, intensity=0.25),
                AttackSpec("dos_udp_flood", 0.85, 0.95, intensity=0.15),
            ),
            seed=111, subnet="192.168.80.0/24", victim_model="camera",
        ),
        _spec(
            "P2", "802.11 enterprise attacks (no IP headers)",
            "AWID3",
            Granularity.PACKET, {"camera": 2, "smart_hub": 2, "workstation": 4},
            (
                AttackSpec("wifi_deauth", 0.15, 0.4, intensity=1.0),
                AttackSpec("wifi_eviltwin", 0.55, 0.85, intensity=1.0),
            ),
            seed=112, wifi=True, duration=420.0,
        ),
    ]
}


def dataset_ids(granularity: Granularity | None = None) -> list[str]:
    """All dataset ids, optionally filtered by granularity."""
    return [
        spec.dataset_id
        for spec in DATASETS.values()
        if granularity is None or spec.granularity == granularity
    ]


@functools.lru_cache(maxsize=None)
def load_dataset(dataset_id: str) -> PacketTable:
    """Generate (or return the cached) trace for a dataset id."""
    if dataset_id not in DATASETS:
        # lazy: importing repro.core loads the engine and the models,
        # which reading and generating traces never needs
        from repro.core.errors import UnknownIdError

        raise UnknownIdError(
            f"unknown dataset {dataset_id!r}; known: {sorted(DATASETS)}"
        )
    return DATASETS[dataset_id].scenario.generate()


@functools.lru_cache(maxsize=None)
def load_flows(dataset_id: str, granularity: Granularity) -> FlowTable:
    """Load a dataset and assemble it at a flow-like granularity (cached).

    This is one half of Lumen's intermediate-result sharing: every
    algorithm evaluated on the same dataset reuses the same assembly.
    """
    table = load_dataset(dataset_id)
    return assemble_flows(table, granularity)


def attack_inventory() -> dict[str, list[str]]:
    """attack name -> dataset ids containing it (drives Figure 5)."""
    inventory: dict[str, list[str]] = {}
    for spec in DATASETS.values():
        for attack in spec.attacks:
            inventory.setdefault(attack, []).append(spec.dataset_id)
    return {name: sorted(ids) for name, ids in sorted(inventory.items())}

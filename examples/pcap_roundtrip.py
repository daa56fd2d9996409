#!/usr/bin/env python3
"""The network substrate end to end: scenario -> pcap -> flows.

Demonstrates that the synthetic traces are real packets: a generated
scenario is written to a classic ``.pcap`` file (readable by Wireshark/
tcpdump) with ``write_pcap_table``, read back with ``read_pcap_table``,
and assembled into connections that match the original trace.

Run with:  python examples/pcap_roundtrip.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.flows import assemble_connections
from repro.net.pcap import read_pcap_table, write_pcap_table
from repro.traffic import AttackSpec, NetworkScenario


def main() -> None:
    scenario = NetworkScenario(
        name="demo-home",
        device_counts={"camera": 1, "thermostat": 1, "smart_plug": 1},
        duration=60.0,
        seed=42,
        attacks=(AttackSpec("port_scan", 0.4, 0.7, intensity=0.1),),
    )
    table = scenario.generate()
    print(f"generated trace : {table.summary()}")

    # ---- write real pcap bytes -----------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.pcap"
        table = table.sort_by_time()
        write_pcap_table(path, table)
        size_kib = path.stat().st_size / 1024
        print(f"wrote           : {path.name} ({size_kib:.0f} KiB, "
              f"{len(table)} packets)")

        # ---- read it back -------------------------------------------------
        rebuilt = read_pcap_table(path)
        print(f"read back       : {len(rebuilt)} packets")

    # labels don't survive the wire (pcap has no label field), so
    # re-attach them from the original trace for the comparison
    rebuilt.columns["label"] = table.label
    rebuilt.columns["attack_id"] = table.attack_id
    rebuilt.attacks = table.attacks
    # pcap stores microsecond timestamps, so compare time with that
    # tolerance and everything else exactly
    ts_close = np.allclose(table.ts, rebuilt.ts, atol=1e-6)
    rebuilt.columns["ts"] = table.ts
    print(f"tables equal    : {table.equals(rebuilt)} "
          f"(timestamps within 1us: {ts_close})")

    # ---- flow assembly --------------------------------------------------
    connections = assemble_connections(table)
    print(f"connections     : {connections.summary()}")
    malicious = connections.select(connections.labels == 1)
    scanned_ports = malicious.key_columns["dst_port"]
    print(f"scanned ports   : {len(set(scanned_ports.tolist()))} distinct "
          f"destination ports across {len(malicious)} malicious connections")


if __name__ == "__main__":
    main()

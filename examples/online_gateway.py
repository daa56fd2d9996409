#!/usr/bin/env python3
"""Online detection at the gateway (the paper's deployment story).

Network gateways are the natural chokepoint for IoT traffic.  This
example trains a KitNET detector on a day of benign traffic, then
replays an attacked capture chunk by chunk -- the way a live capture
loop would deliver packets -- through an engine stream session and
raises alerts as the SYN flood starts.  The session carries the
incremental Kitsune feature state across chunks, so detection latency
is per-packet, not per-batch, and the scores equal a single-pass run.

The template is the one ``repro serve`` scores with by default.

Run with:  python examples/online_gateway.py
"""

import numpy as np

from repro.core import ExecutionEngine, Pipeline
from repro.core.streaming import chunked
from repro.ml import KitNET
from repro.net.addresses import int_to_ip
from repro.serve.daemon import DEFAULT_TEMPLATE
from repro.traffic import AttackSpec, NetworkScenario

DEVICES = {"camera": 1, "thermostat": 1, "smart_plug": 1, "smart_hub": 1}


def main() -> None:
    engine = ExecutionEngine(use_cache=False, track_memory=False)
    pipeline = Pipeline.from_template([dict(step) for step in DEFAULT_TEMPLATE])

    # day 0: benign-only capture, used to learn "normal"
    benign = NetworkScenario(
        name="day0", device_counts=DEVICES, duration=180.0, seed=71
    ).generate()
    training_sample = benign.select(np.arange(0, len(benign), 3))
    print(f"training on benign capture: {training_sample.summary()}")
    features = engine.run(pipeline, training_sample, outputs=["X"])["X"]
    model = KitNET(n_epochs=15, seed=0)
    model.fit(features)
    threshold = float(np.quantile(model.score_samples(features), 0.98))

    # day 1: same network, but a SYN flood hits mid-capture
    attacked = NetworkScenario(
        name="day1", device_counts=DEVICES, duration=180.0, seed=72,
        attacks=(AttackSpec("dos_syn_flood", 0.4, 0.7, intensity=0.3),),
    ).generate()
    print(f"replaying attacked capture: {attacked.summary()}")
    print()
    print(f"{'window':>12} {'packets':>8} {'alerts':>7} {'alert rate':>11}")
    session = engine.open_stream(pipeline, outputs=["X"])
    first_alert = None
    for chunk in chunked(attacked.sort_by_time(), 15.0):
        scores = model.score_samples(session.process_chunk(chunk)["X"])
        alerts = np.flatnonzero(scores > threshold)
        start = chunk.ts.min()
        print(f"{start:>7.0f}s-{start + 15:>3.0f}s {len(chunk):>8} "
              f"{len(alerts):>7} {len(alerts) / max(len(chunk), 1):>10.1%}")
        if len(alerts) and first_alert is None:
            row = alerts[0]
            first_alert = (float(chunk.ts[row]), int(chunk.src_ip[row]),
                           int(chunk.dst_ip[row]), float(scores[row]))
    print()
    if first_alert is not None:
        timestamp, src_ip, dst_ip, score = first_alert
        print(
            f"first alert at t={timestamp:.2f}s "
            f"({int_to_ip(src_ip)} -> {int_to_ip(dst_ip)}, score "
            f"{score:.3f})"
        )
        attack_start = 180.0 * 0.4
        print(f"attack window opened at t={attack_start:.0f}s")


if __name__ == "__main__":
    main()

"""One-shot markdown report over a result store.

"Lumen illustrations can help an operator easily identify the most
suitable algorithm to deploy" -- this module renders the full set of
Section 5 analyses into a single markdown document an operator can read
(or diff between runs).  Used by ``python -m repro report``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.analysis import (
    algorithms_below,
    asymmetry_pairs,
    best_gap_by_algorithm,
    distribution_by_algorithm,
    no_single_best,
    per_attack_precision,
    train_test_median_matrix,
)
from repro.bench.results import ResultStore
from repro.core.errors import InputError


def _code_block(text: str) -> str:
    return f"```\n{text}\n```"


def _recommendations(store: ResultStore) -> list[str]:
    """Per-attack deployment recommendations from the Figure 5 view."""
    heatmap = per_attack_precision(store)
    lines = []
    for j, attack in enumerate(heatmap.col_labels):
        column = heatmap.values[:, j]
        if np.isnan(column).all():
            continue
        best = int(np.nanargmax(column))
        lines.append(
            f"| {attack} | {heatmap.row_labels[best]} "
            f"| {column[best]:.2f} |"
        )
    return lines


def _failures_section(store: ResultStore) -> list[str]:
    """A table of failed cells (guarded runs record these instead of
    crashing the campaign)."""
    parts = [
        "## Failed evaluations", "",
        f"{len(store.failures)} cell(s) exhausted their retries; the "
        f"analyses below cover the cells that completed.",
        "",
        "| algorithm | train | test | phase | error | attempts |",
        "|---|---|---|---|---|---|",
    ]
    for failure in store.failures:
        parts.append(
            f"| {failure.algorithm} | {failure.train_dataset} "
            f"| {failure.test_dataset} | {failure.phase} "
            f"| {failure.error_type} | {failure.attempts} |"
        )
    parts.append("")
    return parts


def generate_report(store: ResultStore, title: str = "Lumen benchmark report") -> str:
    """Render the full analysis bundle as markdown.

    A store holding only failures still renders (title + failure
    table), so a fully-faulted campaign produces a readable post-mortem
    rather than a crash."""
    if len(store) == 0 and not store.failures:
        raise InputError("cannot report on an empty result store")
    parts: list[str] = [f"# {title}", ""]
    parts.append(
        f"{len(store)} evaluations over {len(store.algorithms())} "
        f"algorithms and {len(store.datasets())} datasets."
    )
    parts.append("")
    if store.failures:
        parts.extend(_failures_section(store))
    if len(store) == 0:
        return "\n".join(parts)

    same = store.query(mode="same")
    cross = store.query(mode="cross")
    parts.append("## Headline observations")
    parts.append("")
    parts.append(
        f"* No single best algorithm across train/test pairs: "
        f"**{no_single_best(store)}** (precision), "
        f"**{no_single_best(store, metric='recall')}** (recall)."
    )
    same_drops = algorithms_below(store, threshold=0.2, mode="same")
    cross_drops = algorithms_below(store, threshold=0.2, mode="cross")
    n_algorithms = len(store.algorithms())
    parts.append(
        f"* Same-dataset: precision drops below 20% somewhere for "
        f"**{len(same_drops)}/{n_algorithms}** algorithms "
        f"({', '.join(same_drops) or 'none'})."
    )
    parts.append(
        f"* Cross-dataset: precision drops below 20% somewhere for "
        f"**{len(cross_drops)}/{len(cross.algorithms())}** of the "
        f"algorithms evaluated cross-dataset."
    )
    asymmetries = asymmetry_pairs(store, gap=0.3)
    if asymmetries:
        a, b, forward, backward = asymmetries[0]
        parts.append(
            f"* Strongest train/test asymmetry: train {a} -> test {b} "
            f"reaches {forward:.2f} while the reverse reaches "
            f"{backward:.2f}."
        )
    parts.append("")

    parts.append("## Same-dataset precision by algorithm (Fig. 8a)")
    parts.append(_code_block(
        distribution_by_algorithm(same, metric="precision").render()
    ))
    parts.append("## Cross-dataset precision by algorithm (Fig. 9a)")
    parts.append(_code_block(
        distribution_by_algorithm(cross, metric="precision").render()
    ))
    parts.append("## Gap to the best algorithm (Fig. 7a)")
    parts.append(_code_block(
        best_gap_by_algorithm(store, metric="precision").render()
    ))
    parts.append("## Median precision per train x test pair (Fig. 10a)")
    parts.append(_code_block(
        train_test_median_matrix(store, metric="precision").render()
    ))
    parts.append("## Per-attack precision (Fig. 5)")
    parts.append(_code_block(per_attack_precision(store).render()))

    recommendations = _recommendations(store)
    if recommendations:
        parts.append("## Deployment recommendations")
        parts.append("")
        parts.append("| attack | best algorithm | precision |")
        parts.append("|---|---|---|")
        parts.extend(recommendations)
        parts.append("")
    return "\n".join(parts)

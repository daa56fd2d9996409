"""CART decision tree classifier.

The classic greedy CART algorithm, grown for a batch of trees at once.
:func:`grow_trees` deduplicates the training rows by their bytes, so each
tree's sample becomes class counts per distinct row, laid out class by
class, and ranks every column of the distinct rows once.  Each step then
takes the next node, in preorder, of every unfinished tree.  One sort of
packed (segment, rank, row) keys orders the rows of every candidate
feature of all those nodes, and per class one gather and one 1-D prefix
sum of counts score every threshold; impurities and gains are per-class
1-D arrays.  A random forest grows all its trees as one batch; a single
tree is a batch of one.  Explicit stacks replace recursion, so a tree
may be as deep as its data makes it.

The counts are exact integers in float64, so every gain, and so every
fitted tree, is the one a node-by-node search over the raw samples
gives.  Supports gini and entropy criteria, depth/size regularisation
and per-node feature subsampling (used by the random forest).
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    distribution: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left < 0


_SHARED = ("max_depth", "min_samples_split", "min_samples_leaf", "criterion", "max_features")


def _class_sum(terms: Iterator[np.ndarray], n: int) -> np.ndarray:
    """The sum of the ``n`` arrays ``terms`` yields, in numpy's order for one row.

    numpy adds a row of fewer than eight values left to right, a longer
    one as eight interleaved partial sums, and halves a row of more than
    128 values.  Adding 1-D class columns in that order gives, bit for
    bit, the sum over the last axis of a row-major ``(rows, classes)``
    array.  The terms are drawn one at a time, so at most nine are held.
    """
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _class_sum(terms, half) + _class_sum(terms, n - half)
    if n < 8:
        return functools.reduce(np.add, itertools.islice(terms, n))
    partial = [next(terms) for _ in range(8)]
    for _ in range(n // 8 - 1):
        partial = [a + next(terms) for a in partial]
    total = ((partial[0] + partial[1]) + (partial[2] + partial[3])) + (
        (partial[4] + partial[5]) + (partial[6] + partial[7])
    )
    return functools.reduce(np.add, itertools.islice(terms, n % 8), total)


def _impurity(
    columns: Iterable[np.ndarray], totals: np.ndarray, n_classes: int, criterion: str
) -> np.ndarray:
    """Impurity of nodes from their class counts, one 1-D column per class.

    ``totals`` are the columns' sums.  Each class's proportion and term
    is a 1-D array made when :func:`_class_sum` draws it, in the order a
    reduction over the class axis adds them, so the impurity is the
    float a row-major ``(nodes, classes)`` computation gives.
    """
    totals = np.maximum(totals, 1)
    proportions = (column / totals for column in columns)
    if criterion == "gini":
        impurity = _class_sum((p**2 for p in proportions), n_classes)
        return np.subtract(1.0, impurity, out=impurity)
    if criterion == "entropy":
        impurity = _class_sum(
            (p * np.where(p > 0, np.log2(np.maximum(p, 1e-300)), 0.0) for p in proportions),
            n_classes,
        )
        return np.negative(impurity, out=impurity)
    raise ValueError(f"unknown criterion: {criterion!r}")


def _distinct_rows(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``X``, compared by bytes, and each row's index in them."""
    if X.shape[1] == 0:
        return X[:1], np.zeros(len(X), dtype=np.intp)
    keys = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * X.shape[1])))
    _, first, row_of = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    return X[first], row_of


def grow_trees(
    trees: list["DecisionTreeClassifier"],
    X: np.ndarray,
    labels: np.ndarray,
    samples: list[np.ndarray],
) -> None:
    """Fit ``trees[t]`` on the rows ``samples[t]`` of ``(X, labels)``.

    The trees must share every hyperparameter but ``seed``.  Each sample
    becomes class counts per distinct row of ``X``, laid out class by
    class.  A tree knows only the classes in its sample, so trees that
    hold the same classes grow together, in lock-step, over those
    classes alone.
    """
    if len({tuple(getattr(tree, name) for name in _SHARED) for tree in trees}) > 1:
        raise ValueError("lock-step trees must share hyper-parameters")
    classes, encoded = np.unique(labels, return_inverse=True)
    distinct, row_of = _distinct_rows(X)
    n_distinct, n_features = distinct.shape
    ranks = np.empty((n_features, n_distinct), dtype=np.int64)
    for feature in range(n_features):
        ranks[feature] = np.unique(distinct[:, feature], return_inverse=True)[1]
    cells = encoded * n_distinct + row_of
    counts = np.empty((len(classes), len(trees), n_distinct))
    for t, sample in enumerate(samples):
        counts[:, t] = np.bincount(cells[sample], minlength=counts[:, t].size).reshape(
            len(classes), n_distinct
        )
    masks, group_of_tree = np.unique(counts.any(axis=2).T, axis=0, return_inverse=True)
    groups = []
    for group, mask in enumerate(masks):
        members = np.flatnonzero(group_of_tree == group)
        groups.append((members, mask, counts[np.ix_(mask, members)].reshape(mask.sum(), -1)))
    del counts  # each group's counts are freed once it has grown
    while groups:
        members, mask, group_counts = groups.pop(0)
        _grow_in_lock_step(
            [trees[t] for t in members], classes[mask], distinct, ranks, group_counts
        )


def _grow_in_lock_step(
    trees: list["DecisionTreeClassifier"],
    classes: np.ndarray,
    distinct: np.ndarray,
    ranks: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Grow ``trees`` over the distinct rows, in lock-step.

    ``counts[c, t * n_distinct + u]`` is how often tree t's sample holds
    distinct row u with class c.  Each step pops the next node, in
    preorder, of every unfinished tree, and one call of
    :func:`_best_splits` scores them all.  Each tree draws its candidate
    features from its own generator, node by node in preorder, so it is
    the tree it would be if it were grown alone.
    """
    spec = trees[0]
    n_features = distinct.shape[1]
    for tree in trees:
        tree.classes_ = classes
        tree.n_features_ = n_features
        tree.nodes_ = []
    n_candidates = spec._n_candidate_features()
    every_feature = np.arange(n_features)
    rngs = [check_random_state(tree.seed) for tree in trees]
    per_tree = counts.reshape(len(classes), len(trees), -1)
    roots = per_tree.sum(axis=2)
    distributions, may_split = _node_states(roots, np.zeros(len(trees)), spec)
    # A pending node: (distinct rows, class counts, distribution, may split,
    # depth, parent id, is left child)
    stacks = [
        [(np.flatnonzero(present), roots[:, t], distributions[t], may_split[t], 0, -1, False)]
        for t, present in enumerate(per_tree.any(axis=0))
    ]
    while True:
        batch = []
        for t, (tree, stack) in enumerate(zip(trees, stacks)):
            nodes = tree.nodes_
            while stack:
                rows, node_counts, distribution, may_split, depth, parent, is_left = stack.pop()
                node_id = len(nodes)
                if is_left:
                    nodes[parent].left = node_id
                elif parent >= 0:
                    nodes[parent].right = node_id
                nodes.append(_Node(distribution=distribution))
                if not may_split:
                    continue
                if n_candidates < n_features:
                    features = rngs[t].choice(n_features, size=n_candidates, replace=False)
                else:
                    features = every_feature
                batch.append((t, node_id, rows, node_counts, depth, features))
                break
        if not batch:
            return
        for (t, node_id, *_), split in zip(batch, _best_splits(batch, distinct, ranks, counts, spec)):
            if split is None:
                continue
            node = trees[t].nodes_[node_id]
            node.feature, node.threshold, left, right = split
            stacks[t].append((*right, node_id, False))
            stacks[t].append((*left, node_id, True))


def _node_states(
    counts: np.ndarray, depths: np.ndarray, spec: "DecisionTreeClassifier"
) -> tuple[np.ndarray, list[bool]]:
    """Each node's class distribution and whether it may split.

    ``counts[:, j]`` holds node j's class counts.  A node may split when
    it holds at least ``min_samples_split`` samples of more than one
    class above ``max_depth``.
    """
    totals = counts.sum(axis=0)
    may_split = (totals >= spec.min_samples_split) & (counts.max(axis=0) < totals)
    if spec.max_depth is not None:
        may_split &= depths < spec.max_depth
    return np.divide(counts.T, totals[:, None], order="C"), may_split.tolist()


def _best_splits(
    batch: list[tuple],
    distinct: np.ndarray,
    ranks: np.ndarray,
    counts: np.ndarray,
    spec: "DecisionTreeClassifier",
) -> list[tuple | None]:
    """The best split of every node in ``batch``, or None where none gains.

    A segment is one candidate feature of one node; :func:`_sorted_segments`
    orders the rows of every segment by rank.  Per class, one gather and
    one prefix sum of counts give the left counts at every boundary
    between two distinct values.  The best split has the largest gain
    over ``1e-12``; ties go to the earliest feature in draw order, then to
    the lowest threshold.  A split is ``(feature, threshold, left, right)``
    and each child ``(rows, class counts, distribution, may split, depth)``;
    only a child that may split carries its rows.
    """
    n_nodes = len(batch)
    n_distinct = ranks.shape[1]
    node_tree = np.array([entry[0] for entry in batch])
    node_counts = np.array([entry[3] for entry in batch]).T
    features = np.array([entry[5] for entry in batch])
    k = features.shape[1]
    lengths = np.array([len(entry[2]) for entry in batch])
    rows = np.concatenate([entry[2] for entry in batch])
    node_of_row = np.repeat(np.arange(n_nodes), lengths)
    keys, starts, boundary, segment = _sorted_segments(features, ranks, rows, node_of_row, lengths)
    # ``keys`` now holds each sorted position's index into ``rows``.
    flat_rows = (node_tree * n_distinct).take(node_of_row)
    flat_rows += rows
    del node_of_row
    left = np.empty((len(counts), len(boundary)))
    lows = starts.take(segment)
    prefix = np.zeros(len(keys) + 1)
    for c, class_counts in enumerate(counts):
        # With ``mode="clip"``, ``take`` fills ``out`` without a buffer;
        # every index is in range.
        class_counts.take(flat_rows).take(keys, out=prefix[1:], mode="clip")
        np.cumsum(prefix[1:], out=prefix[1:])
        prefix[1:].take(boundary, out=left[c], mode="clip")
        left[c] -= prefix.take(lows)
    del prefix, lows, flat_rows
    keys = keys.astype(np.min_scalar_type(len(rows)))
    node = (np.arange(len(starts) - 1) % n_nodes).take(segment)
    left_n = left.sum(axis=0)
    node_n = node_counts.sum(axis=0)
    n = node_n.take(node)
    right_n = n - left_n
    valid = (left_n >= spec.min_samples_leaf) & (right_n >= spec.min_samples_leaf)
    if not valid.all():
        boundary, segment, node, n, left_n, right_n = (
            array[valid] for array in (boundary, segment, node, n, left_n, right_n)
        )
        left = left[:, valid]
    del valid
    if not len(boundary):
        return [None] * n_nodes
    n_classes = len(counts)
    gains = _impurity(iter(left), left_n, n_classes, spec.criterion)
    gains *= left_n
    del left_n
    right = (class_counts.take(node) - class_left for class_counts, class_left in zip(node_counts, left))
    weighted = _impurity(right, right_n, n_classes, spec.criterion)
    weighted *= right_n
    del right_n
    gains += weighted
    gains /= n
    del n
    parent = _impurity(iter(node_counts), node_n, n_classes, spec.criterion)
    np.subtract(parent.take(node), gains, out=gains)

    # Segment ``i * n_nodes + j`` is node j's i-th candidate feature, and
    # its boundaries run in rank order: take each node's best gain, then
    # its first boundary of that gain.
    firsts = np.flatnonzero(np.concatenate(([True], segment[1:] != segment[:-1])))
    best = np.full(len(starts) - 1, -np.inf)
    best[segment[firsts]] = np.maximum.reduceat(gains, firsts)
    best = best.reshape(k, n_nodes).max(axis=0)
    hits = np.flatnonzero(gains == best.take(node))
    first = np.full(n_nodes, len(gains))
    np.minimum.at(first, node[hits], hits)
    chosen = first[first < len(gains)]
    chosen = chosen[gains[chosen] > 1e-12]
    splits: list[tuple | None] = [None] * n_nodes
    if not len(chosen):
        return splits
    nodes, ats, segs = node[chosen], boundary[chosen], segment[chosen]
    split_features = features.T.ravel()[segs]
    low = distinct[rows[keys[ats]], split_features]
    high = distinct[rows[keys[ats + 1]], split_features]
    with np.errstate(over="ignore"):
        thresholds = (low + high) / 2.0
    # Where the midpoint overflowed or rounded up to ``high``, routing by
    # ``<= low`` keeps prediction on the split that was scored.
    thresholds = np.where((low <= thresholds) & (thresholds < high), thresholds, low)
    # Children 0..m-1 are the left ones, m..2m-1 the right ones.
    left = left[:, chosen]
    child_counts = np.concatenate((left, node_counts[:, nodes] - left), axis=1)
    depths = np.array([batch[j][4] + 1 for j in nodes.tolist()])
    distributions, may_split = _node_states(child_counts, np.concatenate((depths, depths)), spec)
    # Child c holds its segment's sorted positions edges[c]:edges[c + m].
    edges = np.concatenate((starts.take(segs), ats + 1, starts.take(segs + 1)))
    m = len(chosen)
    children = [
        (rows.take(keys[lo:hi]) if split else None, class_counts, distribution, split, depth)
        for lo, hi, class_counts, distribution, split, depth in zip(
            edges[:-m].tolist(), edges[m:].tolist(), child_counts.T,
            distributions, may_split, depths.tolist() * 2,
        )
    ]
    for j, feature, threshold, left_child, right_child in zip(
        nodes.tolist(), split_features.tolist(), thresholds.tolist(),
        children, children[m:],
    ):
        splits[j] = (feature, threshold, left_child, right_child)
    return splits


def _sorted_segments(
    features: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    node_of_row: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Sort every segment's rows by rank and find its boundaries between values.

    Segment ``i * n_nodes + j`` holds node j's rows keyed by their rank in
    its ``i``-th candidate feature, and the segments lie one after the
    other.  Each key packs (segment, rank) above the row's index in
    ``rows``, so one sort of the keys orders every segment; the sort
    never moves a key out of its segment, so each position's segment is
    known from ``starts`` alone.  Returns each sorted position's index in
    ``rows``, each segment's start (and the end), and each boundary's
    position and segment.
    """
    n_nodes, k = features.shape
    n_features, n_distinct = ranks.shape
    n_rows = len(rows)
    shift = n_rows.bit_length()
    if (k * n_nodes * n_distinct).bit_length() + shift > 63:
        raise ValueError("too many distinct rows for one split search")
    # ``cells[i, r]`` is row r's cell of ``ranks`` in its node's i-th feature.
    cells = np.ascontiguousarray(features.T * n_distinct).take(node_of_row, axis=1)
    cells += rows
    keys = ranks.take(cells)
    del cells
    keys += node_of_row * n_distinct
    keys += (np.arange(k) * (n_nodes * n_distinct))[:, None]
    keys <<= shift
    keys |= np.arange(n_rows)
    keys = keys.ravel()
    keys.sort()
    node_starts = np.cumsum(lengths) - lengths
    starts = np.append((np.arange(k)[:, None] * n_rows + node_starts).ravel(), len(keys))
    values = keys >> shift
    change = values[1:] != values[:-1]
    del values
    change[starts[1:-1] - 1] = False
    boundary = np.flatnonzero(change)
    del change
    segment = np.searchsorted(starts, boundary, side="right")
    segment -= 1
    keys &= (1 << shift) - 1
    return keys, starts, boundary, segment


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier.

    Parameters mirror the sklearn names the surveyed papers quote:
    ``max_depth``, ``min_samples_split``, ``min_samples_leaf``,
    ``criterion`` and ``max_features`` (``None``, ``"sqrt"`` or an int).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        criterion: str = "gini",
        max_features: int | str | None = None,
        seed: int | None = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed

    # ------------------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        array, labels = check_X_y(X, y)
        grow_trees([self], array, labels, [np.arange(len(labels))])
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, self.n_features_))
        raise ValueError(f"bad max_features: {self.max_features!r}")

    # ------------------------------------------------------------------

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("nodes_")
        array = check_array(X, allow_empty=True)
        if array.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {array.shape[1]}"
            )
        out = np.empty((len(array), len(self.classes_)))
        # Route samples through the tree level by level, in bulk.
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(array)))]
        while stack:
            node_id, indices = stack.pop()
            node = self.nodes_[node_id]
            if node.is_leaf:
                out[indices] = node.distribution
                continue
            go_left = array[indices, node.feature] <= node.threshold
            left_idx = indices[go_left]
            right_idx = indices[~go_left]
            if left_idx.size:
                stack.append((node.left, left_idx))
            if right_idx.size:
                stack.append((node.right, right_idx))
        return out

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree (a root-only tree has depth 0)."""
        self._check_fitted("nodes_")
        # Node ids are preorder, so a parent's depth is known before its children's.
        depths = [0] * len(self.nodes_)
        for node_id, node in enumerate(self.nodes_):
            if not node.is_leaf:
                depths[node.left] = depths[node.right] = depths[node_id] + 1
        return max(depths)

    @property
    def n_leaves_(self) -> int:
        self._check_fitted("nodes_")
        return sum(1 for node in self.nodes_ if node.is_leaf)

    def feature_importances(self) -> np.ndarray:
        """Split-count based importances (normalised)."""
        self._check_fitted("nodes_")
        importances = np.zeros(self.n_features_)
        for node in self.nodes_:
            if not node.is_leaf:
                importances[node.feature] += 1.0
        total = importances.sum()
        return importances / total if total else importances

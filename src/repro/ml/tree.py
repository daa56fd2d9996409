"""CART decision tree classifier.

The classic greedy CART algorithm, grown for a batch of trees at once.
:func:`grow_trees` deduplicates the training rows by their bytes, so each
tree's sample becomes a matrix of class counts per distinct row, and
ranks every column of the distinct rows once.  Each step then takes the
next node, in preorder, of every unfinished tree, and one sort plus one
prefix sum of class counts scores every threshold of every candidate
feature of all those nodes.  A random forest grows all its trees as one
batch; a single tree is a batch of one.  Explicit stacks replace
recursion, so a tree may be as deep as its data makes it.

The counts are exact integers in float64, so every gain, and so every
fitted tree, is the one a node-by-node search over the raw samples
gives.  Supports gini and entropy criteria, depth/size regularisation
and per-node feature subsampling (used by the random forest).
"""

from __future__ import annotations

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


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count rows (last axis is the class axis)."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        proportions = np.where(totals > 0, counts / np.maximum(totals, 1), 0.0)
    if criterion == "gini":
        return 1.0 - (proportions**2).sum(axis=-1)
    if criterion == "entropy":
        logs = np.where(proportions > 0, np.log2(np.maximum(proportions, 1e-300)), 0.0)
        return -(proportions * logs).sum(axis=-1)
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

    The trees share every hyperparameter but ``seed``.  Each sample
    becomes a matrix of class counts per distinct row of ``X``.  A tree
    knows only the classes in its sample, so trees that hold the same
    classes grow together, in lock-step, over those classes alone.
    """
    classes, encoded = np.unique(labels, return_inverse=True)
    distinct, row_of = _distinct_rows(X)
    n_distinct, n_features = distinct.shape
    ranks = np.empty((n_features, n_distinct), dtype=np.int64)
    for feature in range(n_features):
        ranks[feature] = np.unique(distinct[:, feature], return_inverse=True)[1]
    cells = row_of * len(classes) + encoded
    counts = np.empty((len(trees), n_distinct, len(classes)))
    for sample_counts, sample in zip(counts, samples):
        sample_counts.flat = np.bincount(cells[sample], minlength=sample_counts.size)
    masks, group_of_tree = np.unique(counts.any(axis=1), axis=0, return_inverse=True)
    for group, mask in enumerate(masks):
        members = np.flatnonzero(group_of_tree == group)
        _grow_in_lock_step(
            [trees[t] for t in members],
            classes[mask],
            distinct,
            ranks,
            counts[np.ix_(members, np.arange(n_distinct), mask)],
        )


def _grow_in_lock_step(
    trees: list["DecisionTreeClassifier"],
    classes: np.ndarray,
    distinct: np.ndarray,
    ranks: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Grow ``trees`` over the distinct rows, in lock-step.

    ``counts[t, u, c]`` is how often tree t's sample holds distinct row u
    with class c.  Each step pops the next node, in preorder, of every
    unfinished tree, and one call of :func:`_best_splits` scores them
    all.  Each tree draws its candidate features from its own generator,
    node by node in preorder, so it is the tree it would be if it were
    grown alone.
    """
    spec = trees[0]
    n_features = distinct.shape[1]
    for tree in trees:
        tree.classes_ = classes
        tree.n_features_ = n_features
        tree.nodes_ = []
    n_candidates = spec._n_candidate_features()
    rngs = [check_random_state(tree.seed) for tree in trees]
    # A pending node: (distinct rows, class counts, depth, parent id, is left child)
    stacks = [
        [(np.flatnonzero(sample.any(axis=1)), sample.sum(axis=0), 0, -1, False)]
        for sample in counts
    ]
    while True:
        batch = []
        for t, (tree, stack) in enumerate(zip(trees, stacks)):
            while stack:
                rows, node_counts, depth, parent, is_left = stack.pop()
                node_id = len(tree.nodes_)
                if is_left:
                    tree.nodes_[parent].left = node_id
                elif parent >= 0:
                    tree.nodes_[parent].right = node_id
                total = node_counts.sum()
                tree.nodes_.append(_Node(distribution=node_counts / total))
                if (
                    total < spec.min_samples_split
                    or (spec.max_depth is not None and depth >= spec.max_depth)
                    or node_counts.max() == total  # pure node
                ):
                    continue
                if n_candidates < n_features:
                    features = rngs[t].choice(
                        n_features, size=n_candidates, replace=False
                    )
                else:
                    features = np.arange(n_features)
                batch.append((t, node_id, rows, node_counts, depth, features))
                break
        if not batch:
            return
        splits = _best_splits(
            batch, distinct, ranks, counts, spec.criterion, spec.min_samples_leaf
        )
        for (t, node_id, _, _, depth, _), split in zip(batch, splits):
            if split is None:
                continue
            feature, threshold, left, right = split
            node = trees[t].nodes_[node_id]
            node.feature = feature
            node.threshold = threshold
            stacks[t].append((*right, depth + 1, node_id, False))
            stacks[t].append((*left, depth + 1, node_id, True))


def _best_splits(
    batch: list[tuple],
    distinct: np.ndarray,
    ranks: np.ndarray,
    counts: np.ndarray,
    criterion: str,
    min_samples_leaf: int,
) -> list[tuple | None]:
    """The best split of every node in ``batch``, or None where none gains.

    A segment is one candidate feature of one node.  One sort orders the
    rows of every segment by rank, and one prefix sum of their class
    counts gives the left counts at every boundary between two distinct
    values.  The best split has the largest gain over ``1e-12``; ties go
    to the earliest feature in draw order, then to the lowest threshold.
    A split is ``(feature, threshold, (left rows, left counts), (right
    rows, right counts))``.
    """
    node_tree = np.array([entry[0] for entry in batch])
    node_counts = np.stack([entry[3] for entry in batch])
    features = np.stack([entry[5] for entry in batch])
    k = features.shape[1]
    sorted_rows, starts, boundary, segment, left = _boundaries(
        node_tree, [entry[2] for entry in batch], features, ranks, counts
    )
    left_n = left.sum(axis=1)
    n = node_counts.sum(axis=1)
    node = segment // k
    right_n = n[node] - left_n
    valid = (left_n >= min_samples_leaf) & (right_n >= min_samples_leaf)
    if not valid.all():
        boundary, segment, node, left, left_n, right_n = (
            array[valid] for array in (boundary, segment, node, left, left_n, right_n)
        )
    if not len(boundary):
        return [None] * len(batch)
    right = node_counts[node] - left
    weighted = (
        left_n * _impurity(left, criterion) + right_n * _impurity(right, criterion)
    ) / n[node]
    gains = _impurity(node_counts, criterion)[node] - weighted

    # Boundaries run in (node, draw position, rank) order: take each
    # node's first boundary of maximal gain.
    firsts = np.flatnonzero(np.diff(node, prepend=-1))
    best = np.maximum.reduceat(gains, firsts)
    runs = np.diff(np.append(firsts, len(node)))
    hits = np.flatnonzero(gains == np.repeat(best, runs))
    chosen = hits[np.flatnonzero(np.diff(node[hits], prepend=-1))]
    chosen = chosen[gains[chosen] > 1e-12]
    splits: list[tuple | None] = [None] * len(batch)
    for at, left_counts, right_counts in zip(chosen, left[chosen], right[chosen]):
        position, seg = boundary[at], segment[at]
        feature = features[node[at], seg % k]
        low = distinct[sorted_rows[position], feature]
        high = distinct[sorted_rows[position + 1], feature]
        with np.errstate(over="ignore"):
            threshold = (low + high) / 2.0
        if not low <= threshold < high:
            # The midpoint overflowed or rounded up to ``high``; routing by
            # ``<= low`` keeps prediction on the split that was scored.
            threshold = low
        splits[node[at]] = (
            int(feature),
            float(threshold),
            (sorted_rows[starts[seg] : position + 1].copy(), left_counts),
            (sorted_rows[position + 1 : starts[seg + 1]].copy(), right_counts),
        )
    return splits


def _boundaries(
    node_tree: np.ndarray,
    node_rows: list[np.ndarray],
    features: np.ndarray,
    ranks: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Sort every segment's rows by rank and find its boundaries between values.

    Segment ``node * k + i`` holds the rows of node ``node`` keyed by
    their rank in its ``i``-th candidate feature.  Returns the sorted
    rows, each segment's start (and the end), and each boundary's
    position, segment and left class counts.
    """
    n_nodes, k = features.shape
    n_distinct = ranks.shape[1]
    lengths = np.array([len(rows) for rows in node_rows])
    rows = np.concatenate(node_rows)
    node_of_row = np.repeat(np.arange(n_nodes), lengths)
    keys = (node_of_row[:, None] * k + np.arange(k)) * n_distinct + ranks[
        features[node_of_row], rows[:, None]
    ]
    # Rows of equal rank share no boundary, so their order does not matter.
    order = np.argsort(keys, axis=None)
    keys = keys.ravel()[order]
    segments = keys // n_distinct
    boundary = np.flatnonzero((keys[1:] != keys[:-1]) & (segments[1:] == segments[:-1]))
    segment = segments[boundary]
    # Free the sort's arrays before the prefix sum, the step's peak in memory.
    del keys, segments
    source = order // k
    del order
    prefix = np.zeros((len(source) + 1, counts.shape[2]))
    flat = (node_tree[node_of_row] * n_distinct + rows)[source]
    np.cumsum(counts.reshape(-1, counts.shape[2])[flat], axis=0, out=prefix[1:])
    del flat
    starts = np.concatenate(([0], np.cumsum(np.repeat(lengths, k))))
    left = prefix[boundary + 1] - prefix[starts[segment]]
    return rows[source], starts, boundary, segment, left


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

"""Byte-equality of the lock-step CART grower.

:mod:`repro.ml.tree` grows a whole batch of trees in lock-step over the
training set's distinct rows, with one split search per step for every
tree.  The oracle here is the recursive builder it replaced: one tree at
a time, one ``_best_split`` call per node that sorts every candidate
feature of the node's samples, with impurities from ``(samples,
classes)`` reductions.  The grower must match it node for node (feature,
threshold, children and distribution bytes), forests must match trees
fitted one at a time on their bootstrap samples, and the sha256 pins
below were taken from the recursive builder.  A seeded differential
fuzz of hostile inputs runs briefly with tier-1; ``-m tree_oracle_long``
selects its long budget.
"""

import hashlib

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.base import check_random_state
from repro.ml.tree import _SHARED, _impurity, _Node, grow_trees

# ---------------------------------------------------------------------------
# The recursive oracle
# ---------------------------------------------------------------------------


def reference_impurity(counts, criterion):
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

class ReferenceTree:
    """Greedy CART grown recursively, one ``_best_split`` per node."""

    def __init__(self, max_depth=None, min_samples_split=2, min_samples_leaf=1,
                 criterion="gini", max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.criterion = criterion
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        self.classes_, encoded = np.unique(y, return_inverse=True)
        self.n_features_ = X.shape[1]
        self._rng = check_random_state(self.seed)
        self.nodes_ = []
        self.fallbacks_ = 0
        self._build(X, encoded.astype(np.int64), depth=0)
        return self

    def _n_candidate_features(self):
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        return max(1, min(self.max_features, self.n_features_))

    def _build(self, X, y, depth):
        node_id = len(self.nodes_)
        node = _Node()
        self.nodes_.append(node)
        counts = np.bincount(y, minlength=len(self.classes_)).astype(np.float64)
        node.distribution = counts / counts.sum()
        if (
            len(y) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == counts.sum()
        ):
            return node_id
        split = self._best_split(X, y, counts)
        if split is None:
            return node_id
        feature, threshold = split
        left_mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[left_mask], y[left_mask], depth + 1)
        node.right = self._build(X[~left_mask], y[~left_mask], depth + 1)
        return node_id

    def _best_split(self, X, y, counts):
        n_samples = len(y)
        n_classes = len(self.classes_)
        parent_impurity = reference_impurity(counts[None, :], self.criterion)[0]
        n_candidates = self._n_candidate_features()
        if n_candidates < self.n_features_:
            features = self._rng.choice(
                self.n_features_, size=n_candidates, replace=False
            )
        else:
            features = np.arange(self.n_features_)
        best_gain = 1e-12
        best = None
        one_hot = np.zeros((n_samples, n_classes))
        one_hot[np.arange(n_samples), y] = 1.0
        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            prefix = np.cumsum(one_hot[order], axis=0)
            boundaries = np.flatnonzero(sorted_values[:-1] < sorted_values[1:])
            if boundaries.size == 0:
                continue
            left_n = boundaries + 1
            right_n = n_samples - left_n
            valid = (left_n >= self.min_samples_leaf) & (
                right_n >= self.min_samples_leaf
            )
            if not valid.any():
                continue
            boundaries = boundaries[valid]
            left_counts = prefix[boundaries]
            right_counts = counts[None, :] - left_counts
            left_n = (boundaries + 1).astype(np.float64)
            right_n = n_samples - left_n
            weighted = (
                left_n * reference_impurity(left_counts, self.criterion)
                + right_n * reference_impurity(right_counts, self.criterion)
            ) / n_samples
            gains = parent_impurity - weighted
            best_idx = int(np.argmax(gains))
            if gains[best_idx] > best_gain:
                best_gain = float(gains[best_idx])
                boundary = boundaries[best_idx]
                low, high = sorted_values[boundary], sorted_values[boundary + 1]
                with np.errstate(over="ignore"):
                    threshold = (low + high) / 2.0
                if not low <= threshold < high:
                    # the midpoint overflowed or rounded up to ``high``
                    threshold = low
                    self.fallbacks_ += 1
                best = (int(feature), float(threshold))
        return best


def reference_forest(X, y, n_estimators=30, max_depth=None, min_samples_leaf=1,
                     max_features="sqrt", criterion="gini", bootstrap=True,
                     seed=0):
    """The forest's trees, each fitted alone on its bootstrap sample."""
    rng = check_random_state(seed)
    n = len(y)
    trees = []
    for _ in range(n_estimators):
        indices = rng.integers(0, n, size=n) if bootstrap else np.arange(n)
        tree = ReferenceTree(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
            criterion=criterion,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        trees.append(tree.fit(X[indices], y[indices]))
    return trees


# ---------------------------------------------------------------------------
# Seeded data
# ---------------------------------------------------------------------------


def blobs(seed, n, d, n_classes):
    """Overlapping Gaussian classes, so trees grow deep."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, size=n)
    X = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    return X, y


def duplicated(seed, n, d):
    """Few distinct rows, a constant column and a column of ±0.0 and ±1."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    X[:, 1] = 7.5
    X[:, 2] = rng.choice([-0.0, 0.0, -1.0, 1.0], size=n)
    y = (X[:, 0] + (X[:, 2] > 0) + rng.integers(0, 2, size=n) > 2).astype(int)
    return X, y


def rare_class(seed, n):
    """Three classes, one of them on two rows only."""
    X, y = blobs(seed, n, 5, 2)
    y = y.copy()
    y[[3, 11]] = 2
    return X, y


def node_bytes(tree):
    return [
        (
            node.feature,
            np.float64(node.threshold).tobytes(),
            node.left,
            node.right,
            node.distribution.tobytes(),
        )
        for node in tree.nodes_
    ]


def assert_same_tree(tree, oracle):
    assert tree.classes_.dtype == oracle.classes_.dtype
    assert tree.classes_.tobytes() == oracle.classes_.tobytes()
    assert node_bytes(tree) == node_bytes(oracle)


def sha256(array):
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


TREE_CASES = {
    "gini": dict(),
    "entropy": dict(criterion="entropy"),
    "max_depth": dict(max_depth=3),
    "min_samples_leaf": dict(min_samples_leaf=7),
    "min_samples_split": dict(min_samples_split=25),
    "sqrt": dict(max_features="sqrt", seed=3),
    "int": dict(max_features=2, seed=5),
    "int_entropy_leaf": dict(max_features=3, criterion="entropy",
                             min_samples_leaf=3, seed=9),
}

DATA = {
    "two_classes": lambda: blobs(1, 300, 6, 2),
    "four_classes": lambda: blobs(2, 260, 5, 4),
    "duplicated": lambda: duplicated(3, 400, 5),
    "rare_class": lambda: rare_class(4, 150),
}


class TestTreeMatchesTheRecursiveBuilder:
    @pytest.mark.parametrize("case", sorted(TREE_CASES))
    @pytest.mark.parametrize("data", sorted(DATA))
    def test_nodes(self, case, data):
        X, y = DATA[data]()
        params = TREE_CASES[case]
        tree = DecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(tree, ReferenceTree(**params).fit(X, y))

    def test_string_labels(self):
        X, y = blobs(6, 200, 4, 3)
        labels = np.array(["benign", "ddos", "scan"])[y]
        tree = DecisionTreeClassifier(max_features=2).fit(X, labels)
        assert_same_tree(tree, ReferenceTree(max_features=2).fit(X, labels))

    def test_single_class(self):
        X, _ = blobs(7, 50, 3, 2)
        y = np.ones(50, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert_same_tree(tree, ReferenceTree().fit(X, y))
        assert len(tree.nodes_) == 1


FOREST_CASES = {
    "default": dict(),
    "one_tree": dict(n_estimators=1),
    "no_bootstrap": dict(n_estimators=5, bootstrap=False),
    "no_bootstrap_all_features": dict(n_estimators=3, bootstrap=False,
                                      max_features=None),
    "entropy_depth": dict(criterion="entropy", max_depth=4, n_estimators=8),
    "leaf": dict(min_samples_leaf=4, max_features=2, seed=11),
}


class TestForestMatchesTreesFittedAlone:
    @pytest.mark.parametrize("case", sorted(FOREST_CASES))
    @pytest.mark.parametrize("data", sorted(DATA))
    def test_trees(self, case, data):
        X, y = DATA[data]()
        params = FOREST_CASES[case]
        forest = RandomForestClassifier(**params).fit(X, y)
        oracle = reference_forest(X, y, **params)
        assert len(forest.trees_) == len(oracle)
        for tree, reference in zip(forest.trees_, oracle):
            assert_same_tree(tree, reference)

    def test_a_bootstrap_that_misses_a_class(self):
        X, y = rare_class(4, 150)
        forest = RandomForestClassifier(seed=2).fit(X, y)
        sizes = {len(tree.classes_) for tree in forest.trees_}
        assert sizes == {2, 3}
        for tree, reference in zip(forest.trees_, reference_forest(X, y, seed=2)):
            assert_same_tree(tree, reference)


class TestPinnedOutputs:
    """sha256 of seeded outputs, taken from the recursive builder."""

    def test_forest_predict_proba(self):
        X, y = blobs(12, 500, 8, 3)
        probe, _ = blobs(13, 120, 8, 3)
        forest = RandomForestClassifier(n_estimators=12, seed=4).fit(X, y)
        assert sha256(forest.predict_proba(probe)) == (
            "f3cad13d895ebee435802d568ba574fcadce9bb61b6801c4bdf88f516c610987"
        )

    def test_forest_predict_proba_on_duplicated_rows(self):
        X, y = duplicated(14, 600, 6)
        forest = RandomForestClassifier(criterion="entropy", seed=1).fit(X, y)
        assert sha256(forest.predict_proba(X)) == (
            "26af9afcbf79b92f7ac803deff6f9baf41e86ed8ebcab2a858a251128d20deab"
        )

    def test_tree_predict_proba(self):
        X, y = blobs(15, 400, 6, 4)
        probe, _ = blobs(16, 150, 6, 4)
        tree = DecisionTreeClassifier(min_samples_leaf=2, seed=0).fit(X, y)
        assert sha256(tree.predict_proba(probe)) == (
            "f4ef0c8d4b55b2d4d87d92dbbaf4feb27b145e2386fd1994cfa6dff1412a29be"
        )


class TestImpurityMatchesTheRowReduction:
    """Class by class, the impurity is the float the ``(B, C)`` reduction gives."""

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize(
        "n_classes", list(range(1, 18)) + [31, 127, 128, 129, 136, 300]
    )
    def test_bytes(self, criterion, n_classes):
        rng = np.random.default_rng(n_classes)
        counts = rng.integers(0, 50, size=(257, n_classes)).astype(np.float64)
        counts[rng.random(counts.shape) < 0.3] = 0.0
        counts[:3] = 0.0  # rows that hold no sample
        counts[3, :] = 1e6
        columns = iter(counts.T.copy())
        impurity = _impurity(columns, counts.sum(axis=1), n_classes, criterion)
        assert impurity.tobytes() == reference_impurity(counts, criterion).tobytes()

    def test_unknown_criterion(self):
        with pytest.raises(ValueError, match="unknown criterion"):
            _impurity(iter(np.ones((2, 3))), np.full(3, 2.0), 2, "variance")


class TestSharedHyperparameters:
    """A lock-step batch grows every tree with one set of hyperparameters."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("max_depth", 2),
            ("min_samples_split", 5),
            ("min_samples_leaf", 3),
            ("criterion", "entropy"),
            ("max_features", 1),
        ],
    )
    def test_mixed_trees_are_refused(self, name, value):
        X, y = blobs(20, 60, 3, 2)
        trees = [DecisionTreeClassifier(seed=0), DecisionTreeClassifier(seed=1)]
        setattr(trees[1], name, value)
        with pytest.raises(ValueError, match="share hyper-parameters"):
            grow_trees(trees, X, y, [np.arange(60), np.arange(60)])

    def test_every_shared_name_is_a_hyperparameter(self):
        assert set(_SHARED) == set(DecisionTreeClassifier().get_params()) - {"seed"}

    def test_seeds_may_differ(self):
        X, y = blobs(21, 60, 3, 2)
        trees = [DecisionTreeClassifier(max_features=1, seed=s) for s in (0, 1)]
        grow_trees(trees, X, y, [np.arange(60), np.arange(60)])
        for tree in trees:
            assert_same_tree(tree, ReferenceTree(max_features=1, seed=tree.seed).fit(X, y))


# ---------------------------------------------------------------------------
# Differential fuzz
# ---------------------------------------------------------------------------

MAX = np.finfo(np.float64).max

#: column kinds: continuous, nPrint-like binary, constant, signed zeros
#: and ones, values whose midpoint overflows, and adjacent floats whose
#: midpoint rounds up to the upper one
COLUMNS = [
    lambda rng, n: rng.normal(size=n).round(int(rng.integers(0, 3))),
    lambda rng, n: rng.integers(0, 2, size=n).astype(np.float64),
    lambda rng, n: np.full(n, rng.choice([0.0, -0.0, 1.0, -2.5])),
    lambda rng, n: rng.choice([-0.0, 0.0, -1.0, 1.0], size=n),
    lambda rng, n: rng.choice([-MAX, -1.7e308, -1e308, 1e308, 1.7e308, MAX], size=n),
    lambda rng, n: rng.choice(
        [1.0, 1.0000000000000002, 1.0000000000000004, 5e-324, -5e-324, 0.0], size=n
    ),
]


def fuzz_case(seed):
    """Seeded hostile data and hyperparameters for one fuzz case."""
    rng = np.random.default_rng(seed)
    n_classes = int(rng.integers(1, 6))
    n = int(rng.integers(2, 120))
    d = int(rng.integers(1, 7))
    X = np.column_stack(
        [COLUMNS[int(rng.integers(len(COLUMNS)))](rng, n) for _ in range(d)]
    )
    if rng.random() < 0.5:
        # mostly duplicates: every row is one of a few
        X = X[rng.integers(0, min(n, int(rng.integers(1, 8))), size=n)]
    y = rng.integers(0, n_classes, size=n)
    if n_classes > 1 and rng.random() < 0.5:
        # a rare class, on one or two rows, that bootstraps often miss
        y = np.where(y == n_classes - 1, 0, y)
        y[rng.choice(n, size=min(n, int(rng.integers(1, 3))), replace=False)] = n_classes - 1
    if rng.random() < 0.3:
        y = np.array(["benign", "ddos", "scan", "spoof", "worm"])[y]
    params = dict(
        criterion=str(rng.choice(["gini", "entropy"])),
        max_depth=None if rng.random() < 0.5 else int(rng.integers(0, 6)),
        min_samples_leaf=int(rng.integers(1, 5)),
        max_features=[None, "sqrt", int(rng.integers(1, d + 2))][int(rng.integers(3))],
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return rng, X, y, params


def check_fuzz_case(seed):
    rng, X, y, params = fuzz_case(seed)
    tree_params = dict(params, min_samples_split=int(rng.integers(1, 9)))
    with np.errstate(over="raise"):
        tree = DecisionTreeClassifier(**tree_params).fit(X, y)
    assert_same_tree(tree, ReferenceTree(**tree_params).fit(X, y))

    forest_params = dict(
        params, n_estimators=int(rng.integers(1, 7)), bootstrap=bool(rng.random() < 0.8)
    )
    forest = RandomForestClassifier(**forest_params).fit(X, y)
    oracle = reference_forest(X, y, **forest_params)
    assert len(forest.trees_) == len(oracle)
    for grown, reference in zip(forest.trees_, oracle):
        assert_same_tree(grown, reference)

    # one lock-step batch of samples, some of them without a class
    samples = []
    for _ in range(int(rng.integers(1, 6))):
        pool = np.arange(len(y))
        if rng.random() < 0.5:
            missing = rng.choice(np.unique(y))
            pool = pool[y != missing] if (y != missing).any() else pool
        samples.append(rng.choice(pool, size=int(rng.integers(1, 2 * len(y))), replace=True))
    trees = [
        DecisionTreeClassifier(**dict(tree_params, seed=int(rng.integers(0, 2**31 - 1))))
        for _ in samples
    ]
    grow_trees(trees, X, y, samples)
    for grown, sample in zip(trees, samples):
        params_t = dict(tree_params, seed=grown.seed)
        assert_same_tree(grown, ReferenceTree(**params_t).fit(X[sample], y[sample]))


#: the short budget runs with tier-1, the long one with ``-m tree_oracle_long``
BUDGETS = [120, pytest.param(20_000, marks=pytest.mark.tree_oracle_long)]


@pytest.mark.parametrize("budget", BUDGETS)
def test_fuzz_against_the_recursive_builder(budget):
    for seed in range(budget):
        check_fuzz_case(seed)


class TestFuzzInputs:
    """The fuzz reaches the cases it is there for."""

    def test_it_hits_the_midpoint_fallback(self):
        fallbacks = 0
        for seed in range(120):
            _, X, y, params = fuzz_case(seed)
            fallbacks += ReferenceTree(**params).fit(X, y).fallbacks_
        assert fallbacks > 0

    def test_it_draws_every_class_count(self):
        assert {len(np.unique(fuzz_case(seed)[2])) for seed in range(120)} == {1, 2, 3, 4, 5}

"""The numpy ports of scipy's complete linkage and cKDTree against scipy.

``repro.ml`` carries no scipy: KitNET's feature map clusters with a port
of ``linkage(method="complete")`` and ``fcluster(criterion="maxclust")``,
and KNN searches with an exact brute-force scan whose distances are
summed in cKDTree's order.  scipy is the tests' oracle only: each port
must give scipy's trees, labels, distances and neighbours exactly.
"""

import numpy as np
import pytest

import repro.ml.neighbors as neighbors
from repro.algorithms import build_algorithm
from repro.bench.runner import _featurize_with_attacks
from repro.core import ExecutionEngine
from repro.ml import KNeighborsClassifier
from repro.ml.kitsune import _complete_linkage, _maxclust, correlation_feature_groups
from repro.ml.model_selection import stratified_split_indices

hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
spatial = pytest.importorskip("scipy.spatial")

#: matrices of each kind per size
TRIALS = 4


def scipy_feature_groups(X, max_group_size=10, seed=0):
    """``correlation_feature_groups`` as it read with scipy's linkage."""
    array = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = array.shape[1]
    if d <= max_group_size:
        return [list(range(d))]
    stds = array.std(axis=0)
    safe = array.copy()
    safe[:, stds == 0.0] += np.random.default_rng(seed).normal(
        scale=1e-9, size=(len(array), int((stds == 0.0).sum()))
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(safe, rowvar=False)
    distance = 1.0 - np.abs(np.nan_to_num(corr))
    tree = hierarchy.linkage(distance[np.triu_indices(d, k=1)], method="complete")
    for n_clusters in range(max(2, d // max_group_size), d + 1):
        assignment = hierarchy.fcluster(tree, t=n_clusters, criterion="maxclust")
        groups = {}
        for feature, cluster in enumerate(assignment):
            groups.setdefault(int(cluster), []).append(feature)
        if max(len(g) for g in groups.values()) <= max_group_size:
            return [groups[key] for key in sorted(groups)]
    return [[i] for i in range(d)]


@pytest.fixture(scope="module")
def registry_features():
    """A00's and A06's features of P0-P2, with their labels."""
    engine = ExecutionEngine(track_memory=False)
    features = {}
    for algorithm_id in ("A00", "A06"):
        spec = build_algorithm(algorithm_id)
        for dataset_id in ("P0", "P1", "P2"):
            X, y, _, _ = _featurize_with_attacks(spec, dataset_id, engine)
            features[algorithm_id, dataset_id] = (X, y)
    return features


# ---------------------------------------------------------------------------
# complete linkage and maxclust
# ---------------------------------------------------------------------------


def random_matrices(n):
    """Non-symmetric matrices: continuous ones, and ones whose entries
    come from {0, .25, .5, .75}, so that merge heights tie."""
    rng = np.random.default_rng(n)
    for _ in range(TRIALS):
        yield rng.random((n, n))
        yield rng.choice([0.0, 0.25, 0.5, 0.75], size=(n, n))


@pytest.mark.parametrize("n", range(2, 41))
def test_linkage_and_every_cut_match_scipy(n):
    for distance in random_matrices(n):
        expected = hierarchy.linkage(distance[np.triu_indices(n, k=1)], method="complete")
        tree = _complete_linkage(distance)
        assert tree.tobytes() == expected.tobytes()
        for t in range(1, n + 2):
            labels = _maxclust(tree, t)
            assert labels.tolist() == hierarchy.fcluster(expected, t, "maxclust").tolist()


def test_only_the_upper_triangle_is_read():
    distance = np.random.default_rng(1).random((12, 12))
    scrambled = distance.copy()
    scrambled[np.tril_indices(12)] = np.random.default_rng(2).random(78)
    assert _complete_linkage(scrambled).tobytes() == _complete_linkage(distance).tobytes()


def test_corrcoef_is_not_bit_symmetric():
    """Why the port reads the upper triangle only."""
    corr = np.corrcoef(np.random.default_rng(0).normal(size=(500, 36)), rowvar=False)
    assert not np.array_equal(corr, corr.T)


@pytest.mark.parametrize("max_group_size", [3, 5, 10])
@pytest.mark.parametrize("algorithm_id", ["A00", "A06"])
@pytest.mark.parametrize("dataset_id", ["P0", "P1", "P2"])
def test_registry_feature_groups_match_scipy(
    registry_features, algorithm_id, dataset_id, max_group_size
):
    X, _ = registry_features[algorithm_id, dataset_id]
    for rows in (slice(None), slice(None, 1000), slice(1, None, 2)):
        assert correlation_feature_groups(X[rows], max_group_size) == (
            scipy_feature_groups(X[rows], max_group_size)
        )


# ---------------------------------------------------------------------------
# k nearest neighbours
# ---------------------------------------------------------------------------


def assert_same_neighbours(train, queries, k):
    knn = KNeighborsClassifier(n_neighbors=k).fit(train, np.zeros(len(train)))
    distances, indices = knn._kneighbors(queries, k)
    expected_distances, expected_indices = spatial.cKDTree(train).query(queries, k=k)
    shape = (len(queries), k)
    assert distances.tobytes() == expected_distances.reshape(shape).tobytes()
    assert indices.tolist() == expected_indices.reshape(shape).tolist()


def scipy_proba(train, labels, queries, k, weights):
    """``predict_proba`` as it read with cKDTree."""
    classes, encoded = np.unique(labels, return_inverse=True)
    k = min(k, len(train))
    distances, indices = spatial.cKDTree(train).query(queries, k=k)
    if k == 1:
        distances, indices = distances[:, None], indices[:, None]
    neighbor_labels = encoded[indices]
    if weights == "distance":
        weights = 1.0 / np.maximum(distances, 1e-12)
    else:
        weights = np.ones_like(distances)
    out = np.zeros((len(queries), len(classes)))
    for c in range(len(classes)):
        out[:, c] = np.where(neighbor_labels == c, weights, 0.0).sum(axis=1)
    return out / np.maximum(out.sum(axis=1, keepdims=True), 1e-300)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
@pytest.mark.parametrize("d", [1, 3, 4, 5, 7, 8, 11, 21])
def test_neighbours_match_ckdtree(k, d):
    rng = np.random.default_rng(10 * d + k)
    train = rng.normal(size=(300, d)) * rng.uniform(0.1, 1000.0, size=d)
    queries = np.vstack([rng.normal(size=(200, d)) * train.std(axis=0), train[:50]])
    assert_same_neighbours(train, queries, k)


@pytest.mark.parametrize("k", [1, 5])
def test_rows_far_from_the_origin(k):
    """The ranking keys cancel to noise here, so only the rounding slack
    keeps the true neighbours among the candidates."""
    rng = np.random.default_rng(k)
    train = 1e6 + rng.normal(size=(200, 5)) * 1e-3
    queries = 1e6 + rng.normal(size=(60, 5)) * 1e-3
    assert_same_neighbours(train, queries, k)


@pytest.mark.parametrize("weights", ["uniform", "distance"])
@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_probabilities_match_ckdtree(k, weights):
    rng = np.random.default_rng(k)
    train = rng.normal(size=(250, 6))
    labels = rng.integers(0, 3, size=250)
    queries = np.vstack([rng.normal(size=(120, 6)), train[:30]])
    knn = KNeighborsClassifier(n_neighbors=k, weights=weights).fit(train, labels)
    proba = knn.predict_proba(queries)
    assert proba.tobytes() == scipy_proba(train, labels, queries, k, weights).tobytes()


@pytest.mark.parametrize("weights", ["uniform", "distance"])
def test_more_neighbours_than_training_rows(weights):
    rng = np.random.default_rng(3)
    train, labels = rng.normal(size=(4, 3)), np.array([0, 1, 1, 0])
    queries = rng.normal(size=(9, 3))
    knn = KNeighborsClassifier(n_neighbors=7, weights=weights).fit(train, labels)
    assert knn.predict_proba(queries).tobytes() == (
        scipy_proba(train, labels, queries, 7, weights).tobytes()
    )
    assert_same_neighbours(train, queries, 4)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_copies_of_rows_take_the_lowest_indices(k):
    """Exact ties, where the tree's walk order breaks them: the
    distances are cKDTree's, and the neighbours are the first k by
    (distance, training index)."""
    rng = np.random.default_rng(k)
    distinct = rng.normal(size=(6, 5))
    train = distinct[rng.integers(0, 6, size=300)]
    queries = np.vstack([distinct, rng.normal(size=(20, 5))])
    knn = KNeighborsClassifier(n_neighbors=k).fit(train, np.zeros(300))
    distances, indices = knn._kneighbors(queries, k)
    all_distances, all_indices = spatial.cKDTree(train).query(queries, k=300)
    for i in range(len(queries)):
        order = np.lexsort((all_indices[i], all_distances[i]))[:k]
        assert distances[i].tobytes() == all_distances[i, order].tobytes()
        assert indices[i].tolist() == all_indices[i, order].tolist()


def test_no_query_rows():
    knn = KNeighborsClassifier().fit(np.eye(6), np.arange(6) % 2)
    assert knn.predict_proba(np.empty((0, 6))).shape == (0, 2)
    assert knn.predict(np.empty((0, 6))).shape == (0,)


@pytest.mark.parametrize("tile_rows", [1, 3, 7])
def test_tile_boundaries(monkeypatch, tile_rows):
    rng = np.random.default_rng(tile_rows)
    train = rng.normal(size=(100, 5))
    queries = rng.normal(size=(23, 5))
    # 100 training rows pad to two groups of 64
    monkeypatch.setattr(neighbors, "_TILE_BYTES", 8 * 128 * tile_rows)
    assert_same_neighbours(train, queries, 5)


def test_queries_span_several_default_tiles():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(3000, 21))
    queries = rng.normal(size=(400, 21))
    assert neighbors._TILE_BYTES // (8 * 3008) < 400
    assert_same_neighbours(train, queries, 5)


@pytest.mark.parametrize("test_id", ["P0", "P1", "P2"])
@pytest.mark.parametrize("train_id", ["P0", "P1", "P2"])
def test_registry_neighbours_match_ckdtree(registry_features, train_id, test_id):
    """A00's KNN in each of its nine matrix cells on P0-P2."""
    X, y = registry_features["A00", train_id]
    if train_id == test_id:
        train, test = stratified_split_indices(y, test_size=0.3, seed=0)
        assert_same_neighbours(X[train], X[test], 5)
    else:
        assert_same_neighbours(X, registry_features["A00", test_id][0], 5)

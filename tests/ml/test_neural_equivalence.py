"""Byte-equality of the stacked neural trainer.

:mod:`repro.ml.neural` trains stacks of K same-shaped networks with one
Adam update per step over flat buffers, and KitNET trains its whole
ensemble, stacks of every width, in one such loop.  The oracle here is
the per-tensor trainer it replaced: one ``_Dense`` layer object per
weight matrix, each with its own Adam moments, and one network trained
at a time.  The stacked trainer must match it byte for byte, lock-step
training must match training each member alone, and the sha256 pins
below were taken from the per-tensor trainer.
"""

import hashlib
import pickle

import numpy as np
import pytest

from repro.ml import Autoencoder, KitNET, MLPClassifier
from repro.ml.kitsune import correlation_feature_groups
from repro.ml.neural import fit_autoencoders
from repro.ml.preprocessing import MinMaxScaler

# ---------------------------------------------------------------------------
# The per-tensor oracle
# ---------------------------------------------------------------------------


class _Dense:
    """One dense layer with its own Adam state."""

    def __init__(self, n_in, n_out, rng):
        limit = np.sqrt(6.0 / (n_in + n_out))
        self.W = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.b = np.zeros(n_out)
        self._m = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._v = [np.zeros_like(self.W), np.zeros_like(self.b)]
        self._t = 0

    def forward(self, X):
        self._input = X
        return X @ self.W + self.b

    def backward(self, grad_out):
        self._grad_W = self._input.T @ grad_out / len(grad_out)
        self._grad_b = grad_out.mean(axis=0)
        return grad_out @ self.W.T

    def step(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self._t += 1
        for params, grad, m, v in (
            (self.W, self._grad_W, self._m[0], self._v[0]),
            (self.b, self._grad_b, self._m[1], self._v[1]),
        ):
            m *= beta1
            m += (1 - beta1) * grad
            v *= beta2
            v += (1 - beta2) * grad**2
            m_hat = m / (1 - beta1**self._t)
            v_hat = v / (1 - beta2**self._t)
            params -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


class _ReferenceNetwork:
    """Dense layers with ReLU between them, trained one at a time."""

    def __init__(self, sizes, rng):
        self.layers = [_Dense(a, b, rng) for a, b in zip(sizes, sizes[1:])]

    def forward(self, X):
        self._pre_activations = []
        out = X
        for i, layer in enumerate(self.layers):
            out = layer.forward(out)
            self._pre_activations.append(out)
            if i < len(self.layers) - 1:
                out = np.maximum(out, 0.0)
        return out

    def backward(self, grad):
        for i in reversed(range(len(self.layers))):
            if i < len(self.layers) - 1:
                grad = grad * (self._pre_activations[i] > 0)
            grad = self.layers[i].backward(grad)

    def step(self, learning_rate):
        for layer in self.layers:
            layer.step(learning_rate)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


class ReferenceAutoencoder:
    def __init__(self, n_epochs, seed, hidden_ratio=0.5, learning_rate=1e-3,
                 batch_size=64):
        self.n_epochs, self.seed = n_epochs, seed
        self.hidden_ratio = hidden_ratio
        self.learning_rate, self.batch_size = learning_rate, batch_size

    def fit(self, X):
        array = np.asarray(X, dtype=np.float64)
        self.scaler = MinMaxScaler(clip=True).fit(array)
        scaled = self.scaler.transform(array)
        rng = np.random.default_rng(self.seed)
        d = array.shape[1]
        bottleneck = max(1, int(np.ceil(d * self.hidden_ratio)))
        mid = max(bottleneck, int(np.ceil(d * 0.75)))
        sizes = [d, mid, bottleneck, mid, d] if d > 2 else [d, bottleneck, d]
        self.net = _ReferenceNetwork(sizes, rng)
        n = len(scaled)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = scaled[order[start : start + self.batch_size]]
                output = _sigmoid(self.net.forward(batch))
                self.net.backward((output - batch) * output * (1.0 - output))
                self.net.step(self.learning_rate)
        self.threshold_ = float(np.quantile(self.score_samples(array), 0.98))
        return self

    def score_samples(self, X):
        scaled = self.scaler.transform(np.asarray(X, dtype=np.float64))
        reconstructed = _sigmoid(self.net.forward(scaled))
        return np.sqrt(((reconstructed - scaled) ** 2).mean(axis=1))


class ReferenceKitNET:
    def __init__(self, max_group_size, n_epochs, seed, quantile=0.98):
        self.max_group_size, self.n_epochs = max_group_size, n_epochs
        self.seed, self.quantile = seed, quantile

    def _seeded(self, rng):
        return ReferenceAutoencoder(
            self.n_epochs, int(rng.integers(0, 2**31 - 1))
        )

    def fit(self, X):
        rng = np.random.default_rng(self.seed)
        self.groups = correlation_feature_groups(
            X, self.max_group_size, seed=self.seed
        )
        self.ensemble = [
            self._seeded(rng).fit(X[:, group]) for group in self.groups
        ]
        scores = self._member_scores(X)
        self.output = self._seeded(rng).fit(scores)
        self.threshold_ = float(
            np.quantile(self.output.score_samples(scores), self.quantile)
        )
        return self

    def _member_scores(self, X):
        return np.column_stack([
            member.score_samples(X[:, group])
            for member, group in zip(self.ensemble, self.groups)
        ])

    def score_samples(self, X):
        return self.output.score_samples(self._member_scores(X))


class ReferenceMLP:
    def __init__(self, hidden_sizes, n_epochs, seed, learning_rate=1e-3,
                 batch_size=64):
        self.hidden_sizes, self.n_epochs, self.seed = hidden_sizes, n_epochs, seed
        self.learning_rate, self.batch_size = learning_rate, batch_size

    def fit(self, X, y):
        classes, encoded = np.unique(y, return_inverse=True)
        self.scaler = MinMaxScaler().fit(X)
        scaled = self.scaler.transform(X)
        rng = np.random.default_rng(self.seed)
        self.net = _ReferenceNetwork(
            [X.shape[1], *self.hidden_sizes, len(classes)], rng
        )
        one_hot = np.zeros((len(encoded), len(classes)))
        one_hot[np.arange(len(encoded)), encoded] = 1.0
        n = len(scaled)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                self.net.backward(
                    self._softmax(self.net.forward(scaled[batch]))
                    - one_hot[batch]
                )
                self.net.step(self.learning_rate)
        return self

    @staticmethod
    def _softmax(logits):
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict_proba(self, X):
        return self._softmax(self.net.forward(self.scaler.transform(X)))


# ---------------------------------------------------------------------------
# Seeded data
# ---------------------------------------------------------------------------


def correlated(seed, n, d):
    """Skewed rows whose columns share three latent factors."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, 3))
    mix = rng.normal(size=(3, d))
    return (
        base @ mix
        + 0.3 * rng.normal(size=(n, d))
        + rng.exponential(size=(n, d))
    )


def labelled(seed, n, d):
    X = correlated(seed, n, d)
    y = (X[:, 0] > np.median(X[:, 0])).astype(int) + (X[:, 1] > 0)
    return X, y


def sha256(array):
    return hashlib.sha256(
        np.ascontiguousarray(array, dtype=np.float64).tobytes()
    ).hexdigest()


def assert_bytes_equal(actual, expected):
    assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestMatchesThePerTensorTrainer:
    @pytest.mark.parametrize("n, d, epochs", [(257, 7, 6), (64, 2, 3),
                                              (65, 1, 4), (1, 4, 2)])
    def test_autoencoder(self, n, d, epochs):
        X, probe = correlated(21, n, d), correlated(22, 40, d)
        model = Autoencoder(n_epochs=epochs, seed=4).fit(X)
        oracle = ReferenceAutoencoder(epochs, seed=4).fit(X)
        assert_bytes_equal(model.score_samples(probe),
                           oracle.score_samples(probe))
        assert model.threshold_ == oracle.threshold_

    @pytest.mark.parametrize("hidden, classes", [((9, 5), 3), ((16,), 2)])
    def test_mlp(self, hidden, classes):
        X, y = labelled(23, 203, 6)
        y = np.minimum(y, classes - 1)
        model = MLPClassifier(hidden_sizes=hidden, n_epochs=5, seed=1).fit(X, y)
        oracle = ReferenceMLP(hidden, 5, seed=1).fit(X, y)
        probe = correlated(24, 30, 6)
        assert_bytes_equal(model.predict_proba(probe),
                           oracle.predict_proba(probe))

    @pytest.mark.parametrize("max_group_size", [3, 5, 10])
    def test_kitnet(self, max_group_size):
        X, probe = correlated(25, 190, 23), correlated(26, 60, 23)
        model = KitNET(max_group_size=max_group_size, n_epochs=3,
                       seed=8).fit(X)
        oracle = ReferenceKitNET(max_group_size, 3, seed=8).fit(X)
        assert model.groups_ == oracle.groups
        assert_bytes_equal(model.score_samples(probe),
                           oracle.score_samples(probe))
        assert model.threshold_ == oracle.threshold_


class TestLockStep:
    @pytest.mark.parametrize("width", range(1, 11))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_stack_equals_each_member_alone(self, width, k):
        # 150 rows: two full batches of 64 and a ragged one of 22
        blocks = [correlated(100 + i, 150, width) for i in range(k)]
        stacked = [Autoencoder(n_epochs=2, seed=30 + i) for i in range(k)]
        scores = fit_autoencoders(stacked, blocks)
        for i, (model, block) in enumerate(zip(stacked, blocks)):
            alone = Autoencoder(n_epochs=2, seed=30 + i).fit(block)
            assert_bytes_equal(scores[i], alone.score_samples(block))
            assert_bytes_equal(model.score_samples(block), scores[i])
            assert model.threshold_ == alone.threshold_

    def test_mixed_widths_equal_each_member_alone(self):
        # widths 1 and 2 have one hidden layer, 3 and up have three; 1, 3
        # and 7 form stacks of two; 150 rows leave a ragged batch of 22
        widths = [4, 1, 7, 10, 2, 3, 1, 9, 5, 7, 6, 3, 8]
        blocks = [correlated(200 + i, 150, w) for i, w in enumerate(widths)]
        together = [Autoencoder(n_epochs=2, seed=60 + i) for i in range(len(widths))]
        scores = fit_autoencoders(together, blocks)
        for i, (model, block) in enumerate(zip(together, blocks)):
            alone = Autoencoder(n_epochs=2, seed=60 + i).fit(block)
            assert_bytes_equal(scores[i], alone.score_samples(block))
            assert_bytes_equal(model.score_samples(block), scores[i])
            assert model.threshold_ == alone.threshold_

    def test_members_must_share_a_row_count(self):
        blocks = [correlated(1, 20, 3), correlated(2, 21, 3)]
        members = [Autoencoder(n_epochs=2), Autoencoder(n_epochs=2)]
        with pytest.raises(ValueError, match="row count"):
            fit_autoencoders(members, blocks)

    def test_members_must_share_hyper_parameters(self):
        blocks = [correlated(1, 20, 3)] * 2
        members = [Autoencoder(n_epochs=2), Autoencoder(n_epochs=3)]
        with pytest.raises(ValueError, match="hyper-parameters"):
            fit_autoencoders(members, blocks)


class TestPins:
    """sha256 of seeded outputs, taken from the per-tensor trainer."""

    def test_kitnet(self):
        model = KitNET(max_group_size=5, n_epochs=6, seed=3)
        model.fit(correlated(11, 301, 23))
        # widths 3, 3, 2, 4, 5, 5, 1: two stacks of two members
        assert [len(g) for g in model.groups_] == [3, 3, 2, 4, 5, 5, 1]
        assert sha256(model.score_samples(correlated(12, 97, 23))) == (
            "4e0a17b8323b0cfad70822b8b5ffe0a49ba3137de3832c08441e4c263d30b1f4"
        )

    def test_autoencoder(self):
        model = Autoencoder(n_epochs=9, seed=5).fit(correlated(13, 257, 7))
        assert sha256(model.score_samples(correlated(14, 50, 7))) == (
            "aef6b175ffa1cd5696a28b4a3c761c3a6cba62c8fda05475e579a4c73e71b03f"
        )

    def test_mlp(self):
        X, y = labelled(15, 301, 6)
        model = MLPClassifier(hidden_sizes=(9, 5), n_epochs=7, seed=2)
        model.fit(X, y)
        assert sha256(model.predict_proba(correlated(16, 40, 6))) == (
            "c0606b5ed5cdae52ec02f626550560739c97c80bdcecb94b3665670c8b8556a1"
        )


class TestFittedModelsCarryNoScratch:
    """A fitted model pickles its parameters, not its training set."""

    @pytest.mark.parametrize("fit, score", [
        (lambda X, y: KitNET(max_group_size=5, n_epochs=1).fit(X),
         "score_samples"),
        (lambda X, y: Autoencoder(n_epochs=1).fit(X), "score_samples"),
        (lambda X, y: MLPClassifier(n_epochs=1).fit(X, y), "predict_proba"),
    ], ids=["KitNET", "Autoencoder", "MLPClassifier"])
    def test_pickled_size_does_not_grow_with_rows(self, fit, score):
        X, y = labelled(40, 500, 12)
        sizes = []
        # ten copies of the rows: the same feature groups and scalers
        for copies in (1, 10):
            rows = np.tile(X, (copies, 1))
            model = fit(rows, np.tile(y, copies))
            # scoring keeps no scratch either
            getattr(model, score)(rows)
            sizes.append(len(pickle.dumps(model)))
        assert sizes[0] == sizes[1]

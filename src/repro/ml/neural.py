"""Feed-forward neural networks: an MLP classifier and an autoencoder.

Implements dense networks with ReLU hidden layers trained by Adam on
mini-batches -- enough machinery for every neural model in the surveyed
papers (the Ensemble DNN, the Nokia and early-detection autoencoders,
and the small autoencoders inside Kitsune).

Training such small networks costs per-call overhead, not arithmetic,
so a network is a stack of K same-shaped members trained in lock step:
one ``np.matmul`` per layer over ``(K, batch, width)`` stacks forward
and backward, and one Adam update over a flat buffer that holds every
parameter of every member.  Each member's arithmetic is exactly that of
training it alone, so the results are byte-equal.
:func:`fit_autoencoders` trains KitNET's same-width ensemble members as
one stack; :class:`MLPClassifier` and :class:`Autoencoder` train stacks
of one.  Fitted models keep their parameters only: no activations,
gradients or Adam moments.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_array, check_random_state, check_X_y
from repro.ml.preprocessing import MinMaxScaler


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


class _Network:
    """K same-shaped dense networks with ReLU between layers.

    The parameters of every member live in one flat float64 buffer:
    ``W[i]`` (K, n_in, n_out) and ``b[i]`` (K, 1, n_out) are views into
    it.  :meth:`initialised` adds flat gradient and Adam moment buffers
    of the same layout for training; :meth:`member` copies one member's
    parameters out without them, so a fitted network pickles its
    parameters only.
    """

    def __init__(
        self, sizes: list[int], k: int, params: np.ndarray | None = None
    ) -> None:
        self.sizes = list(sizes)
        self.k = k
        if params is None:
            params = np.zeros(
                k * sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
            )
        self.params = params
        self.W, self.b = self._views(params)

    def _views(self, flat: np.ndarray) -> tuple[list, list]:
        W, b, offset = [], [], 0
        for n_in, n_out in zip(self.sizes, self.sizes[1:]):
            for views, shape in (
                (W, (self.k, n_in, n_out)), (b, (self.k, 1, n_out))
            ):
                size = int(np.prod(shape))
                views.append(flat[offset : offset + size].reshape(shape))
                offset += size
        return W, b

    @classmethod
    def initialised(
        cls, sizes: list[int], rngs: list[np.random.Generator]
    ) -> "_Network":
        """A trainable stack, one member per generator.

        Each member draws its Glorot-uniform weights from its own
        generator, layer by layer, exactly as a network trained alone.
        """
        net = cls(sizes, len(rngs))
        for k, rng in enumerate(rngs):
            for W in net.W:
                limit = np.sqrt(6.0 / (W.shape[1] + W.shape[2]))
                W[k] = rng.uniform(-limit, limit, size=W.shape[1:])
        net._grad = np.zeros_like(net.params)
        net._grad_W, net._grad_b = net._views(net._grad)
        net._m = np.zeros_like(net.params)
        net._v = np.zeros_like(net.params)
        net._t = 0
        return net

    def member(self, k: int) -> "_Network":
        """Member ``k`` as a one-network stack, without training buffers."""
        parts = [p[k].ravel() for pair in zip(self.W, self.b) for p in pair]
        return _Network(self.sizes, 1, np.concatenate(parts))

    def __getstate__(self) -> dict:
        return {"sizes": self.sizes, "k": self.k, "params": self.params}

    def __setstate__(self, state: dict) -> None:
        if "params" not in state:
            from repro.core.errors import StateLayoutError

            raise StateLayoutError(
                "neural network was pickled with an older state layout "
                "(one object per layer); retrain the model"
            )
        self.__init__(state["sizes"], state["k"], state["params"])

    def forward(
        self, x: np.ndarray, activations: list | None = None
    ) -> np.ndarray:
        """Run every member on its slice of ``x`` (K, B, n_in).

        Training passes a list that collects each layer's input and
        pre-activation for :meth:`backward`; scoring keeps nothing.
        """
        last = len(self.W) - 1
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            out = np.matmul(x, W)
            out += b
            if activations is not None:
                activations.append((x, out))
            x = _relu(out) if i < last else out
        return x

    def backward(self, grad: np.ndarray, activations: list) -> None:
        """Every member's gradients from the output gradient (K, B, n_out)."""
        batch = grad.shape[1]
        for i in reversed(range(len(self.W))):
            x, pre = activations[i]
            if i < len(self.W) - 1:
                grad = grad * (pre > 0)
            np.matmul(x.transpose(0, 2, 1), grad, out=self._grad_W[i])
            self._grad_W[i] /= batch
            # np.mean's own sum and divide, without its python wrapper
            np.add.reduce(grad, axis=1, keepdims=True, out=self._grad_b[i])
            self._grad_b[i] /= batch
            if i:
                grad = np.matmul(grad, self.W[i].transpose(0, 2, 1))

    def step(
        self, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8
    ) -> None:
        """One Adam update of every parameter of every member."""
        self._t += 1
        m, v, grad = self._m, self._v, self._grad
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad**2
        m_hat = m / (1 - beta1**self._t)
        v_hat = v / (1 - beta2**self._t)
        self.params -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)


class MLPClassifier(BaseEstimator):
    """Multi-layer perceptron classifier (softmax + cross-entropy)."""

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (32, 16),
        learning_rate: float = 1e-3,
        n_epochs: int = 60,
        batch_size: int = 64,
        seed: int | None = 0,
    ) -> None:
        self.hidden_sizes = hidden_sizes
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, X, y) -> "MLPClassifier":
        array, labels = check_X_y(X, y)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        n_classes = len(self.classes_)
        self._scaler = MinMaxScaler().fit(array)
        scaled = self._scaler.transform(array)
        rng = check_random_state(self.seed)
        sizes = [array.shape[1], *self.hidden_sizes, n_classes]
        net = _Network.initialised(sizes, [rng])
        one_hot = np.zeros((len(encoded), n_classes))
        one_hot[np.arange(len(encoded)), encoded] = 1.0
        n = len(scaled)
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                activations: list = []
                logits = net.forward(scaled[batch][None], activations)[0]
                logits -= logits.max(axis=1, keepdims=True)
                exp = np.exp(logits)
                softmax = exp / exp.sum(axis=1, keepdims=True)
                net.backward((softmax - one_hot[batch])[None], activations)
                net.step(self.learning_rate)
        self._net = net.member(0)
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted("_net")
        scaled = self._scaler.transform(check_array(X, allow_empty=True))
        logits = self._net.forward(scaled[None])[0]
        logits -= logits.max(axis=1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]


class Autoencoder(BaseEstimator):
    """Symmetric autoencoder scored by reconstruction RMSE.

    Fit on (mostly benign) traffic; anomalies reconstruct poorly.  The
    hidden bottleneck defaults to ``ceil(0.5 * d)`` with a further
    compression layer, matching the "3/4, 1/2" rule of thumb the
    autoencoder IDS papers use.  Inputs are min-max normalised with
    clipping so test-time outliers cannot blow up the loss.
    """

    def __init__(
        self,
        hidden_ratio: float = 0.5,
        learning_rate: float = 1e-3,
        n_epochs: int = 80,
        batch_size: int = 64,
        seed: int | None = 0,
    ) -> None:
        self.hidden_ratio = hidden_ratio
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        self.seed = seed

    def fit(self, X, y=None) -> "Autoencoder":
        fit_autoencoders([self], [check_array(X)])
        return self

    def _rmse(self, scaled: np.ndarray) -> np.ndarray:
        reconstructed = _sigmoid(self._net.forward(scaled[None])[0])
        return np.sqrt(((reconstructed - scaled) ** 2).mean(axis=1))

    def reconstruct(self, X) -> np.ndarray:
        """Reconstructions in the original feature space."""
        self._check_fitted("_net")
        scaled = self._scaler.transform(check_array(X, allow_empty=True))
        reconstructed = _sigmoid(self._net.forward(scaled[None])[0])
        return reconstructed * self._scaler.span_ + self._scaler.min_

    def score_samples(self, X) -> np.ndarray:
        """Reconstruction RMSE; larger means more anomalous."""
        self._check_fitted("_net")
        scaled = self._scaler.transform(check_array(X, allow_empty=True))
        return self._rmse(scaled)

    def predict(self, X) -> np.ndarray:
        """1 = anomalous (RMSE above the 98th training percentile)."""
        return (self.score_samples(X) > self.threshold_).astype(np.int64)


def fit_autoencoders(
    members: list[Autoencoder], blocks: list[np.ndarray]
) -> list[np.ndarray]:
    """Fit same-width autoencoders in lock step, one per data block.

    The members share their hyper-parameters and train as one stack:
    each keeps its own scaler and generator, draws its initial weights
    and then one permutation per epoch from it, and gathers its own
    batches, so every member ends byte-equal to fitting it alone.
    Returns each member's training scores (reconstruction RMSE).
    """
    first = members[0]
    shared = {
        (m.hidden_ratio, m.learning_rate, m.n_epochs, m.batch_size)
        for m in members
    }
    if len(shared) > 1:
        raise ValueError("lock-step autoencoders must share hyper-parameters")
    for member, block in zip(members, blocks):
        member._scaler = MinMaxScaler(clip=True).fit(block)
    scaled = np.stack(
        [m._scaler.transform(block) for m, block in zip(members, blocks)]
    )
    rngs = [check_random_state(m.seed) for m in members]
    k, n, d = scaled.shape
    bottleneck = max(1, int(np.ceil(d * first.hidden_ratio)))
    mid = max(bottleneck, int(np.ceil(d * 0.75)))
    sizes = [d, mid, bottleneck, mid, d] if d > 2 else [d, bottleneck, d]
    net = _Network.initialised(sizes, rngs)
    lanes = np.arange(k)[:, None]
    for _ in range(first.n_epochs):
        order = np.stack([rng.permutation(n) for rng in rngs])
        for start in range(0, n, first.batch_size):
            batch = scaled[lanes, order[:, start : start + first.batch_size]]
            activations: list = []
            output = _sigmoid(net.forward(batch, activations))
            grad = (output - batch) * output * (1.0 - output)
            net.backward(grad, activations)
            net.step(first.learning_rate)
    scores = []
    for i, member in enumerate(members):
        member._net = net.member(i)
        scores.append(member._rmse(scaled[i]))
        member.threshold_ = float(np.quantile(scores[-1], 0.98))
    return scores

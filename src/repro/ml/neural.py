"""Feed-forward neural networks: an MLP classifier and an autoencoder.

Implements dense networks with ReLU hidden layers trained by Adam on
mini-batches -- enough machinery for every neural model in the surveyed
papers (the Ensemble DNN, the Nokia and early-detection autoencoders,
and the small autoencoders inside Kitsune).

Training such small networks costs per-call overhead, not arithmetic,
so a network is a stack of K same-shaped members (:class:`_Network`),
run by one ``np.matmul`` per layer over ``(K, batch, width)`` stacks,
and a :class:`_Trainer` trains any number of stacks, of any widths and
depths, in one loop:

- one flat buffer holds the parameters, gradients and Adam moments of
  every stack, and one in-place Adam update per batch covers them all;
- each stack's rows are gathered once per epoch, in that epoch's
  permutation, so a batch is a slice;
- stacks of one depth keep their activations in flat per-layer buffers,
  so the ReLU, the output non-linearity, the loss gradient and the ReLU
  mask run once per depth per step, not once per stack.

Matmuls, bias adds and bias-gradient sums stay per stack, on each
member's own contiguous matrices: padding stacks to share one matmul
would change BLAS's summation.  So each member's arithmetic is exactly
that of training it alone, and the results are byte-equal.
:func:`fit_autoencoders` trains all of KitNET's ensemble members this
way; :class:`MLPClassifier` and :class:`Autoencoder` train one stack of
one.  Fitted models keep their parameters only: no activations,
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
    it.  A :class:`_Trainer` lays out its stacks in a buffer of its own;
    :meth:`member` copies one member's parameters out of it, so a fitted
    network pickles its parameters only.
    """

    def __init__(self, sizes: list[int], k: int, params: np.ndarray) -> None:
        self.sizes = list(sizes)
        self.k = k
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

    def member(self, k: int) -> "_Network":
        """Member ``k`` as a one-network stack, in a buffer of its own."""
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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run every member on its slice of ``x`` (K, B, n_in)."""
        last = len(self.W) - 1
        for i, (W, b) in enumerate(zip(self.W, self.b)):
            out = np.matmul(x, W)
            out += b
            x = _relu(out) if i < last else out
        return x


def _blocks(
    flat: np.ndarray, nets: list[_Network], layer: int, rows: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each stack's (K, rows, sizes[layer]) block of ``flat``, packed in
    stack order, and the flat span they cover."""
    views, offset = [], 0
    for net in nets:
        shape = (net.k, rows, net.sizes[layer])
        size = shape[0] * shape[1] * shape[2]
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return flat[:offset], views


class _Trainer:
    """Stacks of networks trained together by one in-place Adam step.

    ``stacks`` pairs each stack's layer sizes with one generator per
    member; each member draws its Glorot-uniform weights from its own
    generator, layer by layer, exactly as a network trained alone.
    Every stack sees ``n`` rows an epoch, handed to :meth:`gather`, in
    batches of ``batch_size``.  A step over one of :attr:`batches` is
    :meth:`forward`, the caller's loss gradient, :meth:`backward` and
    :meth:`step`.

    Stacks of one depth share flat per-layer buffers.  They are
    batch-major: a batch of ``rows`` rows holds each stack's
    ``(K, rows, width)`` block after the blocks of the stacks before it.
    An epoch's inputs use the same layout batch after batch, so a
    batch's inputs are one slice.
    """

    def __init__(
        self,
        stacks: list[tuple[list[int], list[np.random.Generator]]],
        n: int,
        batch_size: int,
    ) -> None:
        spans = np.cumsum([0] + [
            len(rngs) * sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
            for sizes, rngs in stacks
        ])
        # parameters, gradients, Adam's two moments and two scratch rows
        self._state = np.zeros((6, spans[-1]))
        self._t = 0
        self.nets: list[_Network] = []
        self._grads = []
        for (sizes, rngs), lo, hi in zip(stacks, spans, spans[1:]):
            net = _Network(sizes, len(rngs), self._state[0, lo:hi])
            for k, rng in enumerate(rngs):
                for W in net.W:
                    limit = np.sqrt(6.0 / (W.shape[1] + W.shape[2]))
                    W[k] = rng.uniform(-limit, limit, size=W.shape[1:])
            self.nets.append(net)
            self._grads.append(net._views(self._state[1, lo:hi]))
        by_depth: dict[int, list[int]] = {}
        for s, net in enumerate(self.nets):
            by_depth.setdefault(len(net.W), []).append(s)
        self._depths = list(by_depth.values())
        # per stack, where gather() puts its rows: its block of every
        # full batch as one (batches, K, batch_size, n_in) view, and its
        # block of the ragged last batch
        self._scatter: list = [None] * len(self.nets)
        full = n - n % batch_size
        plans = []
        for group in self._depths:
            nets = [self.nets[s] for s in group]
            widths = [sum(net.k * net.sizes[i] for net in nets)
                      for i in range(len(nets[0].sizes))]
            epoch = np.empty(n * widths[0])
            batched = epoch[: full * widths[0]].reshape(-1, batch_size * widths[0])
            _, tails = _blocks(epoch[full * widths[0] :], nets, 0, n - full)
            offset = 0
            for s, net, tail in zip(group, nets, tails):
                size = net.k * net.sizes[0]
                block = batched[:, batch_size * offset : batch_size * (offset + size)]
                self._scatter[s] = (
                    block.reshape(-1, net.k, batch_size, net.sizes[0]), tail
                )
                offset += size
            # pre-activation, activation, ReLU mask and gradient buffers
            rows = min(batch_size, n)
            buffers = [
                (np.empty(rows * w), np.empty(rows * w),
                 np.empty(rows * w, dtype=bool), np.empty(rows * w))
                for w in widths[1:]
            ]
            plans.append([
                self._plan(group, epoch[start * widths[0] :],
                           min(batch_size, n - start), buffers)
                for start in range(0, n, batch_size)
            ])
        #: (start, stop, per-depth plans) of every batch of an epoch
        self.batches = [
            (start, min(start + batch_size, n), [p[j] for p in plans])
            for j, start in enumerate(range(0, n, batch_size))
        ]

    def _plan(
        self, group: list[int], inputs: np.ndarray, rows: int, buffers: list
    ) -> tuple:
        """The views one depth's step over one batch works on."""
        nets = [self.nets[s] for s in group]
        grads = [self._grads[s] for s in group]
        x_flat, xs = _blocks(inputs, nets, 0, rows)
        layers, lower = [], None
        for i, (pre, act, mask, delta) in enumerate(buffers):
            pre_flat, pres = _blocks(pre, nets, i + 1, rows)
            delta_flat, deltas = _blocks(delta, nets, i + 1, rows)
            forward = [
                (x, net.W[i], net.b[i], out) for x, net, out in zip(xs, nets, pres)
            ]
            backward = [
                (x.transpose(0, 2, 1), d, grad_W[i], grad_b[i],
                 net.W[i].transpose(0, 2, 1) if i else None,
                 lower[j] if i else None)
                for j, (x, net, d, (grad_W, grad_b)) in enumerate(
                    zip(xs, nets, deltas, grads))
            ]
            relu = None
            if i < len(buffers) - 1:
                act_flat, xs = _blocks(act, nets, i + 1, rows)
                relu = (pre_flat, act_flat, mask[: len(pre_flat)], delta_flat)
            layers.append((forward, relu, backward))
            lower = deltas
        return x_flat, pre_flat, delta_flat, layers

    def gather(self, rows: list[np.ndarray]) -> None:
        """Lay out an epoch: each stack's (K, n, n_in) rows in epoch order."""
        for data, (blocks, tail) in zip(rows, self._scatter):
            full = len(blocks) * blocks.shape[2]
            k, _, width = data.shape
            blocks[...] = data[:, :full].reshape(
                k, -1, blocks.shape[2], width
            ).transpose(1, 0, 2, 3)
            tail[...] = data[:, full:]

    @staticmethod
    def forward(plans: list) -> list[tuple[np.ndarray, ...]]:
        """Every stack's forward pass over one batch.

        Returns, per depth, the flat inputs, the last layer's flat
        pre-activations, and the flat buffer for their loss gradient.
        """
        out = []
        for x_flat, pre_flat, delta_flat, layers in plans:
            for forward, relu, _ in layers:
                for x, W, b, pre in forward:
                    np.matmul(x, W, out=pre)
                    pre += b
                if relu:
                    np.maximum(relu[0], 0.0, out=relu[1])
            out.append((x_flat, pre_flat, delta_flat))
        return out

    @staticmethod
    def backward(plans: list) -> None:
        """Every stack's gradients, summed over the batch, from the loss
        gradients the caller wrote into the buffers :meth:`forward`
        returned."""
        for *_, layers in plans:
            for _, relu, backward in reversed(layers):
                if relu:
                    pre, _, mask, delta = relu
                    np.greater(pre, 0, out=mask)
                    delta *= mask
                for x_t, delta, grad_W, grad_b, W_t, lower in backward:
                    np.matmul(x_t, delta, out=grad_W)
                    np.add.reduce(delta, axis=1, keepdims=True, out=grad_b)
                    if W_t is not None:
                        np.matmul(delta, W_t, out=lower)

    def step(
        self, rows: int, learning_rate: float, beta1=0.9, beta2=0.999, eps=1e-8
    ) -> None:
        """Average the gradients over the batch's ``rows``, then make one
        Adam update of every parameter of every stack, in place."""
        params, grad, m, v, a, b = self._state
        grad /= rows
        self._t += 1
        m *= beta1
        np.multiply(grad, 1 - beta1, out=a)
        m += a
        v *= beta2
        np.square(grad, out=a)
        a *= 1 - beta2
        v += a
        np.divide(m, 1 - beta1**self._t, out=a)
        np.divide(v, 1 - beta2**self._t, out=b)
        a *= learning_rate
        np.sqrt(b, out=b)
        b += eps
        a /= b
        params -= a


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
        n = len(scaled)
        trainer = _Trainer([(sizes, [rng])], n, self.batch_size)
        one_hot = np.zeros((n, n_classes))
        one_hot[np.arange(n), encoded] = 1.0
        for _ in range(self.n_epochs):
            order = rng.permutation(n)
            trainer.gather([scaled[order][None]])
            targets = one_hot[order]
            for start, stop, plans in trainer.batches:
                ((_, logits, grad),) = trainer.forward(plans)
                logits = logits.reshape(-1, n_classes)
                logits -= logits.max(axis=1, keepdims=True)
                exp = np.exp(logits)
                softmax = exp / exp.sum(axis=1, keepdims=True)
                np.subtract(
                    softmax, targets[start:stop], out=grad.reshape(-1, n_classes)
                )
                trainer.backward(plans)
                trainer.step(stop - start, self.learning_rate)
        self._net = trainer.nets[0].member(0)
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
    """Fit autoencoders together, one per data block, in one loop.

    The members share their hyper-parameters and their row count; their
    widths may differ.  Members of one width train as one stack, and all
    stacks train in one :class:`_Trainer`.  Each member keeps its own
    scaler and generator, draws its initial weights and then one
    permutation per epoch from it, and trains on its own batches, so
    every member ends byte-equal to fitting it alone.  Returns each
    member's training scores (reconstruction RMSE).
    """
    first = members[0]
    shared = {
        (m.hidden_ratio, m.learning_rate, m.n_epochs, m.batch_size)
        for m in members
    }
    if len(shared) > 1:
        raise ValueError("lock-step autoencoders must share hyper-parameters")
    if len({len(block) for block in blocks}) > 1:
        raise ValueError("lock-step autoencoders must share a row count")
    for member, block in zip(members, blocks):
        member._scaler = MinMaxScaler(clip=True).fit(block)
    by_width: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        by_width.setdefault(block.shape[1], []).append(i)
    stacks = list(by_width.values())
    scaled = [
        np.stack([members[i]._scaler.transform(blocks[i]) for i in stack])
        for stack in stacks
    ]
    rngs = [[check_random_state(members[i].seed) for i in stack] for stack in stacks]
    n = len(blocks[0])
    trainer = _Trainer(
        [(_autoencoder_sizes(d, first.hidden_ratio), r)
         for d, r in zip(by_width, rngs)],
        n,
        first.batch_size,
    )
    lanes = [np.arange(len(stack))[:, None] for stack in stacks]
    for _ in range(first.n_epochs):
        trainer.gather([
            x[lane, np.stack([rng.permutation(n) for rng in r])]
            for x, lane, r in zip(scaled, lanes, rngs)
        ])
        for start, stop, plans in trainer.batches:
            for x, pre, grad in trainer.forward(plans):
                output = _sigmoid(pre)
                # (output - x) * output * (1 - output), in place
                np.subtract(output, x, out=grad)
                grad *= output
                np.subtract(1.0, output, out=output)
                grad *= output
            trainer.backward(plans)
            trainer.step(stop - start, first.learning_rate)
    scores: list = [None] * len(members)
    for stack, x, net in zip(stacks, scaled, trainer.nets):
        for k, i in enumerate(stack):
            member = members[i]
            member._net = net.member(k)
            scores[i] = member._rmse(x[k])
            member.threshold_ = float(np.quantile(scores[i], 0.98))
    return scores


def _autoencoder_sizes(d: int, hidden_ratio: float) -> list[int]:
    """Layer sizes of an autoencoder over ``d`` features."""
    bottleneck = max(1, int(np.ceil(d * hidden_ratio)))
    mid = max(bottleneck, int(np.ceil(d * 0.75)))
    return [d, mid, bottleneck, mid, d] if d > 2 else [d, bottleneck, d]

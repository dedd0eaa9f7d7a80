"""Optimizer, loss, and the early-stopped training loop.

The loss is sigmoid cross-entropy on the single output logit, written in
log-sum-exp form so huge logits cannot overflow.  Training monitors the
validation AUC after every epoch, keeps the best network state seen
(parameters and BatchNorm running statistics), and stops once the AUC has
failed to improve for a configured number of consecutive epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DivergenceError
from .model import Network

__all__ = [
    "OptimizerConfig",
    "TrainingHistory",
    "AdamOptimizer",
    "bce_with_logits",
    "train_network",
]


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 2:
            raise ConfigError("batch size must be >= 2 (batch statistics)")


@dataclass
class TrainingHistory:
    train_loss: list = field(default_factory=list)
    val_auc: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("-inf")
    stopped_early: bool = False


class AdamOptimizer:
    """Adaptive-moment gradient descent over a fixed parameter list."""

    # Moment decays and the denominator floor of Kingma and Ba's defaults.
    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, config: OptimizerConfig):
        self.params = list(params)
        self.config = config
        self.step_count = 0
        self._m = [np.zeros_like(p.value) for p in self.params]
        self._v = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        self.step_count += 1
        b1t = 1.0 - self.BETA1 ** self.step_count
        b2t = 1.0 - self.BETA2 ** self.step_count
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            m += (1.0 - self.BETA1) * (g - m)
            v += (1.0 - self.BETA2) * (g * g - v)
            p.value -= self.config.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean sigmoid cross-entropy and its gradient with respect to the logits.

    loss_i = max(z, 0) - z*y + log(1 + exp(-|z|)); grad = (sigmoid(z) - y)/B.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise ConfigError(f"logits shape {z.shape} != labels shape {y.shape}")
    losses = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return float(losses.mean()), (sig - y) / z.size


def train_network(network: Network, batches, validation_scorer,
                  optimizer_config: OptimizerConfig, *, patience: int, max_epochs: int,
                  log=None) -> TrainingHistory:
    """Run up to max_epochs epochs of minibatch gradient descent with early stopping.

    batches is a callable epoch_index -> iterable of (inputs, labels)
    minibatches; validation_scorer is a callable network -> validation AUC.
    Training stops after patience + 1 epochs in a row without a better AUC.
    The network is left holding the parameters and running statistics of
    its best validation epoch, so it scores that epoch's validation AUC.
    Raises a divergence error when the loss turns non-finite.
    """
    if patience < 0 or max_epochs < 1:
        raise ConfigError("patience must be >= 0 and max_epochs >= 1")
    optimizer = AdamOptimizer(network.params(), optimizer_config)
    history = TrainingHistory()
    best_state = [(arr, arr.copy()) for _, arr in network.named_state()]
    bad_epochs = 0

    for epoch in range(max_epochs):
        losses = []
        for inputs, labels in batches(epoch):
            network.zero_grads()
            logits = network.forward(inputs, train=True)
            loss, dlogits = bce_with_logits(logits, labels)
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became non-finite in epoch {epoch}")
            network.backward(dlogits)
            optimizer.step()
            losses.append(loss)
        epoch_loss = float(np.mean(losses)) if losses else float("nan")
        val_auc = float(validation_scorer(network))
        history.train_loss.append(epoch_loss)
        history.val_auc.append(val_auc)
        if log is not None:
            log(f"epoch {epoch}: loss {epoch_loss:.4f}, validation AUC {val_auc:.4f}")

        if val_auc > history.best_val_auc:
            history.best_val_auc = val_auc
            history.best_epoch = epoch
            best_state = [(arr, arr.copy()) for _, arr in network.named_state()]
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > patience:
                history.stopped_early = True
                break

    for arr, best in best_state:
        arr[...] = best
    return history

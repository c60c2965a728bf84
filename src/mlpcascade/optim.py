"""The fit loop and first-order optimizer shared by the teacher and student
trainers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .params import LayerStack


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, epoch: int, component: str, value: float):
        super().__init__(f"non-finite {component} loss ({value}) at epoch {epoch}")
        self.epoch = epoch
        self.component = component
        self.value = value


def check_training_config(cfg) -> None:
    """Reject the settings of a teacher or cascade config under which no
    model trains: an epoch cap below 1, negative patience, patience that
    reaches the cap, an empty hidden layer, a learning rate that is not
    finite and positive, and a weight decay that is not finite and
    non-negative. The ValueError names the field."""
    if cfg.max_epochs < 1:
        raise ValueError(f"max_epochs {cfg.max_epochs} must be >= 1")
    if cfg.patience < 0:
        raise ValueError(f"patience {cfg.patience} must be >= 0")
    if cfg.patience >= cfg.max_epochs:
        raise ValueError(f"patience {cfg.patience} must be < max_epochs {cfg.max_epochs}")
    if cfg.hidden_dim < 1:
        raise ValueError(f"hidden_dim {cfg.hidden_dim} must be >= 1")
    if not (math.isfinite(cfg.lr) and cfg.lr > 0):
        raise ValueError(f"lr {cfg.lr} must be finite and > 0")
    if not (math.isfinite(cfg.weight_decay) and cfg.weight_decay >= 0):
        raise ValueError(f"weight_decay {cfg.weight_decay} must be finite and >= 0")


class AdamW:
    """Adaptive moment estimation with decoupled L2 weight decay.

    Updates the arrays in `params` in place:

        theta <- theta - lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * theta)

    Decay applies uniformly to weights and biases.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        weight_decay: float = 0.0,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p
            p -= self.lr * update


@dataclass
class FitResult:
    """The best epoch's parameters and kept value, and the run's record."""

    params: LayerStack
    kept: Any
    best_epoch: int
    best_val_acc: float
    epochs: int
    losses: list[float]


def fit(
    params: LayerStack,
    cfg,
    step: Callable[[int], tuple[float, dict[str, np.ndarray]]],
    validate: Callable[[], tuple[float, Any]],
) -> FitResult:
    """Train ``params`` in place with AdamW and early stopping.

    Each epoch ``step(epoch)`` returns the loss and the gradients of every
    parameter, AdamW takes one step, and ``validate()`` returns the
    validation accuracy of the updated parameters plus one value the caller
    wants kept with them. Training halts after ``cfg.patience`` epochs
    without a new best accuracy (ties keep the earlier epoch); the copy of
    the parameters and the value from the best epoch are returned.
    """
    check_training_config(cfg)
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    # max_epochs >= 1 (checked above) and accuracies >= 0, so epoch 1 always
    # sets the best
    best_acc = -1.0
    since_best = 0
    losses: list[float] = []
    for epoch in range(1, cfg.max_epochs + 1):
        loss, grads = step(epoch)
        opt.step(grads)
        losses.append(loss)
        val_acc, kept = validate()
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = params.copy()
            best_kept = kept
            best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return FitResult(best_params, best_kept, best_epoch, best_acc, epoch, losses)

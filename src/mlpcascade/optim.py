"""The fit loop and first-order optimizer shared by the teacher and student
trainers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .numkit import dropout_threshold
from .params import LayerStack


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, epoch: int, component: str, value: float):
        super().__init__(f"non-finite {component} loss ({value}) at epoch {epoch}")
        self.epoch = epoch
        self.component = component
        self.value = value


def check_training_config(cfg) -> None:
    """Reject, when a teacher or cascade config is built, the settings under
    which no model trains: an epoch cap below 1, negative patience,
    patience that reaches the cap, an empty hidden layer, a learning rate
    that is not finite and positive, a weight decay that is not finite and
    non-negative, and a dropout rate that ``dropout_mask`` cannot draw. The
    ValueError names the field."""
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
    dropout_threshold(cfg.dropout)


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
        # two work arrays per parameter, so a step allocates nothing
        self._work = {k: np.empty((2, *v.shape), dtype=v.dtype) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of every parameter from ``grads``. Each line runs in
        place on the parameter's work arrays, in the order and dtypes of

            m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
            p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p)
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            update, work = self._work[name]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=work)
            m += work
            v *= self.beta2
            np.multiply(g, g, out=work)
            work *= 1.0 - self.beta2
            v += work
            np.divide(m, bc1, out=update)
            np.divide(v, bc2, out=work)
            np.sqrt(work, out=work)
            work += self.eps
            update /= work
            if self.weight_decay:
                np.multiply(p, self.weight_decay, out=work)
                update += work
            update *= self.lr
            p -= update


@dataclass
class TrainRecord:
    """What a ``fit`` run records: the epochs it ran, the best epoch and its
    validation accuracy, and every epoch's training loss. ``STORED`` names
    what a checkpoint keeps of it."""

    STORED = ("epochs", "best_epoch", "best_val_acc")

    epochs: int
    best_epoch: int
    best_val_acc: float
    losses: list[float] = field(default_factory=list)


def fit(
    params: LayerStack,
    cfg,
    step: Callable[[int], tuple[float, dict[str, np.ndarray]]],
    validate: Callable[[], tuple[float, Any]],
) -> tuple[LayerStack, Any, TrainRecord]:
    """Train ``params`` in place with AdamW and early stopping.

    Each epoch ``step(epoch)`` returns the loss and the gradients of every
    parameter, AdamW takes one step, and ``validate()`` returns the
    validation accuracy of the updated parameters plus one value the caller
    wants kept with them. Training halts after ``cfg.patience`` epochs
    without a new best accuracy (ties keep the earlier epoch). Returns a
    copy of the best epoch's parameters, the value kept with them and the
    run's ``TrainRecord``.
    """
    opt = AdamW(params.param_dict(), lr=cfg.lr, weight_decay=cfg.weight_decay)
    # max_epochs >= 1 (checked when the config was built) and accuracies
    # >= 0, so epoch 1 always sets the best
    best_acc = -1.0
    since_best = 0
    losses: list[float] = []
    for epoch in range(1, cfg.max_epochs + 1):
        # a diverging run is reported by the caller's finite checks
        # (TrainingDivergedError), not by numpy's overflow warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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
    return best_params, best_kept, TrainRecord(epoch, best_epoch, best_acc, losses)

"""Adam and a reduce-on-plateau learning-rate schedule."""

import numpy as np

from .autodiff import Tensor


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    step() consumes whatever gradients have accumulated (callers batching by
    gradient accumulation pass grad_scale = 1/batch to average them): it
    updates the moments and the parameter values in place and uses each
    gradient array as scratch, so the gradients hold no meaning afterwards
    and must be cleared with zero_grad() before the next pass.
    """

    # Elements per slice of the in-place update: the slices of m, v, the
    # gradient, the values and the scratch stay in cache across the update's
    # dozen passes, and no temporary grows with the parameter size.
    BLOCK = 1 << 15

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros(p.values.shape) for name, p in self.params.items()}
        self.v = {name: np.zeros(p.values.shape) for name, p in self.params.items()}

    def step(self, grad_scale: float = 1.0) -> None:
        """One update, elementwise the same float operations in the same order as

            g = grad * grad_scale
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * (g * g)
            values = values - lr * (m / correct1) / (sqrt(v / correct2) + eps)

        so it is bit-identical to that out-of-place form.
        """
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        scratch = np.empty(self.BLOCK)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            if not p.values.flags.c_contiguous:
                p.values = np.ascontiguousarray(p.values)
            grad = p.grad.reshape(-1)
            values = p.values.reshape(-1)
            m = self.m[name].reshape(-1)
            v = self.v[name].reshape(-1)
            for lo in range(0, values.size, self.BLOCK):
                hi = min(lo + self.BLOCK, values.size)
                g, mb, vb, pb = grad[lo:hi], m[lo:hi], v[lo:hi], values[lo:hi]
                tmp = scratch[: hi - lo]
                g *= grad_scale
                mb *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=tmp)
                mb += tmp
                vb *= self.beta2
                g *= g
                g *= 1.0 - self.beta2
                vb += g
                np.divide(mb, correct1, out=tmp)
                tmp *= self.lr
                np.divide(vb, correct2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                tmp /= g
                pb -= tmp

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def state_dict(self) -> dict:
        """Scalars and copies of the moment arrays; serialising them is the
        caller's business."""
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.beta1 = state["beta1"]
        self.beta2 = state["beta2"]
        self.eps = state["eps"]
        self.t = state["t"]
        for k in self.m:
            self.m[k] = np.array(state["m"][k], dtype=np.float64).reshape(self.m[k].shape)
            self.v[k] = np.array(state["v"][k], dtype=np.float64).reshape(self.v[k].shape)


class ReduceLROnPlateau:
    """Multiply lr by `factor` after `patience` consecutive epochs without an
    improvement of at least `threshold` over the best monitored value.

    The very first observation primes the best value and counts as a
    non-improving epoch, so a flat loss curve yields exactly one reduction per
    `patience` epochs.
    """

    def __init__(self, optimizer: Adam, patience: int = 5, factor: float = 0.9,
                 threshold: float = 1e-6):
        if not 0.0 < factor < 1.0:
            raise ValueError(f"factor must be in (0,1), got {factor}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.optimizer = optimizer
        self.patience = patience
        self.factor = factor
        self.threshold = threshold
        self.best = None
        self.num_bad = 0

    def step(self, metric: float) -> None:
        if self.best is None:
            self.best = metric
            self.num_bad = 1
        elif self.best - metric >= self.threshold:
            self.best = metric
            self.num_bad = 0
        else:
            self.num_bad += 1
        if self.num_bad >= self.patience:
            self.optimizer.lr *= self.factor
            self.num_bad = 0

    @property
    def lr(self) -> float:
        return self.optimizer.lr

    def state_dict(self) -> dict:
        return {
            "patience": self.patience,
            "factor": self.factor,
            "threshold": self.threshold,
            "best": self.best,
            "num_bad": self.num_bad,
        }

    def load_state_dict(self, state: dict) -> None:
        self.patience = state["patience"]
        self.factor = state["factor"]
        self.threshold = state["threshold"]
        self.best = state["best"]
        self.num_bad = state["num_bad"]

"""Adam and a reduce-on-plateau learning-rate schedule.

Adam keeps the gradients, first moments and second moments of its parameters
in three flat float64 buffers, one slot per parameter in the order of its
parameter dict. A backward pass writes each parameter's first gradient
contribution straight into its slot (`Tensor.grad_view`), the only place a
step reads a gradient from. The values stay where their model put them: a
model built by `train.build_model` holds all its values in one buffer
(`nn.allocate_parameters`). So a step makes one sliced pass over each run of
parameters whose values are adjacent in memory, one run for a whole model,
instead of a dozen numpy calls per parameter.
"""

import numpy as np

from .autodiff import Tensor


def _place(a: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(the float64 buffer that a is a contiguous view of, a's offset in it in
    elements), or None when a is no such view."""
    base = a.base
    if (not isinstance(base, np.ndarray) or base.dtype != np.float64
            or not base.flags.c_contiguous or not a.flags.c_contiguous):
        return None
    return base, (a.ctypes.data - base.ctypes.data) // a.itemsize


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    step() consumes the gradients that have accumulated in the slots (callers
    batching by gradient accumulation pass grad_scale = 1/batch to average
    them): it updates the moments and the parameter values in place and uses
    the gradient buffer as scratch, so the gradients hold no meaning
    afterwards and must be cleared with zero_grad() before the next pass.
    Every parameter must have its gradient in its slot, as backward (or
    Tensor.accumulate_grad) puts it there; a step fails before it changes
    anything when one has not.

    `runs` holds, for each maximal sequence of parameters (in dict order)
    whose values are adjacent slices of one buffer, its values as one 1-D
    view and the names; a parameter with an array of its own is a run of its
    own. A run's slots are adjacent too, so each run is one pass.
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
        size = sum(p.values.size for p in self.params.values())
        self.flat_grad, self.flat_m, self.flat_v = np.zeros(size), np.zeros(size), np.zeros(size)
        # the gradient slots, held here because Tensor.grad_view refers to them weakly
        self._grads, self.m, self.v = {}, {}, {}
        self.runs: list[tuple[np.ndarray, list[str]]] = []
        lo, follows = 0, None  # (buffer, offset) just past the previous parameter's values
        for name, p in self.params.items():
            if not p.values.flags.c_contiguous:
                p.values = np.ascontiguousarray(p.values)
            hi = lo + p.values.size
            self._grads[name] = p.grad_view = self.flat_grad[lo:hi].reshape(p.shape)
            self.m[name] = self.flat_m[lo:hi].reshape(p.shape)
            self.v[name] = self.flat_v[lo:hi].reshape(p.shape)
            place = _place(p.values)
            if place and follows and place[0] is follows[0] and place[1] == follows[1]:
                values, names = self.runs[-1]
                run = place[0].reshape(-1)[place[1] - values.size:place[1] + p.values.size]
                self.runs[-1] = (run, names + [name])
            else:
                self.runs.append((p.values.reshape(-1), [name]))
            follows = place and (place[0], place[1] + p.values.size)
            lo = hi

    def step(self, grad_scale: float = 1.0) -> None:
        """One update, elementwise the same float operations in the same order as

            g = grad * grad_scale
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * (g * g)
            values = values - lr * (m / correct1) / (sqrt(v / correct2) + eps)

        so it is bit-identical to that out-of-place form.
        """
        for name, p in self.params.items():
            if p.grad is not self._grads[name]:
                raise ValueError(f"Adam.step: parameter {name!r} has no gradient in its "
                                 "slot; backward or accumulate_grad puts it there")
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        scratch = np.empty(self.BLOCK)
        first = 0  # the run's first slot
        for values, _ in self.runs:
            grad, m, v = (flat[first:first + values.size]
                          for flat in (self.flat_grad, self.flat_m, self.flat_v))
            first += values.size
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

"""Adam and a reduce-on-plateau learning-rate schedule.

Adam keeps the gradients, first moments and second moments of its parameters
in three flat float64 buffers, one slot per parameter in the order of its
parameter dict. A backward pass writes each parameter's first gradient
contribution straight into its slot (`Tensor.grad_view`), the only place a
step reads a gradient from. The values stay where their model put them: a
model built by `train.build_model` holds all its values in one buffer
(`nn.allocate_parameters`). So a step makes one sliced pass over each run of
parameters whose values are adjacent in memory, one run for a whole model,
instead of a dozen numpy calls per parameter. The update is Kingma and Ba's
folded form (both bias corrections in the step size and epsilon), and a run
of millions of values is cut into pieces that threads update at once, one
per usable CPU: the update is elementwise and numpy releases the interpreter
lock inside it, so the pieces change nothing but the time.
"""

import math
import os

import numpy as np

from .autodiff import Tensor


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask (which
    `taskset` narrows) where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    own. A run's slots are adjacent too, so each run is one pass. `pieces`
    cuts each run, at BLOCK boundaries, into at most usable_cpus() pieces of
    at least MIN_PIECE values each, as (values, gradients, m, v) 1-D views: a
    desk-scale run is one piece, and a step that has cut no run uses no
    thread.
    """

    # Elements per slice of the in-place update: the slices of m, v, the
    # gradient, the values and the scratch stay in cache across the update's
    # twelve passes, and no temporary grows with the parameter size.
    BLOCK = 1 << 15
    # Fewest values in a piece of a run. Updating this many takes milliseconds,
    # so starting a thread for a piece (tens of microseconds) stays a small
    # share of the step, and desk-scale models are never cut.
    MIN_PIECE = 1 << 20

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
        self.pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        cpus, first = usable_cpus(), 0  # first: the run's first slot
        for values, _ in self.runs:
            count = max(1, min(cpus, values.size // self.MIN_PIECE))
            # a multiple of BLOCK, and at least MIN_PIECE when count > 1; the
            # last piece takes what is left over
            length = values.size // count // self.BLOCK * self.BLOCK
            cuts = [i * length for i in range(count)] + [values.size]
            for lo, hi in zip(cuts, cuts[1:]):
                self.pieces.append((values[lo:hi], *(flat[first + lo:first + hi] for flat in
                                                     (self.flat_grad, self.flat_m, self.flat_v))))
            first += values.size
        self._threads = min(len(self.pieces), cpus) if len(self.pieces) > len(self.runs) else 1

    def step(self, grad_scale: float = 1.0) -> None:
        """One update in Kingma and Ba's folded form (arXiv:1412.6980, section 2):
        elementwise the same float operations in the same order as

            lr_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)
            eps_t = eps * sqrt(1 - beta2**t)
            m = beta1 * m + ((1 - beta1) * grad_scale) * grad
            v = beta2 * v + ((1 - beta2) * grad_scale**2) * (grad * grad)
            values = values - lr_t * m / (sqrt(v) + eps_t)

        so it is bit-identical to that out-of-place form, however the runs are
        cut into pieces. It is the textbook update with the bias corrections
        moved into lr_t and eps_t; m and v keep their textbook meaning, and the
        values agree with the textbook ones up to rounding.
        """
        for name, p in self.params.items():
            if p.grad is not self._grads[name]:
                raise ValueError(f"Adam.step: parameter {name!r} has no gradient in its "
                                 "slot; backward or accumulate_grad puts it there")
        self.t += 1
        root2 = math.sqrt(1.0 - self.beta2 ** self.t)
        factors = (self.lr * root2 / (1.0 - self.beta1 ** self.t), self.eps * root2,
                   (1.0 - self.beta1) * grad_scale, (1.0 - self.beta2) * grad_scale ** 2)
        if self._threads == 1:
            for piece in self.pieces:
                self._update(piece, *factors)
        else:
            # imported only by a process that steps a cut run: imported with
            # this module (it brings in logging), it slowed perfbench's
            # spectra-prep, which never steps, by about 2% (2 CPUs)
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(self._threads) as pool:
                # list() reads every result, so an error in a piece is raised here
                list(pool.map(lambda piece: self._update(piece, *factors), self.pieces))

    def _update(self, piece, lr_t: float, eps_t: float, a1: float, a2: float) -> None:
        """The step's twelve in-place passes over one piece, slice by slice."""
        values, grad, m, v = piece
        scratch = np.empty(min(self.BLOCK, values.size))
        for lo in range(0, values.size, self.BLOCK):
            hi = min(lo + self.BLOCK, values.size)
            g, mb, vb, pb = grad[lo:hi], m[lo:hi], v[lo:hi], values[lo:hi]
            tmp = scratch[: hi - lo]
            mb *= self.beta1
            np.multiply(g, a1, out=tmp)
            mb += tmp
            vb *= self.beta2
            g *= g
            g *= a2
            vb += g
            np.sqrt(vb, out=g)
            g += eps_t
            np.multiply(mb, lr_t, out=tmp)
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

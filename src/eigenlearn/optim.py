"""Adam and a reduce-on-plateau learning-rate schedule.

Adam keeps the first and second moments of its parameters in two flat
float64 buffers, one slot per parameter in the order of its parameter dict,
and keeps no gradient buffer. The values stay where their model put them: a
model built by `train.build_model` holds all its values in one buffer
(`nn.allocate_parameters`). So a step makes one blocked pass over each run of
parameters whose values are adjacent in memory, one run for a whole model,
instead of a dozen numpy calls per parameter. Each block's gradient is formed
in a block-sized scratch just before the block's update, by
`Tensor.form_grad`, which `.grad` forms gradients with too: a weight's from
the factors that `autodiff.dense` recorded (the rows of x^T @ g that the
block covers), any other gradient copied from its array. The update is
Kingma and Ba's folded form (both bias corrections in the step size and
epsilon). A model of millions of values has its blocks dealt to one thread
per usable CPU: the update is elementwise and numpy releases the interpreter
lock inside it, so the threads change nothing but the time.
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


def _refuse_shared(params: dict[str, Tensor]) -> None:
    """Refuse, in one line naming both, two names for one tensor and two
    parameters whose (contiguous) values overlap: a step would update those
    values twice."""
    names: dict[int, str] = {}
    for name, p in params.items():
        if id(p) in names:
            raise ValueError(f"Adam: parameters {names[id(p)]!r} and {name!r} are one tensor")
        names[id(p)] = name
    extents = sorted((p.values.ctypes.data, p.values.ctypes.data + p.values.nbytes, name)
                     for name, p in params.items() if p.values.size)
    end, last = 0, None  # the furthest end so far, and whose it is
    for start, stop, name in extents:
        if start < end:
            raise ValueError(f"Adam: the values of parameters {last!r} and {name!r} overlap")
        if stop > end:
            end, last = stop, name


class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    step() consumes the gradients the parameters have accumulated (callers
    batching by gradient accumulation pass grad_scale = 1/batch to average
    them) and updates the moments and the parameter values in place; it
    leaves the gradients as they were, and zero_grad() clears them before the
    next pass. Every parameter must have a gradient; a step fails before it
    changes anything when one has none. Two names for one tensor, or two
    parameters whose values overlap, are refused when the optimizer is built.

    `runs` holds, for each maximal sequence of parameters (in dict order)
    whose values are adjacent slices of one buffer, its values as one 1-D
    view and the names; a parameter with an array of its own is a run of its
    own. A run's moment slots are adjacent too, so each run is one pass, in
    blocks (see _blocks). `blocks` lists the blocks of every run in order, as
    (values, m, v, fills) views. A step deals them to its threads, at most
    one per usable CPU and per MIN_PIECE values: thread i updates blocks i,
    i + T, i + 2T, ... of T. A desk-scale model is stepped on no thread.
    """

    # Values per block of the in-place update: the slices of m, v and the
    # values and the block's gradient and scratch stay in cache across the
    # update's twelve passes, and no temporary grows with the parameter size.
    # A matrix's blocks are the row blocks its gradient products are formed
    # in, which Tensor.PRODUCT_BLOCK sizes, so the two are one constant.
    BLOCK = Tensor.PRODUCT_BLOCK
    # Fewest values per thread of a step. Updating this many takes
    # milliseconds, so starting a thread (tens of microseconds) stays a small
    # share of the step, and desk-scale models use no thread.
    MIN_PIECE = 1 << 20

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        for p in self.params.values():
            if not p.values.flags.c_contiguous:
                p.values = np.ascontiguousarray(p.values)
        _refuse_shared(self.params)
        size = sum(p.values.size for p in self.params.values())
        self.flat_m, self.flat_v = np.zeros(size), np.zeros(size)
        self.m, self.v = {}, {}
        self.runs: list[tuple[np.ndarray, list[str]]] = []
        lo, follows = 0, None  # (buffer, offset) just past the previous parameter's values
        for name, p in self.params.items():
            hi = lo + p.values.size
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
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, list]] = []
        at = 0  # the block's first moment slot
        for values, names in self.runs:
            lo = 0  # and its first value in the run
            for n, fills in self._blocks(names):
                self.blocks.append((values[lo:lo + n], self.flat_m[at:at + n],
                                    self.flat_v[at:at + n], fills))
                lo, at = lo + n, at + n
        self._threads = max(1, min(usable_cpus(), size // self.MIN_PIECE, len(self.blocks)))
        # two block-sized scratch arrays per thread, kept: allocating them
        # afresh for each step made a desk-scale step about a third slower
        largest = max((values.size for values, *_ in self.blocks), default=0)
        self._scratch = [np.empty((2, largest)) for _ in range(self._threads)]

    def _blocks(self, names: list[str]):
        """The blocks of a run with these parameters, in order, each as
        (size, fills): a fill (name, lo, hi, at) puts elements lo:hi of the
        parameter's flattened gradient at offset `at` of the block.

        A matrix is cut into the row blocks in which its gradient products are
        formed (Tensor.product_rows), any other parameter into BLOCKs. A
        parameter left whole is packed with its neighbours, as many to a
        block as fit in BLOCK values; a cut one gets blocks of its own.
        """
        block, filled = [], 0
        for name in names:
            p = self.params[name]
            size = p.values.size
            if p.values.ndim == 2:
                cols = p.shape[1]
                cuts = [(r0 * cols, r1 * cols) for r0, r1 in Tensor.product_rows(*p.shape)]
            else:
                cuts = [(lo, min(lo + self.BLOCK, size)) for lo in range(0, max(size, 1), self.BLOCK)]
            if len(cuts) == 1:
                if block and filled + size > self.BLOCK:
                    yield filled, block
                    block, filled = [], 0
                block.append((name, 0, size, filled))
                filled += size
                continue
            if block:
                yield filled, block
                block, filled = [], 0
            for lo, hi in cuts:
                yield hi - lo, [(name, lo, hi, 0)]
        if block:
            yield filled, block

    def step(self, grad_scale: float = 1.0) -> None:
        """One update in Kingma and Ba's folded form (arXiv:1412.6980, section 2):
        elementwise the same float operations in the same order as

            lr_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)
            eps_t = eps * sqrt(1 - beta2**t)
            m = beta1 * m + ((1 - beta1) * grad_scale) * grad
            v = beta2 * v + ((1 - beta2) * grad_scale**2) * (grad * grad)
            values = values - lr_t * m / (sqrt(v) + eps_t)

        with grad each parameter's `.grad`, so it is bit-identical to that
        out-of-place form, however many threads the blocks are dealt to. It
        is the textbook update with the bias corrections moved into lr_t and
        eps_t; m and v keep their textbook meaning, and the values agree with
        the textbook ones up to rounding.

        A gradient factor that may share memory with values the step updates
        (a parameter that fed a dense layer as its input, say) is formed
        before any value changes.
        """
        for name, p in self.params.items():
            terms = p.grad_terms()
            if not terms:
                raise ValueError(f"Adam.step: parameter {name!r} has no gradient; "
                                 "backward or accumulate_grad gives it one")
            if any(np.may_share_memory(factor, values) for term in terms if type(term) is tuple
                   for factor in term for values, _ in self.runs):
                p.grad  # formed now, into an array of its own that the update cannot change
        self.t += 1
        root2 = math.sqrt(1.0 - self.beta2 ** self.t)
        factors = (self.lr * root2 / (1.0 - self.beta1 ** self.t), self.eps * root2,
                   (1.0 - self.beta1) * grad_scale, (1.0 - self.beta2) * grad_scale ** 2)
        count = self._threads
        if count == 1:
            self._update(self.blocks, self._scratch[0], *factors)
            return
        # imported only by a process that steps on threads: imported with this
        # module (it brings in logging), it slowed perfbench's spectra-prep,
        # which never steps, by about 2% (2 CPUs)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(count) as pool:
            # list() reads every result, so an error in a thread is raised here
            list(pool.map(lambda i: self._update(self.blocks[i::count], self._scratch[i], *factors),
                          range(count)))

    def _update(self, blocks: list, buffers: np.ndarray, lr_t: float, eps_t: float,
                a1: float, a2: float) -> None:
        """The step's twelve in-place passes over each of these blocks, its
        gradient formed first (Tensor.form_grad) in the first of the two
        scratch buffers."""
        grad, scratch = buffers
        for values, m, v, fills in blocks:
            n = values.size
            g, tmp = grad[:n], scratch[:n]
            for name, start, stop, at in fills:
                self.params[name].form_grad(start, stop, g[at:at + stop - start])
            m *= self.beta1
            np.multiply(g, a1, out=tmp)
            m += tmp
            v *= self.beta2
            g *= g
            g *= a2
            v += g
            np.sqrt(v, out=g)
            g += eps_t
            np.multiply(m, lr_t, out=tmp)
            tmp /= g
            values -= tmp

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

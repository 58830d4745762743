"""Adam and a reduce-on-plateau learning-rate schedule.

Adam keeps the first and second moments of its parameters in two flat
float64 buffers, one slot per parameter in the order of its parameter dict,
and keeps no gradient buffer. The values stay where their model put them: a
model built by `train.build_model` holds all its values in one buffer
(`nn.allocate_parameters`). So a step makes one pass over a list of blocks,
small parameters adjacent in memory packed into one, instead of a dozen numpy
calls per parameter. The blocks cut each parameter as `Tensor.grad_blocks`
says, which `.grad` forms gradients in too, and each block's gradient is
formed in a block-sized scratch just before the block's update, by
`Tensor.form_grad`: a weight's from the factors that `autodiff.dense`
recorded (the rows of x^T @ g that the block covers), any other gradient
copied from its array. The update is Kingma and Ba's folded form (both bias
corrections in the step size and epsilon). A model of millions of values has
its blocks dealt to one thread per usable CPU, the caller's among them: the
update is elementwise and numpy releases the interpreter lock inside it, so
the threads change nothing but the time.

worker_threads is the one thread scope of a run: while it is open the
OpenBLAS bundled with numpy computes at one thread, and it yields `submit`,
one call shape for work that may run on a worker or on the caller. Scopes
that nest or overlap share one hold and one pool of workers, built on the
first submit, so a run starts its workers once. Adam.step,
train.precompute_targets and, for a weight of at least autodiff.SPLIT_VALUES
values, autodiff.dense's two products submit work to it.
"""

import contextlib
import contextvars
import functools
import math
import os
import threading

import numpy as np

from .autodiff import Tensor


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask (which
    `taskset` narrows) where the platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """The (get, set) functions of the thread count of the OpenBLAS bundled
    with numpy's wheel, called through ctypes, or None where that library or
    its symbols are absent. Looked up once per process."""
    import ctypes
    import glob
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy has loaded: dlopen returns its handle
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return get, put
    return None


def blas_threads() -> int | None:
    """The bundled OpenBLAS's thread count now, or None where it cannot be read."""
    blas = _openblas()
    return None if blas is None else blas[0]()


# The environment variables that set the thread count of a BLAS library.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _one_blas_thread_by_env() -> bool:
    """Whether the thread variables already keep BLAS at one thread: every
    one of them that is set says 1, and one at least is set."""
    said = [os.environ[name] for name in THREAD_VARS if name in os.environ]
    return bool(said) and all(value.strip() == "1" for value in said)


# The one thread scope of the process, guarded by _scope_lock: how many
# scopes are open, the BLAS thread count the outermost found (1 where it
# cannot be set), and the worker pool, built on the first submit.
_scope_lock = threading.Lock()
_scope = {"open": 0, "found": 1, "pool": None}


@contextlib.contextmanager
def worker_threads():
    """Hold the bundled OpenBLAS at one thread while open, and yield
    submit(fn, *args, **kwargs): it returns a zero-argument callable that
    gives fn's result or raises its error.

    Scopes that nest or overlap, in any threads, share the outermost one's
    hold and one pool of at most usable_cpus() - 1 workers, built on the
    first submit: a scope that submits nothing starts no thread. fn runs on
    a worker in a copy of the caller's context (so its np.errstate holds
    there too). On one usable CPU, and where the count cannot be set
    (another BLAS, or a numpy without the bundled OpenBLAS) unless the
    thread variables already say 1, no worker starts and the callable runs
    fn on the caller when called. Where fn runs changes no bit. A submitted
    call neither submits nor opens a scope, which could wait for ever on
    the pool or on the lock.

    When the last scope closes, whatever was raised inside, its workers are
    joined, then the count it found is restored, under the one lock that
    opening takes: no worker computes at the restored count, and no scope
    opened meanwhile reads a half-restored one.
    """
    with _scope_lock:
        if not _scope["open"]:
            blas = _openblas()
            _scope["found"] = 1 if blas is None else blas[0]()
            if _scope["found"] != 1:
                blas[1](1)
        _scope["open"] += 1

    def submit(fn, *args, **kwargs):
        pool = _scope["pool"]
        if pool is None:
            workers = usable_cpus() - 1
            if workers < 1 or (_openblas() is None and not _one_blas_thread_by_env()):
                return functools.partial(fn, *args, **kwargs)
            # imported with this module (it brings in logging), it slowed
            # perfbench's spectra-prep by about 2% (2 CPUs)
            from concurrent.futures import ThreadPoolExecutor
            with _scope_lock:
                pool = _scope["pool"] = _scope["pool"] or ThreadPoolExecutor(workers)
        return pool.submit(contextvars.copy_context().run, fn, *args, **kwargs).result

    try:
        yield submit
    finally:
        with _scope_lock:
            _scope["open"] -= 1
            if not _scope["open"]:
                pool, _scope["pool"] = _scope["pool"], None
                if pool is not None:
                    pool.shutdown()
                if _scope["found"] != 1:
                    _openblas()[1](_scope["found"])


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

    `blocks` tiles the values and the moment slots of every parameter, in
    dict order, each block as (values, m, v, fills) views: a fill (name, lo,
    hi, at) puts elements lo:hi of the parameter's flattened gradient at
    offset `at` of the block. It is built in one pass. A parameter that
    grad_blocks() cuts into several ranges gets one block per range. One it
    forms whole joins the open block when its values start where the block's
    end, in the same buffer, and the block stays within BLOCK values; else it
    opens a block. A step deals the blocks to T threads, at most one per
    usable CPU and per MIN_PIECE values: thread i updates blocks i, i + T,
    i + 2T, ... of T, thread 0 being the caller, the others submitted to
    worker_threads. A desk-scale model is stepped on the caller alone.
    """

    # Values per block of the in-place update: the slices of m, v and the
    # values and the block's gradient and scratch stay in cache across the
    # update's twelve passes, and no temporary grows with the parameter size.
    # A large matrix's blocks are the row blocks its gradient is formed in,
    # which Tensor.PRODUCT_BLOCK sizes, so the two are one constant.
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
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray, list]] = []
        self._buffers = {}  # the arrays the values are views of, by id
        at, follows = 0, None  # the next moment slot; the open block's (buffer, end)
        for name, p in self.params.items():
            n = p.values.size
            self.m[name] = self.flat_m[at:at + n].reshape(p.shape)
            self.v[name] = self.flat_v[at:at + n].reshape(p.shape)
            place = _place(p.values)
            buffer = place[0] if place else p.values
            self._buffers[id(buffer)] = buffer
            cuts = p.grad_blocks()
            if (len(cuts) == 1 and place and follows and follows[0] is buffer
                    and follows[1] == place[1] and self.blocks[-1][0].size + n <= self.BLOCK):
                filled, fills = self.blocks[-1][0].size, self.blocks[-1][3]
                fills.append((name, 0, n, filled))
                self.blocks[-1] = (buffer.reshape(-1)[place[1] - filled:place[1] + n],
                                   self.flat_m[at - filled:at + n], self.flat_v[at - filled:at + n],
                                   fills)
            else:
                flat = p.values.reshape(-1)
                self.blocks += [(flat[lo:hi], self.flat_m[at + lo:at + hi],
                                 self.flat_v[at + lo:at + hi], [(name, lo, hi, 0)])
                                for lo, hi in cuts]
            follows = len(cuts) == 1 and place and (buffer, place[1] + n)
            at += n
        self._threads = max(1, min(usable_cpus(), size // self.MIN_PIECE, len(self.blocks)))
        # two block-sized scratch arrays per thread, kept: allocating them
        # afresh for each step made a desk-scale step about a third slower
        largest = max((values.size for values, *_ in self.blocks), default=0)
        self._scratch = [np.empty((2, largest)) for _ in range(self._threads)]

    def step(self, grad_scale: float = 1.0) -> None:
        """One update in Kingma and Ba's folded form (arXiv:1412.6980, section 2):
        elementwise the same float operations in the same order as

            lr_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)
            eps_t = eps * sqrt(1 - beta2**t)
            m = beta1 * m + ((1 - beta1) * grad_scale) * grad
            v = beta2 * v + ((1 - beta2) * grad_scale**2) * (grad * grad)
            values = values - lr_t * m / (sqrt(v) + eps_t)

        with grad each parameter's `.grad`, so it is bit-identical to that
        out-of-place form, however many threads the blocks are dealt to: the
        step runs inside worker_threads, so it forms its gradient products at
        one BLAS thread, as `.grad` does, whatever the BLAS thread count. It
        is the textbook update with the bias corrections moved into lr_t and
        eps_t; m and v keep their textbook meaning, and the values agree with
        the textbook ones up to rounding.

        A gradient factor that may share memory with a buffer the values are
        views of (a parameter that fed a dense layer as its input, say) is
        formed before any value changes.
        """
        for name, p in self.params.items():
            terms = p.grad_terms()
            if not terms:
                raise ValueError(f"Adam.step: parameter {name!r} has no gradient; "
                                 "backward or accumulate_grad gives it one")
            if any(np.may_share_memory(factor, buffer) for term in terms if type(term) is tuple
                   for factor in term for buffer in self._buffers.values()):
                p.grad  # formed now, into an array of its own that the update cannot change
        self.t += 1
        root2 = math.sqrt(1.0 - self.beta2 ** self.t)
        factors = (self.lr * root2 / (1.0 - self.beta1 ** self.t), self.eps * root2,
                   (1.0 - self.beta1) * grad_scale, (1.0 - self.beta2) * grad_scale ** 2)
        count = self._threads
        # share 0 runs here, the others on workers: a step of one share
        # submits nothing, so it starts no thread
        with worker_threads() as submit:
            shares = [submit(self._update, self.blocks[i::count], self._scratch[i], *factors)
                      for i in range(1, count)]
            self._update(self.blocks[::count], self._scratch[0], *factors)
            for share in shares:
                share()

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

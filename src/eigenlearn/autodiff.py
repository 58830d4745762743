"""Minimal reverse-mode differentiation over dense numpy arrays.

Each op records its parents and a vector-Jacobian closure on the result
Tensor; `backward()` replays the recording in reverse topological order. The
recording is per-result (one forward/backward pass owns its graph), there is
no global tape, and the one op that needs randomness (dense's dropout) takes
an explicit generator, so runs are deterministic end to end.

The op set is only what the model runs, each op one node with a closed-form
backward: a whole dense layer (`dense`: product, bias, ReLU and dropout), the
whole GIN aggregation (`gin_aggregate`), broadcasting `add` and `mul`,
`reshape`, the thin-QR orthonormalization (`thin_qr`) and `scalar_with_grad`,
which records a loss whose value and gradient come in closed form from
`losses`.

A tensor keeps its gradient as one list of terms it owns, in arrival order:
a weight's contribution from `dense` as its two factors, the pair (x^T, g),
not multiplied (Tensor.accumulate_product); any other (a bias's, eps's, an
activation's) as a C-contiguous array of the tensor's shape. One method,
Tensor.form_grad, forms any slice of a gradient from its terms, and one
method, Tensor.grad_blocks, says which slices: a large matrix's row blocks,
any other tensor whole. Reading `.grad` forms it block by block, and
optim.Adam forms each block inside its update, so a training step writes no
array the size of a weight for its gradient.

Every forward op checks each array it computes for NaN/Inf, once, and raises
NumericalFault naming the op ("dense produced non-finite values") rather than
letting a poisoned value propagate: `add`, `mul`, `gin_aggregate`, `thin_qr`
(its Q) and `scalar_with_grad` their output, `dense` its pre-activation,
which ReLU would clean, and, when it drops out, its scaled output. `reshape`
computes nothing, its result being a view of its input's values, so it checks
nothing; the next op that reads the view checks it. A float fault reaches
these checks, not a numpy warning, under optim.worker_threads' float policy.
Inside `with no_grad():` an op returns the bare np.ndarray it computed right
after that check, building no Tensor, parent tuple or backward closure, so an
evaluation pass builds no graph and pays for none. Every op takes a bare
float64 array wherever it takes a constant Tensor (the previous op's result
inside no_grad, a mask, an input batch) and gives the same bits as for
`constant` of it; while recording, it wraps such an array as a constant
parent, so a tape holds Tensors only. Whether ops record is kept per thread:
a no_grad block in one thread leaves other threads' ops recording.

`dense` forms its two products, x @ w forward and g @ w^T backward, as one
matmul each, but for a weight of at least SPLIT_VALUES values. Then each is
formed in two column blocks, the left one on the calling thread and the
right one submitted to optim.worker_threads (its scope's worker where a
second CPU is usable, else the calling thread), with the bits of the one
matmul at one BLAS thread (_product).
"""

import threading

import numpy as np

from .errors import NumericalFault, RankDeficient, ShapeMismatch


class Tensor:
    """Dense real array plus gradient and the local backward rule.

    The gradient is one list of terms, in arrival order, that the tensor
    owns: C-contiguous arrays of its shape (accumulate_grad, the `grad`
    setter) and (x, y) pairs standing for x @ y (accumulate_product).
    Reading `grad` forms their sum in that order, in the blocks of
    grad_blocks (form_grad), and keeps it as the one term.
    """

    __slots__ = ("values", "requires_grad", "_terms", "_parents", "_vjp")

    # The most outputs of a gradient product x @ y formed in one matmul; a
    # larger one is formed in row blocks (grad_blocks).
    PRODUCT_BLOCK = 1 << 15

    def grad_blocks(self) -> list[tuple[int, int]]:
        """The ranges (lo, hi) of the flattened gradient, in order, in which
        it is formed. A (rows, cols) matrix with more than PRODUCT_BLOCK
        values, at least four rows and two columns is cut into row blocks, as
        many as it has PRODUCT_BLOCKs, rounded up, but at most rows // 2,
        their row counts differing by at most one; any other tensor is formed
        whole.

        Both readers of a gradient, `grad` and optim.Adam's step (which forms
        each block just before updating it), form it in these blocks, so a
        step applies exactly the gradient that `grad` shows. A row block has
        at least two rows and two columns, so it is a GEMM, never a GEMV.
        Whether a block is bit for bit those rows of the product formed whole
        depends on the BLAS kernel it takes, not on this code."""
        size = self.values.size
        rows, cols = self.shape if self.values.ndim == 2 else (1, size)
        if size <= Tensor.PRODUCT_BLOCK or rows < 4 or cols < 2:
            return [(0, size)]
        count = min(-(-size // Tensor.PRODUCT_BLOCK), rows // 2)
        return [(i * rows // count * cols, (i + 1) * rows // count * cols) for i in range(count)]

    def __init__(self, values, requires_grad: bool = False,
                 _parents: tuple = (), _vjp=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = requires_grad
        self._terms = []
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient accumulated so far, or None; reading it forms the sum
        of several terms, or a product, into one array, kept as the one term,
        inside optim.worker_threads: at one BLAS thread, as Adam forms it."""
        terms = self._terms
        if not terms:
            return None
        if len(terms) > 1 or type(terms[0]) is tuple:
            from .optim import worker_threads  # optim imports this module
            grad = np.empty(self.shape)
            with worker_threads():
                for lo, hi in self.grad_blocks():
                    self.form_grad(lo, hi, grad.reshape(-1)[lo:hi])
            self._terms = terms = [grad]
        return terms[0]

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        """Keep a copy of value, an array of the tensor's shape (ShapeMismatch
        otherwise), as the gradient; None clears it."""
        if value is not None:
            value = np.array(value, dtype=np.float64, order="C")
            if value.shape != self.shape:
                raise ShapeMismatch(f"a gradient of shape {value.shape} for a tensor of "
                                    f"shape {self.shape}")
        self._terms = [] if value is None else [value]

    def grad_terms(self) -> list:
        """The gradient's terms in arrival order, without forming a product:
        arrays, each of the tensor's shape and owned by it, and (x, y) pairs
        standing for x @ y. [] when there is no gradient."""
        return list(self._terms)

    def form_grad(self, lo: int, hi: int, out: np.ndarray) -> None:
        """Write elements lo:hi of the flattened gradient into the 1-D out,
        summing its terms in arrival order: an array term's elements are
        copied or added, an (x, y) term's are rows lo/c:hi/c of x @ y (c its
        column count). With products among the terms, lo:hi is one of the
        blocks of grad_blocks: `grad` forms each of them with this
        method, and optim.Adam's step forms each just before it updates it,
        so the two agree bit for bit. Without products any lo:hi will do."""
        if hi == lo:
            return
        for i, term in enumerate(self._terms):
            if type(term) is tuple:
                x, y = term
                cols = y.shape[1]
                rows = x[lo // cols:hi // cols]
                if i == 0:
                    np.matmul(rows, y, out=out.reshape(-1, cols))
                else:
                    out += (rows @ y).reshape(-1)
            elif i == 0:
                np.copyto(out, term.reshape(-1)[lo:hi])
            else:
                out += term.reshape(-1)[lo:hi]

    def item(self) -> float:
        """The value of a one-element tensor (a scalar, or a batch of one)."""
        return float(self.values.item())

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g to the gradient as a term of its own. owned=True says g is a
        fresh C-contiguous array of the tensor's shape that nothing else
        refers to, so it is kept without a copy; any other g is copied,
        broadcast to the tensor's shape (as 0.0 + g)."""
        self._terms.append(g if owned else np.add(0.0, g, out=np.empty(self.shape)))

    def accumulate_product(self, x: np.ndarray, y: np.ndarray) -> None:
        """Add x @ y to the gradient as the pair (x, y), not multiplied: the
        product is formed when the gradient is read, or by optim.Adam inside
        its step. Both factors are read then, so they must not change before."""
        if (x.ndim != 2 or y.ndim != 2 or x.shape[1] != y.shape[0]
                or (x.shape[0], y.shape[1]) != self.shape):
            raise ShapeMismatch(f"gradient product {x.shape} @ {y.shape} for a tensor "
                                f"of shape {self.shape}")
        self._terms.append((x, y))

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every reachable requires_grad leaf.

        For non-scalar outputs an explicit seed gradient is required; a seed
        has the output's shape.
        """
        if seed is None:
            if self.values.size != 1:
                raise ShapeMismatch("backward() without seed needs a scalar output")
            seed = np.ones_like(self.values)
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.shape:
            raise ShapeMismatch(f"backward: seed {seed.shape} for output {self.shape}")
        topo: list[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self.accumulate_grad(seed)
        for node in reversed(topo):
            if node._vjp is not None and node.grad is not None:
                node._vjp(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


# An op's input or result: a Tensor, or a bare float64 array (an op's result
# inside no_grad, or any input an op takes as a constant).
Value = Tensor | np.ndarray


# The ident of each thread inside a no_grad block, mapped to how many blocks
# it is inside. A thread changes only its own entry, so a no_grad block in one
# thread leaves every other thread's ops recording. While no thread is inside
# one, an op's test is one truth test of this dict (about 14 ns); reading a
# threading.local flag took about 58 ns, about 2.5% of a desk training step.
_quiet_threads: dict[int, int] = {}
_thread_ident = threading.get_ident


class no_grad:
    """A block in which ops record nothing: each returns the bare np.ndarray
    it computed (the same values as when recording) and builds no Tensor,
    parent tuple or backward closure, so nothing can be back-propagated and
    no graph is kept alive. Ops take those arrays back as inputs. Recording
    is restored on leaving the block, also by an exception. The block holds
    for the thread that enters it: ops that other threads run meanwhile
    record as before."""

    def __enter__(self):
        thread = _thread_ident()
        _quiet_threads[thread] = _quiet_threads.get(thread, 0) + 1

    def __exit__(self, *exc_info):
        thread = _thread_ident()
        depth = _quiet_threads.pop(thread) - 1
        if depth:
            _quiet_threads[thread] = depth


def _check_finite(values: np.ndarray, op: str) -> None:
    # An exact test that raises no warning; a sum would overflow on finite
    # values near the float64 limit.
    if not np.logical_and.reduce(np.isfinite(values), axis=None):
        raise NumericalFault(f"{op} produced non-finite values")


def _values(a: Value) -> np.ndarray:
    """An op input's values: a Tensor's, or a bare array itself."""
    return a.values if isinstance(a, Tensor) else a


def _tensor(a: Value) -> Tensor:
    """An op input as a tape parent: a bare array as a constant."""
    return a if isinstance(a, Tensor) else Tensor(a)


def _result(values: np.ndarray, parents: tuple, vjp) -> Tensor:
    """The result of an op run while recording, holding values: recorded with
    its parents and backward rule when a parent needs a gradient, else a
    constant. The op has checked the values it computed."""
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, _parents=parents, _vjp=vjp)
    return Tensor(values)


def constant(values) -> Tensor:
    return Tensor(values)


def parameter(values) -> Tensor:
    return Tensor(values, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (reverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a: Value, b: Value) -> Value:
    av, bv = _values(a), _values(b)
    try:
        values = av + bv
    except ValueError as exc:
        raise ShapeMismatch(f"add: cannot broadcast {av.shape} with {bv.shape}") from exc
    _check_finite(values, "add")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return values
    a, b = _tensor(a), _tensor(b)

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _result(values, (a, b), vjp)


def mul(a: Value, b: Value) -> Value:
    av, bv = _values(a), _values(b)
    try:
        values = av * bv
    except ValueError as exc:
        raise ShapeMismatch(f"mul: cannot broadcast {av.shape} with {bv.shape}") from exc
    _check_finite(values, "mul")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return values
    a, b = _tensor(a), _tensor(b)

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.values, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.values, b.shape))

    return _result(values, (a, b), vjp)


# A weight of at least this many values has dense's two products, x @ w and
# g @ w^T, formed in two column blocks, on two threads where two CPUs are
# usable (_product). Measured at one BLAS thread on 2 CPUs: a 2048 x 1024
# weight, the smallest split, broke even at one row (0.52 ms) and gained from
# 4 rows up (forward 1.66 -> 1.11 ms); 2400 x 2400 went from 1.8 to 1.0 ms at
# one row and from 4.0 to 2.4 ms at 4; a head_hidden_dim 600 layer (2400 x
# 600, 1.44M values) lost at one row (0.36 -> 0.70 ms), since starting the
# worker costs more than half its product saves. More blocks of a 2400 x
# 2400 weight, dealt alternately to the two threads, won little or lost: four
# and six took 2.6 and 2.7 ms at 4 rows against 2.8 for two, 15.2 and 16.6 ms
# at 128 rows against 14.9, and six took 2.5 ms at one row against 1.0.
SPLIT_VALUES = 1 << 21
# The cut between the two blocks falls on a multiple of this many columns of
# the result, so that each block takes the BLAS kernels that its columns take
# in the whole product: a cut elsewhere changed the last bits of a few columns.
SPLIT_ALIGN = 64


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b: dense's x @ w, b the weight, or g @ w^T, b its transpose.

    When b has at least SPLIT_VALUES values (dense tests that first, so
    that a desk-scale product makes no call) and 2 * SPLIT_ALIGN columns,
    the result is formed in two column blocks, cut at the multiple of
    SPLIT_ALIGN at or below the middle. Each is one matmul into its view of
    the one result, inside optim.worker_threads, so at one BLAS thread:
    the left one on this thread, the right one submitted, which forms it on
    the scope's worker, or on this thread where one CPU is usable, and
    raises its error here. The cut depends on b's shape alone, and each
    block gives those columns of the whole product at one BLAS thread bit
    for bit, so neither the CPU count nor the BLAS thread count changes a
    bit. At two BLAS threads the whole product can differ: a probe found
    products of odd width that did. Otherwise it is one matmul."""
    if b.size < SPLIT_VALUES or b.shape[1] < 2 * SPLIT_ALIGN:
        return a @ b
    from . import optim  # optim imports this module
    out = np.empty((a.shape[0], b.shape[1]))
    cut = b.shape[1] // 2 // SPLIT_ALIGN * SPLIT_ALIGN
    with optim.worker_threads() as submit:
        right = submit(np.matmul, a, b[:, cut:], out=out[:, cut:])
        np.matmul(a, b[:, :cut], out=out[:, :cut])
        right()
    return out


def dense(x: Value, w: Value, b: Value, relu: bool = False, rate: float = 0.0,
          rng: np.random.Generator | None = None) -> Value:
    """One dense layer as one op: x @ w + b, then ReLU when relu is set, then
    inverted dropout when rate > 0: a keep mask drawn from rng, the kept
    entries scaled by 1/(1 - rate). Rate 0 draws nothing from rng; a positive
    rate without a generator is refused (nn.Mlp passes rate 0 when it has
    none).

    The pre-activation x @ w + b is checked for NaN/Inf before ReLU, which
    would map a NaN or a -Inf to 0, and the output once more only when dropout
    has scaled it. ReLU runs in place on the pre-activation, and backward
    takes its mask from the output: positive exactly where the pre-activation
    was and dropout kept the entry (where it dropped one, g is a zero of g's
    sign already, which the mask keeps). Backward then adds db (a column sum),
    records dw as its factors (x^T, g) (Tensor.accumulate_product) and passes
    dx = g @ w^T on.

    x @ w and g @ w^T are each one matmul, but for a weight of at least
    SPLIT_VALUES values, where each is formed in two column blocks, on this
    thread and optim.worker_threads' worker where two CPUs are usable
    (_product): the bits of the whole product at one BLAS thread, in about
    two thirds of the time.
    """
    xv, wv, bv = _values(x), _values(w), _values(b)
    if xv.ndim != 2 or wv.ndim != 2 or xv.shape[1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ShapeMismatch(f"dense: {xv.shape} @ {wv.shape} + {bv.shape}")
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0,1), got {rate}")
    if rate > 0.0 and rng is None:
        raise ShapeMismatch(f"dropout rate {rate} needs a generator to draw its mask from")
    # a desk-scale weight pays this one comparison, and no call of _product
    values = xv @ wv if wv.size < SPLIT_VALUES else _product(xv, wv)
    values += bv
    _check_finite(values, "dense")
    if relu:
        np.maximum(values, 0.0, out=values)
    factor = None
    if rate > 0.0:
        factor = (rng.random(values.shape) >= rate) / (1.0 - rate)
        values = values * factor
        _check_finite(values, "dense")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return values
    x, w, b = _tensor(x), _tensor(w), _tensor(b)
    out = values

    def vjp(g):
        if factor is not None:
            g = g * factor
        if relu:
            g = g * (out > 0)
        if b.requires_grad:
            b.accumulate_grad(g.sum(axis=0), owned=True)
        if x.requires_grad:
            wt = w.values.T
            x.accumulate_grad(g @ wt if wt.size < SPLIT_VALUES else _product(g, wt), owned=True)
        if w.requires_grad:
            w.accumulate_product(x.values.T, g)

    return _result(out, (x, w, b), vjp)


def gin_aggregate(h: Value, eps: Value, adjacency: np.ndarray) -> Value:
    """GIN aggregation (1 + eps) * h + A h, as one op: row v of A h is the sum
    of h's rows over v's neighbors, and eps is a scalar.

    A (B, m, m) adjacency is a batch of blocks: h holds B stacked (m, d)
    blocks, and block i only sums over the rows of block i. One matmul
    forward, one backward.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    hv, epsv = _values(h), _values(eps)
    rows = hv.shape[0]
    blocks, m = (1, rows) if adjacency.ndim == 2 else adjacency.shape[:2]
    if (hv.ndim != 2 or epsv.shape != () or adjacency.ndim not in (2, 3)
            or blocks * m != rows or adjacency.shape[-2:] != (m, m)):
        raise ShapeMismatch(f"gin_aggregate: {hv.shape} and eps {epsv.shape} with "
                            f"adjacency {adjacency.shape}")
    stacked = (blocks, m, hv.shape[1])
    scale = 1.0 + epsv
    values = scale * hv
    values += np.matmul(adjacency, hv.reshape(stacked)).reshape(hv.shape)
    _check_finite(values, "gin_aggregate")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return values
    h, eps = _tensor(h), _tensor(eps)

    def vjp(g):
        if h.requires_grad:
            back = np.matmul(np.swapaxes(adjacency, -1, -2), g.reshape(stacked)).reshape(h.shape)
            back += g * scale
            h.accumulate_grad(back, owned=True)
        if eps.requires_grad:
            eps.accumulate_grad(_unbroadcast(g * h.values, eps.shape))

    return _result(values, (h, eps), vjp)


def reshape(a: Value, shape: tuple) -> Value:
    """a's values in a new shape: a view, checked by the op that reads it."""
    av = _values(a)
    try:
        values = av.reshape(shape)
    except ValueError as exc:
        raise ShapeMismatch(f"reshape: cannot reshape {av.shape} into {shape}") from exc
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return values
    a = _tensor(a)

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return _result(values, (a,), vjp)


def scalar_with_grad(a: Value, value, grad: np.ndarray) -> Value:
    """A loss of a whose value and gradient at a.values were computed outside
    the tape (a closed-form loss), recorded as one node.

    value is a scalar, or for a stack a of B graphs one value per graph, each
    a function of its own graph a[b] alone; grad is the gradient of the value
    (of the values' sum, for a stack), so grad[b] is graph b's own gradient
    and backward scales it by entry b of the seed.
    """
    value = np.asarray(value, dtype=np.float64)
    shape = _values(a).shape
    if grad.shape != shape or value.shape not in ((), shape[:1]):
        raise ShapeMismatch(f"scalar_with_grad: value {value.shape} and gradient "
                            f"{grad.shape} for input {shape}")
    _check_finite(value, "scalar_with_grad")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return value
    a = _tensor(a)

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(grad * g.reshape(g.shape + (1,) * (grad.ndim - g.ndim)),
                              owned=True)

    return _result(value, (a,), vjp)


def thin_qr(a: Value, rank_tol: float) -> Value:
    """Q of the thin QR factorization a = QR of a tall matrix, or of each
    matrix of a (B, m, k) stack in one call, signs fixed so that R has a
    positive diagonal (Q is then unique, and equals what Gram-Schmidt on the
    columns gives). Zero rows of a stay zero rows of Q. Raises
    RankDeficient(j) for the first j with |R_jj| < rank_tol; for a stack, in
    the first such graph i, RankDeficient(j, i).

    Backward is the standard QR rule with no gradient on R (Seeger et al.,
    arXiv:1710.08717), per matrix: M = -dQ^T Q, dA = (dQ + Q copyltu(M)) R^-T,
    where copyltu(M) copies M's lower triangle onto its upper one.
    """
    av = _values(a)
    if av.ndim not in (2, 3) or av.shape[-2] < av.shape[-1]:
        raise ShapeMismatch(f"thin_qr needs a tall matrix or a stack of them, got {av.shape}")
    q, r = np.linalg.qr(av)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    small = np.abs(diagonal) < rank_tol
    if small.any():
        *graph, column = (int(i) for i in np.argwhere(small)[0])  # first (graph, column)
        raise RankDeficient(column, *graph)
    signs = np.where(diagonal < 0.0, -1.0, 1.0)
    q *= signs[..., None, :]
    _check_finite(q, "thin_qr")
    if _quiet_threads and _thread_ident() in _quiet_threads:
        return q
    a = _tensor(a)
    r *= signs[..., :, None]  # only backward reads R

    def vjp(g):
        if a.requires_grad:
            m = -(np.swapaxes(g, -1, -2) @ q)
            m = np.where(np.tri(m.shape[-1], dtype=bool), m, np.swapaxes(m, -1, -2))  # copyltu
            back = np.linalg.solve(r, np.swapaxes(g + q @ m, -1, -2))
            a.accumulate_grad(np.swapaxes(back, -1, -2))  # copied: a transpose

    return _result(q, (a,), vjp)

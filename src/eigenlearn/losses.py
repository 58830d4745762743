"""Loss family over predicted eigenvector matrices, plus the rotation
machinery used to check their invariances.

Each loss has one definition, here, in numpy. Called with grad=True it also
returns its closed-form gradient with respect to the prediction. Each
training objective (`combined_loss`, `abs_cos_mae_loss`, `mae_loss`) has an
op of the same name in `nn` (`combined_loss_t`, ...) that records exactly
that value and gradient as one tape node; the energy, eigenvector and
orthogonality terms reach the tape through `combined_loss`. There is no
second implementation to keep in step. Gradients at kinks follow fixed
conventions: np.sign is 0 at 0, and a norm that is 0 contributes no
direction.

Every loss takes either one (n, k) prediction, and returns a float, or a
mini-batch as one (B, m, k) stack of predictions zero-padded to m rows, with
targets padded alike (Laplacians (B, m, m), eigenvalues (B, k), eigenvectors
(B, m, k)), and returns one value per graph; its gradient is then that of
the values' sum. Zero rows change neither a Rayleigh quotient, a residual
nor a Gram matrix, so padding is exact; abs-cos+MAE averages over each
graph's nodes and takes their counts as `sizes`, and MAE averages over a
block's every entry.

Norm convention: matrix losses use the Frobenius norm. The per-vector sum of
Euclidean norms is available behind `per_vector=True` for the eigenvector
residual; the two differ (quadrature vs plain sum) and the Frobenius form is
the default everywhere, training and reporting alike.

The combined objective's weights are a LossWeights, a data.config class:
each weight is declared with its kind (finite and >= 0), and an instance
with every weight 0 is rejected when it is built.
"""

from typing import Annotated

import numpy as np

from .data import NON_NEGATIVE, config
from .errors import InvalidParams, NotOrthonormal, ShapeMismatch

ORTHONORMAL_TOL = 1e-8


@config
class LossWeights:
    """Coefficients of the combined objective. Defaults: 1*energy + 2*eigvec."""

    alpha_energy: Annotated[float, NON_NEGATIVE] = 1.0
    beta_eigvec: Annotated[float, NON_NEGATIVE] = 2.0
    gamma_ortho: Annotated[float, NON_NEGATIVE] = 0.0

    def __post_init__(self):
        if self.alpha_energy == self.beta_eigvec == self.gamma_ortho == 0:
            raise InvalidParams("at least one loss weight must be positive")


def _check_prediction(u_hat: np.ndarray, laplacian: np.ndarray | None = None,
                      lambda_k: np.ndarray | None = None) -> None:
    if u_hat.ndim not in (2, 3):
        raise ShapeMismatch(f"prediction must be an (n, k) matrix or a (B, m, k) stack, "
                            f"got shape {u_hat.shape}")
    *batch, n, k = u_hat.shape
    if laplacian is not None and laplacian.shape != (*batch, n, n):
        raise ShapeMismatch(f"operator shape {laplacian.shape} does not match "
                            f"prediction shape {u_hat.shape}")
    if lambda_k is not None and lambda_k.shape != (*batch, k):
        raise ShapeMismatch(f"need {k} eigenvalues per graph, got shape {lambda_k.shape}")


def _node_counts(u_hat: np.ndarray, sizes):
    """Each graph's node count, shaped to broadcast against per-column
    values: the row count of one (n, k) matrix, or, for a (B, m, k) stack,
    sizes, which it requires because nothing marks its phantom rows."""
    if u_hat.ndim == 2 and sizes is None:
        return np.float64(u_hat.shape[0])
    if (u_hat.ndim != 3 or sizes is None or np.shape(sizes) != u_hat.shape[:1]
            or not all(1 <= s <= u_hat.shape[1] for s in sizes)):
        raise ShapeMismatch(f"sizes {None if sizes is None else list(np.ravel(sizes))} for "
                            f"a prediction of shape {u_hat.shape}: a (B, m, k) stack needs "
                            f"one node count in 1..m per graph, one matrix none")
    return np.asarray(sizes, dtype=np.float64)[:, None]


def _value(v):
    """A float for one matrix, the per-graph array for a stack."""
    return float(v) if np.ndim(v) == 0 else v


def _unit(x: np.ndarray, norm) -> np.ndarray:
    """x / norm, and 0 where the norm is 0 (no direction to follow)."""
    return np.divide(x, norm, out=np.zeros_like(x), where=np.asarray(norm) > 0.0)


def _t(a: np.ndarray) -> np.ndarray:
    """Transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def eigvec_loss(u_hat: np.ndarray, laplacian: np.ndarray, lambda_k: np.ndarray,
                per_vector: bool = False, grad: bool = False):
    """(1/k) * ||L U - U diag(lambda)||_F, zero iff each column is an exact
    eigenvector of its target eigenvalue.

    per_vector=True switches to the plain sum of per-column Euclidean residual
    norms (which differs from the Frobenius quadrature form). grad=True
    returns (value, gradient): with R the residual and W = R over its norm,
    (L^T W - W diag(lambda)) / k.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    laplacian = np.asarray(laplacian, dtype=np.float64)
    lambda_k = np.asarray(lambda_k, dtype=np.float64)
    _check_prediction(u_hat, laplacian, lambda_k)
    k = u_hat.shape[-1]
    lam = lambda_k[..., None, :]
    residual = laplacian @ u_hat - u_hat * lam
    if per_vector:
        norm = np.linalg.norm(residual, axis=-2)[..., None, :]
    else:
        norm = np.linalg.norm(residual, axis=(-2, -1))[..., None, None]
    value = _value(np.sum(norm, axis=(-2, -1)) / k)
    if not grad:
        return value
    w = _unit(residual, norm)
    return value, (_t(laplacian) @ w - w * lam) / k


def energy_loss(u_hat: np.ndarray, laplacian: np.ndarray, grad: bool = False):
    """(1/k) * trace(U^T L U): the mean Rayleigh quotient of the columns.
    grad=True returns (value, (L + L^T) U / k), which is 2 L U / k for the
    symmetric Laplacians used here."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    laplacian = np.asarray(laplacian, dtype=np.float64)
    _check_prediction(u_hat, laplacian)
    k = u_hat.shape[-1]
    lu = laplacian @ u_hat
    value = _value(np.sum(u_hat * lu, axis=(-2, -1)) / k)
    if not grad:
        return value
    return value, (lu + _t(laplacian) @ u_hat) / k


def energy_abs_loss(u_hat: np.ndarray, laplacian: np.ndarray, lambda_k: np.ndarray):
    """(1/k) * sum_i |u_i^T L u_i - lambda_i|.

    The absolute value applies to the diagonal Gram entries only (the
    per-vector reading), not to the whole matrix before the trace.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    laplacian = np.asarray(laplacian, dtype=np.float64)
    lambda_k = np.asarray(lambda_k, dtype=np.float64)
    _check_prediction(u_hat, laplacian, lambda_k)
    k = u_hat.shape[-1]
    quotients = np.sum(u_hat * (laplacian @ u_hat), axis=-2)
    return _value(np.sum(np.abs(quotients - lambda_k), axis=-1) / k)


def ortho_loss(u_hat: np.ndarray, grad: bool = False):
    """(1/k) * ||U^T U - I||_F; zero iff the columns are orthonormal.
    grad=True returns (value, 2 U E / k) with E = (U^T U - I) over its norm."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    _check_prediction(u_hat)
    k = u_hat.shape[-1]
    excess = _t(u_hat) @ u_hat - np.eye(k)
    norm = np.linalg.norm(excess, axis=(-2, -1))
    value = _value(norm / k)
    if not grad:
        return value
    return value, 2.0 * (u_hat @ _unit(excess, norm[..., None, None])) / k


def abs_cos_mae_loss(u_hat: np.ndarray, psi_k: np.ndarray, sizes=None, grad: bool = False):
    """Baseline loss on elementwise absolute values: per column, the mean
    absolute error between |u_i| and |psi_i| plus one minus their cosine
    similarity, averaged over the k columns. The mean runs over each graph's
    own nodes: for a stack, sizes gives each graph's node count and is
    required.

    An all-zero column on either side takes the maximal cosine penalty 1 and
    gives its cosine no direction. grad=True returns (value, gradient), with
    d|u|/du = np.sign(u).
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    psi_k = np.asarray(psi_k, dtype=np.float64)
    _check_prediction(u_hat)
    if psi_k.shape != u_hat.shape:
        raise ShapeMismatch(f"targets shape {psi_k.shape} != prediction shape {u_hat.shape}")
    k = u_hat.shape[-1]
    n = _node_counts(u_hat, sizes)
    a, b = np.abs(u_hat), np.abs(psi_k)
    mae = np.sum(np.abs(a - b), axis=-2) / n
    na, nb = np.linalg.norm(a, axis=-2), np.linalg.norm(b, axis=-2)
    cos = _unit(np.sum(a * b, axis=-2), na * nb)
    value = _value(np.sum(mae + (1.0 - cos), axis=-1) / k)
    if not grad:
        return value
    # d cos / d a = b / (|a| |b|) - cos a / |a|^2; both terms are 0 for a
    # zero column on either side, like the cosine itself
    d_cos = (_unit(b, (na * nb)[..., None, :])
             - _unit(a * cos[..., None, :], (na * na)[..., None, :]))
    d_a = np.sign(a - b) / n[..., None] - d_cos
    return value, np.sign(u_hat) * d_a / k


def mae_loss(pred: np.ndarray, target: np.ndarray, grad: bool = False):
    """Mean absolute error over every entry; grad=True returns
    (value, np.sign(pred - target) / size). A (B, m, c) stack gives one value
    per graph, the mean over its m * c entries (fine-tuning's (B, 1, 1)
    stack holds one prediction per graph)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    diff = pred - target
    if pred.ndim == 3:
        count = diff[0].size
        value = np.sum(np.abs(diff), axis=(-2, -1)) / count
    else:
        count = diff.size
        value = float(np.sum(np.abs(diff)) / count)
    if not grad:
        return value
    return value, np.sign(diff) / count


def combined_loss(u_hat: np.ndarray, laplacian: np.ndarray, lambda_k: np.ndarray,
                  weights: LossWeights = LossWeights(), grad: bool = False,
                  terms: bool = False):
    """alpha * energy + beta * eigvec + gamma * ortho (terms with weight 0
    are skipped); grad=True returns (value, the same sum of gradients).
    terms=True appends the unweighted (energy, eigvec, ortho) values, each
    computed whatever its weight."""
    value, gradient, unweighted = 0.0, 0.0, []
    for weight, loss in ((weights.alpha_energy, lambda g: energy_loss(u_hat, laplacian, grad=g)),
                         (weights.beta_eigvec,
                          lambda g: eigvec_loss(u_hat, laplacian, lambda_k, grad=g)),
                         (weights.gamma_ortho, lambda g: ortho_loss(u_hat, grad=g))):
        if not weight:
            unweighted.append(loss(False) if terms else None)
            continue
        v, g = loss(True) if grad else (loss(False), 0.0)
        value, gradient = value + weight * v, gradient + weight * g
        unweighted.append(v)
    out = (value, gradient) if grad else (value,)
    if terms:
        return out + (tuple(unweighted),)
    return out if grad else value


def eigenspace_rotation(psi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Orthogonal map psi A psi^T + (I - psi psi^T): rotates span(psi) by A,
    identity on the orthogonal complement.

    psi must have orthonormal columns and A must be special orthogonal of
    matching size.
    """
    psi = np.asarray(psi, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if psi.ndim != 2:
        raise ShapeMismatch(f"psi must be 2-D, got {psi.shape}")
    n, m = psi.shape
    if a.shape != (m, m):
        raise ShapeMismatch(f"rotation must be {m}x{m}, got {a.shape}")
    if np.linalg.norm(psi.T @ psi - np.eye(m)) > ORTHONORMAL_TOL:
        raise NotOrthonormal("psi columns are not orthonormal")
    if np.linalg.norm(a.T @ a - np.eye(m)) > ORTHONORMAL_TOL:
        raise NotOrthonormal("A is not orthogonal")
    if abs(np.linalg.det(a) - 1.0) > ORTHONORMAL_TOL:
        raise NotOrthonormal("A must have determinant +1")
    return psi @ a @ psi.T + (np.eye(n) - psi @ psi.T)


def random_special_orthogonal(m: int, seed: int = 0) -> np.ndarray:
    """Haar-ish random rotation with det +1, deterministic per seed."""
    if m < 1:
        raise ShapeMismatch("m must be >= 1")
    if m == 1:
        return np.ones((1, 1))
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)[None, :]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def flip_column_signs(matrix: np.ndarray, flips: list[int]) -> np.ndarray:
    """Copy of the matrix with the listed columns negated (one-dimensional
    basis changes; the rotation helper above handles dimensions >= 2)."""
    out = np.array(matrix, dtype=np.float64, copy=True)
    for i in flips:
        out[:, i] = -out[:, i]
    return out

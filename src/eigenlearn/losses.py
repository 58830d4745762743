"""Loss family over predicted eigenvector matrices, plus the rotation
machinery used to check their invariances.

Each loss has one definition, here, in numpy. Called with grad=True it also
returns its closed-form gradient with respect to the prediction, and the
training op of the same name in `nn` (`energy_loss_t`, ...) records exactly
that value and gradient as one tape node; there is no second implementation
to keep in step. Gradients at kinks follow fixed conventions: np.sign is 0
at 0, and a norm that is 0 contributes no direction.

Norm convention: matrix losses use the Frobenius norm. The per-vector sum of
Euclidean norms is available behind `per_vector=True` for the eigenvector
residual; the two differ (quadrature vs plain sum) and the Frobenius form is
the default everywhere, training and reporting alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NotOrthonormal, ShapeMismatch

ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class LossWeights:
    """Coefficients of the combined objective. Defaults: 1*energy + 2*eigvec."""

    alpha_energy: float = 1.0
    beta_eigvec: float = 2.0
    gamma_ortho: float = 0.0

    def __post_init__(self):
        if min(self.alpha_energy, self.beta_eigvec, self.gamma_ortho) < 0:
            raise InvalidParams("loss weights must be nonnegative")
        if self.alpha_energy == self.beta_eigvec == self.gamma_ortho == 0:
            raise InvalidParams("at least one loss weight must be positive")


def _check_prediction(u_hat: np.ndarray, laplacian: np.ndarray | None = None,
                      lambda_k: np.ndarray | None = None) -> None:
    if u_hat.ndim != 2:
        raise ShapeMismatch(f"prediction must be 2-D, got shape {u_hat.shape}")
    n, k = u_hat.shape
    if laplacian is not None and laplacian.shape != (n, n):
        raise ShapeMismatch(f"operator shape {laplacian.shape} does not match n={n}")
    if lambda_k is not None and lambda_k.shape != (k,):
        raise ShapeMismatch(f"need {k} eigenvalues, got shape {lambda_k.shape}")


def _unit(x: np.ndarray, norm) -> np.ndarray:
    """x / norm, and 0 where the norm is 0 (no direction to follow)."""
    return np.divide(x, norm, out=np.zeros_like(x), where=np.asarray(norm) > 0.0)


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
    k = u_hat.shape[1]
    residual = laplacian @ u_hat - u_hat * lambda_k[None, :]
    norm = np.linalg.norm(residual, axis=0) if per_vector else np.linalg.norm(residual)
    value = float(np.sum(norm)) / k
    if not grad:
        return value
    w = _unit(residual, norm)
    return value, (laplacian.T @ w - w * lambda_k[None, :]) / k


def energy_loss(u_hat: np.ndarray, laplacian: np.ndarray, grad: bool = False):
    """(1/k) * trace(U^T L U): the mean Rayleigh quotient of the columns.
    grad=True returns (value, (L + L^T) U / k), which is 2 L U / k for the
    symmetric Laplacians used here."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    laplacian = np.asarray(laplacian, dtype=np.float64)
    _check_prediction(u_hat, laplacian)
    k = u_hat.shape[1]
    value = float(np.trace(u_hat.T @ laplacian @ u_hat)) / k
    if not grad:
        return value
    return value, (laplacian @ u_hat + laplacian.T @ u_hat) / k


def energy_abs_loss(u_hat: np.ndarray, laplacian: np.ndarray, lambda_k: np.ndarray) -> float:
    """(1/k) * sum_i |u_i^T L u_i - lambda_i|.

    The absolute value applies to the diagonal Gram entries only (the
    per-vector reading), not to the whole matrix before the trace.
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    laplacian = np.asarray(laplacian, dtype=np.float64)
    lambda_k = np.asarray(lambda_k, dtype=np.float64)
    _check_prediction(u_hat, laplacian, lambda_k)
    k = u_hat.shape[1]
    quotients = np.einsum("ij,ij->j", u_hat, laplacian @ u_hat)
    return float(np.sum(np.abs(quotients - lambda_k))) / k


def ortho_loss(u_hat: np.ndarray, grad: bool = False):
    """(1/k) * ||U^T U - I||_F; zero iff the columns are orthonormal.
    grad=True returns (value, 2 U E / k) with E = (U^T U - I) over its norm."""
    u_hat = np.asarray(u_hat, dtype=np.float64)
    _check_prediction(u_hat)
    k = u_hat.shape[1]
    excess = u_hat.T @ u_hat - np.eye(k)
    norm = np.linalg.norm(excess)
    value = float(norm) / k
    if not grad:
        return value
    return value, 2.0 * (u_hat @ _unit(excess, norm)) / k


def abs_cos_mae_loss(u_hat: np.ndarray, psi_k: np.ndarray, grad: bool = False):
    """Baseline loss on elementwise absolute values: per column, the mean
    absolute error between |u_i| and |psi_i| plus one minus their cosine
    similarity, averaged over the k columns.

    An all-zero column on either side takes the maximal cosine penalty 1 and
    gives its cosine no direction. grad=True returns (value, gradient), with
    d|u|/du = np.sign(u).
    """
    u_hat = np.asarray(u_hat, dtype=np.float64)
    psi_k = np.asarray(psi_k, dtype=np.float64)
    _check_prediction(u_hat)
    if psi_k.shape != u_hat.shape:
        raise ShapeMismatch(f"targets shape {psi_k.shape} != prediction shape {u_hat.shape}")
    n, k = u_hat.shape
    a, b = np.abs(u_hat), np.abs(psi_k)
    mae = np.mean(np.abs(a - b), axis=0)
    na, nb = np.linalg.norm(a, axis=0), np.linalg.norm(b, axis=0)
    cos = _unit(np.sum(a * b, axis=0), na * nb)
    value = float(np.sum(mae + (1.0 - cos))) / k
    if not grad:
        return value
    # d cos / d a = b / (|a| |b|) - cos a / |a|^2; both terms are 0 for a
    # zero column on either side, like the cosine itself
    d_cos = _unit(b, na * nb) - _unit(a * cos, na * na)
    d_a = np.sign(a - b) / n - d_cos
    return value, np.sign(u_hat) * d_a / k


def mae_loss(pred: np.ndarray, target: np.ndarray, grad: bool = False):
    """Mean absolute error; grad=True returns (value, np.sign(pred - target) / size)."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    value = float(np.mean(np.abs(pred - target)))
    if not grad:
        return value
    return value, np.sign(pred - target) / pred.size


def combined_loss(u_hat: np.ndarray, laplacian: np.ndarray, lambda_k: np.ndarray,
                  weights: LossWeights = LossWeights(), grad: bool = False):
    """alpha * energy + beta * eigvec + gamma * ortho (terms with weight 0
    are skipped); grad=True returns (value, the same sum of gradients)."""
    terms = []
    if weights.alpha_energy:
        terms.append((weights.alpha_energy, energy_loss(u_hat, laplacian, grad=grad)))
    if weights.beta_eigvec:
        terms.append((weights.beta_eigvec,
                      eigvec_loss(u_hat, laplacian, lambda_k, grad=grad)))
    if weights.gamma_ortho:
        terms.append((weights.gamma_ortho, ortho_loss(u_hat, grad=grad)))
    if not grad:
        return sum((w * v for w, v in terms), 0.0)
    value = sum((w * v for w, (v, _) in terms), 0.0)
    return value, sum(w * g for w, (_, g) in terms)


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

"""Dense symmetric eigendecomposition with a canonical output convention.

This is the ground-truth oracle of the toolkit: spectra produced here feed the
training targets and every invariance check. The solver is LAPACK's symmetric
eigensolver (`np.linalg.eigh`), exact to machine precision at the desk scale
(n up to ~100) this package targets; this module adds the symmetry check,
ascending order and a deterministic sign per eigenvector.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, KTooLarge, NoConvergence, NotSymmetric

SYMMETRY_TOL = 1e-10
SIGN_TOL = 1e-10
CLUSTER_GAP = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in nondecreasing order; column i of eigenvectors pairs with
    eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first component with |value| > tolerance is positive."""
    if vectors.shape[0] == 0:
        return vectors.copy()
    first = np.argmax(np.abs(vectors) > SIGN_TOL, axis=0)
    # In a column with no entry above the tolerance argmax picks row 0, whose
    # entry is within the tolerance, so the test below leaves the column as is.
    lead = vectors[first, np.arange(vectors.shape[1])]
    return np.where(lead < -SIGN_TOL, -vectors, vectors)


def eigendecompose(m: np.ndarray) -> Spectrum:
    """Full spectrum of a symmetric matrix, eigenvalues ascending.

    Asymmetry beyond SYMMETRY_TOL is rejected; an input within it is
    symmetrized as (M + M^T)/2 before solving, and an exactly symmetric one
    (asymmetry 0) is solved as given. Within numerically degenerate eigenvalue
    clusters the returned columns are some orthonormal basis of the cluster
    subspace, so comparisons there must go through projectors, not vectors.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_TOL}")
    if asym:
        m = (m + m.T) / 2.0
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return Spectrum(values, canonical_signs(vectors))


def lowest_k(s: Spectrum, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues and eigenvector columns (trivial eigenvector included)."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if k > s.n:
        raise KTooLarge(f"k={k} exceeds matrix dimension {s.n}")
    return s.eigenvalues[:k].copy(), s.eigenvectors[:, :k].copy()


def eigenvalue_clusters(eigenvalues: np.ndarray, gap: float = CLUSTER_GAP) -> list[tuple[int, int]]:
    """Contiguous index ranges [start, stop) of numerically degenerate eigenvalues.

    Adjacent eigenvalues closer than `gap` fall in one cluster; invariance
    tests rotate bases inside these subspaces.
    """
    clusters = []
    start = 0
    for i in range(1, len(eigenvalues)):
        if eigenvalues[i] - eigenvalues[i - 1] >= gap:
            clusters.append((start, i))
            start = i
    clusters.append((start, len(eigenvalues)))
    return clusters

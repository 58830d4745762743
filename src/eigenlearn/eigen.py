"""Dense symmetric eigendecomposition with a canonical output convention.

This is the ground-truth oracle of the toolkit: spectra produced here feed the
training targets and every invariance check. The solver is LAPACK's symmetric
eigensolver (`np.linalg.eigh`), exact to machine precision at the desk scale
(n up to ~100) this package targets; this module adds the symmetry check,
ascending order and a deterministic sign per eigenvector. Each function takes
one (n, n) matrix or a (B, n, n) stack of them (a Spectrum then holds B
spectra), and gives every matrix of a stack the bits it gets alone: eigh
solves a stack one matrix at a time with the same LAPACK call. A refusal on
a stack names the first bad matrix.
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
    eigenvalues[i]. The spectrum of a stack has a leading axis on both."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[-1]


def canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column (of each matrix of a stack) so its first component
    with |value| > tolerance is positive."""
    if vectors.shape[-2] == 0:
        return vectors.copy()
    first = np.argmax(np.abs(vectors) > SIGN_TOL, axis=-2)
    # In a column with no entry above the tolerance argmax picks row 0, whose
    # entry is within the tolerance, so the test below leaves the column as is.
    lead = np.take_along_axis(vectors, first[..., None, :], axis=-2)
    return np.where(lead < -SIGN_TOL, -vectors, vectors)


def eigendecompose(m: np.ndarray) -> Spectrum:
    """Full spectrum of a symmetric matrix, or of each matrix of a stack,
    eigenvalues ascending.

    Asymmetry beyond SYMMETRY_TOL is rejected; a matrix within it is
    symmetrized as (M + M^T)/2 before solving, and an exactly symmetric one
    (asymmetry 0) is solved as given, so on a stack only the matrices that
    need it are symmetrized. Within numerically degenerate eigenvalue
    clusters the returned columns are some orthonormal basis of the cluster
    subspace, so comparisons there must go through projectors, not vectors.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise NotSymmetric(f"expected a square matrix or a (B, n, n) stack of them, "
                           f"got shape {m.shape}")
    asym = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(asym > SYMMETRY_TOL)
    if bad.size:
        where = "" if m.ndim == 2 else f" of matrix {bad[0]} in the stack"
        raise NotSymmetric(f"asymmetry {asym.flat[bad[0]]:.3e}{where} exceeds {SYMMETRY_TOL}")
    need = asym != 0  # for one matrix a 0-d mask, which indexes it as a stack of one
    if need.any():
        m = m.copy()
        m[need] = (m[need] + np.swapaxes(m[need], -1, -2)) / 2.0
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    return Spectrum(values, canonical_signs(vectors))


def lowest_k(s: Spectrum, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First k eigenvalues and eigenvector columns (trivial eigenvector
    included), of each spectrum of a stack."""
    if k < 1:
        raise InvalidParams(f"k must be >= 1, got {k}")
    if k > s.n:
        raise KTooLarge(f"k={k} exceeds matrix dimension {s.n}")
    return s.eigenvalues[..., :k].copy(), s.eigenvectors[..., :k].copy()


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

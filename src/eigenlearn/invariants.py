"""Executable property suite behind the `check-invariants` subcommand.

Each check returns (name, passed, detail); the CLI renders them as a table
and a machine-readable summary. The pytest suite covers the same ground (and
more); this module exists so a built artifact can re-verify itself from the
command line without a test harness.
"""

from dataclasses import dataclass

import numpy as np

from .eigen import eigendecompose, eigenvalue_clusters, lowest_k
from .graphs import (Graph, build_adjacency, build_diffusion, build_laplacian,
                     count_components, generate_graph, permute_graph)
from .losses import (abs_cos_mae_loss, eigenspace_rotation, eigvec_loss,
                     energy_loss, flip_column_signs, random_special_orthogonal)
from .wavelets import (FeatureConfig, augment_features, build_wavelet_bank,
                       diffused_dirac_embeddings)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_graphs(count: int, n_low: int, n_high: int, seed: int) -> list[Graph]:
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        p = float(rng.uniform(0.25, 0.7))
        graphs.append(generate_graph("erdos_renyi", {"n": n, "p": p}, seed=seed + 7 * i + 1))
    return graphs


def check_zero_row_sums(seed: int = 0) -> CheckResult:
    worst = 0.0
    for g in _random_graphs(20, 4, 24, seed):
        lap = build_laplacian(build_adjacency(g))
        worst = max(worst, float(np.max(np.abs(lap.sum(axis=1)))))
        ones = np.ones(g.num_nodes)
        worst = max(worst, float(np.linalg.norm(lap @ ones)))
    return CheckResult("laplacian_zero_row_sums", worst <= 1e-10, f"max residual {worst:.2e}")


def check_spectral_reconstruction(seed: int = 1) -> CheckResult:
    worst = 0.0
    for g in _random_graphs(20, 4, 32, seed):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
        rel = np.linalg.norm(recon - lap) / max(np.linalg.norm(lap), 1.0)
        worst = max(worst, float(rel))
    return CheckResult("spectral_reconstruction", worst <= 1e-8, f"max relative error {worst:.2e}")


def check_component_count(seed: int = 2) -> CheckResult:
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(20):
        n = int(rng.integers(4, 24))
        p = float(rng.uniform(0.05, 0.4))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(n, tuple(edges))
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        near_zero = int(np.sum(s.eigenvalues < 1e-8))
        if near_zero != count_components(g):
            ok = False
            break
    return CheckResult("zero_eigenvalues_count_components", ok,
                       "eigenvalue multiplicity at 0 equals component count")


def check_diffusion_stochastic(seed: int = 3) -> CheckResult:
    worst = 0.0
    for g in _random_graphs(20, 3, 24, seed):
        p = build_diffusion(build_adjacency(g))
        worst = max(worst, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
    return CheckResult("diffusion_rows_stochastic", worst <= 1e-12, f"max deviation {worst:.2e}")


def check_bank_telescoping(seed: int = 4) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in _random_graphs(30, 3, 32, seed):
        j = int(rng.integers(0, 5))
        bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), j)
        total = np.sum(bank.operators, axis=0)
        worst = max(worst, float(np.max(np.abs(total - np.eye(g.num_nodes)))))
    return CheckResult("wavelet_bank_telescoping", worst <= 1e-10, f"max deviation {worst:.2e}")


def check_embedding_bounds(seed: int = 5) -> CheckResult:
    cfg = FeatureConfig(scales_J=3, dirac_seed=11)
    worst = 0.0
    for g in _random_graphs(20, 3, 24, seed):
        x = augment_features(g, cfg)
        if not np.all(np.isfinite(x)):
            return CheckResult("embedding_bounds", False, "non-finite embedding")
        worst = max(worst, float(np.max(np.abs(x))))
    return CheckResult("embedding_bounds", worst <= 1.0 + 1e-9, f"max |value| {worst:.6f}")


def check_embedding_permutation_equivariance(seed: int = 6) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in _random_graphs(10, 3, 12, seed):
        emb = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(g)), 2))
        perm = list(rng.permutation(g.num_nodes))
        p_perm = build_diffusion(build_adjacency(permute_graph(g, perm)))
        emb_p = diffused_dirac_embeddings(build_wavelet_bank(p_perm, 2))
        for old, new in enumerate(perm):
            worst = max(worst, float(np.max(np.abs(emb_p[new] - emb[old]))))
    return CheckResult("dirac_embedding_permutation_equivariance", worst <= 1e-12,
                       f"max row deviation {worst:.2e}")


def check_spectra_separate_embeddings() -> CheckResult:
    # path vs star on 4 nodes: different Laplacian spectra must give different
    # diffused dirac row multisets
    path = generate_graph("path", {"n": 4})
    star = generate_graph("star", {"n": 4})
    e1 = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(path)), 2))
    e2 = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(star)), 2))
    rows1 = sorted(map(tuple, np.round(e1, 12).tolist()))
    rows2 = sorted(map(tuple, np.round(e2, 12).tolist()))
    gap = float(np.max(np.abs(np.array(rows1) - np.array(rows2))))
    return CheckResult("distinct_spectra_distinct_embeddings", gap > 1e-6,
                       f"largest sorted-row gap {gap:.4f}")


def _degenerate_fixtures() -> list[Graph]:
    return [generate_graph("complete", {"n": 5}),
            generate_graph("complete", {"n": 8}),
            generate_graph("cycle", {"n": 6})]


def check_energy_basis_invariance(seed: int = 7) -> CheckResult:
    worst = 0.0
    graphs = _degenerate_fixtures() + _random_graphs(10, 4, 16, seed)
    for gi, g in enumerate(graphs):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        for ci, (lo, hi) in enumerate(eigenvalue_clusters(s.eigenvalues)):
            if hi - lo < 2:
                continue
            psi = s.eigenvectors[:, lo:hi]
            for trial in range(10):
                rot = eigenspace_rotation(
                    psi, random_special_orthogonal(hi - lo, seed=seed + 31 * gi + 7 * ci + trial))
                u = np.random.default_rng(seed + trial).standard_normal(g.num_nodes)
                u /= np.linalg.norm(u)
                delta = abs(u @ lap @ u - (rot @ u) @ lap @ (rot @ u))
                worst = max(worst, float(delta))
    return CheckResult("energy_loss_basis_invariant", worst <= 1e-8, f"max delta {worst:.2e}")


def check_eigvec_basis_invariance(seed: int = 8) -> CheckResult:
    worst = 0.0
    graphs = _degenerate_fixtures() + _random_graphs(10, 4, 16, seed)
    for gi, g in enumerate(graphs):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        for ci, (lo, hi) in enumerate(eigenvalue_clusters(s.eigenvalues)):
            if hi - lo < 2:
                continue
            psi = s.eigenvectors[:, lo:hi]
            for trial in range(10):
                rot = eigenspace_rotation(
                    psi, random_special_orthogonal(hi - lo, seed=seed + 17 * gi + 5 * ci + trial))
                u = np.random.default_rng(seed + 100 + trial).standard_normal(g.num_nodes)
                u /= np.linalg.norm(u)
                for lam in np.unique(np.round(s.eigenvalues, 10)):
                    before = np.linalg.norm(lap @ u - lam * u)
                    after = np.linalg.norm(lap @ (rot @ u) - lam * (rot @ u))
                    worst = max(worst, float(abs(before - after)))
    return CheckResult("eigvec_loss_basis_invariant", worst <= 1e-8, f"max delta {worst:.2e}")


def check_energy_rotation_invariance(seed: int = 9) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in _random_graphs(10, 5, 16, seed):
        lap = build_laplacian(build_adjacency(g))
        n = g.num_nodes
        k = int(rng.integers(2, min(5, n)))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        rot = random_special_orthogonal(k, seed=seed + n)
        delta = abs(energy_loss(q, lap) - energy_loss(q @ rot, lap))
        worst = max(worst, float(delta))
    return CheckResult("energy_loss_rotation_invariant", worst <= 1e-8, f"max delta {worst:.2e}")


def check_eigvec_not_rotation_invariant() -> CheckResult:
    g = generate_graph("path", {"n": 6})  # distinct eigenvalues
    lap = build_laplacian(build_adjacency(g))
    lam, psi = lowest_k(eigendecompose(lap), 3)
    rot = random_special_orthogonal(3, seed=12)
    before = eigvec_loss(psi, lap, lam)
    after = eigvec_loss(psi @ rot, lap, lam)
    gap = after - before
    return CheckResult("eigvec_loss_not_rotation_invariant", gap > 1e-4,
                       f"loss increase under rotation {gap:.4f}")


def check_energy_floor(seed: int = 10, trials: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = np.inf
    for i in range(trials):
        g = _random_graphs(1, 5, 20, seed + i)[0]
        lap = build_laplacian(build_adjacency(g))
        n = g.num_nodes
        k = int(rng.integers(1, min(6, n) + 1))
        s = eigendecompose(lap)
        floor = float(np.sum(s.eigenvalues[:k])) / k
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        worst = min(worst, energy_loss(q, lap) - floor)
    return CheckResult("energy_variational_floor", worst >= -1e-9,
                       f"min margin over floor {worst:.2e}")


def check_abs_loss_sign_invariance(seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for g in _random_graphs(10, 5, 14, seed):
        lap = build_laplacian(build_adjacency(g))
        lam, psi = lowest_k(eigendecompose(lap), 3)
        u = rng.standard_normal(psi.shape)
        flips = [int(i) for i in rng.integers(0, 3, size=2)]
        base = abs_cos_mae_loss(u, psi)
        worst = max(worst, abs(base - abs_cos_mae_loss(flip_column_signs(u, flips), psi)))
        worst = max(worst, abs(base - abs_cos_mae_loss(u, flip_column_signs(psi, flips))))
    return CheckResult("abs_cos_mae_sign_invariant", worst <= 1e-12, f"max delta {worst:.2e}")


ALL_CHECKS = (
    check_zero_row_sums,
    check_spectral_reconstruction,
    check_component_count,
    check_diffusion_stochastic,
    check_bank_telescoping,
    check_embedding_bounds,
    check_embedding_permutation_equivariance,
    check_spectra_separate_embeddings,
    check_energy_basis_invariance,
    check_eigvec_basis_invariance,
    check_energy_rotation_invariance,
    check_eigvec_not_rotation_invariant,
    check_energy_floor,
    check_abs_loss_sign_invariance,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]

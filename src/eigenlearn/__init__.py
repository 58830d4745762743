"""Spectral pre-training toolkit for graph neural networks.

Library surface: graph spectral operators (`graphs`, `eigen`), diffusion
wavelet feature augmentation (`wavelets`), the spectral loss family and its
invariance machinery (`losses`), a minimal reverse-mode engine with a GIN
model zoo (`autodiff`, `nn`, `optim`), and the pre-train / fine-tune loops
(`train`). The `eigenlearn` CLI drives everything file-to-file.
"""

from .eigen import Spectrum, eigendecompose, eigenvalue_clusters, lowest_k
from .graphs import (Graph, build_adjacency, build_diffusion, build_laplacian,
                     generate_graph)
from .losses import (LossWeights, abs_cos_mae_loss, combined_loss,
                     eigenspace_rotation, eigvec_loss, energy_abs_loss,
                     energy_loss, ortho_loss, random_special_orthogonal)
from .train import (PretrainConfig, RunRecord, SchedulerConfig, compare_losses,
                    finetune, precompute_targets, pretrain)
from .wavelets import (FeatureConfig, WaveletBank, augment_features,
                       build_wavelet_bank, diffused_dirac_embeddings,
                       structural_embeddings, wavelet_positional_embeddings)

__version__ = "0.1.0"

__all__ = [
    "Graph", "Spectrum", "WaveletBank", "FeatureConfig", "LossWeights",
    "PretrainConfig", "SchedulerConfig", "RunRecord",
    "build_adjacency", "build_laplacian", "build_diffusion", "generate_graph",
    "eigendecompose", "lowest_k", "eigenvalue_clusters",
    "build_wavelet_bank", "wavelet_positional_embeddings",
    "diffused_dirac_embeddings", "structural_embeddings", "augment_features",
    "eigvec_loss", "energy_loss", "energy_abs_loss", "ortho_loss",
    "abs_cos_mae_loss", "combined_loss", "eigenspace_rotation",
    "random_special_orthogonal",
    "precompute_targets", "pretrain", "finetune", "compare_losses",
]

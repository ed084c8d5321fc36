"""Dense symmetric linear algebra shared by all measure families.

Every matrix the measure families exponentiate or pseudoinvert is symmetric,
so all matrix functions go through one eigendecomposition path (numpy/LAPACK
under the hood).  Results are deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, NotConverged, Singular

SYMMETRY_TOL = 1e-10

# Relative cutoff for treating pseudoinverse eigenvalues as zero:
# eigenvalues below n * lambda_max * PINV_RTOL are dropped.
PINV_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class SymmetricEigen:
    """Eigendecomposition M = Q diag(values) Q^T, values ascending."""

    values: np.ndarray
    vectors: np.ndarray


def _check_symmetric(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotConverged(f"{what}: matrix must be square, got {m.shape}")
    if m.size and np.abs(m - m.T).max() > SYMMETRY_TOL:
        raise NotConverged(f"{what}: matrix asymmetric beyond {SYMMETRY_TOL:g}")
    return m


def sym_eigen(m: np.ndarray) -> SymmetricEigen:
    """Eigendecompose a symmetric matrix (ascending eigenvalues)."""
    m = _check_symmetric(m, "sym_eigen")
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NotConverged(f"eigendecomposition failed: {exc}") from exc
    return SymmetricEigen(values, vectors)


def spectral_apply(eigen: SymmetricEigen, transformed_values: np.ndarray) -> np.ndarray:
    """Assemble Q f(Lambda) Q^T from precomputed f(eigenvalues)."""
    q = eigen.vectors
    out = (q * transformed_values) @ q.T
    return (out + out.T) / 2.0


def solve_linear(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M X = B, verifying the residual.

    Raises :class:`Singular` when factorization fails or the max-norm
    residual exceeds 1e-8 * ||B||_max (ill-conditioned systems included).
    Most callers pass SPD matrices, but the RSP/FE pipeline also solves a
    nonsymmetric system here.
    """
    m = np.asarray(m, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise Singular(f"linear solve failed: {exc}") from exc
    scale = max(np.abs(b).max() if b.size else 0.0, 1e-300)
    residual = np.abs(m @ x - b).max() if b.size else 0.0
    if not np.isfinite(residual) or residual > 1e-8 * scale:
        raise Singular(f"solve residual {residual:g} exceeds 1e-8 * {scale:g}")
    return x


def pinv_from_eigen(eigen: SymmetricEigen) -> np.ndarray:
    """Laplacian pseudoinverse from the Laplacian's eigensystem.

    Eigenvalues below n * lambda_max * PINV_RTOL count as the zero mode; a
    connected Laplacian has exactly one.  Finding any other count raises
    :class:`Disconnected`.
    """
    values = eigen.values
    n = values.shape[0]
    lam_max = float(values[-1]) if n else 0.0
    cutoff = n * lam_max * PINV_RTOL
    near_zero = values <= cutoff
    if int(near_zero.sum()) != 1:
        raise Disconnected(
            f"Laplacian has {int(near_zero.sum())} near-zero eigenvalues (cutoff {cutoff:g})"
        )
    inverted = np.where(near_zero, 0.0, 1.0 / np.where(near_zero, 1.0, values))
    return spectral_apply(eigen, inverted)

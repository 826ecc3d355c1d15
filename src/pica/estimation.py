"""Empirical moments and cumulants, centering, whitening.

Sample matrices are plain (n, d) float arrays with one observation per
row.  Estimators are plug-in (divide by n): this keeps the multilinear
identity kappa_r(X A^T) = A . kappa_r(X) exact at the sample level, at
the cost of bias that is irrelevant at desk scale.

Moment accumulation is a single serial pass per entry (numpy pairwise
summation), so results are bit-reproducible; a parallel implementation
would need to fix the row-block schedule to keep that property.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .partitions import moments_to_cumulants
from .tensor import MAX_ORDER, SymmetricTensor, canonical_indices

__all__ = [
    "DegenerateDataError",
    "WhiteningResult",
    "as_sample_matrix",
    "sample_moment",
    "sample_moments",
    "sample_cumulant",
    "center",
    "whiten",
    "read_csv",
    "write_csv",
]

# Relative eigenvalue floor for declaring a covariance rank deficient.
EPS_PD_RATIO = 1e-10


class DegenerateDataError(ValueError):
    """Sample covariance is numerically rank deficient."""


def as_sample_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"sample matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"sample matrix must be non-empty, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("sample matrix contains non-finite values")
    return x


def _check_order(r: int) -> None:
    if not 1 <= r <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {r}")


def sample_moment(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r raw moment tensor: entry (i_1..i_r) = mean of column products."""
    x = as_sample_matrix(x)
    _check_order(r)
    d = x.shape[1]
    idxs = canonical_indices(d, r)
    vals = np.empty(len(idxs))
    for rank, idx in enumerate(idxs):
        prod = x[:, idx[0] - 1].copy()
        for col in idx[1:]:
            prod *= x[:, col - 1]
        vals[rank] = prod.mean()
    return SymmetricTensor(r, d, vals)


def sample_moments(x: np.ndarray, r: int) -> list[SymmetricTensor]:
    """Moment tensors of orders 1..r."""
    _check_order(r)
    return [sample_moment(x, k) for k in range(1, r + 1)]


def sample_cumulant(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r plug-in cumulant tensor via the partition-sum conversion."""
    return moments_to_cumulants(sample_moments(x, r))[-1]


def center(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract per-column means; returns (centered matrix, mean vector)."""
    x = as_sample_matrix(x)
    mean = x.mean(axis=0)
    return x - mean, mean


@dataclass(frozen=True)
class WhiteningResult:
    """Whitened data plus the transform that produced it.

    Rows of ``whitened`` are (row - mean) @ transform.T; the transform is
    the symmetric inverse square root of the sample covariance.
    """

    whitened: np.ndarray
    transform: np.ndarray
    mean: np.ndarray


def whiten(x: np.ndarray) -> WhiteningResult:
    """Center and linearly map the data to identity sample covariance.

    Uses the eigendecomposition cov = V diag(w) V^T and the symmetric
    whitening matrix V diag(w)^(-1/2) V^T.  Raises DegenerateDataError
    when the smallest eigenvalue is at most EPS_PD_RATIO times the
    largest.
    """
    xc, mean = center(x)
    n = xc.shape[0]
    cov = xc.T @ xc / n
    w, v = np.linalg.eigh(cov)
    if w[-1] <= 0 or w[0] <= EPS_PD_RATIO * w[-1]:
        raise DegenerateDataError(
            f"covariance rank deficient: eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    transform = (v * w**-0.5) @ v.T
    return WhiteningResult(whitened=xc @ transform.T, transform=transform, mean=mean)


def read_csv(path) -> np.ndarray:
    """Headerless comma-separated observations, one row per sample."""
    with warnings.catch_warnings():
        # an empty file is reported by as_sample_matrix, not by numpy's warning
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return as_sample_matrix(data)


def write_csv(path, x: np.ndarray) -> None:
    x = as_sample_matrix(x)
    np.savetxt(path, x, delimiter=",", fmt="%.17g")


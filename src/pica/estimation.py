"""Empirical moments and cumulants, centering, whitening.

Sample matrices are plain (n, d) float arrays with one observation per
row.  Estimators are plug-in (divide by n): this keeps the multilinear
identity kappa_r(X A^T) = A . kappa_r(X) exact at the sample level, at
the cost of bias that is irrelevant at desk scale.

Moments of all orders come from one depth-first walk over the
non-decreasing index tuples, each product column extending its parent's by
one column.  That is the left-to-right product x_{i_1} x_{i_2} ... x_{i_k}
with the same roundings as multiplying the columns one after another, and
each mean is numpy's pairwise sum over one contiguous column divided by n,
the bits of ``mean()``.  Neither
depends on the walk order or on the input's memory layout, so results are
bit-reproducible; a parallel or row-blocked implementation would need a
fixed block schedule to keep that property.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .partitions import _check_conversion_budget, moments_to_cumulants
from .tensor import SymmetricTensor, _check_shape, canonical_indices

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

# Rows that write_csv formats with one % operation: larger blocks were no
# faster, and each holds its rows as Python floats (0.5 MB at d = 8).
_CSV_BLOCK_ROWS = 1024
# Suffixes that np.loadtxt (read_csv) decompresses, compressed on write as np.savetxt does.
_CSV_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open}


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


def sample_moments(x: np.ndarray, r: int) -> list[SymmetricTensor]:
    """Raw moment tensors of orders 1..r: entry (i_1..i_k) = mean of column products.

    One depth-first walk visits every non-decreasing tuple of length at most
    r once, each length in lex order; a tuple's product column is its
    parent's times column i_k, kept in one preallocated row per depth.
    Column sums are gathered in walk (lex) order and each order is divided
    by n at once; sorting the colex rows into lex order gives each its colex
    rank.
    """
    x = as_sample_matrix(x)
    n, d = x.shape
    _check_shape(r, d)
    cols = np.ascontiguousarray(x.T)
    # rows[k]: product column of the current (k+1)-prefix; order 1 reads a column of the copy
    rows = [None, *np.empty((r - 1, n))]
    walked = [[] for _ in range(r)]
    _walk(cols, rows, walked, None, 0, 0)
    out = []
    for k, sums in enumerate(walked, start=1):
        vals = np.empty(len(sums))
        # the sums over n, as row.mean() divides them
        vals[np.lexsort(canonical_indices(d, k).T[::-1])] = np.divide(sums, n)
        out.append(SymmetricTensor(k, d, vals))
    return out


def _walk(cols, rows, walked, prefix, first, k):
    """Append the sums of the product columns below ``prefix``, depth first, to walked[k], walked[k + 1], ...

    Not a closure: one that calls itself is a reference cycle, which keeps ``cols`` and ``rows`` alive until collected.
    """
    for v in range(first, len(cols)):
        row = cols[v] if k == 0 else np.multiply(prefix, cols[v], out=rows[k])
        walked[k].append(np.add.reduce(row))
        if k + 1 < len(walked):
            _walk(cols, rows, walked, row, v, k + 1)


def sample_moment(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r raw moment tensor; the last of ``sample_moments(x, r)``."""
    return sample_moments(x, r)[-1]


def sample_cumulant(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r plug-in cumulant tensor: the last of ``moments_to_cumulants(sample_moments(x, r))``.

    A conversion over its budget is refused before any moment is taken, and
    a cumulant that overflows a float is refused without a warning.
    """
    x = as_sample_matrix(x)
    _check_shape(r, x.shape[1])
    _check_conversion_budget(x.shape[1], r)
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = moments_to_cumulants(sample_moments(x, r))[-1]
    if not np.isfinite(kappa.values).all():
        raise ValueError(f"the order-{r} sample cumulant overflows a float; rescale the data")
    return kappa


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
    """Comma-separated ``%.17g`` text, the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``.

    One ``%`` format covers a block of rows at a time.
    """
    x = as_sample_matrix(x)
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    with _CSV_OPENERS.get(os.path.splitext(path)[1], open)(path, "wt") as fh:
        for start in range(0, x.shape[0], _CSV_BLOCK_ROWS):
            block = x[start:start + _CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


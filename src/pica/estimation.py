"""Empirical moments and cumulants, centering, whitening.

Sample matrices are plain (n, d) float arrays with one observation per
row.  Estimators are plug-in (divide by n): this keeps the multilinear
identity kappa_r(X A^T) = A . kappa_r(X) exact at the sample level, at
the cost of bias that is irrelevant at desk scale.

Moments of all orders come from BLAS matrix products of column-product
rows, summed over fixed blocks of observations in a fixed order (see
``sample_moments``).  Each product is small enough that OpenBLAS runs it on
one thread, and the rows are copies whatever the input's memory layout, so
results are bit-reproducible for a given numpy and BLAS build, whatever its
thread count.  They match the exact mean to within the rounding of k - 1
products and a sum of n terms.
"""

from __future__ import annotations

import bz2
import gzip
import lzma
import os
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .partitions import _check_conversion_budget, moments_to_cumulants
from .tensor import SymmetricTensor, _check_shape, _colex_ranks, canonical_indices, num_entries

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
# Observations per moment block: about 256 KB of product rows, at least 64; 4 KB- and 4 MB-scale blocks were slower.
_BLOCK_ENTRIES = 2**15
_BLOCK_ROWS_MIN = 64
# Multiply-adds per BLAS product: OpenBLAS runs a matrix product of at most 65536 * 4 on one thread, and a
# matrix-vector product or a dot (a one-row or one-column result) of fewer than 2304 * 4, so the sums do not
# depend on its thread count (larger ones split across threads and round differently).
_PRODUCT_MACS = 2**18
_VECTOR_MACS = 2**13
# Observations per product where the sums allow: with fewer, each product is a memory-bound update of all its sums
# (at d = 18, r = 8, one took ten times as long); 16 was fastest or near it at d = 14 and 18, r = 8 and d = 98, r = 4.
_PRODUCT_OBS = 16
# Sums held at a time, 16 MB: more take one more pass over the data each (3 at r = 8, d = 21).
_GRAM_ENTRIES = 2**21


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

    The order-k entry at t sums the products of the product rows of its
    upper part p = t[floor(k/2):] and lower part s = t[:floor(k/2)], and
    max(s) <= min(p).  For each fixed block of rows, Z holds the product
    rows of every sorted tuple of length at most ceil(r/2), each its
    parent's times one column.  P takes the nonempty ones grouped by least
    index u, S those of length at most floor(r/2) ordered by greatest
    index, so group u of P times the first C(u + floor(r/2), floor(r/2))
    rows of S holds every entry whose upper part starts at u; a wide group
    is cut into tiles of rows.  The blocks and the BLAS products within
    them are summed in a fixed order.
    """
    x = as_sample_matrix(x)
    n, d = x.shape
    _check_shape(r, d)
    rows, lengths, s_rows, p_rows, passes, flat, order = _moment_plan(d, r)
    z = np.empty((rows, min(n, max(_BLOCK_ROWS_MIN, _BLOCK_ENTRIES // rows))))
    z[0] = 1.0
    zs, zp = np.empty((len(s_rows), z.shape[1])), np.empty((len(p_rows), z.shape[1]))
    product = np.empty(max((p_hi - p_lo) * cols for calls, _, _ in passes for p_lo, p_hi, cols, _ in calls))
    sums = np.empty(len(flat))
    for calls, lo, hi in passes:
        acc = np.zeros(hi - lo)
        for start in range(0, n, z.shape[1]):
            block = x[start : start + z.shape[1]]
            z[1 : d + 1, : len(block)] = block.T
            # the last block is filled up with zero observations, whose products add nothing
            z[1 : d + 1, len(block) :] = 0.0
            for at, parents, lasts in lengths:
                np.multiply(z[parents], z[lasts], out=z[at : at + len(parents)])
            np.take(z, s_rows, axis=0, out=zs, mode="clip")
            np.take(z, p_rows, axis=0, out=zp, mode="clip")
            for p_lo, p_hi, cols, at in calls:
                g = acc[at : at + (p_hi - p_lo) * cols].reshape(p_hi - p_lo, cols)
                out = product[: g.size].reshape(g.shape)
                # observations per product, so that BLAS runs it on one thread; one observation's is exact
                step = max(1, (_PRODUCT_MACS if min(g.shape) > 1 else _VECTOR_MACS) // g.size)
                for c in range(0, z.shape[1], step):
                    g += np.matmul(zp[p_lo:p_hi, c : c + step], zs[:cols, c : c + step].T, out=out)
        s, e = np.searchsorted(flat, [lo, hi])
        sums[order[s:e]] = acc[flat[s:e] - lo]
    cuts = np.cumsum([num_entries(d, k) for k in range(1, r)])
    return [SymmetricTensor(k, d, vals) for k, vals in enumerate(np.split(np.divide(sums, n), cuts), start=1)]


@lru_cache(maxsize=16)
def _moment_plan(d: int, r: int) -> tuple:
    """Where ``sample_moments`` builds its product rows and reads each moment's sum.

    Z's rows are the sorted tuples of length 0..ceil(r/2), by length and
    colex within one.  ``lengths`` holds, for each length from 2, its first
    Z row and the Z rows of each tuple's prefix and of its last value.
    ``s_rows`` and ``p_rows`` are the Z rows of S and P in their orders.
    Each pass sums entries lo..hi; each of its calls (P rows p_lo..p_hi
    times the first ``cols`` rows of S) starts at entry lo + at.  ``flat``
    is each moment's entry, ascending, and ``order`` its position among the
    orders 1..r laid end to end.
    """
    high, low = (r + 1) // 2, r // 2
    idxs = [canonical_indices(d, m) for m in range(1, r + 1)]
    starts = np.cumsum([0] + [num_entries(d, m) for m in range(high + 1)])
    lengths = [
        (int(starts[m]), starts[m - 1] + _colex_ranks(idxs[m - 1][:, :-1]), idxs[m - 1][:, -1])
        for m in range(2, high + 1)
    ]
    # each Z row's length, least and greatest index (0 for the empty tuple)
    length = np.repeat(np.arange(high + 1), np.diff(starts))
    least, greatest = (np.concatenate([[0], *(idxs[m - 1][:, end] for m in range(1, high + 1))]) for end in (0, -1))
    # stable sorts: by length and colex within each greatest or least index
    s_rows = np.lexsort((length, greatest))
    s_rows = s_rows[length[s_rows] <= low]
    p_rows = np.lexsort((length, least))[1:]
    calls, cuts = [], np.searchsorted(least[p_rows], np.arange(1, d + 2))
    for u in range(1, d + 1):
        cols = num_entries(u + 1, low)
        # tiles of P rows whose products take _PRODUCT_OBS observations, and at least two rows where the group
        # has them: a one-row product is a matrix-vector one, which takes fewer
        tile = max(2, _PRODUCT_MACS // (cols * _PRODUCT_OBS))
        firsts = range(cuts[u - 1], max(cuts[u - 1] + 1, cuts[u] - 1), tile)
        calls += [(p, q, cols) for p, q in zip(firsts, [*firsts[1:], cuts[u]])]
    passes = [([], 0, 0)]
    for p_lo, p_hi, cols in calls:
        group, lo, hi = passes.pop()
        if group and hi - lo + (p_hi - p_lo) * cols > _GRAM_ENTRIES:
            passes.append((group, lo, hi))
            group, lo = [], hi
        passes.append((group + [(p_lo, p_hi, cols, hi - lo)], lo, hi + (p_hi - p_lo) * cols))
    # each moment's P row, S row and call
    p_pos, s_pos = np.empty(starts[-1], dtype=np.int64), np.empty(starts[-1], dtype=np.int64)
    p_pos[p_rows], s_pos[s_rows] = np.arange(len(p_rows)), np.arange(len(s_rows))
    call_lo, _, call_cols = np.array(calls).T
    call_at = np.cumsum([0] + [(p_hi - p_lo) * cols for p_lo, p_hi, cols in calls])
    flat = []
    for k, idx in enumerate(idxs, start=1):
        prow = p_pos[starts[k - k // 2] + _colex_ranks(idx[:, k // 2 :])]
        scol = s_pos[starts[k // 2] + _colex_ranks(idx[:, : k // 2])]
        call = np.searchsorted(call_lo, prow, side="right") - 1
        flat.append(call_at[call] + (prow - call_lo[call]) * call_cols[call] + scol)
    flat = np.concatenate(flat)
    order = np.argsort(flat)
    flat = flat[order]
    for array in (flat, order):
        array.flags.writeable = False
    return int(starts[-1]), lengths, s_rows, p_rows, passes, flat, order


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


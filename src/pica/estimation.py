"""Empirical moments and cumulants, centering, whitening, data files.

Sample matrices are plain (n, d) float arrays with one observation per
row.  Estimators are plug-in (divide by n): this keeps the multilinear
identity kappa_r(X A^T) = A . kappa_r(X) exact at the sample level, at
the cost of bias that is irrelevant at desk scale.

Moments of all orders come from BLAS matrix products of column-product
rows, summed over fixed blocks of observations in a fixed order (see
``sample_moments``).  Whitening makes two passes over fixed blocks of rows,
one for the mean and one for the centred Gram matrix, and whitens a block
of rows with one product per block (``_rows_times``).  Each product is
small enough that OpenBLAS runs it on one thread, and the rows are copies
whatever the input's memory layout, so results are bit-reproducible for a
given numpy and BLAS build, whatever its thread count.  Moments match the
exact mean to within the rounding of k - 1 products and a sum of n terms.

A recovery takes ``_whitening``'s mean and transform and then
``_cumulant`` with them, which whitens each block of rows as the moment
pass reaches it, so it holds the input and block-sized working memory,
never a centred or whitened n x d copy; a ``.npy`` input is memory-mapped,
not read.
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

# Values that write_csv formats at a time, whole rows and at least one: about 180 B of temporaries each (0.55 MB a
# block). At 100k x 8, blocks of 8192 were about 15% faster but held 1.5 MB; 2048 were about 10% slower.
_CSV_BLOCK_VALUES = 3072
# 5^k for k = 16 - X, X the decimal exponent of a value in [1e-4, 1e17); each is below 2^47.
_POW5 = np.array([5**k for k in range(21)], dtype=np.uint64)
# The ASCII text of 0000..9999, four bytes in order as one "<u4" each.
_DIGITS4 = np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48
_DIGITS4 = _DIGITS4.astype(np.uint8).view("<u4")[:, 0]
# Bytes per value in write_csv's buffer, seven "<u4" words: up to seven bytes of sign and "0.000" before the 17 digits
# at bytes 7..23, and room for the separator after them or after Python's longest "%.17g" text (24 bytes).
_CSV_WIDTH = 28
# Row lo * _CSV_WIDTH + hi is True at bytes lo..hi of a buffer row, lo in 0..6.
_CSV_KEEP = np.arange(_CSV_WIDTH) >= np.arange(7).repeat(_CSV_WIDTH)[:, None]
_CSV_KEEP &= np.arange(_CSV_WIDTH) <= np.tile(np.arange(_CSV_WIDTH), 7)[:, None]
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


class DegenerateDataError(ValueError):
    """Sample covariance is numerically rank deficient."""


def _as_matrix(x) -> np.ndarray:
    """A non-empty 2-D float array; a float array's values are not read."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"sample matrix must be 2-D, got shape {x.shape}")
    if x.shape[0] < 1 or x.shape[1] < 1:
        raise ValueError(f"sample matrix must be non-empty, got shape {x.shape}")
    return x


def _check_finite(block: np.ndarray) -> None:
    if not np.isfinite(block).all():
        raise ValueError("sample matrix contains non-finite values")


def _row_blocks(x: np.ndarray, step: int, shift: np.ndarray | None = None):
    """Each fixed block of ``step`` rows of x in order, with the index of its first row.

    Each block is copied, less ``shift`` if given, into one reused buffer
    of at least two rows, so what is done with it does not depend on the
    memory layout of x.
    """
    n, d = x.shape
    rows = np.zeros((max(2, min(n, step)), d))
    for start in range(0, n, step):
        block = rows[: min(step, n - start)]
        if shift is None:
            np.copyto(block, x[start : start + step])
        else:
            np.subtract(x[start : start + step], shift, out=block)
        yield start, block


def as_sample_matrix(x) -> np.ndarray:
    """A non-empty 2-D float array of finite values, checked a block of rows at a time."""
    x = _as_matrix(x)
    for _, block in _row_blocks(x, _product_rows(x.shape[1], x.shape[1])):
        _check_finite(block)
    return x


def _product_rows(d: int, e: int) -> int:
    """Rows per product of an (m, d) and a (d, e) matrix: at most _PRODUCT_MACS multiply-adds, or _VECTOR_MACS
    where the product is a matrix-vector one or a dot (d or e is 1), and at least two."""
    return max(2, (_PRODUCT_MACS if min(d, e) > 1 else _VECTOR_MACS) // (d * e))


def _rows_times(x: np.ndarray, a: np.ndarray, shift: np.ndarray | None = None, out=None) -> np.ndarray:
    """(x - shift) @ a.T, a block of rows at a time (``_row_blocks``), into ``out`` if given.

    Each block's BLAS product has at most ``_product_rows`` rows, so
    OpenBLAS runs it on one thread, and at least two: a one-row product is
    a matrix-vector one, which rounds differently, so a one-row block is
    multiplied as the first two rows of its buffer.  So each row's bits are
    those of the same row of one whole product of two or more rows,
    whatever block it is in, for x of fewer than 32 columns: from 32 on,
    OpenBLAS 0.3.31 (Haswell kernels) rounds some rows of a short product
    differently.
    """
    out = np.empty((len(x), len(a))) if out is None else out
    for start, block in _row_blocks(x, _product_rows(x.shape[1], len(a)), shift):
        if len(block) > 1:
            np.matmul(block, a.T, out=out[start : start + len(block)])
        else:
            out[start] = (block.base[:2] @ a.T)[0]
    return out


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
    them are summed in a fixed order, in one walk over the rows, which
    refuses a non-finite value when its block is reached.
    """
    x = _as_matrix(x)
    _check_shape(r, x.shape[1])
    return _moments(x, r)


def _moments(x: np.ndarray, r: int, affine: tuple[np.ndarray, np.ndarray] | None = None) -> list[SymmetricTensor]:
    """``sample_moments`` of a 2-D float array, or, with ``affine`` a (mean, transform) pair, of its whitened rows.

    Each block of rows is then replaced by ``_rows_times(block, transform,
    mean)``, whose rows are those of ``whiten``'s ``whitened``, bit for bit
    below 32 columns, so the moments are those of the whitened data with
    no copy of it.
    """
    n, d = x.shape
    rows, lengths, s_rows, p_rows, calls, flat = _moment_plan(d, r)
    z = np.empty((rows, min(n, max(_BLOCK_ROWS_MIN, _BLOCK_ENTRIES // rows))))
    z[0] = 1.0
    white = None if affine is None else np.empty((z.shape[1], d))
    zs, zp = np.empty((len(s_rows), z.shape[1])), np.empty((len(p_rows), z.shape[1]))
    acc = np.zeros(sum((p_hi - p_lo) * cols for p_lo, p_hi, cols, _ in calls))
    product = np.empty(max((p_hi - p_lo) * cols for p_lo, p_hi, cols, _ in calls))
    for start in range(0, n, z.shape[1]):
        block = x[start : start + z.shape[1]]
        if affine is not None:
            block = _rows_times(block, affine[1], affine[0], out=white[: len(block)])
        z[1 : d + 1, : len(block)] = block.T
        _check_finite(z[1 : d + 1, : len(block)])
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
    cuts = np.cumsum([num_entries(d, k) for k in range(1, r)])
    return [SymmetricTensor(k, d, vals) for k, vals in enumerate(np.split(acc[flat] / n, cuts), start=1)]


@lru_cache(maxsize=16)
def _moment_plan(d: int, r: int) -> tuple:
    """Where ``sample_moments`` builds its product rows and reads each moment's sum.

    Z's rows are the sorted tuples of length 0..ceil(r/2), by length and
    colex within one.  ``lengths`` holds, for each length from 2, its first
    Z row and the Z rows of each tuple's prefix and of its last value.
    ``s_rows`` and ``p_rows`` are the Z rows of S and P in their orders.
    Each call (P rows p_lo..p_hi times the first ``cols`` rows of S) sums
    its products into the accumulator from entry ``at``, and ``flat`` is
    each moment's entry there, orders 1..r laid end to end.
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
    flat.flags.writeable = False
    calls = [(p_lo, p_hi, cols, int(at)) for (p_lo, p_hi, cols), at in zip(calls, call_at)]
    return int(starts[-1]), lengths, s_rows, p_rows, calls, flat


def sample_moment(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r raw moment tensor; the last of ``sample_moments(x, r)``."""
    return sample_moments(x, r)[-1]


def sample_cumulant(x: np.ndarray, r: int) -> SymmetricTensor:
    """Order-r plug-in cumulant tensor: the last of ``moments_to_cumulants(sample_moments(x, r))``.

    A conversion over its budget is refused before any moment is taken, and
    a cumulant that overflows a float is refused without a warning.
    """
    x = _as_matrix(x)
    _check_shape(r, x.shape[1])
    _check_conversion_budget(x.shape[1], r)
    return _cumulant(x, r)


def _cumulant(x: np.ndarray, r: int, affine: tuple[np.ndarray, np.ndarray] | None = None) -> SymmetricTensor:
    """The last of ``moments_to_cumulants(_moments(x, r, affine))``, refused if it overflows a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = moments_to_cumulants(_moments(x, r, affine))[-1]
    if not np.isfinite(kappa.values).all():
        raise ValueError(f"the order-{r} sample cumulant overflows a float; rescale the data")
    return kappa


def center(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract per-column means; returns (centered matrix, mean vector), the mean bit for bit ``whiten``'s."""
    x = _as_matrix(x)
    mean = _mean(x)
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
    largest.  ``whitened`` is built a block of rows at a time by
    ``_rows_times``.
    """
    x = _as_matrix(x)
    mean, transform = _whitening(x)
    return WhiteningResult(whitened=_rows_times(x, transform, mean), transform=transform, mean=mean)


def _whitening(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``whiten``'s mean and transform, from two passes over fixed blocks of rows (``_row_blocks``).

    The first is ``_mean``; the second sums the blocks' centred Gram
    matrices, each product of ``_product_rows`` rows, so OpenBLAS runs it
    on one thread.
    """
    d = x.shape[1]
    mean = _mean(x)
    gram, product = np.zeros((d, d)), np.empty((d, d))
    for _, block in _row_blocks(x, _product_rows(d, d), mean):
        gram += np.matmul(block.T, block, out=product)
    w, v = np.linalg.eigh(gram / len(x))
    if w[-1] <= 0 or w[0] <= EPS_PD_RATIO * w[-1]:
        raise DegenerateDataError(
            f"covariance rank deficient: eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
        )
    return mean, (v * w**-0.5) @ v.T


def _mean(x: np.ndarray) -> np.ndarray:
    """Column means of a 2-D float array: the sum of each fixed block of ``_product_rows`` rows (``_row_blocks``),
    checked for non-finite values first, added in order and divided by n."""
    total = np.zeros(x.shape[1])
    for _, block in _row_blocks(x, _product_rows(x.shape[1], x.shape[1])):
        _check_finite(block)
        total += block.sum(axis=0)
    return total / len(x)


def read_csv(path) -> np.ndarray:
    """Headerless comma-separated observations, one row per sample; a ``.npy`` file is memory-mapped, not read."""
    if os.path.splitext(path)[1] == ".npy":
        # np.load would try any other file as a pickle, and its refusal points at allow_pickle
        with open(path, "rb") as fh:
            if fh.read(len(np.lib.format.MAGIC_PREFIX)) != np.lib.format.MAGIC_PREFIX:
                raise ValueError(f"{path} is not a .npy file")
        return as_sample_matrix(np.load(path, mmap_mode="r"))
    with warnings.catch_warnings():
        # an empty file is reported by as_sample_matrix, not by numpy's warning
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    return as_sample_matrix(data)


def write_csv(path, x: np.ndarray) -> None:
    """Comma-separated ``%.17g`` text, the bytes of ``np.savetxt(fmt="%.17g", delimiter=",")``.

    ``_csv_text`` formats ``_CSV_BLOCK_VALUES`` values at a time, whole
    rows, from whole arrays in integer arithmetic; only zeros and values
    below 1e-4 or from 1e17 in magnitude take Python's ``%``.  A path
    ending in ``.npy`` gets ``np.save``'s binary file instead.
    """
    x = as_sample_matrix(x)
    suffix = os.path.splitext(path)[1]
    if suffix == ".npy":
        with open(path, "wb") as fh:
            np.save(fh, x)
        return
    step = max(1, _CSV_BLOCK_VALUES // x.shape[1])
    with _CSV_OPENERS.get(suffix, open)(path, "wb") as fh:
        for start in range(0, x.shape[0], step):
            fh.write(_csv_text(x[start : start + step]))


def _csv_text(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of a block of rows as uint8 bytes, values ended by "," and rows by a newline.

    A value v with 1e-4 <= |v| < 1e17 has %g's fixed form, from its 17
    significant digits (``_decimal17``).  After a stable sort by decimal
    exponent, ``_csv_layout`` lays each value's text out in a buffer row by
    slice copies per exponent; zeros and other values take Python's ``%``.
    One mask, gathered back in input order, keeps the bytes lo..hi of each
    row, where hi is the byte after the text, which becomes its separator.
    """
    v = x.ravel()
    exp, d17 = _decimal17(v)
    order = np.argsort(exp, kind="stable")
    buf, lo, hi = _csv_layout(v[order], exp[order], d17[order])
    back = np.empty(len(v), np.intp)
    back[order] = np.arange(len(v))
    lo, hi = lo[back], hi[back]
    text = buf.take(back, axis=0)[_CSV_KEEP.take(lo * _CSV_WIDTH + hi, axis=0)]
    ends = np.cumsum(hi - lo + 1) - 1
    text[ends] = ord(",")
    text[ends[x.shape[1] - 1 :: x.shape[1]]] = ord("\n")
    return text


def _csv_layout(v: np.ndarray, exp: np.ndarray, d17: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Buffer rows holding the ``%.17g`` text of values sorted by exponent, and the first and separator byte of each.

    Every row starts as "-------", D's leading digit (byte 7) and its other
    16 digits, four to a word from ``_DIGITS4``.  Where X >= 0, the first
    X + 1 digits move one byte left and a "." follows them; the digits
    after the last nonzero one, and the "." if it is then last, are not
    kept.  Where X < 0, "0.000"[:1 - X] goes before the digits.  The sign
    is the "-" before the text, kept where v is negative.
    """
    n = len(v)
    top = d17 // np.uint64(10**8)
    lead = top // np.uint64(10**8)
    halves = np.empty((n, 2), np.int32)
    halves[:, 0] = top - lead * np.uint64(10**8)
    halves[:, 1] = d17 - top * np.uint64(10**8)
    quads = np.empty((n, 2, 2), np.int32)
    np.floor_divide(halves, 10**4, out=quads[:, :, 0])
    np.subtract(halves, quads[:, :, 0] * 10**4, out=quads[:, :, 1])
    buf = np.empty((n, _CSV_WIDTH), np.uint8)
    words = buf.view("<u4")
    words[:, 0] = 0x2D2D2D2D
    words[:, 1] = ((lead + np.uint64(48)) << np.uint64(24)) | np.uint64(0x2D2D2D)
    words[:, 2:6] = _DIGITS4.take(quads.reshape(n, 4))
    # the index of the last nonzero digit, found where the last digit is 0 (the leading digit never is)
    last = np.full(n, 16)
    zero = np.flatnonzero(buf[:, 23] == ord("0"))
    last[zero] = 16 - np.argmax(buf[zero, 23:6:-1] > ord("0"), axis=1)
    lo = np.minimum(exp, 0).astype(np.int64) + 6 - np.signbit(v)
    hi = np.where(last > exp, last + 8, exp + 7)
    starts = np.searchsorted(exp, np.arange(-4, 18))
    for x_exp in range(-4, 17):
        rows = buf[starts[x_exp + 4] : starts[x_exp + 5]]
        if not len(rows):
            continue
        if x_exp >= 0:
            rows[:, 6 : 7 + x_exp] = rows[:, 7 : 8 + x_exp]
            rows[:, 7 + x_exp] = ord(".")
        else:
            rows[:, 6 + x_exp : 7] = np.frombuffer(b"0.000", np.uint8)[: 1 - x_exp]
    rest = slice(starts[21], n)
    if starts[21] < n:
        text = np.frombuffer(b"%.17g\n" * (n - starts[21]) % tuple(v[rest].tolist()), np.uint8)
        lengths = np.diff(np.flatnonzero(text == ord("\n")), prepend=-1) - 1
        buf[rest][np.arange(_CSV_WIDTH) < lengths[:, None]] = text[text != ord("\n")]
        lo[rest], hi[rest] = 0, lengths
    return buf, lo, hi


def _decimal17(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each value, X and D = round-half-even(|v| * 10^(16 - X)) with 10^16 <= D < 10^17, the 17 digits of %.17g.

    X is an int8, and 17 for zeros and values outside [1e-4, 1e17), whose D
    is not used.  A clipped log10 estimates X; where D then leaves [10^16,
    10^17), which can happen next to a power of ten, X moves by one and D
    is found again.
    """
    a = np.abs(v)
    fixed = (a >= 1e-4) & (a < 1e17)
    a = np.where(fixed, a, 1.0)
    m, e = np.frexp(a)
    mant = (m * 2.0**53).astype(np.uint64)
    exp = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)
    d17 = _round_scaled(mant, e, exp)
    off = np.flatnonzero((d17 < np.uint64(10**16)) | (d17 >= np.uint64(10**17)))
    if off.size:
        exp[off] += np.where(d17[off] < np.uint64(10**16), -1, 1)
        d17[off] = _round_scaled(mant[off], e[off], exp[off])
    return np.where(fixed, exp, 17).astype(np.int8), d17


def _round_scaled(mant: np.ndarray, e: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """round-half-even(mant * 2^(e - 53) * 10^(16 - exp)) as uint64, exactly, for a 53-bit integer mant.

    With k = 16 - exp in 0..20 the product is mant * 5^k * 2^-s,
    s = 53 - e - k.  mant * 5^k < 2^100 is formed in two uint64 words
    (hi, lo) from 32-bit halves; the result is (hi, lo) shifted right by s,
    rounded on the bits shifted out, or lo shifted left by -s where s < 0,
    which needs no rounding.  Only uint64 scalars and explicit casts meet
    uint64 arrays, so numpy 1.x and 2.x promotion agree.
    """
    k = 16 - exp
    pow5 = _POW5[k]
    s = 53 - e - k
    right, left = np.maximum(s, 0).astype(np.uint64), np.maximum(-s, 0).astype(np.uint64)
    low32, w32 = np.uint64(2**32 - 1), np.uint64(32)
    m_hi, m_lo, p_hi, p_lo = mant >> w32, mant & low32, pow5 >> w32, pow5 & low32
    lo_lo = m_lo * p_lo
    middle = m_hi * p_lo + m_lo * p_hi
    lo = lo_lo + (middle << w32)
    hi = m_hi * p_hi + (middle >> w32) + (lo < lo_lo).astype(np.uint64)
    # hi is 0 where s <= 0, so its shift by 64 there adds nothing
    d = ((hi << (np.uint64(64) - right)) | (lo >> right)) << left
    unit = np.uint64(1) << right
    twice_rest = (lo & (unit - np.uint64(1))) << np.uint64(1)
    d += (twice_rest > unit) | ((twice_rest == unit) & (d & np.uint64(1)).astype(bool))
    return d

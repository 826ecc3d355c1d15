"""Set partitions and the moment/cumulant conversion.

Partitions of {1..r} are enumerated as restricted-growth strings in
lexicographic order, which fixes a deterministic canonical ordering.  The
moments mu_k and cumulants kappa_k convert by recursing on the block B of
a partition that holds position 1 (McCullagh 1987):

    mu_k[i] = sum over position sets B containing 1 of kappa_{|B|}[i_B] mu_{k-|B|}[i_{B^c}],   mu_0 = 1,

where i_B is the sub-tuple of i at the positions in B.  The term with B all
k positions is kappa_k[i]; the other 2^(k-1) - 1 need only lower orders, so
one pass per order solves for kappa_k or for mu_k: 247 products up to r = 8.
Each order's products are formed for a block of index tuples at a time, all
subsets B of each at once, from the colex ranks of every i_B and i_{B^c},
and added in subset order.  A block holds at most _BLOCK_ENTRIES products,
one tuple's at least, so a conversion never holds more than a fixed number
of them, however large C(d+r-1, r) is.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import MAX_ORDER, SymmetricTensor, _colex_columns, canonical_indices, num_entries

__all__ = [
    "MAX_CONVERSION_ENTRIES",
    "SetPartition",
    "enumerate_partitions",
    "moments_to_cumulants",
    "cumulants_to_moments",
]

# Refuse more sub-tuple entries, C(d+r-1, r) * (2^r - 1), before anything is built.  This bounds the
# whole estimate's memory, 160-200 B per unique entry: 76 MB RSS at d = 14, r = 8, 547 MB at d = 21.
MAX_CONVERSION_ENTRIES = 2**26
# Products formed at a time: all 2^(k-1) - 1 of as many order-k tuples as fit, at least one.
_BLOCK_ENTRIES = 2**16

# Blocks ordered by minimum element, elements ascending inside a block.
SetPartition = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def enumerate_partitions(r: int) -> tuple[SetPartition, ...]:
    """All set partitions of {1..r}, canonically ordered, B_r of them.

    Element p joins each block of a partition of {1..p-1} in turn, then
    opens a new one: restricted-growth strings in lexicographic order.
    """
    if not 1 <= r <= MAX_ORDER:
        raise ValueError(f"r must be in 1..{MAX_ORDER}, got {r}")
    parts: list[SetPartition] = [()]
    for p in range(1, r + 1):
        parts = [
            part[:b] + (part[b] + (p,),) + part[b + 1:] if b < len(part) else part + ((p,),)
            for part in parts
            for b in range(len(part) + 1)
        ]
    return tuple(parts)


def _check_sequence(tensors: list[SymmetricTensor], what: str) -> tuple[int, int]:
    if not tensors:
        raise ValueError(f"empty {what} sequence")
    r = len(tensors)
    if r > MAX_ORDER:
        raise ValueError(f"sequence length {r} exceeds cap {MAX_ORDER}")
    dim = tensors[0].dim
    for k, t in enumerate(tensors, start=1):
        if t.order != k:
            raise ValueError(f"{what}[{k - 1}] has order {t.order}, expected {k}")
        if t.dim != dim:
            raise ValueError(f"{what}[{k - 1}] has dim {t.dim}, expected {dim}")
    return r, dim


def _check_conversion_budget(dim: int, order: int) -> None:
    """Refuse C(d+r-1, r) * (2^r - 1) > MAX_CONVERSION_ENTRIES sub-tuple entries; nothing is built first."""
    count = num_entries(dim, order) * (2**order - 1)
    if count > MAX_CONVERSION_ENTRIES:
        raise ValueError(
            f"d = {dim}, r = {order} needs C(d+r-1, r) * (2^r - 1) = {count} sub-tuple entries "
            f"to convert, over the budget {MAX_CONVERSION_ENTRIES}"
        )


def _convert(tensors: list[SymmetricTensor], sign: float) -> list[SymmetricTensor]:
    """kappa from mu (sign -1) or mu from kappa (sign +1) by the first-block recursion.

    Each sequence is one flat array, orders 1..r in turn, so each order-k
    product is one gather from each.  For a block of order-k tuples, the
    ranks of the B and B^c sub-tuples of every subset are summed one
    position at a time from ``_colex_columns``, picked by the position's
    offset within its side.  The products are added in subset order from
    zeros, as one ``+=`` per subset would: ``np.add.accumulate`` runs down
    each block's columns below a row of zeros (never ``np.add.reduce``,
    which sums a single column pairwise).
    """
    r, dim = _check_sequence(tensors, "tensor")
    _check_conversion_budget(dim, r)
    starts = np.cumsum([0] + [num_entries(dim, k) for k in range(1, r + 1)])
    given = np.concatenate([t.values for t in tensors])
    made = np.empty_like(given)
    kappa, mu = (made, given) if sign < 0 else (given, made)
    # rows 0..r-2 rank offsets 0..r-2 within a side; row r-1, all zeros, stands for the other side
    table = np.vstack([_colex_columns(dim, r - 1), np.zeros(dim + 1, dtype=np.int64)])
    for k in range(1, r + 1):
        idxs = canonical_indices(dim, k)
        # subset s holds B^c as the bits of s + 1 over positions 2..k; side[0] marks B, side[1] B^c
        in_c = np.zeros((2 ** (k - 1) - 1, k), dtype=bool)
        in_c[:, 1:] = np.arange(1, 2 ** (k - 1))[:, None] >> np.arange(k - 1) & 1
        side = np.stack([~in_c, in_c])
        rows = np.where(side, np.cumsum(side, axis=2) - 1, r - 1)
        # each side's sub-tuples are ranked within its order's stretch of the flat arrays
        base = starts[side.sum(axis=2) - 1]
        # each block takes every subset of as many tuples as fit, at least one
        step = max(1, _BLOCK_ENTRIES // max(1, len(in_c)))
        for lo in range(0, len(idxs), step):
            block_idxs = idxs[lo : lo + step]
            ranks = base[..., None] + table[:, block_idxs[:, 0]][rows[..., 0]]
            for p in range(1, k):
                ranks += table[:, block_idxs[:, p]][rows[..., p]]
            # row 0 is the zero each sum starts from
            block = np.zeros((len(in_c) + 1, len(block_idxs)))
            np.multiply(kappa[ranks[0]], mu[ranks[1]], out=block[1:])
            out = slice(starts[k - 1] + lo, starts[k - 1] + lo + len(block_idxs))
            made[out] = given[out] + sign * np.add.accumulate(block, axis=0)[-1]
    return [SymmetricTensor(k, dim, made[starts[k - 1] : starts[k]]) for k in range(1, r + 1)]


def moments_to_cumulants(moments: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Cumulant tensors kappa_1..kappa_r from moment tensors mu_1..mu_r."""
    return _convert(moments, -1.0)


def cumulants_to_moments(cumulants: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Moment tensors mu_1..mu_r from cumulant tensors kappa_1..kappa_r."""
    return _convert(cumulants, 1.0)

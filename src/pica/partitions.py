"""Set partitions and the moment/cumulant conversion they drive.

Partitions of {1..r} are enumerated as restricted-growth strings in
lexicographic order, which fixes a deterministic canonical ordering.  The
conversion between the moment tensors mu_1..mu_r and cumulant tensors
kappa_1..kappa_r is the exact combinatorial sum over partitions:

    mu_r[i]    = sum over partitions pi of prod_{B in pi} kappa_{|B|}[i_B]
    kappa_r[i] = sum over pi of (-1)^(|pi|-1) (|pi|-1)! prod_B mu_{|B|}[i_B]

where i_B is the sub-tuple of i at the positions in block B.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .tensor import MAX_ORDER, SymmetricTensor, _colex_ranks, canonical_indices, num_entries

__all__ = [
    "MAX_CONVERSION_ENTRIES",
    "SetPartition",
    "enumerate_partitions",
    "moments_to_cumulants",
    "cumulants_to_moments",
]

# The order-r conversion holds one array of C(d+r-1, r) entries per
# non-empty position subset of an r-tuple; refuse more than this in all.
MAX_CONVERSION_ENTRIES = 2**26

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


def _convert(tensors: list[SymmetricTensor], weight) -> list[SymmetricTensor]:
    r, dim = _check_sequence(tensors, "tensor")
    _check_conversion_budget(dim, r)
    out = []
    for k in range(1, r + 1):
        idxs = canonical_indices(dim, k)
        vals = np.zeros(len(idxs))
        sub = {}  # entries at each block's sub-tuples, canonical since block positions ascend
        for part in enumerate_partitions(k):
            term = weight(len(part))
            for block in part:
                if block not in sub:
                    sub[block] = tensors[len(block) - 1].values[_colex_ranks(idxs[:, np.subtract(block, 1)])]
                term = term * sub[block]
            vals += term
        out.append(SymmetricTensor(k, dim, vals))
    return out


def moments_to_cumulants(moments: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Cumulant tensors kappa_1..kappa_r from moment tensors mu_1..mu_r."""
    return _convert(moments, lambda m: (-1) ** (m - 1) * math.factorial(m - 1))


def cumulants_to_moments(cumulants: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Moment tensors mu_1..mu_r from cumulant tensors kappa_1..kappa_r."""
    return _convert(cumulants, lambda m: 1.0)

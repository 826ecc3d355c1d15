"""Set partitions and the moment/cumulant conversion.

Partitions of {1..r} are enumerated as restricted-growth strings in
lexicographic order, which fixes a deterministic canonical ordering.  The
moments mu_k and cumulants kappa_k convert by recursing on the block B of
a partition that holds position 1 (McCullagh 1987):

    mu_k[i] = sum over position sets B containing 1 of kappa_{|B|}[i_B] mu_{k-|B|}[i_{B^c}],   mu_0 = 1,

where i_B is the sub-tuple of i at the positions in B.  The term with B all
k positions is kappa_k[i]; the other 2^(k-1) - 1 need only lower orders, so
one loop solves for kappa_k or for mu_k.
"""

from __future__ import annotations

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

# The order-r conversion gathers C(d+r-1, r) sub-tuple entries per non-empty position
# subset of an r-tuple, holding O(C(d+r-1, r)) at a time; refuse more than this in all.
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


def _convert(tensors: list[SymmetricTensor], sign: float) -> list[SymmetricTensor]:
    """kappa from mu (sign -1) or mu from kappa (sign +1) by the first-block recursion."""
    r, dim = _check_sequence(tensors, "tensor")
    _check_conversion_budget(dim, r)
    given = [t.values for t in tensors]
    made: list[np.ndarray] = []
    kappa, mu = (made, given) if sign < 0 else (given, made)
    for k in range(1, r + 1):
        idxs = canonical_indices(dim, k)
        acc = np.zeros(len(idxs))
        for rest in range(1, 2 ** (k - 1)):  # B^c as a bit set over positions 2..k
            in_b = np.array([True] + [not rest >> p & 1 for p in range(k - 1)])
            b, c = idxs[:, in_b], idxs[:, ~in_b]
            acc += kappa[b.shape[1] - 1][_colex_ranks(b)] * mu[c.shape[1] - 1][_colex_ranks(c)]
        made.append(given[k - 1] + sign * acc)
    return [SymmetricTensor(k, dim, v) for k, v in enumerate(made, start=1)]


def moments_to_cumulants(moments: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Cumulant tensors kappa_1..kappa_r from moment tensors mu_1..mu_r."""
    return _convert(moments, -1.0)


def cumulants_to_moments(cumulants: list[SymmetricTensor]) -> list[SymmetricTensor]:
    """Moment tensors mu_1..mu_r from cumulant tensors kappa_1..kappa_r."""
    return _convert(cumulants, 1.0)

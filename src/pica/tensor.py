"""Symmetric tensors with dense unique-entry storage.

An order-r symmetric tensor on R^d is determined by its entries at
non-decreasing index tuples (i_1 <= ... <= i_r), of which there are
C(d+r-1, r).  This module stores exactly those entries in a flat vector
ordered colexicographically, with an O(r) rank function for lookup, and
provides the multilinear matrix action, marginalization, and the
polynomial / Hessian maps attached to a symmetric tensor.

Indices are 1-based throughout, matching the JSON interchange format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _json

__all__ = [
    "MAX_DENSE_ENTRIES",
    "MAX_ORDER",
    "SymmetricTensor",
    "canonical_index",
    "canonical_indices",
    "canonical_rank",
    "num_entries",
    "tensor_from_entries",
    "multilinear_transform",
    "marginalize",
    "polynomial_eval",
    "hessian_eval",
    "tensor_to_json",
    "tensor_from_json",
    "save_tensor",
    "load_tensor",
]

# Practical caps: B_8 = 4140 partitions, and a 2^22-entry dense cube is 32 MB per copy.
MAX_ORDER = 8
MAX_DENSE_ENTRIES = 2**22

MultiIndex = tuple[int, ...]


def _check_shape(order: int, dim: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    _check_entry_budget(dim, order)


def num_entries(dim: int, order: int) -> int:
    """Number of unique entries of an order-``order`` tensor on R^dim."""
    return math.comb(dim + order - 1, order)


def _check_entry_budget(dim: int, order: int) -> None:
    """Refuse more than MAX_DENSE_ENTRIES unique entries; nothing is built first."""
    count = num_entries(dim, order)
    if count > MAX_DENSE_ENTRIES:
        raise ValueError(
            f"d = {dim}, r = {order} has C(d+r-1, r) = {count} unique entries, over the budget {MAX_DENSE_ENTRIES}"
        )


def canonical_index(index: Sequence[int], dim: int) -> MultiIndex:
    """Sort an index tuple into canonical non-decreasing form.

    Raises ValueError when any entry falls outside 1..dim.
    """
    idx = tuple(sorted(int(i) for i in index))
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise ValueError(f"index {tuple(index)} out of range 1..{dim}")
    return idx


def _colex_columns(vmax: int, length: int) -> np.ndarray:
    """(length, vmax + 1) table whose row k holds C(v - 1 + k, k + 1), the rank term of value v at position k (0-based).

    Row 0 is max(v - 1, 0); each later row is the running sum over v of the one before.
    """
    col = np.maximum(np.arange(vmax + 1, dtype=np.int64) - 1, 0)
    rows = []
    for _ in range(length):
        rows.append(col)
        col = np.cumsum(col)
    return np.array(rows, dtype=np.int64).reshape(length, vmax + 1)


def _colex_ranks(idx: np.ndarray) -> np.ndarray:
    """Colex ranks of the rows of ``idx``, each a canonical 1-based index tuple.

    Via the combinatorial number system: the sum over positions of their
    ``_colex_columns`` terms, gathered one position at a time in ``idx``'s
    own dtype.
    """
    idx = np.asarray(idx)
    table = _colex_columns(int(idx.max(initial=0)), idx.shape[-1])
    ranks = np.zeros(idx.shape[:-1], dtype=np.int64)
    for k, col in enumerate(table):
        ranks += col[idx[..., k]]
    return ranks


def _permuted_ranks(perms: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Colex ranks of the entries that the 0-based canonical rows ``idx`` read once relabelled by each permutation.

    Relabelled by p, entry i is the entry at cube position (p[i_1], ..., p[i_r]): the rank cube's entry at flat
    position sum_k p[i_k] d^(r-1-k), so d^r must be within MAX_DENSE_ENTRIES.  ``perms`` is one permutation of
    0..d-1 or a stack of them, gathered one position at a time as the narrowest unsigned ints and summed in int32.
    """
    d = np.shape(perms)[-1]
    narrow = np.asarray(perms, dtype=np.min_scalar_type(d))
    flat = narrow[..., idx[:, 0]].astype(np.int32)
    for column in idx.T[1:]:
        flat *= d
        flat += narrow[..., column]
    return _dense_rank_array(d, idx.shape[-1])[flat]


def canonical_rank(index: MultiIndex) -> int:
    """Colex rank of a canonical (non-decreasing, 1-based) index tuple."""
    return int(_colex_ranks(np.array([index], dtype=np.int64))[0])


def _index_rank(index: Sequence[int], dim: int, order: int) -> int:
    """Colex rank of any permutation of a length-``order`` index tuple in 1..dim."""
    idx = canonical_index(index, dim)
    if len(idx) != order:
        raise ValueError(f"index length {len(idx)} != order {order}")
    return canonical_rank(idx)


@lru_cache(maxsize=16)
def canonical_indices(dim: int, order: int) -> np.ndarray:
    """All canonical index tuples as a read-only (N, order) int64 array, rows in colex order.

    In colex order the order-(k-1) tuples whose last value is at most v are
    the first C(v+k-2, k-1); the order-k tuples ending in v are exactly those
    with v appended, so stacking them for v = 1..dim builds order k.
    """
    _check_shape(order, dim)
    idx = np.empty((1, 0), dtype=np.int64)
    for k in range(1, order + 1):
        counts = [num_entries(v, k - 1) for v in range(1, dim + 1)]
        rows = np.arange(sum(counts)) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.column_stack((idx[rows], np.repeat(np.arange(1, dim + 1), counts)))
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=16)
def _dense_rank_array(dim: int, order: int) -> np.ndarray:
    """Rank of every d^r cube position, from a grid sorted as narrow unsigned ints; refuses d^r > MAX_DENSE_ENTRIES."""
    if dim**order > MAX_DENSE_ENTRIES:
        raise ValueError(f"dense cube d^r = {dim}^{order} = {dim**order} exceeds the budget {MAX_DENSE_ENTRIES}")
    grid = np.indices((dim,) * order, dtype=np.min_scalar_type(dim + order)).reshape(order, -1)
    grid += 1
    grid.sort(axis=0)
    ranks = _colex_ranks(grid.T)
    ranks.flags.writeable = False
    return ranks


@lru_cache(maxsize=16)
def _canonical_flat_positions(dim: int, order: int) -> np.ndarray:
    """Read-only flat d^r cube position of each canonical index tuple, in colex order."""
    positions = np.ravel_multi_index(canonical_indices(dim, order).T - 1, (dim,) * order)
    positions.flags.writeable = False
    return positions


@dataclass(frozen=True, eq=False, slots=True)
class SymmetricTensor:
    """Immutable order-r symmetric tensor on R^d.

    ``values`` holds the unique entries in colex order of their canonical
    indices, as a read-only float copy (zeros when omitted); lookups accept
    any permutation of an index tuple.
    """

    order: int
    dim: int
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_shape(self.order, self.dim)
        n = num_entries(self.dim, self.order)
        vals = np.zeros(n) if self.values is None else np.array(self.values, dtype=float)
        if vals.shape != (n,):
            raise ValueError(f"expected {n} unique entries, got shape {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def lookup(self, index: Sequence[int]) -> float:
        """Entry at ``index``; invariant under permutations of the tuple."""
        return float(self.values[_index_rank(index, self.dim, self.order)])

    __getitem__ = lookup

    def entries(self) -> Iterator[tuple[MultiIndex, float]]:
        """Yield (canonical index, value) pairs in colex order."""
        for idx, v in zip(canonical_indices(self.dim, self.order).tolist(), self.values.tolist()):
            yield tuple(idx), v

    def to_dense(self) -> np.ndarray:
        """Full d^r array; writable copy."""
        flat = self.values[_dense_rank_array(self.dim, self.order)]
        return flat.reshape((self.dim,) * self.order)

    @classmethod
    def from_dense(cls, dense: np.ndarray, tol: float | None = None) -> "SymmetricTensor":
        """Build from a full array, optionally checking symmetry within ``tol``."""
        order = dense.ndim
        dim = dense.shape[0]
        if dense.shape != (dim,) * order:
            raise ValueError(f"dense array must be hypercubic, got {dense.shape}")
        vals = np.ascontiguousarray(dense, dtype=float).reshape(-1)[_canonical_flat_positions(dim, order)]
        t = cls(order, dim, vals)
        if tol is not None:
            defect = np.abs(dense - t.to_dense()).max()
            if defect > tol:
                raise ValueError(f"array is not symmetric: defect {defect:.3e} > {tol:.3e}")
        return t

    def allclose(self, other: "SymmetricTensor", tol: float) -> bool:
        """Entrywise comparison at an explicit tolerance."""
        if (self.order, self.dim) != (other.order, other.dim):
            return False
        return bool(np.abs(self.values - other.values).max() <= tol)

    def max_abs(self) -> float:
        return float(np.abs(self.values).max())


def tensor_from_entries(
    order: int, dim: int, entries: Iterable[tuple[Sequence[int], float]]
) -> SymmetricTensor:
    """Tensor from (index, value) pairs; unspecified entries are zero.

    Any permutation of a canonical index addresses the same entry.  A
    canonical index given twice with conflicting values is an error.
    """
    _check_shape(order, dim)
    seen: dict[MultiIndex, float] = {}
    for index, value in entries:
        idx = canonical_index(index, dim)
        if len(idx) != order:
            raise ValueError(f"index {tuple(index)} has length {len(idx)}, expected {order}")
        value = float(value)
        if idx in seen and seen[idx] != value:
            raise ValueError(f"conflicting values for index {idx}: {seen[idx]} vs {value}")
        seen[idx] = value
    vals = np.zeros(num_entries(dim, order))
    vals[_colex_ranks(np.array(list(seen), dtype=np.int64).reshape(-1, order))] = list(seen.values())
    return SymmetricTensor(order, dim, vals)


def _transform_modewise(a: np.ndarray, dense: np.ndarray, modes: int) -> np.ndarray:
    """Contract the leading ``modes`` modes of the dense cube with ``a``, O(modes d^{r+1}).

    ``a`` is a k x d matrix, or a length-d vector whose contracted modes
    drop.  Each step contracts the leading mode by one matmul and moves the
    result to the back, so the uncontracted modes come first, in order,
    and the contracted ones follow them, in order.
    """
    d = dense.shape[0]
    out = dense
    for _ in range(modes):
        out = (a @ out.reshape(d, -1)).T
    return out.reshape(dense.shape[modes:] + a.shape[:-1] * modes)


def multilinear_transform(a: np.ndarray, tensor: SymmetricTensor) -> SymmetricTensor:
    """Simultaneous contraction of every mode by the matrix ``a``.

    (a . T)_{i_1..i_r} = sum_j a_{i_1 j_1} ... a_{i_r j_r} T_{j_1..j_r},
    evaluated one mode at a time.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (tensor.dim, tensor.dim):
        raise ValueError(f"matrix shape {a.shape} does not match dim {tensor.dim}")
    return SymmetricTensor.from_dense(_transform_modewise(a, tensor.to_dense(), tensor.order))


def marginalize(tensor: SymmetricTensor, position: int = 1) -> SymmetricTensor:
    """Sum over one coordinate slot, reducing the order by one.

    By symmetry the result does not depend on ``position``.
    """
    if tensor.order < 2:
        raise ValueError("marginalize requires order >= 2")
    if not 1 <= position <= tensor.order:
        raise ValueError(f"position must be in 1..{tensor.order}")
    return SymmetricTensor.from_dense(_transform_modewise(np.ones(tensor.dim), tensor.to_dense(), 1))


def polynomial_eval(tensor: SymmetricTensor, x: Sequence[float]) -> float:
    """Value of f_T(x) = sum over all r-tuples of T_{i_1..i_r} x_{i_1}...x_{i_r}."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({tensor.dim},)")
    return float(_transform_modewise(x, tensor.to_dense(), tensor.order))


def hessian_eval(tensor: SymmetricTensor, x: Sequence[float]) -> np.ndarray:
    """Matrix of second partials of f_T at x.

    For symmetric T this is r(r-1) times T contracted with x on r-2 modes.
    """
    if tensor.order < 2:
        raise ValueError("hessian requires order >= 2")
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({tensor.dim},)")
    return tensor.order * (tensor.order - 1) * _transform_modewise(x, tensor.to_dense(), tensor.order - 2)


def tensor_to_json(tensor: SymmetricTensor) -> dict:
    """JSON object with nonzero entries listed in colex order."""
    return {
        "order": tensor.order,
        "dim": tensor.dim,
        "entries": [
            {"idx": list(idx), "val": v} for idx, v in tensor.entries() if v != 0.0
        ],
    }


def tensor_from_json(obj: dict) -> SymmetricTensor:
    entries = [(tuple(map(_json.integer, e["idx"])), _json.number(e["val"])) for e in obj.get("entries", [])]
    return tensor_from_entries(_json.integer(obj["order"]), _json.integer(obj["dim"]), entries)


def save_tensor(tensor: SymmetricTensor, path) -> None:
    _json.dump(tensor_to_json(tensor), path)


def load_tensor(path) -> SymmetricTensor:
    return _json.load(path, tensor_from_json)

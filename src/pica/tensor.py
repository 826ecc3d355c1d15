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

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _json

__all__ = [
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

# Practical cap: B_8 = 4140 partitions and d^r dense scratch stay desk-sized.
MAX_ORDER = 8

MultiIndex = tuple[int, ...]


def _check_shape(order: int, dim: int) -> None:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 1..{MAX_ORDER}, got {order}")
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")


def num_entries(dim: int, order: int) -> int:
    """Number of unique entries of an order-``order`` tensor on R^dim."""
    return math.comb(dim + order - 1, order)


def canonical_index(index: Sequence[int], dim: int) -> MultiIndex:
    """Sort an index tuple into canonical non-decreasing form.

    Raises ValueError when any entry falls outside 1..dim.
    """
    idx = tuple(sorted(int(i) for i in index))
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise ValueError(f"index {tuple(index)} out of range 1..{dim}")
    return idx


def canonical_rank(index: MultiIndex) -> int:
    """Colex rank of a canonical (non-decreasing, 1-based) index tuple.

    Via the combinatorial number system: position k (0-based) of value v
    contributes C(v - 1 + k, k + 1).
    """
    return sum(math.comb(v - 1 + k, k + 1) for k, v in enumerate(index))


@lru_cache(maxsize=None)
def canonical_indices(dim: int, order: int) -> tuple[MultiIndex, ...]:
    """All canonical index tuples in colexicographic order."""
    combos = itertools.combinations_with_replacement(range(1, dim + 1), order)
    return tuple(sorted(combos, key=lambda t: t[::-1]))


@lru_cache(maxsize=None)
def _dense_rank_array(dim: int, order: int) -> np.ndarray:
    """Flat array mapping every position of the d^r dense cube to its rank."""
    binom = np.zeros((dim + order, order + 1), dtype=np.int64)
    for n in range(dim + order):
        for k in range(order + 1):
            binom[n, k] = math.comb(n, k)
    grid = np.indices((dim,) * order).reshape(order, -1)
    grid = np.sort(grid, axis=0)  # 0-based sorted tuples
    ranks = np.zeros(grid.shape[1], dtype=np.int64)
    for k in range(order):
        ranks += binom[grid[k] + k, k + 1]
    ranks.flags.writeable = False
    return ranks


@lru_cache(maxsize=None)
def _canonical_flat_positions(dim: int, order: int) -> np.ndarray:
    """Flat dense position of the sorted representative of each rank."""
    pos = np.empty(num_entries(dim, order), dtype=np.int64)
    for rank, idx in enumerate(canonical_indices(dim, order)):
        flat = 0
        for v in idx:
            flat = flat * dim + (v - 1)
        pos[rank] = flat
    pos.flags.writeable = False
    return pos


class SymmetricTensor:
    """Immutable order-r symmetric tensor on R^d.

    ``values`` holds the unique entries in colex order of their canonical
    indices; lookups accept any permutation of an index tuple.
    """

    __slots__ = ("order", "dim", "values")

    def __init__(self, order: int, dim: int, values: np.ndarray | None = None):
        _check_shape(order, dim)
        n = num_entries(dim, order)
        if values is None:
            vals = np.zeros(n)
        else:
            vals = np.array(values, dtype=float)
            if vals.shape != (n,):
                raise ValueError(f"expected {n} unique entries, got shape {vals.shape}")
        vals.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetricTensor is immutable")

    @classmethod
    def zeros(cls, order: int, dim: int) -> "SymmetricTensor":
        return cls(order, dim)

    def lookup(self, index: Sequence[int]) -> float:
        """Entry at ``index``; invariant under permutations of the tuple."""
        idx = canonical_index(index, self.dim)
        if len(idx) != self.order:
            raise ValueError(f"index length {len(idx)} != order {self.order}")
        return float(self.values[canonical_rank(idx)])

    __getitem__ = lookup

    def entries(self) -> Iterator[tuple[MultiIndex, float]]:
        """Yield (canonical index, value) pairs in colex order."""
        for idx, v in zip(canonical_indices(self.dim, self.order), self.values):
            yield idx, float(v)

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
        vals = np.ascontiguousarray(dense, dtype=float).reshape(-1)[
            _canonical_flat_positions(dim, order)
        ]
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

    def __repr__(self) -> str:
        return f"SymmetricTensor(order={self.order}, dim={self.dim})"


def tensor_from_entries(
    order: int, dim: int, entries: Iterable[tuple[Sequence[int], float]]
) -> SymmetricTensor:
    """Tensor from (index, value) pairs; unspecified entries are zero.

    Any permutation of a canonical index addresses the same entry.  A
    canonical index given twice with conflicting values is an error.
    """
    _check_shape(order, dim)
    vals = np.zeros(num_entries(dim, order))
    seen: dict[MultiIndex, float] = {}
    for index, value in entries:
        idx = canonical_index(index, dim)
        if len(idx) != order:
            raise ValueError(f"index {tuple(index)} has length {len(idx)}, expected {order}")
        value = float(value)
        if idx in seen and seen[idx] != value:
            raise ValueError(f"conflicting values for index {idx}: {seen[idx]} vs {value}")
        seen[idx] = value
        vals[canonical_rank(idx)] = value
    return SymmetricTensor(order, dim, vals)


def _transform_modewise(a: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Contract every mode of the dense cube with ``a``, O(r d^{r+1}).

    Each step contracts the leading mode by one matmul and rotates the
    result to the back, so after r steps the modes are in order again.
    """
    d = a.shape[0]
    out = dense.reshape(d, -1)
    for _ in range(dense.ndim):
        out = (a @ out).T.reshape(d, -1)
    return out.reshape(dense.shape)


def multilinear_transform(a: np.ndarray, tensor: SymmetricTensor) -> SymmetricTensor:
    """Simultaneous contraction of every mode by the matrix ``a``.

    (a . T)_{i_1..i_r} = sum_j a_{i_1 j_1} ... a_{i_r j_r} T_{j_1..j_r},
    evaluated one mode at a time.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (tensor.dim, tensor.dim):
        raise ValueError(f"matrix shape {a.shape} does not match dim {tensor.dim}")
    return SymmetricTensor.from_dense(_transform_modewise(a, tensor.to_dense()))


def marginalize(tensor: SymmetricTensor, position: int = 1) -> SymmetricTensor:
    """Sum over one coordinate slot, reducing the order by one.

    By symmetry the result does not depend on ``position``.
    """
    if tensor.order < 2:
        raise ValueError("marginalize requires order >= 2")
    if not 1 <= position <= tensor.order:
        raise ValueError(f"position must be in 1..{tensor.order}")
    dense = tensor.to_dense().sum(axis=position - 1)
    return SymmetricTensor.from_dense(dense)


def polynomial_eval(tensor: SymmetricTensor, x: Sequence[float]) -> float:
    """Value of f_T(x) = sum over all r-tuples of T_{i_1..i_r} x_{i_1}...x_{i_r}."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({tensor.dim},)")
    w = tensor.to_dense()
    for _ in range(tensor.order):
        w = np.tensordot(w, x, axes=(0, 0))
    return float(w)


def hessian_eval(tensor: SymmetricTensor, x: Sequence[float]) -> np.ndarray:
    """Matrix of second partials of f_T at x.

    For symmetric T this is r(r-1) times T contracted with x on r-2 modes.
    """
    if tensor.order < 2:
        raise ValueError("hessian requires order >= 2")
    x = np.asarray(x, dtype=float)
    if x.shape != (tensor.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({tensor.dim},)")
    w = tensor.to_dense()
    for _ in range(tensor.order - 2):
        w = np.tensordot(w, x, axes=(0, 0))
    return tensor.order * (tensor.order - 1) * w


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
    entries = [(tuple(e["idx"]), float(e["val"])) for e in obj.get("entries", [])]
    return tensor_from_entries(int(obj["order"]), int(obj["dim"]), entries)


def save_tensor(tensor: SymmetricTensor, path) -> None:
    _json.dump(tensor_to_json(tensor), path)


def load_tensor(path) -> SymmetricTensor:
    return _json.load(path, tensor_from_json)

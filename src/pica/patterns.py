"""Zero patterns induced by independence assumptions.

A ZeroPattern marks the canonical entries of an order-r tensor that some
independence hypothesis forces to vanish.  Membership of a tensor in the
corresponding variety is then a max-violation check over the marked
entries.  Patterns materialize their zero set as a boolean mask over the
canonical index list at construction time, since recovery queries them
millions of times.

Kinds:
  partition          two indices in distinct blocks
  graph              induced subgraph on the distinct indices disconnected
  diagonal           not all indices equal
  reflectional       some index with odd multiplicity (even order only)
  mean_independence  some index with multiplicity exactly one
  composite          union of the zero sets of two patterns
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _json
from ._rng import as_generator
from .tensor import (
    MultiIndex,
    SymmetricTensor,
    _dense_rank_array,
    canonical_index,
    canonical_indices,
    canonical_rank,
    marginalize,
)

__all__ = [
    "PartitionSpec",
    "IndependenceGraph",
    "ZeroPattern",
    "MembershipResult",
    "pattern_from_partition",
    "pattern_from_graph",
    "diagonal_pattern",
    "reflectional_pattern",
    "mean_independence_pattern",
    "intersect_patterns",
    "is_member",
    "generic_sample",
    "marginal_distinctness",
    "sample_membership_tol",
    "POPULATION_TOL",
    "pattern_to_json",
    "pattern_from_json",
    "save_pattern",
    "load_pattern",
]

# Default tolerance for membership checks on population-level tensors.
POPULATION_TOL = 1e-10


@dataclass(frozen=True)
class PartitionSpec:
    """Ordered partition of {1..dim} into disjoint non-empty blocks."""

    dim: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        flat = [i for b in blocks for i in b]
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be non-empty")
        if sorted(flat) != list(range(1, self.dim + 1)):
            raise ValueError(f"blocks {blocks} are not a partition of 1..{self.dim}")

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    def block_of(self) -> np.ndarray:
        """Array mapping 1-based variable index to its block number."""
        out = np.empty(self.dim + 1, dtype=np.int64)
        for b, members in enumerate(self.blocks):
            for i in members:
                out[i] = b
        return out


@dataclass(frozen=True)
class IndependenceGraph:
    """Undirected graph on {1..dim}: an edge means the pair may be dependent."""

    dim: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, dim: int, edges):
        norm = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= dim and 1 <= v <= dim):
                raise ValueError(f"edge ({u},{v}) outside 1..{dim}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        for u, v in self.edges:
            a[u - 1, v - 1] = a[v - 1, u - 1] = 1.0
        return a

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


class MembershipResult(NamedTuple):
    member: bool
    max_violation: float
    worst_index: MultiIndex | None

    def __bool__(self) -> bool:
        return self.member


class ZeroPattern:
    """Zero-constraint predicate over canonical indices, materialized."""

    __slots__ = ("kind", "order", "dim", "zero_mask", "meta")

    def __init__(self, kind: str, order: int, dim: int, zero_mask: np.ndarray, meta: dict | None = None):
        zero_mask = np.asarray(zero_mask, dtype=bool)
        expected = len(canonical_indices(dim, order))
        if zero_mask.shape != (expected,):
            raise ValueError(f"mask has shape {zero_mask.shape}, expected ({expected},)")
        zero_mask.flags.writeable = False
        self.kind = kind
        self.order = order
        self.dim = dim
        self.zero_mask = zero_mask
        self.meta = dict(meta or {})

    def is_zero_constrained(self, index: Sequence[int]) -> bool:
        idx = canonical_index(index, self.dim)
        if len(idx) != self.order:
            raise ValueError(f"index length {len(idx)} != order {self.order}")
        return bool(self.zero_mask[canonical_rank(idx)])

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.zero_mask

    def zero_count(self) -> int:
        return int(self.zero_mask.sum())

    def free_count(self) -> int:
        return int((~self.zero_mask).sum())

    def dense_zero_mask(self) -> np.ndarray:
        """Boolean d^r cube marking every zero-constrained position."""
        mask = self.zero_mask[_dense_rank_array(self.dim, self.order)]
        return mask.reshape((self.dim,) * self.order)

    def same_predicate(self, other: "ZeroPattern") -> bool:
        return (
            self.order == other.order
            and self.dim == other.dim
            and bool(np.array_equal(self.zero_mask, other.zero_mask))
        )

    def __repr__(self) -> str:
        return (
            f"ZeroPattern(kind={self.kind!r}, order={self.order}, dim={self.dim}, "
            f"zeros={self.zero_count()}/{len(self.zero_mask)})"
        )


def _build(kind: str, order: int, dim: int, predicate, meta: dict | None = None) -> ZeroPattern:
    idxs = canonical_indices(dim, order)
    mask = np.fromiter((predicate(idx) for idx in idxs), dtype=bool, count=len(idxs))
    return ZeroPattern(kind, order, dim, mask, meta)


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"patterns require order >= 2, got {order}")


def pattern_from_partition(spec: PartitionSpec, order: int) -> ZeroPattern:
    """Zero iff the index tuple meets two distinct blocks."""
    _check_order(order)
    block_of = spec.block_of()

    def zero(idx: MultiIndex) -> bool:
        first = block_of[idx[0]]
        return any(block_of[i] != first for i in idx[1:])

    return _build("partition", order, spec.dim, zero, {"blocks": [list(b) for b in spec.blocks]})


def _components(vertices: tuple[int, ...], edges: frozenset) -> int:
    """Connected component count of the induced subgraph, by union-find."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    return len({find(v) for v in vertices})


def pattern_from_graph(graph: IndependenceGraph, order: int) -> ZeroPattern:
    """Zero iff the induced subgraph on the distinct indices is disconnected.

    A single distinct vertex counts as connected, so constant index
    tuples are always free.
    """
    _check_order(order)
    edges = graph.edges

    def zero(idx: MultiIndex) -> bool:
        verts = tuple(set(idx))
        if len(verts) == 1:
            return False
        return _components(verts, edges) > 1

    return _build("graph", order, graph.dim, zero, {"edges": [list(e) for e in graph.sorted_edges()]})


def diagonal_pattern(dim: int, order: int) -> ZeroPattern:
    """Zero at every non-constant index tuple."""
    _check_order(order)
    return _build("diagonal", order, dim, lambda idx: idx[0] != idx[-1])


def reflectional_pattern(dim: int, order: int) -> ZeroPattern:
    """Free iff every distinct index appears an even number of times."""
    _check_order(order)
    if order % 2 != 0:
        raise ValueError(f"reflectional pattern requires even order, got {order}")

    def zero(idx: MultiIndex) -> bool:
        return any(c % 2 != 0 for c in Counter(idx).values())

    return _build("reflectional", order, dim, zero)


def mean_independence_pattern(dim: int, order: int) -> ZeroPattern:
    """Zero iff some distinct index has multiplicity exactly one."""
    _check_order(order)

    def zero(idx: MultiIndex) -> bool:
        return any(c == 1 for c in Counter(idx).values())

    return _build("mean_independence", order, dim, zero)


def intersect_patterns(a: ZeroPattern, b: ZeroPattern) -> ZeroPattern:
    """Pattern whose free set is the intersection of the two free sets."""
    if (a.order, a.dim) != (b.order, b.dim):
        raise ValueError("patterns must share order and dim")
    return ZeroPattern("composite", a.order, a.dim, a.zero_mask | b.zero_mask,
                       {"parts": [a.kind, b.kind]})


def is_member(tensor: SymmetricTensor, pattern: ZeroPattern, tol: float = POPULATION_TOL) -> MembershipResult:
    """Check every zero-constrained entry against |value| <= tol.

    Always reports the largest violation and where it occurs.
    """
    if (tensor.order, tensor.dim) != (pattern.order, pattern.dim):
        raise ValueError(
            f"tensor (order={tensor.order}, dim={tensor.dim}) does not match "
            f"pattern (order={pattern.order}, dim={pattern.dim})"
        )
    constrained = np.abs(tensor.values[pattern.zero_mask])
    if constrained.size == 0:
        return MembershipResult(True, 0.0, None)
    pos = int(np.argmax(constrained))
    worst = canonical_indices(tensor.dim, tensor.order)[np.flatnonzero(pattern.zero_mask)[pos]]
    max_violation = float(constrained[pos])
    return MembershipResult(max_violation <= tol, max_violation, worst)


def generic_sample(pattern: ZeroPattern, scale: float = 1.0, rng: int | np.random.Generator = 0) -> SymmetricTensor:
    """Tensor with iid normal free entries (times ``scale``) and exact zeros.

    Bit-identical for a given seed.
    """
    g = as_generator(rng)
    vals = np.zeros(len(pattern.zero_mask))
    free = ~pattern.zero_mask
    vals[free] = scale * g.standard_normal(int(free.sum()))
    return SymmetricTensor(pattern.order, pattern.dim, vals)


def marginal_distinctness(tensor: SymmetricTensor, tol: float = POPULATION_TOL) -> bool:
    """True iff the fully marginalized diagonal values are pairwise separated.

    Marginalizes down to a d x d matrix M and compares |M_ii - M_jj| > tol
    for every pair.
    """
    if tensor.order < 2:
        raise ValueError("marginal distinctness requires order >= 2")
    m = tensor
    while m.order > 2:
        m = marginalize(m)
    diag = np.array([m.lookup((i, i)) for i in range(1, tensor.dim + 1)])
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if abs(diag[i] - diag[j]) <= tol:
                return False
    return True


def sample_membership_tol(tensor: SymmetricTensor, pattern: ZeroPattern, n_samples: int) -> float:
    """Statistical tolerance 5 n^(-1/2) times the largest free-entry magnitude."""
    free_vals = tensor.values[~pattern.zero_mask]
    scale = float(np.abs(free_vals).max()) if free_vals.size else 1.0
    if scale == 0.0:
        scale = 1.0
    return 5.0 / np.sqrt(n_samples) * scale


def pattern_to_json(pattern: ZeroPattern) -> dict:
    obj: dict = {"kind": pattern.kind, "order": pattern.order, "dim": pattern.dim}
    if pattern.kind == "partition":
        obj["blocks"] = pattern.meta["blocks"]
    elif pattern.kind == "graph":
        obj["edges"] = pattern.meta["edges"]
    elif pattern.kind == "composite":
        raise ValueError("composite patterns have no JSON form")
    return obj


def pattern_from_json(obj: dict) -> ZeroPattern:
    kind = obj["kind"]
    order = int(obj["order"])
    dim = int(obj["dim"])
    if kind == "partition":
        spec = PartitionSpec(dim, tuple(tuple(b) for b in obj["blocks"]))
        return pattern_from_partition(spec, order)
    if kind == "graph":
        graph = IndependenceGraph(dim, [tuple(e) for e in obj["edges"]])
        return pattern_from_graph(graph, order)
    if kind == "diagonal":
        return diagonal_pattern(dim, order)
    if kind == "reflectional":
        return reflectional_pattern(dim, order)
    if kind == "mean_independence":
        return mean_independence_pattern(dim, order)
    raise ValueError(f"unknown pattern kind {kind!r}")


def save_pattern(pattern: ZeroPattern, path) -> None:
    _json.dump(pattern_to_json(pattern), path)


def load_pattern(path) -> ZeroPattern:
    return _json.load(path, pattern_from_json)

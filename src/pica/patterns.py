"""Zero patterns induced by independence assumptions.

A ZeroPattern marks the canonical entries of an order-r tensor that some
independence hypothesis forces to vanish.  Membership of a tensor in the
corresponding variety is then a max-violation check over the marked
entries.  Patterns materialize their zero set once, at construction, as a
boolean mask over the canonical index array.  Its rows are sorted, so equal
indices form runs and most masks compare neighbouring positions; the graph
mask gathers adjacency over every pair of positions.  ``dense_zero_mask``
spreads the mask over the d^r cube that recovery works on.

Kinds:
  partition          two indices in distinct blocks
  graph              induced subgraph on the distinct indices disconnected
  diagonal           not all indices equal
  reflectional       some index with odd multiplicity (even order only)
  mean_independence  some index with multiplicity exactly one
  composite          union of the zero sets of two patterns
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _json
from ._rng import as_generator
from .tensor import (
    MultiIndex,
    SymmetricTensor,
    _dense_rank_array,
    _index_rank,
    _transform_modewise,
    canonical_indices,
    num_entries,
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

    def __post_init__(self):
        norm = set()
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError(f"edge {tuple(edge)} is not a pair of vertices")
            u, v = int(edge[0]), int(edge[1])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.dim and 1 <= v <= self.dim):
                raise ValueError(f"edge ({u},{v}) outside 1..{self.dim}")
            norm.add((min(u, v), max(u, v)))
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


@dataclass(frozen=True, eq=False, slots=True)
class ZeroPattern:
    """Zero-constraint predicate over canonical indices, materialized.

    ``zero_mask`` is stored read-only and ``meta`` as a copy.
    """

    kind: str
    order: int
    dim: int
    zero_mask: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        zero_mask = np.asarray(self.zero_mask, dtype=bool)
        expected = num_entries(self.dim, self.order)
        if zero_mask.shape != (expected,):
            raise ValueError(f"mask has shape {zero_mask.shape}, expected ({expected},)")
        zero_mask.flags.writeable = False
        object.__setattr__(self, "zero_mask", zero_mask)
        object.__setattr__(self, "meta", dict(self.meta or {}))

    def is_zero_constrained(self, index: Sequence[int]) -> bool:
        return bool(self.zero_mask[_index_rank(index, self.dim, self.order)])

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


def _check_order(order: int) -> None:
    if order < 2:
        raise ValueError(f"patterns require order >= 2, got {order}")


def pattern_from_partition(spec: PartitionSpec, order: int) -> ZeroPattern:
    """Zero iff the index tuple meets two distinct blocks."""
    _check_order(order)
    block = spec.block_of()[canonical_indices(spec.dim, order)]
    zero = (block != block[:, :1]).any(axis=1)
    return ZeroPattern("partition", order, spec.dim, zero, {"blocks": [list(b) for b in spec.blocks]})


def pattern_from_graph(graph: IndependenceGraph, order: int) -> ZeroPattern:
    """Zero iff the induced subgraph on the distinct indices is disconnected.

    A single distinct vertex counts as connected, so constant index
    tuples are always free.  Positions linked by equal or adjacent values
    reach each other in at most r - 1 steps.
    """
    _check_order(order)
    idx = canonical_indices(graph.dim, order) - 1
    link = ((graph.adjacency() > 0) | np.eye(graph.dim, dtype=bool))[idx[:, :, None], idx[:, None, :]]
    reach = link[:, 0]
    for _ in range(order - 2):
        reach = np.einsum("nj,njk->nk", reach, link)
    return ZeroPattern("graph", order, graph.dim, ~reach.all(axis=1),
                       {"edges": [list(e) for e in graph.sorted_edges()]})


def diagonal_pattern(dim: int, order: int) -> ZeroPattern:
    """Zero at every non-constant index tuple; rows are sorted, so first and last differ."""
    _check_order(order)
    idx = canonical_indices(dim, order)
    return ZeroPattern("diagonal", order, dim, idx[:, 0] != idx[:, -1])


def reflectional_pattern(dim: int, order: int) -> ZeroPattern:
    """Free iff every distinct index appears an even number of times: sorted, positions 1 = 2, 3 = 4 and so on."""
    _check_order(order)
    if order % 2 != 0:
        raise ValueError(f"reflectional pattern requires even order, got {order}")
    idx = canonical_indices(dim, order)
    return ZeroPattern("reflectional", order, dim, (idx[:, 0::2] != idx[:, 1::2]).any(axis=1))


def mean_independence_pattern(dim: int, order: int) -> ZeroPattern:
    """Zero iff some index appears once: in a sorted row, unlike both neighbours (0 and d + 1 pad the ends)."""
    _check_order(order)
    runs = np.diff(canonical_indices(dim, order), axis=1, prepend=0, append=dim + 1) != 0
    return ZeroPattern("mean_independence", order, dim, (runs[:, :-1] & runs[:, 1:]).any(axis=1))


def intersect_patterns(a: ZeroPattern, b: ZeroPattern) -> ZeroPattern:
    """Pattern whose free set is the intersection of the two free sets."""
    if (a.order, a.dim) != (b.order, b.dim):
        raise ValueError("patterns must share order and dim")
    return ZeroPattern("composite", a.order, a.dim, a.zero_mask | b.zero_mask,
                       {"parts": [a.kind, b.kind]})


def _check_tensor_shape(tensor: SymmetricTensor, pattern: ZeroPattern) -> None:
    if (tensor.order, tensor.dim) != (pattern.order, pattern.dim):
        raise ValueError(
            f"tensor (order={tensor.order}, dim={tensor.dim}) does not match "
            f"pattern (order={pattern.order}, dim={pattern.dim})"
        )


def is_member(tensor: SymmetricTensor, pattern: ZeroPattern, tol: float = POPULATION_TOL) -> MembershipResult:
    """Check every zero-constrained entry against |value| <= tol.

    Always reports the largest violation and where it occurs.
    """
    _check_tensor_shape(tensor, pattern)
    constrained = np.abs(tensor.values[pattern.zero_mask])
    if constrained.size == 0:
        return MembershipResult(True, 0.0, None)
    pos = int(np.argmax(constrained))
    worst = tuple(canonical_indices(tensor.dim, tensor.order)[np.flatnonzero(pattern.zero_mask)[pos]].tolist())
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

    Sums out all but two modes, in one contraction, down to a d x d matrix
    M and compares |M_ii - M_jj| > tol for every pair.
    """
    if tensor.order < 2:
        raise ValueError("marginal distinctness requires order >= 2")
    diag = np.diagonal(_transform_modewise(np.ones(tensor.dim), tensor.to_dense(), tensor.order - 2))
    i, j = np.triu_indices(len(diag), 1)
    # a NaN difference compares False, so it never counts as a tie
    return not (np.abs(diag[i] - diag[j]) <= tol).any()


def sample_membership_tol(tensor: SymmetricTensor, pattern: ZeroPattern, n_samples: int) -> float:
    """Statistical tolerance 5 n^(-1/2) times the largest free-entry magnitude."""
    free_vals = tensor.values[~pattern.zero_mask]
    scale = float(np.abs(free_vals).max()) if free_vals.size else 1.0
    if scale == 0.0:
        scale = 1.0
    return 5.0 / np.sqrt(n_samples) * scale


def pattern_to_json(pattern: ZeroPattern) -> dict:
    """kind, order, dim and the ``meta`` its builder stored: a partition's blocks or a graph's edges."""
    if pattern.kind == "composite":
        raise ValueError("composite patterns have no JSON form")
    return {"kind": pattern.kind, "order": pattern.order, "dim": pattern.dim, **pattern.meta}


def pattern_from_json(obj: dict) -> ZeroPattern:
    kind = obj["kind"]
    order = _json.integer(obj["order"])
    dim = _json.integer(obj["dim"])
    if kind == "partition":
        spec = PartitionSpec(dim, tuple(tuple(map(_json.integer, b)) for b in obj["blocks"]))
        return pattern_from_partition(spec, order)
    if kind == "graph":
        graph = IndependenceGraph(dim, [tuple(map(_json.integer, e)) for e in obj["edges"]])
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

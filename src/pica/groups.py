"""Orthogonal, signed-permutation, and block-structured matrix groups.

Covers sampling (Haar orthogonal, signed permutations, block-orthogonal),
classification of the blocks of a matrix as zero / full rank / singular,
group-membership predicates, a coset residual measuring distance from the
block-orthogonal group, graph-automorphism checks, and an exact,
exhaustive probe of the conjectured link between pattern-preserving
signed permutations and graph automorphisms.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

from . import _json
from ._rng import _seed, as_generator
from .partitions import MAX_CONVERSION_ENTRIES
from .patterns import IndependenceGraph, ZeroPattern, pattern_from_graph
from .tensor import MAX_DENSE_ENTRIES, _check_shape, _permuted_ranks, canonical_indices

__all__ = [
    "BlockStructure",
    "orthogonality_defect",
    "BlockLabel",
    "BlockClassification",
    "random_orthogonal",
    "random_signed_permutation",
    "random_block_orthogonal",
    "classify_blocks",
    "is_signed_permutation",
    "is_block_orthogonal",
    "is_block_signed_permutation",
    "coset_residual",
    "compatible_block_permutations",
    "nearest_signed_permutation",
    "signed_permutations",
    "graph_automorphism_check",
    "conjecture_probe",
    "ProbeReport",
    "matrix_to_json",
    "matrix_from_json",
    "save_matrix",
    "load_matrix",
]

# coset_residual's and nearest_signed_permutation's assignment is a subset DP
# costing O(k 2^k) for k blocks or rows; keep k small by contract.
MAX_BLOCKS = 8

DEFAULT_TOL_ZERO = 1e-10
RANK_TOL_RATIO = 1e-6


@dataclass(frozen=True)
class BlockStructure:
    """Ordered block sizes k_1..k_m partitioning the dimension."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(k) for k in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes or any(k < 1 for k in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if len(sizes) > MAX_BLOCKS:
            raise ValueError(f"at most {MAX_BLOCKS} blocks supported, got {len(sizes)}")

    @classmethod
    def from_string(cls, text: str) -> "BlockStructure":
        return cls(tuple(int(tok) for tok in text.split(",") if tok.strip()))

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.sizes[:-1], initial=0))

    def span(self, i: int) -> slice:
        return slice(self.offsets[i], self.offsets[i] + self.sizes[i])

    def block(self, q: np.ndarray, i: int, j: int) -> np.ndarray:
        return q[self.span(i), self.span(j)]


def _check_square(q: np.ndarray, dim: int | None = None) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {q.shape}")
    if dim is not None and q.shape[0] != dim:
        raise ValueError(f"matrix dim {q.shape[0]} does not match structure dim {dim}")
    return q


def orthogonality_defect(q: np.ndarray) -> float:
    q = _check_square(q)
    return float(np.abs(q @ q.T - np.eye(q.shape[0])).max())


def random_orthogonal(d: int, rng: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a Gaussian matrix with the R diagonal signs folded into Q, which
    makes the factorization unique and the law exactly Haar.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    g = as_generator(rng)
    q, r = np.linalg.qr(g.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def random_signed_permutation(d: int, rng: int | np.random.Generator) -> np.ndarray:
    """Uniform draw from the 2^d d! signed permutation matrices."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    g = as_generator(rng)
    perm = g.permutation(d)
    signs = g.choice([-1.0, 1.0], size=d)
    out = np.zeros((d, d))
    out[np.arange(d), perm] = signs
    return out


def _size_classes(structure: BlockStructure) -> list[list[int]]:
    """Block indices grouped by block size, smallest size first."""
    classes: dict[int, list[int]] = defaultdict(list)
    for i, k in enumerate(structure.sizes):
        classes[k].append(i)
    return [classes[k] for k in sorted(classes)]


def compatible_block_permutations(structure: BlockStructure) -> Iterator[tuple[int, ...]]:
    """Block permutations sigma with k_sigma(i) = k_i, in deterministic order."""
    classes = _size_classes(structure)
    for combo in itertools.product(*(itertools.permutations(members) for members in classes)):
        sigma = [0] * structure.count
        for members, perm in zip(classes, combo):
            for src, dst in zip(members, perm):
                sigma[src] = dst
        yield tuple(sigma)


def random_block_orthogonal(structure: BlockStructure, rng: int | np.random.Generator) -> np.ndarray:
    """Block-orthogonal matrix: one Haar orthogonal block per row and column.

    The block permutation is uniform among size-compatible ones (equal-size
    blocks permuted independently), so every admissible shape occurs.
    """
    g = as_generator(rng)
    sigma = [0] * structure.count
    for members in _size_classes(structure):
        for src, dst in zip(members, g.permutation(members)):
            sigma[src] = int(dst)
    out = np.zeros((structure.dim, structure.dim))
    for i, j in enumerate(sigma):
        out[structure.span(i), structure.span(j)] = random_orthogonal(structure.sizes[i], g)
    return out


class BlockLabel(str, Enum):
    ZERO = "zero"
    FULL_RANK = "full_rank"
    SINGULAR_NONZERO = "singular_nonzero"


@dataclass(frozen=True)
class BlockClassification:
    """Per-block labels with the thresholds that produced them."""

    structure: BlockStructure
    labels: tuple[tuple[BlockLabel, ...], ...]
    min_singular: np.ndarray
    tol_zero: float
    tol_rank: float

    def all_full_rank(self) -> bool:
        return all(l == BlockLabel.FULL_RANK for row in self.labels for l in row)

    def count(self, label: BlockLabel) -> int:
        return sum(l == label for row in self.labels for l in row)


def _block_map(q: np.ndarray, structure: BlockStructure, fn) -> np.ndarray:
    """m x m array of fn(block) over the block grid of q."""
    m = structure.count
    return np.array([[fn(structure.block(q, i, j)) for j in range(m)] for i in range(m)])


def _block_peaks(q: np.ndarray, structure: BlockStructure) -> np.ndarray:
    """Largest absolute entry of each block."""
    return _block_map(q, structure, lambda blk: np.abs(blk).max())


def classify_blocks(
    q: np.ndarray,
    structure: BlockStructure,
    tol_zero: float = DEFAULT_TOL_ZERO,
    tol_rank: float | None = None,
) -> BlockClassification:
    """Label each block zero, full rank, or singular-but-nonzero.

    Zero means max-abs entry <= tol_zero; full rank means the smallest
    singular value reaches tol_rank.  When tol_rank is None it defaults to
    RANK_TOL_RATIO times the largest singular value over all blocks, so
    the rank call is scale free.  Singular nonzero blocks are reported as
    such, never reclassified: they are exactly the regime where
    identifiability degrades.
    """
    q = _check_square(q, structure.dim)
    extremes = _block_map(q, structure, lambda blk: np.linalg.svd(blk, compute_uv=False)[[-1, 0]])
    smin = extremes[..., 0]
    if tol_rank is None:
        tol_rank = RANK_TOL_RATIO * extremes[..., 1].max()
    # first condition that holds picks the label, in BlockLabel's order
    kinds = np.select([_block_peaks(q, structure) <= tol_zero, smin >= tol_rank], [0, 1], 2)
    labels = tuple(tuple(list(BlockLabel)[k] for k in row) for row in kinds)
    return BlockClassification(structure, labels, smin, tol_zero, tol_rank)


def is_signed_permutation(q: np.ndarray, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """Exactly one entry of magnitude 1 per row and column, zeros elsewhere."""
    q = _check_square(q)
    if orthogonality_defect(q) > tol:
        return False
    nz = np.abs(q) > tol
    if not (nz.sum(axis=0) == 1).all() or not (nz.sum(axis=1) == 1).all():
        return False
    return bool((np.abs(np.abs(q[nz]) - 1.0) <= tol).all())


def is_block_orthogonal(q: np.ndarray, structure: BlockStructure, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """One nonzero (orthogonal) block per block row and column.

    Entries below tol count as zero; the matrix must also be globally
    orthogonal within tol, which makes each selected block orthogonal.
    """
    q = _check_square(q, structure.dim)
    if orthogonality_defect(q) > tol:
        return False
    occ = _block_peaks(q, structure) > tol
    if not (occ.sum(axis=0) == 1).all() or not (occ.sum(axis=1) == 1).all():
        return False
    return all(structure.sizes[i] == structure.sizes[j] for i, j in zip(*np.nonzero(occ)))


def is_block_signed_permutation(q: np.ndarray, structure: BlockStructure, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """Block-orthogonal with signed-permutation blocks: zero off those blocks, q is then a signed permutation."""
    return is_block_orthogonal(q, structure, tol) and is_signed_permutation(q, tol)


def _best_assignment(gain: list[list[float]]) -> list[int]:
    """Assignment of rows to columns maximizing the summed gain, by a DP over subsets.

    best[used] is the largest gain of rows |used|.. over the columns outside
    ``used``, O(k 2^k) for k rows.  Reading the choices forward from the
    empty set and taking the first column that attains best[used] gives the
    lexicographically first optimum, so a zero gain keeps the identity.
    """
    k = len(gain)
    full = (1 << k) - 1
    best = [0.0] * (full + 1)
    for used in range(full - 1, -1, -1):
        row = gain[used.bit_count()]
        best[used] = max(row[j] + best[used | 1 << j] for j in range(k) if not used >> j & 1)
    assign, used = [], 0
    for row in gain:
        pick = next(j for j in range(k) if not used >> j & 1 and row[j] + best[used | 1 << j] == best[used])
        assign.append(pick)
        used |= 1 << pick
    return assign


def coset_residual(w: np.ndarray, structure: BlockStructure) -> tuple[float, tuple[int, ...]]:
    """Distance of a matrix from the block-orthogonal group.

    Finds the size-compatible block assignment capturing the most squared
    Frobenius mass, then combines the off-assignment mass with the
    orthogonality defects of the assigned blocks:

        residual = sqrt(off_mass + sum_i ||B_i^T B_i - I||_F^2) / sqrt(d)

    Zero exactly when the matrix lies in the block-orthogonal group.
    Returns (residual, assignment) with assignment[i] the block column
    holding block row i's mass.
    """
    w = _check_square(w, structure.dim)
    if not np.isfinite(w).all():
        raise ValueError("matrix contains non-finite values")
    m = structure.count
    mass = _block_map(w, structure, lambda blk: np.sum(blk**2))
    sigma = [0] * m
    for members in _size_classes(structure):
        for src, dst in zip(members, _best_assignment(mass[np.ix_(members, members)].tolist())):
            sigma[src] = members[dst]
    best_assign = tuple(sigma)
    best_mass = sum(mass[i, best_assign[i]] for i in range(m))
    off_mass = float(mass.sum() - best_mass)
    defect_sq = 0.0
    for i in range(m):
        blk = structure.block(w, i, best_assign[i])
        defect_sq += float(np.sum((blk.T @ blk - np.eye(blk.shape[1])) ** 2))
    residual = math.sqrt(max(off_mass, 0.0) + defect_sq) / math.sqrt(structure.dim)
    return residual, best_assign


def nearest_signed_permutation(q: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest signed permutation by assignment on |entries|, for d <= MAX_BLOCKS.

    The assignment is ``coset_residual``'s subset DP, so exact ties keep the
    first column.  Returns (signed permutation, max-abs deviation of q from it).
    """
    q = _check_square(q)
    d = q.shape[0]
    if d > MAX_BLOCKS:
        raise ValueError(f"nearest signed permutation supports d <= {MAX_BLOCKS}, got {d}")
    if not np.isfinite(q).all():
        raise ValueError("matrix contains non-finite values")
    rows, cols = np.arange(d), _best_assignment(np.abs(q).tolist())
    p = np.zeros((d, d))
    p[rows, cols] = np.where(q[rows, cols] >= 0, 1.0, -1.0)
    return p, float(np.abs(q - p).max())


def signed_permutations(d: int) -> Iterator[np.ndarray]:
    """All 2^d d! signed permutation matrices, deterministic order."""
    for perm in itertools.permutations(range(d)):
        for signs in itertools.product((1.0, -1.0), repeat=d):
            out = np.zeros((d, d))
            for i, (j, s) in enumerate(zip(perm, signs)):
                out[i, j] = s
            yield out


def _check_permutation_matrix(p: np.ndarray) -> np.ndarray:
    p = _check_square(p)
    rounded = np.round(p)
    if np.abs(p - rounded).max() > 1e-9 or not np.isin(rounded, (0.0, 1.0)).all():
        raise ValueError("not a permutation matrix: entries must be 0 or 1")
    if not (rounded.sum(axis=0) == 1).all() or not (rounded.sum(axis=1) == 1).all():
        raise ValueError("not a permutation matrix: need exactly one 1 per row and column")
    return rounded


def _automorphisms(perms: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Which rows pi of ``perms`` (pi[i] the image of i) keep a[pi(i), pi(j)] = a[i, j]."""
    return (a[perms[:, :, None], perms[:, None, :]] == a).all(axis=(1, 2))


def graph_automorphism_check(p: np.ndarray, graph: IndependenceGraph) -> bool:
    """True iff the permutation preserves the adjacency matrix: P^T A P = A."""
    perm = _check_permutation_matrix(p).argmax(axis=1)
    if perm.size != graph.dim:
        raise ValueError(f"permutation dim {perm.size} != graph dim {graph.dim}")
    return bool(_automorphisms(perm[None], graph.adjacency())[0])


def _preserves_zero_set(perms: np.ndarray, pattern: ZeroPattern) -> np.ndarray:
    """Which rows pi of ``perms`` (pi[i] the image of i) map the pattern's zero set Z onto itself.

    A signed permutation q with q[i, pi(i)] = +-1 sends entry i of a tensor
    to +-T[pi(i)], and a generic member is nonzero exactly off Z, so q keeps
    the pattern iff pi maps Z into Z, whatever its signs.  The permuted
    ranks are gathered in stacks of at most MAX_DENSE_ENTRIES entries.
    """
    idx = canonical_indices(pattern.dim, pattern.order)[pattern.zero_mask] - 1
    per = max(1, MAX_DENSE_ENTRIES // max(1, len(idx)))
    stacks = [perms[first : first + per] for first in range(0, len(perms), per)]
    return np.concatenate([pattern.zero_mask[_permuted_ranks(stack, idx)].all(axis=1) for stack in stacks])


@dataclass
class ProbeReport:
    """Outcome of the pattern-preservation vs graph-automorphism probe, counted in signed matrices."""

    dim: int
    order: int
    exhaustive: bool
    matrices_checked: int
    automorphism_count: int
    agreements: int
    disagreements: list[dict] = field(default_factory=list)

    @property
    def conjecture_holds(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        # the fields are already JSON values, so a shallow dict serializes as asdict's deep copy does
        return {**vars(self), "conjecture_holds": self.conjecture_holds}


def conjecture_probe(
    graph: IndependenceGraph,
    order: int,
    trials: int,
    rng: int | np.random.Generator = 0,
) -> ProbeReport:
    """Exact probe: a signed permutation preserves the graph pattern iff its permutation is an automorphism.

    Every one of the d! permutations is checked, by ``_preserves_zero_set``
    against the automorphism predicate, and counts for its 2^d sign choices,
    which never change either verdict.  A disagreement names its
    permutation by the images of vertices 1..d.  No tensor is drawn:
    ``trials`` (at least 1) and ``rng`` (a generator or a seed >= 0) are
    validated and not used.  The zero set Z's permuted ranks and the
    permuted adjacency matrix gather d! (|Z| + d^2) entries; more than
    MAX_CONVERSION_ENTRIES is refused before any permutation is built.
    """
    if trials < 1:
        raise ValueError(f"probe needs trials >= 1, got {trials}")
    if not isinstance(rng, np.random.Generator):
        _seed(rng)
    d = graph.dim
    _check_shape(order, d)
    # d! d^2 alone passes the budget only below d = 10, so no larger pattern is built
    count = math.factorial(d)
    entries = count * d * d
    if entries <= MAX_CONVERSION_ENTRIES:
        pattern = pattern_from_graph(graph, order)
        entries += count * int(pattern.zero_mask.sum())
    if entries > MAX_CONVERSION_ENTRIES:
        raise ValueError(
            f"the probe at d = {d}, r = {order} gathers d! (|Z| + d^2) entries, "
            f"over the budget {MAX_CONVERSION_ENTRIES}"
        )
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(d))), dtype=np.int8).reshape(-1, d)
    preserves = _preserves_zero_set(perms, pattern)
    auto = _automorphisms(perms, graph.adjacency() > 0)
    signs, wrong = 2**d, np.flatnonzero(preserves != auto)
    disagreements = [
        {"permutation": (perms[k] + 1).tolist(), "is_automorphism": a, "preserves_pattern": not a}
        for k, a in zip(wrong, auto[wrong].tolist())
    ]
    return ProbeReport(
        dim=d,
        order=order,
        exhaustive=True,
        matrices_checked=signs * len(perms),
        automorphism_count=signs * int(auto.sum()),
        agreements=signs * (len(perms) - len(wrong)),
        disagreements=disagreements,
    )


def matrix_to_json(q: np.ndarray) -> dict:
    q = _check_square(q)
    return {"dim": q.shape[0], "rows": [list(map(float, row)) for row in q]}


def matrix_from_json(obj: dict) -> np.ndarray:
    return _check_square(_json.array(obj["rows"]), _json.integer(obj["dim"]))


def save_matrix(q: np.ndarray, path) -> None:
    _json.dump(matrix_to_json(q), path)


def load_matrix(path) -> np.ndarray:
    return _json.load(path, matrix_from_json)

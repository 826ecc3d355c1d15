"""Orthogonal, signed-permutation, and block-structured matrix groups.

Covers sampling (Haar orthogonal, signed permutations, block-orthogonal),
classification of the blocks of a matrix as zero / full rank / singular,
group-membership predicates, a coset residual measuring distance from the
block-orthogonal group, graph-automorphism checks, and an empirical probe
of the conjectured link between pattern-preserving signed permutations
and graph automorphisms.
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
from ._rng import as_generator
from .patterns import IndependenceGraph, generic_sample, is_member, pattern_from_graph
from .tensor import multilinear_transform

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

# Exhaustive block-assignment search is m!-ish; keep m small by contract.
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
        out, acc = [], 0
        for k in self.sizes:
            out.append(acc)
            acc += k
        return tuple(out)

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


def compatible_block_permutations(structure: BlockStructure) -> Iterator[tuple[int, ...]]:
    """Block permutations sigma with k_sigma(i) = k_i, in deterministic order."""
    classes: dict[int, list[int]] = defaultdict(list)
    for i, k in enumerate(structure.sizes):
        classes[k].append(i)
    keys = sorted(classes)
    for combo in itertools.product(*(itertools.permutations(classes[k]) for k in keys)):
        sigma = [0] * structure.count
        for k, perm in zip(keys, combo):
            for src, dst in zip(classes[k], perm):
                sigma[src] = dst
        yield tuple(sigma)


def random_block_orthogonal(structure: BlockStructure, rng: int | np.random.Generator) -> np.ndarray:
    """Block-orthogonal matrix: one Haar orthogonal block per row and column.

    The block permutation is uniform among size-compatible ones (equal-size
    blocks permuted independently), so every admissible shape occurs.
    """
    g = as_generator(rng)
    classes: dict[int, list[int]] = defaultdict(list)
    for i, k in enumerate(structure.sizes):
        classes[k].append(i)
    sigma = [0] * structure.count
    for k in sorted(classes):
        members = classes[k]
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
    m = structure.count
    smin = np.zeros((m, m))
    smax_all = 0.0
    svals: dict[tuple[int, int], np.ndarray] = {}
    for i in range(m):
        for j in range(m):
            s = np.linalg.svd(structure.block(q, i, j), compute_uv=False)
            svals[i, j] = s
            smin[i, j] = s[-1]
            smax_all = max(smax_all, s[0])
    if tol_rank is None:
        tol_rank = RANK_TOL_RATIO * smax_all
    labels = []
    for i in range(m):
        row = []
        for j in range(m):
            blk = structure.block(q, i, j)
            if np.abs(blk).max() <= tol_zero:
                row.append(BlockLabel.ZERO)
            elif smin[i, j] >= tol_rank:
                row.append(BlockLabel.FULL_RANK)
            else:
                row.append(BlockLabel.SINGULAR_NONZERO)
        labels.append(tuple(row))
    return BlockClassification(structure, tuple(labels), smin, tol_zero, tol_rank)


def is_signed_permutation(q: np.ndarray, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """Exactly one entry of magnitude 1 per row and column, zeros elsewhere."""
    q = _check_square(q)
    if orthogonality_defect(q) > tol:
        return False
    nz = np.abs(q) > tol
    if not (nz.sum(axis=0) == 1).all() or not (nz.sum(axis=1) == 1).all():
        return False
    return bool((np.abs(np.abs(q[nz]) - 1.0) <= tol).all())


def _block_support(q: np.ndarray, structure: BlockStructure, tol: float) -> np.ndarray | None:
    """0/1 block-occupancy matrix, or None when some row/column has != 1 block."""
    m = structure.count
    occ = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            occ[i, j] = np.abs(structure.block(q, i, j)).max() > tol
    if not (occ.sum(axis=0) == 1).all() or not (occ.sum(axis=1) == 1).all():
        return None
    return occ


def is_block_orthogonal(q: np.ndarray, structure: BlockStructure, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """One nonzero (orthogonal) block per block row and column.

    Entries below tol count as zero; the matrix must also be globally
    orthogonal within tol, which makes each selected block orthogonal.
    """
    q = _check_square(q, structure.dim)
    if orthogonality_defect(q) > tol:
        return False
    occ = _block_support(q, structure, tol)
    if occ is None:
        return False
    for i, j in zip(*np.nonzero(occ)):
        if structure.sizes[i] != structure.sizes[j]:
            return False
    return True


def is_block_signed_permutation(q: np.ndarray, structure: BlockStructure, tol: float = DEFAULT_TOL_ZERO) -> bool:
    """Block-orthogonal with every nonzero block a signed permutation."""
    q = _check_square(q, structure.dim)
    if not is_block_orthogonal(q, structure, tol):
        return False
    occ = _block_support(q, structure, tol)
    for i, j in zip(*np.nonzero(occ)):
        if not is_signed_permutation(structure.block(q, i, j), tol):
            return False
    return True


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
    m = structure.count
    mass = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            mass[i, j] = float(np.sum(structure.block(w, i, j) ** 2))
    best_assign: tuple[int, ...] | None = None
    best_mass = -np.inf
    for sigma in compatible_block_permutations(structure):
        captured = sum(mass[i, sigma[i]] for i in range(m))
        if captured > best_mass:
            best_mass = captured
            best_assign = sigma
    assert best_assign is not None
    off_mass = float(mass.sum() - best_mass)
    defect_sq = 0.0
    for i in range(m):
        blk = structure.block(w, i, best_assign[i])
        defect_sq += float(np.sum((blk.T @ blk - np.eye(blk.shape[1])) ** 2))
    residual = math.sqrt(max(off_mass, 0.0) + defect_sq) / math.sqrt(structure.dim)
    return residual, best_assign


def nearest_signed_permutation(q: np.ndarray) -> tuple[np.ndarray, float]:
    """Nearest signed permutation by assignment on |entries|.

    Returns (signed permutation, max-abs deviation of q from it).
    """
    from scipy.optimize import linear_sum_assignment

    q = _check_square(q)
    d = q.shape[0]
    rows, cols = linear_sum_assignment(-np.abs(q))
    p = np.zeros((d, d))
    for i, j in zip(rows, cols):
        p[i, j] = 1.0 if q[i, j] >= 0 else -1.0
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


def graph_automorphism_check(p: np.ndarray, graph: IndependenceGraph, tol: float = 0.0) -> bool:
    """True iff the permutation preserves the adjacency matrix: P^T A P = A."""
    p = _check_permutation_matrix(p)
    a = graph.adjacency()
    if p.shape[0] != graph.dim:
        raise ValueError(f"permutation dim {p.shape[0]} != graph dim {graph.dim}")
    return bool(np.abs(p.T @ a @ p - a).max() <= tol)


@dataclass
class ProbeReport:
    """Outcome of the pattern-preservation vs graph-automorphism probe."""

    dim: int
    order: int
    trials: int
    exhaustive: bool
    matrices_checked: int
    automorphism_count: int
    agreements: int
    disagreements: list[dict] = field(default_factory=list)
    per_matrix: list[dict] = field(default_factory=list)

    @property
    def conjecture_holds(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "order": self.order,
            "trials": self.trials,
            "exhaustive": self.exhaustive,
            "matrices_checked": self.matrices_checked,
            "automorphism_count": self.automorphism_count,
            "agreements": self.agreements,
            "disagreements": self.disagreements,
            "per_matrix": self.per_matrix,
            "conjecture_holds": self.conjecture_holds,
        }


def conjecture_probe(
    graph: IndependenceGraph,
    order: int,
    trials: int,
    rng: int | np.random.Generator = 0,
    membership_tol: float = 1e-8,
    samples: int = 500,
) -> ProbeReport:
    """Probe: signed permutation preserves the graph pattern iff automorphism.

    Enumerates signed permutations exhaustively for dim <= 4 and samples
    them otherwise; for each, tests pattern preservation on ``trials``
    generic pattern members against the automorphism predicate on the
    unsigned permutation.  Any mismatch is a counterexample candidate.
    """
    d = graph.dim
    if d > 6 or order > 4:
        raise ValueError("probe supports dim <= 6 and order <= 4")
    g = as_generator(rng)
    pattern = pattern_from_graph(graph, order)
    tensors = [generic_sample(pattern, rng=g) for _ in range(trials)]

    exhaustive = d <= 4
    if exhaustive:
        matrices = list(signed_permutations(d))
    else:
        matrices = [random_signed_permutation(d, g) for _ in range(samples)]

    agreements = 0
    disagreements: list[dict] = []
    per_matrix: list[dict] = []
    automorphism_count = 0
    for qi, q in enumerate(matrices):
        auto = graph_automorphism_check(np.abs(q), graph, tol=0.0)
        automorphism_count += auto
        verdicts = []
        for ti, t in enumerate(tensors):
            res = is_member(multilinear_transform(q, t), pattern, membership_tol)
            verdicts.append(bool(res.member))
            if res.member == auto:
                agreements += 1
            else:
                disagreements.append(
                    {
                        "matrix_index": qi,
                        "matrix": q.tolist(),
                        "trial": ti,
                        "is_automorphism": auto,
                        "preserves_pattern": res.member,
                        "max_violation": res.max_violation,
                    }
                )
        per_matrix.append(
            {"matrix_index": qi, "is_automorphism": bool(auto), "preserves_pattern": verdicts}
        )
    return ProbeReport(
        dim=d,
        order=order,
        trials=trials,
        exhaustive=exhaustive,
        matrices_checked=len(matrices),
        automorphism_count=automorphism_count,
        agreements=agreements,
        disagreements=disagreements,
        per_matrix=per_matrix,
    )


def matrix_to_json(q: np.ndarray) -> dict:
    q = _check_square(q)
    return {"dim": q.shape[0], "rows": [list(map(float, row)) for row in q]}


def matrix_from_json(obj: dict) -> np.ndarray:
    q = np.array(obj["rows"], dtype=float)
    return _check_square(q, int(obj["dim"]))


def save_matrix(q: np.ndarray, path) -> None:
    _json.dump(matrix_to_json(q), path)


def load_matrix(path) -> np.ndarray:
    return _json.load(path, matrix_from_json)

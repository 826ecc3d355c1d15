"""Unmixing-matrix estimation by off-pattern cumulant minimization.

The pipeline follows the classical reduction: center and whiten the data,
then search the orthogonal group for the rotation making the order-r
sample cumulant fit the zero pattern of the assumed independence
structure.  The search is cyclic Givens coordinate descent: along one
plane the objective is a trigonometric polynomial of known degree, fixed
by a few samples, and with x = tan(angle), the substitution of Comon's
pairwise sweeps (1994), its critical points are the real roots of a real
polynomial, so each plane angle is minimized exactly over a full period;
a rotation is only accepted when it lowers the objective, so sweeps are
monotone.  The sweeps converge only linearly where the minimum is a whole
orbit of the stabilizer, so each restart ends with Newton steps on the
quotient by it (Absil, Mahony & Sepulchre 2008), each kept only if it
lowers the objective; a restart stops when a sweep no longer lowers it.
Restarts guard against local minima.  Restart 0 starts from the ICA
solution, the descent on the diagonal pattern from the identity: on a
diagonal target it is that descent, and on any other its result has its
rows reordered into the target's blocks by their exact target energy,
over all d! orders up to d = 8 at r = 4.  The rest start at Haar draws.
All the restarts on the target descend in one call, in lockstep, as
stacks of cubes of at most MAX_DENSE_ENTRIES entries, so each plane costs
one search per stack; each restart's result is bit for bit that of its
own descent.

Failure is a report, not an exception: some configurations are provably
not identifiable, and the coset residual of the verification step is the
detector for them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import _json
from ._rng import _seed, substream
from ._planes import _apply_plane, _minimize_plane, _newton_rotation, _quotient_planes, _rotated, _tangent_kernel
from .estimation import _as_matrix, _cumulant, _whitening
from .groups import (
    BlockStructure,
    coset_residual,
    is_signed_permutation,
    nearest_signed_permutation,
    random_orthogonal,
)
from .partitions import MAX_CONVERSION_ENTRIES, _check_conversion_budget
from .patterns import ZeroPattern, _check_tensor_shape, diagonal_pattern
from .tensor import (
    MAX_DENSE_ENTRIES,
    SymmetricTensor,
    _dense_rank_array,
    _permuted_ranks,
    _transform_modewise,
    canonical_indices,
)

__all__ = [
    "DescentError",
    "RecoveryOptions",
    "RecoveryReport",
    "IdentifiabilityReport",
    "off_pattern_energy",
    "minimize_off_pattern",
    "estimate_unmixing",
    "verify_identifiability",
    "comon_pipeline",
    "report_to_json",
    "report_from_json",
    "save_report",
    "load_report",
]

# A restart stops once a sweep lowers the objective by less than this, and leaves Newton steps for a sweep
# once one lowers it by less.
_SWEEP_TOL = 1e-14

# Restart 0's start takes a row reordering only if it lowers the energy by more than this, relative.
_SWAP_RTOL = 1e-9

# Sample-scale tolerance for comon_pipeline's signed-permutation verdict.
_SIGNED_PERMUTATION_TOL = 0.05


class DescentError(RuntimeError):
    """A Givens sweep raised the objective it is built never to raise; the message names the restart."""


@dataclass(frozen=True)
class RecoveryOptions:
    """Knobs for the orthogonal search.

    order 4 is the default because symmetric sources have vanishing third
    cumulants; order 3 remains available for skewed sources.
    """

    order: int = 4
    # iterations per descent: sweeps and Newton steps
    max_sweeps: ClassVar[int] = 60
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"cumulant order must be >= 3, got {self.order}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        _seed(self.seed)


def off_pattern_energy(tensor: SymmetricTensor, pattern: ZeroPattern) -> float:
    """Squared norm of the tensor restricted to the zero-constrained set.

    Summed over the full d^r array, so each canonical entry counts once
    per distinct permutation of its index; zero exactly on pattern members.
    """
    _check_tensor_shape(tensor, pattern)
    return _dense_energy(tensor.to_dense(), pattern.dense_zero_mask())


def _dense_energy(dense: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sum(dense[mask] ** 2))


def _descend(
    dense0: np.ndarray, mask: np.ndarray, starts: list[tuple[int, np.ndarray]]
) -> list[tuple[np.ndarray, float, int]]:
    """Cyclic Givens descent from each (restart, rotation) start, finished by Newton steps, in lockstep on stacks.

    After each sweep that lowers a restart's energy by at least _SWEEP_TOL
    come Newton steps (``_newton_rotation``) on the planes of
    ``_quotient_planes``, the quotient by the stabilizer, each kept only if
    it lowers the energy.  An indefinite Hessian, a refused step or one that
    lowers the energy by less than _SWEEP_TOL hands the restart back to a
    sweep, so it stops only when a sweep lowers it by less than _SWEEP_TOL,
    or after max_sweeps iterations (sweeps and Newton steps).  Newton steps
    are taken where a restart's tangent map has at most MAX_DENSE_ENTRIES
    entries.  The starts descend in order, as many at once as
    MAX_DENSE_ENTRIES holds cubes or tangent maps, at least one.  Each
    restart keeps its own count, monotone check and stop, and leaves its
    stack when it stops.  Every stacked operation gives a cube the
    arithmetic it gets alone, so each result is that of its own descent.
    """
    d, r = dense0.shape[0], dense0.ndim
    planes = _quotient_planes(mask)
    tangent = len(planes) * math.comb(d + r - 1, r)
    finish = 0 < tangent <= MAX_DENSE_ENTRIES
    per = max(1, MAX_DENSE_ENTRIES // max(dense0.size, finish * tangent))
    if len(starts) > per:
        stacks = [starts[first : first + per] for first in range(0, len(starts), per)]
        return [result for stack in stacks for result in _descend(dense0, mask, stack)]
    if finish:
        kernel = _tangent_kernel(d, r, planes)
        zero = mask.reshape(-1)[kernel[0]].astype(float)
    q = np.array([q0 for _, q0 in starts], dtype=float)
    stack = np.empty((len(q),) + dense0.shape)
    for cube, q0 in zip(stack, q):
        cube[...] = _transform_modewise(q0, dense0, dense0.ndim)
    previous = [_dense_energy(cube, mask) for cube in stack]
    results = [(q0, energy, 0) for q0, energy in zip(q, previous)]
    steps, limit = [0] * len(q), RecoveryOptions.max_sweeps
    live = np.arange(len(q))
    while len(live):
        for i in range(d - 1):
            for j in range(i + 1, d):
                theta = _minimize_plane(stack, mask, i, j)
                if theta.any():
                    # a still cube turns by c = 1, s = 0, which is exact; its rotation is not touched
                    c, s = np.cos(theta), np.sin(theta)
                    _apply_plane(stack, i, j, c, s)
                    m = theta != 0.0
                    c, s, qi, qj = c[m, None], s[m, None], q[m, i], q[m, j]
                    q[m, i], q[m, j] = c * qi - s * qj, s * qi + c * qj
        keep = []
        for b, k in enumerate(live):
            energy, was = _dense_energy(stack[b], mask), previous[k]
            if energy > was + 1e-12 * (1.0 + was):
                raise DescentError(f"restart {starts[k][0]}: objective increased within a sweep: {was} -> {energy}")
            steps[k] += 1
            results[k] = (q[b], energy, steps[k])
            if was - energy >= _SWEEP_TOL and steps[k] < limit:
                previous[k] = energy
                keep.append(b)
        newton = keep
        while finish and newton:
            going = []
            for b in newton:
                rot = _newton_rotation(stack[b], zero, kernel)
                if rot is None:
                    continue
                k, cube = live[b], _rotated(rot, stack[b])
                energy, was = _dense_energy(cube, mask), previous[k]
                if energy < was:
                    stack[b], q[b], steps[k], previous[k] = cube, rot @ q[b], steps[k] + 1, energy
                    results[k] = (q[b], energy, steps[k])
                    if was - energy >= _SWEEP_TOL and steps[k] < limit:
                        going.append(b)
            newton = going
        keep = [b for b in keep if steps[live[b]] < limit]
        if len(keep) < len(live):
            live, stack, q = live[keep], stack[keep], q[keep]
    return results


def _regroup(dense: np.ndarray, mask: np.ndarray) -> list[int]:
    """Row order of the rotation behind ``dense`` that groups its coordinates into the mask's blocks.

    A candidate order is scored exactly on the unique entries of ``dense``,
    gathered at the ranks it permutes them to and weighted by their
    zero-constrained cube positions, so rounding cannot cycle a near-member
    between orders.  Each pass scores its candidates, gathered in stacks of
    at most MAX_DENSE_ENTRIES entries, and takes the first within _SWAP_RTOL
    of the energy of their lowest score, if it lowers the energy by more
    than _SWAP_RTOL of it.  Where the d! orders gather at most
    MAX_CONVERSION_ENTRIES entries in all (d <= 8 at r = 4), they are the
    candidates of the one pass; beyond that, the C(d, 2) transpositions of
    the current order are, so each pass takes the best one, until a pass
    takes none.  Transpositions alone can stall: a 2-block holding two
    coordinates of a 3-block needs two at once.
    """
    d, r = dense.shape[0], dense.ndim
    idx = canonical_indices(d, r) - 1
    values = SymmetricTensor.from_dense(dense).values
    weights = np.bincount(_dense_rank_array(d, r), weights=mask.ravel(), minlength=len(idx))
    exhaustive = math.factorial(d) * len(idx) <= MAX_CONVERSION_ENTRIES
    if exhaustive:
        moves = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(d))), dtype=np.int8)
        moves = moves.reshape(-1, d)
    else:
        # row k swaps the k-th pair of positions
        rows, (i, j) = np.arange(math.comb(d, 2)), np.array(list(itertools.combinations(range(d), 2))).T
        moves = np.tile(np.arange(d), (len(rows), 1))
        moves[rows, i], moves[rows, j] = j, i
    order, energy = np.arange(d), np.square(values) @ weights
    per = max(1, MAX_DENSE_ENTRIES // len(idx))
    while True:
        candidates = order[moves]
        scores = np.concatenate([
            np.square(values[_permuted_ranks(candidates[first : first + per], idx)]) @ weights
            for first in range(0, len(candidates), per)
        ])
        best = np.argmax(scores <= scores.min() + _SWAP_RTOL * energy)
        if energy - scores[best] <= _SWAP_RTOL * energy:
            return order.tolist()
        order, energy = candidates[best], scores[best]
        if exhaustive:
            return order.tolist()


def _run_restarts(
    dense0: np.ndarray, mask: np.ndarray, opts: RecoveryOptions
) -> list[tuple[np.ndarray, float, int]]:
    """Seeded restarts of the descent, all in one ``_descend`` call on the target.

    Restart 0 starts from the ICA solution: the descent on the diagonal
    pattern from the identity.  On a diagonal target that descent is
    restart 0 itself, from the identity; otherwise it runs first, and its
    rows are reordered by ``_regroup`` to group its coordinates into the
    target's blocks (the separation principle of independent subspace
    analysis, Cardoso 1998), and restart 0's count sums both descents'
    iterations, sweeps and Newton steps; a reordering needs no signs, as the
    energy does not see them.  Up to d = 8 at r = 4 the reordering is the
    best of all d! orders.  Restart k >= 1 starts at a Haar draw from its own
    substream of ``opts.seed``, a fallback where that principle fails.
    """
    d, r = dense0.shape[0], dense0.ndim
    ica_mask = diagonal_pattern(d, r).dense_zero_mask()
    start, ica_sweeps = np.eye(d), 0
    if not np.array_equal(mask, ica_mask):
        [(q_ica, _, ica_sweeps)] = _descend(dense0, ica_mask, [(0, start)])
        start = q_ica[_regroup(_transform_modewise(q_ica, dense0, r), mask)]
    haar = [(k, random_orthogonal(d, substream(opts.seed, "restart", k))) for k in range(1, opts.restarts)]
    [(q, energy, sweeps), *results] = _descend(dense0, mask, [(0, start)] + haar)
    return [(q, energy, ica_sweeps + sweeps), *results]


def minimize_off_pattern(
    tensor: SymmetricTensor,
    pattern: ZeroPattern,
    opts: RecoveryOptions | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Minimize energy(Q . T) over the orthogonal group, one result per restart.

    Used directly for stabilizer probes on population tensors.
    """
    opts = opts or RecoveryOptions()
    _check_tensor_shape(tensor, pattern)
    results = _run_restarts(tensor.to_dense(), pattern.dense_zero_mask(), opts)
    return [(q, energy) for q, energy, _ in results]


@dataclass
class RecoveryReport:
    """Everything the orthogonal search produced.

    unmixing = rotation @ whitening; applying it to centered observations
    reproduces the sources up to the residual group ambiguity.
    """

    unmixing: np.ndarray
    whitening: np.ndarray
    rotation: np.ndarray
    mean: np.ndarray
    objective: float
    objective_per_restart: list[float]
    best_restart: int
    sweeps_per_restart: list[int]
    order: int
    pattern_kind: str
    extras: dict = field(default_factory=dict)


def estimate_unmixing(y: np.ndarray, pattern: ZeroPattern, opts: RecoveryOptions | None = None) -> RecoveryReport:
    """Center, whiten, and rotate to minimize off-pattern cumulant energy.

    The cumulant is ``sample_cumulant(whiten(y).whitened, order)``, bit for
    bit below 32 columns, but each block of rows is whitened as the moment
    pass reaches it, so no centred or whitened copy of y is built.  The
    column count, the cube budget and the conversion budget are checked
    before any pass over the data.  The rotation search assumes
    uncorrelated sources: whitening maps the sources' covariance to the
    identity only when it already is one, as for partitioned sources but
    not, in general, for graph ones.  The best restart objective wins, ties
    broken by lowest restart index.
    """
    opts = opts or RecoveryOptions()
    if pattern.order != opts.order:
        raise ValueError(f"pattern order {pattern.order} != requested cumulant order {opts.order}")
    x = _as_matrix(y)
    if x.shape[1] != pattern.dim:
        raise ValueError(f"pattern dim {pattern.dim} != data column count {x.shape[1]}")
    mask = pattern.dense_zero_mask()
    _check_conversion_budget(pattern.dim, opts.order)
    mean, transform = _whitening(x)
    kappa = _cumulant(x, opts.order, (mean, transform))
    results = _run_restarts(kappa.to_dense(), mask, opts)
    objectives = [energy for _, energy, _ in results]
    best = int(np.argmin(objectives))
    q_best = results[best][0]
    return RecoveryReport(
        unmixing=q_best @ transform,
        whitening=transform,
        rotation=q_best,
        mean=mean,
        objective=objectives[best],
        objective_per_restart=objectives,
        best_restart=best,
        sweeps_per_restart=[sweeps for _, _, sweeps in results],
        order=opts.order,
        pattern_kind=pattern.kind,
    )


@dataclass
class IdentifiabilityReport:
    """Distance of W A_true from the predicted ambiguity group."""

    residual: float
    assignment: tuple[int, ...]
    product: np.ndarray
    block_orthogonal_distance: list[float]


def _check_truth(a_true: np.ndarray, d: int) -> np.ndarray:
    """The ground-truth mixing matrix as floats, refused unless it is a finite, non-singular d x d matrix."""
    a_true = np.asarray(a_true, dtype=float)
    if a_true.shape != (d, d):
        raise ValueError(f"ground-truth mixing matrix shape {a_true.shape} != ({d}, {d})")
    if not np.isfinite(a_true).all():
        raise ValueError("ground-truth mixing matrix contains non-finite values")
    # the rank is scale-free
    if np.linalg.matrix_rank(a_true) < d:
        raise ValueError("ground-truth mixing matrix is singular")
    return a_true


def verify_identifiability(w: np.ndarray, a_true: np.ndarray, structure: BlockStructure) -> IdentifiabilityReport:
    """Coset residual of W A_true against the block-orthogonal group.

    Also reports, per assigned block, the Frobenius distance to its
    nearest orthogonal matrix (via the polar factor).
    """
    w = np.asarray(w, dtype=float)
    a_true = np.asarray(a_true, dtype=float)
    if w.shape != a_true.shape:
        raise ValueError(f"unmixing matrix shape {w.shape} != ground-truth mixing matrix shape {a_true.shape}")
    if not np.isfinite(w).all():
        raise ValueError("unmixing matrix contains non-finite values")
    _check_truth(a_true, len(w))
    # a product that overflows is refused by coset_residual
    with np.errstate(over="ignore", invalid="ignore"):
        product = w @ a_true
    residual, assignment = coset_residual(product, structure)
    distances = []
    for i, j in enumerate(assignment):
        blk = structure.block(product, i, j)
        u, _, vt = np.linalg.svd(blk)
        distances.append(float(np.linalg.norm(blk - u @ vt)))
    return IdentifiabilityReport(
        residual=residual,
        assignment=assignment,
        product=product,
        block_orthogonal_distance=distances,
    )


def comon_pipeline(
    y: np.ndarray,
    opts: RecoveryOptions | None = None,
    a_true: np.ndarray | None = None,
) -> RecoveryReport:
    """Classical recovery: off-diagonal cumulant minimization.

    With ground truth supplied, the report records whether W A_true is a
    signed permutation within _SIGNED_PERMUTATION_TOL, plus the max-abs
    deviation after sign and permutation alignment.
    """
    opts = opts or RecoveryOptions()
    y = np.asarray(y, dtype=float)
    pattern = diagonal_pattern(y.shape[1], opts.order)
    singles = None if a_true is None else BlockStructure((1,) * y.shape[1])
    a_true = None if a_true is None else _check_truth(a_true, y.shape[1])
    report = estimate_unmixing(y, pattern, opts)
    if a_true is not None:
        # a product that overflows is refused by nearest_signed_permutation
        with np.errstate(over="ignore", invalid="ignore"):
            product = report.unmixing @ a_true
        _, deviation = nearest_signed_permutation(product)
        report.extras["signed_permutation_deviation"] = deviation
        report.extras["is_signed_permutation"] = bool(
            deviation <= _SIGNED_PERMUTATION_TOL and is_signed_permutation(product, tol=_SIGNED_PERMUTATION_TOL)
        )
        report.extras["coset_residual"] = coset_residual(product, singles)[0]
    return report


def report_to_json(report: RecoveryReport) -> dict:
    """Every field in declaration order; arrays become nested lists of floats."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in asdict(report).items()}


def report_from_json(obj: dict) -> RecoveryReport:
    return RecoveryReport(
        unmixing=_json.array(obj["unmixing"]),
        whitening=_json.array(obj["whitening"]),
        rotation=_json.array(obj["rotation"]),
        mean=_json.array(obj["mean"]),
        objective=_json.number(obj["objective"]),
        objective_per_restart=[_json.number(v) for v in obj["objective_per_restart"]],
        best_restart=_json.integer(obj["best_restart"]),
        sweeps_per_restart=[_json.integer(v) for v in obj["sweeps_per_restart"]],
        order=_json.integer(obj["order"]),
        pattern_kind=obj["pattern_kind"],
        extras=dict(obj.get("extras", {})),
    )


def save_report(report: RecoveryReport, path) -> None:
    _json.dump(report_to_json(report), path)


def load_report(path) -> RecoveryReport:
    return _json.load(path, report_from_json)

"""Unmixing-matrix estimation by off-pattern cumulant minimization.

The pipeline follows the classical reduction: center and whiten the data,
then search the orthogonal group for the rotation making the order-r
sample cumulant fit the zero pattern of the assumed independence
structure.  The search is cyclic Givens coordinate descent: each plane
angle is minimized by golden section over [-pi/4, pi/4) with a local
quadratic refinement, and a rotation is only accepted when it does not
increase the objective, so sweeps are monotone.  Restarts guard against
local minima; restart 0 starts at the identity, the rest at Haar draws.

Failure is a report, not an exception: some configurations are provably
not identifiable, and the coset residual of the verification step is the
detector for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _json
from ._rng import substream
from .estimation import sample_cumulant, whiten
from .groups import (
    BlockStructure,
    classify_blocks,
    coset_residual,
    is_signed_permutation,
    nearest_signed_permutation,
    random_orthogonal,
)
from .patterns import ZeroPattern, diagonal_pattern
from .tensor import SymmetricTensor, _transform_modewise

__all__ = [
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

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# A restart stops once a sweep lowers the objective by less than this.
_SWEEP_TOL = 1e-14
# Width at which the golden-section search on one plane angle stops.
_ANGLE_RESOLUTION = 1e-9


@dataclass(frozen=True)
class RecoveryOptions:
    """Knobs for the orthogonal search.

    order 4 is the default because symmetric sources have vanishing third
    cumulants; order 3 remains available for skewed sources.
    """

    order: int = 4
    max_sweeps: int = 60
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"cumulant order must be >= 3, got {self.order}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


def off_pattern_energy(tensor: SymmetricTensor, pattern: ZeroPattern) -> float:
    """Squared norm of the tensor restricted to the zero-constrained set.

    Summed over the full d^r array, so each canonical entry counts once
    per distinct permutation of its index; zero exactly on pattern members.
    """
    if (tensor.order, tensor.dim) != (pattern.order, pattern.dim):
        raise ValueError(
            f"tensor (order={tensor.order}, dim={tensor.dim}) does not match "
            f"pattern (order={pattern.order}, dim={pattern.dim})"
        )
    return _dense_energy(tensor.to_dense(), pattern.dense_zero_mask())


def _dense_energy(dense: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sum(dense[mask] ** 2))


def _apply_plane(dense: np.ndarray, i: int, j: int, c: float, s: float) -> np.ndarray:
    """Rotate coordinates (i, j) in every mode of the dense tensor."""
    out = dense.copy()
    order = dense.ndim
    for axis in range(order):
        ti = np.take(out, i, axis=axis)
        tj = np.take(out, j, axis=axis)
        sel_i = [slice(None)] * order
        sel_j = [slice(None)] * order
        sel_i[axis] = i
        sel_j[axis] = j
        out[tuple(sel_i)] = c * ti - s * tj
        out[tuple(sel_j)] = s * ti + c * tj
    return out


def _golden_section(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    h = hi - lo
    x1 = lo + (1.0 - _INVPHI) * h
    x2 = lo + _INVPHI * h
    f1, f2 = f(x1), f(x2)
    while h > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            h = hi - lo
            x1 = lo + (1.0 - _INVPHI) * h
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            h = hi - lo
            x2 = lo + _INVPHI * h
            f2 = f(x2)
    return (x1, f1) if f1 < f2 else (x2, f2)


# Grid points bracketing the plane search: the slice objective is a
# trigonometric polynomial with harmonics up to 2r, so golden section alone
# can lock onto a secondary valley; an odd count keeps angle 0 on the grid.
_PLANE_GRID = 17


def _minimize_plane(dense: np.ndarray, mask: np.ndarray, i: int, j: int) -> tuple[float, float]:
    """Best rotation angle for one plane; never worse than angle 0."""

    def objective(theta: float) -> float:
        return _dense_energy(_apply_plane(dense, i, j, math.cos(theta), math.sin(theta)), mask)

    grid = np.linspace(-math.pi / 4, math.pi / 4, _PLANE_GRID)
    grid_vals = [objective(t) for t in grid]
    best = int(np.argmin(grid_vals))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, _PLANE_GRID - 1)]
    theta, value = _golden_section(objective, lo, hi, _ANGLE_RESOLUTION)
    # quadratic refinement around the golden-section minimizer
    h = max(_ANGLE_RESOLUTION, 1e-7)
    f0, fp, fm = objective(theta), objective(theta + h), objective(theta - h)
    denom = fp - 2.0 * f0 + fm
    if denom > 0.0:
        candidate = theta - h * (fp - fm) / (2.0 * denom)
        if abs(candidate) <= math.pi / 4:
            fc = objective(candidate)
            if fc < f0:
                theta, value = candidate, fc
    current = _dense_energy(dense, mask)
    if value < current:
        return theta, value
    return 0.0, current


def _descend(
    dense0: np.ndarray,
    mask: np.ndarray,
    q0: np.ndarray,
    opts: RecoveryOptions,
) -> tuple[np.ndarray, float, int]:
    """Cyclic Givens descent from one starting rotation."""
    d = dense0.shape[0]
    q = q0.copy()
    dense = _transform_modewise(q, dense0)
    previous = _dense_energy(dense, mask)
    sweeps = 0
    for _ in range(opts.max_sweeps):
        sweeps += 1
        for i in range(d - 1):
            for j in range(i + 1, d):
                theta, value = _minimize_plane(dense, mask, i, j)
                if theta != 0.0:
                    c, s = math.cos(theta), math.sin(theta)
                    dense = _apply_plane(dense, i, j, c, s)
                    g = np.eye(d)
                    g[i, i] = g[j, j] = c
                    g[i, j] = -s
                    g[j, i] = s
                    q = g @ q
        energy = _dense_energy(dense, mask)
        if energy > previous + 1e-12 * (1.0 + previous):
            raise RuntimeError(f"objective increased within a sweep: {previous} -> {energy}")
        if previous - energy < _SWEEP_TOL:
            break
        previous = energy
    return q, _dense_energy(dense, mask), sweeps


def _run_restarts(
    dense0: np.ndarray, mask: np.ndarray, opts: RecoveryOptions
) -> list[tuple[np.ndarray, float, int]]:
    """Seeded restarts of the descent, run one after another.

    Restart 0 starts at the identity, restart k at a Haar draw from its
    own substream of ``opts.seed``.
    """
    d = dense0.shape[0]
    starts = [np.eye(d)] + [
        random_orthogonal(d, substream(opts.seed, "restart", restart))
        for restart in range(1, opts.restarts)
    ]
    return [_descend(dense0, mask, q0, opts) for q0 in starts]


def minimize_off_pattern(
    tensor: SymmetricTensor,
    pattern: ZeroPattern,
    opts: RecoveryOptions | None = None,
) -> list[tuple[np.ndarray, float]]:
    """Minimize energy(Q . T) over the orthogonal group, one result per restart.

    Used directly for stabilizer probes on population tensors.
    """
    opts = opts or RecoveryOptions()
    if (tensor.order, tensor.dim) != (pattern.order, pattern.dim):
        raise ValueError("tensor and pattern must share order and dim")
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

    The best restart objective wins, ties broken by lowest restart index.
    """
    opts = opts or RecoveryOptions()
    if pattern.order != opts.order:
        raise ValueError(f"pattern order {pattern.order} != requested cumulant order {opts.order}")
    white = whiten(y)
    kappa = sample_cumulant(white.whitened, opts.order)
    results = _run_restarts(kappa.to_dense(), pattern.dense_zero_mask(), opts)
    objectives = [energy for _, energy, _ in results]
    best = int(np.argmin(objectives))
    q_best = results[best][0]
    return RecoveryReport(
        unmixing=q_best @ white.transform,
        whitening=white.transform,
        rotation=q_best,
        mean=white.mean,
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

    def to_json(self) -> dict:
        return {
            "residual": self.residual,
            "assignment": list(self.assignment),
            "product": [list(map(float, row)) for row in self.product],
            "block_orthogonal_distance": self.block_orthogonal_distance,
        }


def verify_identifiability(w: np.ndarray, a_true: np.ndarray, structure: BlockStructure) -> IdentifiabilityReport:
    """Coset residual of W A_true against the block-orthogonal group.

    Also reports, per assigned block, the Frobenius distance to its
    nearest orthogonal matrix (via the polar factor).
    """
    a_true = np.asarray(a_true, dtype=float)
    if abs(np.linalg.det(a_true)) < 1e-12:
        raise ValueError("ground-truth mixing matrix is singular")
    product = np.asarray(w, dtype=float) @ a_true
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
    sp_tol: float = 0.05,
) -> RecoveryReport:
    """Classical recovery: off-diagonal cumulant minimization.

    With ground truth supplied, the report records whether W A_true is a
    signed permutation within sp_tol, plus the max-abs deviation after
    sign and permutation alignment.
    """
    opts = opts or RecoveryOptions()
    y = np.asarray(y, dtype=float)
    pattern = diagonal_pattern(y.shape[1], opts.order)
    report = estimate_unmixing(y, pattern, opts)
    if a_true is not None:
        product = report.unmixing @ np.asarray(a_true, dtype=float)
        _, deviation = nearest_signed_permutation(product)
        report.extras["signed_permutation_deviation"] = deviation
        report.extras["is_signed_permutation"] = bool(
            deviation <= sp_tol and is_signed_permutation(product, tol=sp_tol)
        )
        singles = BlockStructure((1,) * y.shape[1])
        report.extras["coset_residual"] = coset_residual(product, singles)[0]
    return report


def recovered_block_classification(
    report: RecoveryReport,
    a_true: np.ndarray,
    structure: BlockStructure,
    tol_zero: float = 0.05,
    tol_rank: float | None = None,
):
    """Classify the blocks of W A_true; one full-rank block per row and
    column signals a clean recovery.

    The default zero threshold is sample-scale: finite-sample noise leaves
    entries of order n^(-1/2) in the blocks that are zero in population.
    """
    product = report.unmixing @ np.asarray(a_true, dtype=float)
    return classify_blocks(product, structure, tol_zero=tol_zero, tol_rank=tol_rank)


def report_to_json(report: RecoveryReport) -> dict:
    return {
        "unmixing": [list(map(float, row)) for row in report.unmixing],
        "whitening": [list(map(float, row)) for row in report.whitening],
        "rotation": [list(map(float, row)) for row in report.rotation],
        "mean": list(map(float, report.mean)),
        "objective": report.objective,
        "objective_per_restart": report.objective_per_restart,
        "best_restart": report.best_restart,
        "sweeps_per_restart": report.sweeps_per_restart,
        "order": report.order,
        "pattern_kind": report.pattern_kind,
        "extras": report.extras,
    }


def report_from_json(obj: dict) -> RecoveryReport:
    return RecoveryReport(
        unmixing=np.array(obj["unmixing"], dtype=float),
        whitening=np.array(obj["whitening"], dtype=float),
        rotation=np.array(obj["rotation"], dtype=float),
        mean=np.array(obj["mean"], dtype=float),
        objective=float(obj["objective"]),
        objective_per_restart=[float(v) for v in obj["objective_per_restart"]],
        best_restart=int(obj["best_restart"]),
        sweeps_per_restart=[int(v) for v in obj["sweeps_per_restart"]],
        order=int(obj["order"]),
        pattern_kind=obj["pattern_kind"],
        extras=dict(obj.get("extras", {})),
    )


def save_report(report: RecoveryReport, path) -> None:
    _json.dump(report_to_json(report), path)


def load_report(path) -> RecoveryReport:
    return _json.load(path, report_from_json)

"""The two moves of the Givens descent on a stack of cubes: the exact search along each plane, and Newton steps.

Plane search.  Rotating every mode of a cube by an angle t in plane
(i, j) makes its zero-set energy a trigonometric polynomial of degree r in
t, fixed by 2r + 1 samples; ``_minimize_plane`` finds its exact minimum
over a full period for every cube of a stack at once.

Newton steps.  The generator of plane (i, j), the derivative at 0 of its
rotation by t, sends a symmetric tensor V to D V with (D V)_u = n_j(u)
V_{u: j -> i} - n_i(u) V_{u: i -> j} on each unique entry u, where n_k(u)
counts the k in u and u: k -> l is u with one k replaced by l.  So D is a
gather and two scalings of the C(d+r-1, r) unique entries, with no d^r
cube, and it is skew-adjoint in the inner product that weights each unique
entry by its multiplicity, the cube's own.  ``_newton_rotation`` builds the
gradient and the exact Hessian of the energy from it, on the planes of
``_quotient_planes``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .estimation import _product_rows, _rows_times
from .tensor import MAX_DENSE_ENTRIES, _canonical_flat_positions, _colex_ranks, canonical_indices


def _apply_plane(stack: np.ndarray, i: int, j: int, c: np.ndarray, s: np.ndarray) -> None:
    """Rotate coordinates (i, j) in every mode of each cube of the stack, in place, by that cube's (c, s)."""
    order = stack.ndim
    c, s = (np.reshape(v, (-1,) + (1,) * (order - 2)) for v in (c, s))
    for axis in range(1, order):
        ti, tj = np.take(stack, i, axis=axis), np.take(stack, j, axis=axis)
        head = (slice(None),) * axis
        stack[head + (i,)] = c * ti - s * tj
        stack[head + (j,)] = s * ti + c * tj


def _plane_positions(d: int, r: int, i: int, j: int) -> list[np.ndarray]:
    """Read-only flat cube positions of each block of plane (i, j), m = 1..r, in C order.

    Block m holds the indices whose first m entries lie in {i, j} and the rest outside; empty at d = 2 for m < r.
    """
    pair, rest = [i, j], [k for k in range(d) if k != i and k != j]
    grids = [np.ix_(*[pair] * m, *[rest] * (r - m)) for m in range(1, r + 1)]
    blocks = [np.ravel_multi_index(grid, (d,) * r).ravel() for grid in grids]
    for block in blocks:
        block.flags.writeable = False
    return blocks


@lru_cache(maxsize=4)
def _plane_kernel(d: int, r: int) -> tuple:
    """The plane search's fixed data at (d, r), read-only: (powers, maps, freq, shift, planes).

    ``powers`` are the Kronecker powers G^{(x)m}, m = 1..r, of the plane
    rotation at the 2r+1 sample angles pi k / (2r+1), and ``planes`` maps
    each plane (i, j) to its ``_plane_positions``, or is None where together
    they exceed MAX_DENSE_ENTRIES positions.  With w_k the Fourier weights of
    f(t) = sum_{k=0..r} Re(w_k e^{2ikt}), from the ``rfft`` of the samples,
    ``samples @ maps[:, :2r+1]`` are the coefficients, highest degree first,
    of P(x) = sum_{k=1..r} k Im(w_k (1+ix)^{2k} (1+x^2)^{r-k}) of degree 2r,
    which is -f'(t) cos(t)^{-2r} / 2 at x = tan t; ``samples @ maps[:, 2r+1:]``
    are the a_q of f(t) = sum_q a_q cos(freq_q t - shift_q).
    """
    n = 2 * r + 1
    t = math.pi * np.arange(n) / n
    c, s = np.cos(t), np.sin(t)
    g = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], 1)
    powers = [g]
    for _ in range(1, r):
        size = 2 * powers[-1].shape[1]
        powers.append(np.einsum("tab,tcd->tacbd", powers[-1], g).reshape(n, size, size))
    w = np.fft.rfft(np.eye(n), axis=1) / n
    w[:, 1:] *= 2
    k = np.arange(1, r + 1)
    basis = []
    for kth in k:
        poly = np.ones(1)
        for factor in [[1j, 1.0]] * (2 * kth) + [[1.0, 0.0, 1.0]] * (r - kth):
            poly = np.convolve(poly, factor)
        basis.append(poly)
    maps = np.concatenate([np.imag(k * w[:, 1:] @ np.array(basis)), w.real, -w[:, 1:].imag], axis=1)
    freq = 2.0 * np.concatenate([np.arange(r + 1), k])
    shift = np.where(np.arange(n) > r, math.pi / 2, 0.0)
    for a in (*powers, maps, freq, shift):
        a.flags.writeable = False
    planes = None
    if math.comb(d, 2) * sum(map(len, _plane_positions(d, r, 0, 1))) <= MAX_DENSE_ENTRIES:
        planes = {plane: _plane_positions(d, r, *plane) for plane in itertools.combinations(range(d), 2)}
    return tuple(powers), maps, freq, shift, planes


def _plane_energies(stack: np.ndarray, mask: np.ndarray, i: int, j: int) -> np.ndarray:
    """Energy of each cube after each plane-(i, j) rotation of the kernel's powers, less the part none of them moves.

    Only entries with an index in {i, j} move.  By the symmetry of the cube
    and the mask, those with exactly m such positions split into C(r, m)
    blocks of equal energy, so one block per m, with its first m indices in
    {i, j} and the rest outside, stands for all of them.  Their positions
    come from ``_plane_kernel``, or are built per call where it holds none;
    an empty block adds exact zeros.  Returns one row of samples per cube.
    """
    b, d, r = len(stack), stack.shape[1], stack.ndim - 1
    powers, _, _, _, planes = _plane_kernel(d, r)
    blocks = _plane_positions(d, r, i, j) if planes is None else planes[i, j]
    flat, n = stack.reshape(b, -1), len(powers[0])
    energies = np.zeros((b, n))
    for m, positions in enumerate(blocks, 1):
        # the n rotations stacked as rows: one product per cube
        rotated = powers[m - 1].reshape(-1, 2**m) @ np.take(flat, positions, axis=1).reshape(b, 2**m, len(positions) >> m)
        np.square(rotated, out=rotated)
        energies += math.comb(r, m) * (rotated.reshape(b, n, len(positions)) @ mask.reshape(-1)[positions])
    return energies


def _minimize_plane(stack: np.ndarray, mask: np.ndarray, i: int, j: int) -> np.ndarray:
    """Angle of the exact energy minimum in plane (i, j) for each cube; 0.0 where it would not lower the energy.

    Every entry of the rotated order-r tensor is a form of degree r in
    (cos t, sin t), so the energy is f(t) = sum_{k=0..r} Re(w_k e^{2ikt}):
    pi-periodic and fixed by 2r+1 equispaced samples on [0, pi).  Samples
    omit the energy of entries without an index in {i, j}, a constant of
    the plane.  On (-pi/2, pi/2) the critical points of f are the real
    roots x of the real degree-2r polynomial P of ``_plane_kernel``, at
    t = arctan x, and P's leading coefficient is proportional to f'(pi/2),
    so the candidates are arctan of the real part of each root, and pi/2;
    a complex root only adds a candidate.  The roots are the eigenvalues of
    P's real companion matrices, all cubes at once; a cube whose leading
    coefficient is 0 keeps ``np.roots``, which lowers the degree.  Each cube
    evaluates its candidates by the real series of its own samples.
    """
    b, r = len(stack), stack.ndim - 1
    n = 2 * r + 1
    _, maps, freq, shift, _ = _plane_kernel(stack.shape[1], r)
    samples = _plane_energies(stack, mask, i, j)
    # an einsum, not a matmul over the stack, gives each cube the products it gets alone
    coef = np.einsum("bs,sp->bp", samples, maps)
    poly = coef[:, :n]
    full = poly[:, 0] != 0
    # candidate 0 is pi/2; a cube's unused candidates repeat it
    angles = np.full((b, 2, n), math.pi / 2)
    companion = np.zeros((np.count_nonzero(full), 2 * r, 2 * r))
    companion[:, 1:, :-1] = np.eye(2 * r - 1)
    companion[:, 0] = -poly[full, 1:] / poly[full, :1]
    angles[full, 0, 1:] = np.arctan(np.linalg.eigvals(companion).real)
    for row in np.flatnonzero(~full):
        roots = np.roots(poly[row])
        angles[row, 0, 1 : 1 + len(roots)] = np.arctan(roots.real)
    # row 1 holds each candidate a quarter turn back towards 0
    angles[:, 1] = angles[:, 0] - np.copysign(math.pi / 2, angles[:, 0])
    basis = np.cos(np.multiply.outer(angles.reshape(b, 2 * n), freq) - shift)
    values = np.einsum("bcq,bq->bc", basis, coef[:, n:]).reshape(b, 2, n)
    rows, best = np.arange(b), np.argmin(values[:, 0], axis=1)
    (theta, back), (value, back_value) = angles[rows, :, best].T, values[rows, :, best].T
    # A quarter turn that ties is a coordinate swap (within rounding); take the
    # smaller rotation, as cyclic Jacobi does, or diagonal patterns keep swapping.
    wide = ~((-math.pi / 4 < theta) & (theta <= math.pi / 4))
    tie = wide & (back_value <= value + 1e-12 * (1.0 + np.abs(value)))
    theta, value = np.where(tie, back, theta), np.where(tie, back_value, value)
    return np.where(value < samples[:, 0], theta, 0.0)


def _quotient_planes(mask: np.ndarray) -> tuple:
    """The planes (i, j) that the zero mask tells apart, mask[i] != mask[j]: on the others the energy is flat."""
    d = len(mask)
    return tuple((i, j) for i, j in itertools.combinations(range(d), 2) if not np.array_equal(mask[i], mask[j]))


@lru_cache(maxsize=4)
def _tangent_kernel(d: int, r: int, planes: tuple) -> tuple:
    """The generators of ``planes`` at (d, r), read-only: (positions, weights, up, down, n_up, n_down, i, j).

    Per plane, ``up`` and ``down`` are the ranks of u: j -> i and u: i -> j
    (u's own where it holds no such k), ``n_up`` and ``n_down`` the counts
    n_j and n_i; ``positions`` are the unique entries' flat cube positions,
    ``weights`` their multiplicities, and ``i``, ``j`` the planes'
    coordinates.
    """
    idx = canonical_indices(d, r) - 1
    counts = np.stack([np.count_nonzero(idx == k, axis=1) for k in range(d)], axis=1)
    factorials = np.array([math.factorial(k) for k in range(r + 1)], dtype=float)
    weights = math.factorial(r) / factorials[counts].prod(axis=1)

    def moved(k, l):
        rows, new = np.flatnonzero(counts[:, k]), idx.copy()
        new[rows, np.argmax(idx[rows] == k, axis=1)] = l
        new.sort(axis=1)
        return _colex_ranks(new + 1)

    up, down = np.array([moved(j, i) for i, j in planes]), np.array([moved(i, j) for i, j in planes])
    i, j = np.array(planes).T
    kernel = (_canonical_flat_positions(d, r), weights, up, down, counts[:, j].T * 1.0, counts[:, i].T * 1.0, i, j)
    for a in kernel:
        a.flags.writeable = False
    return kernel


def _newton_rotation(cube: np.ndarray, zero: np.ndarray, kernel: tuple) -> np.ndarray | None:
    """The cube's Newton rotation on the kernel's planes; None where its Hessian there is not positive definite.

    On the unique entries v of the cube, with y = v on the zero set and 0
    off it (``zero`` is 1.0 on it) and <., .> the multiplicity-weighted
    inner product, the energy is <y, y>.  Its gradient along the planes'
    generators D_a is 2 <y, D_a v>, and its Hessian, the Gauss-Newton term
    2 <D_a v, D_b v> on the zero set plus the residual's second-order term
    <y, (D_a D_b + D_b D_a) v>, is C + C^T with C_ab = <zero D_a v - D_a y,
    D_b v>, as each D_a is skew-adjoint.  The step K = sum_a t_a D_a solves
    H t = -g, and the rotation is its Cayley transform (1 - K/2)^-1 (1 +
    K/2).  Each product is a ``_rows_times`` one, within _PRODUCT_MACS.
    """
    positions, weights, up, down, n_up, n_down, i, j = kernel
    v = cube.reshape(-1)[positions]
    y = v * zero
    dv, dy = (n_up * u[up] - n_down * u[down] for u in (v, y))
    # C and, in its last row, g / 2 from one product
    prod = _rows_times(np.vstack([weights * (zero * dv - dy), weights * y]), dv)
    hess, grad = prod[:-1], 2 * prod[-1]
    evals, evecs = np.linalg.eigh(hess + hess.T)
    if not evals[0] > 0:
        return None
    generator = np.zeros((len(cube), len(cube)))
    generator[j, i] = -evecs @ ((grad @ evecs) / evals)
    generator[i, j] = -generator[j, i]
    eye = np.eye(len(cube))
    return np.linalg.solve(eye - generator / 2, eye + generator / 2)


def _rotated(rot: np.ndarray, cube: np.ndarray) -> np.ndarray:
    """rot . cube in every mode, in products of at most _PRODUCT_MACS multiply-adds, so each runs on one BLAS thread.

    As in ``_transform_modewise``, each step contracts the leading mode and
    moves it to the back.
    """
    d, out = len(rot), cube
    rows = _product_rows(d, d)
    for _ in range(cube.ndim):
        flat = out.reshape(d, -1).T
        out = np.empty(flat.shape)
        for start in range(0, len(flat), rows):
            np.matmul(flat[start : start + rows], rot.T, out=out[start : start + rows])
    return out.reshape(cube.shape)

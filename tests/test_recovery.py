import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pica import recovery
from pica._rng import substream
from pica.estimation import DegenerateDataError, sample_cumulant, whiten
from pica.groups import (
    BlockLabel,
    BlockStructure,
    classify_blocks,
    is_block_signed_permutation,
    nearest_signed_permutation,
    random_orthogonal,
)
from pica.patterns import (
    IndependenceGraph,
    PartitionSpec,
    diagonal_pattern,
    generic_sample,
    intersect_patterns,
    is_member,
    pattern_from_graph,
    pattern_from_partition,
    reflectional_pattern,
)
from pica.recovery import (
    _SWAP_RTOL,
    RecoveryOptions,
    _apply_plane,
    _dense_energy,
    _minimize_plane,
    _plane_energies,
    _plane_table,
    _regroup,
    _sample_powers,
    comon_pipeline,
    estimate_unmixing,
    load_report,
    minimize_off_pattern,
    off_pattern_energy,
    report_from_json,
    report_to_json,
    save_report,
    verify_identifiability,
)
from pica.simulate import gen_independent_sources, gen_partitioned_sources, mix
from pica.tensor import (
    SymmetricTensor,
    _permuted_ranks,
    _transform_modewise,
    multilinear_transform,
    num_entries,
    tensor_from_entries,
)


def test_off_pattern_energy_member_is_zero():
    p = diagonal_pattern(3, 3)
    t = tensor_from_entries(3, 3, [((i, i, i), float(i)) for i in (1, 2, 3)])
    assert off_pattern_energy(t, p) == 0.0


def test_off_pattern_energy_weights_by_permutation_count():
    p = diagonal_pattern(3, 3)
    t = tensor_from_entries(3, 3, [((1, 2, 3), 0.5)])
    assert off_pattern_energy(t, p) == pytest.approx(6 * 0.25)
    t2 = tensor_from_entries(3, 3, [((1, 1, 2), 0.5)])
    assert off_pattern_energy(t2, p) == pytest.approx(3 * 0.25)


def test_off_pattern_energy_equals_bruteforce_norm_split():
    rng = np.random.default_rng(0)
    p = pattern_from_partition(PartitionSpec(3, ((1, 2), (3,))), 3)
    t = SymmetricTensor(3, 3, rng.standard_normal(num_entries(3, 3)))
    dense = t.to_dense()
    total = float(np.sum(dense**2))
    free = float(np.sum(dense[~p.dense_zero_mask()] ** 2))
    assert off_pattern_energy(t, p) == pytest.approx(total - free, abs=1e-12)


def test_off_pattern_energy_shape_mismatch():
    for energy in (off_pattern_energy, minimize_off_pattern):
        with pytest.raises(ValueError, match=r"tensor \(order=3, dim=3\) does not match pattern \(order=3, dim=4\)"):
            energy(SymmetricTensor(3, 3), diagonal_pattern(4, 3))


def test_estimate_unmixing_white_member_data_beats_identity():
    # sources already independent and white: identity is near-optimal,
    # and the optimum can only improve on it
    x = gen_independent_sources(20_000, 3, "uniform", 0)
    pattern = diagonal_pattern(3, 4)
    opts = RecoveryOptions(order=4, restarts=3, seed=1)
    report = estimate_unmixing(x, pattern, opts)
    white = whiten(x)
    at_identity = off_pattern_energy(sample_cumulant(white.whitened, 4), pattern)
    assert report.objective <= at_identity + 1e-15
    _, dist = nearest_signed_permutation(report.rotation)
    assert dist < 0.1


def test_estimate_unmixing_order_mismatch():
    x = gen_independent_sources(1000, 3, "uniform", 0)
    cases = [(diagonal_pattern(3, 3), "order"), (diagonal_pattern(4, 4), "dim 4 != data column count 3")]
    for pattern, match in cases:
        with pytest.raises(ValueError, match=match):
            estimate_unmixing(x, pattern, RecoveryOptions(order=4))


def test_estimate_unmixing_degenerate_covariance():
    x = np.column_stack([np.ones(100), np.random.default_rng(0).standard_normal(100)])
    x = np.column_stack([x, x[:, 1]])
    with pytest.raises(DegenerateDataError):
        estimate_unmixing(x, diagonal_pattern(3, 4), RecoveryOptions(order=4))


def test_objective_is_monotone_and_reported_per_restart():
    x = gen_independent_sources(20_000, 2, "uniform", 2)
    a = random_orthogonal(2, 3)
    report = estimate_unmixing(mix(x, a), diagonal_pattern(2, 4), RecoveryOptions(order=4, restarts=4, seed=4))
    assert len(report.objective_per_restart) == 4
    assert report.objective == min(report.objective_per_restart)
    assert report.best_restart == int(np.argmin(report.objective_per_restart))
    assert all(s >= 1 for s in report.sweeps_per_restart)


def test_rotation_equivariance_objective_at_d2():
    # rotating the data does not change the reachable objective
    x = gen_independent_sources(30_000, 2, "uniform", 5)
    a = random_orthogonal(2, 6)
    opts = RecoveryOptions(order=4, restarts=16, seed=7)
    r1 = estimate_unmixing(x, diagonal_pattern(2, 4), opts)
    r2 = estimate_unmixing(mix(x, a), diagonal_pattern(2, 4), opts)
    assert r1.objective == pytest.approx(r2.objective, abs=1e-6)


def test_comon_pipeline_two_uniform_sources():
    x = gen_independent_sources(100_000, 2, "uniform", 8)
    a = random_orthogonal(2, 9)
    report = comon_pipeline(mix(x, a), RecoveryOptions(order=4, restarts=4, seed=10), a_true=a)
    assert report.extras["is_signed_permutation"]
    assert report.extras["signed_permutation_deviation"] < 0.05
    assert report.extras["coset_residual"] < 0.05


def test_comon_pipeline_one_gaussian_is_allowed():
    x = gen_independent_sources(100_000, 2, ["gaussian", "uniform"], 11)
    a = random_orthogonal(2, 12)
    report = comon_pipeline(mix(x, a), RecoveryOptions(order=4, restarts=4, seed=13), a_true=a)
    assert report.extras["is_signed_permutation"]
    assert report.extras["signed_permutation_deviation"] < 0.05


def test_comon_pipeline_two_gaussians_flagged():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((100_000, 2))
    a = random_orthogonal(2, 15)
    report = comon_pipeline(mix(x, a), RecoveryOptions(order=4, restarts=4, seed=16), a_true=a)
    # rotational invariance: the product cannot be close to a signed permutation
    assert not report.extras["is_signed_permutation"]
    assert report.extras["coset_residual"] > 0.1


def test_comon_pipeline_refuses_too_many_sources_before_recovering(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("estimate_unmixing ran before the block structure was checked")

    monkeypatch.setattr(recovery, "estimate_unmixing", fail)
    with pytest.raises(ValueError, match="at most 8 blocks supported, got 9"):
        comon_pipeline(np.zeros((20, 9)), a_true=np.eye(9))


@pytest.mark.filterwarnings("error")
def test_comon_pipeline_checks_the_truth_before_recovering(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("estimate_unmixing ran before the ground truth was checked")

    monkeypatch.setattr(recovery, "estimate_unmixing", fail)
    y = np.random.default_rng(0).standard_normal((50, 3))
    for a_true, message in (
        (np.full((3, 3), np.inf), "^ground-truth mixing matrix contains non-finite values$"),
        (np.eye(2), r"^ground-truth mixing matrix shape \(2, 2\) != \(3, 3\)$"),
        (np.ones((3, 3)), "^ground-truth mixing matrix is singular$"),
    ):
        with pytest.raises(ValueError, match=message):
            comon_pipeline(y, RecoveryOptions(restarts=1), a_true=a_true)


def test_pica_recovery_and_block_classification():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    sources = gen_partitioned_sources(100_000, spec, "uniform", 17)
    a = random_orthogonal(4, 18)
    pattern = pattern_from_partition(spec, 4)
    report = estimate_unmixing(mix(sources, a), pattern, RecoveryOptions(order=4, restarts=8, seed=19))
    structure = BlockStructure((2, 2))
    ident = verify_identifiability(report.unmixing, a, structure)
    assert ident.residual < 0.1
    assert max(ident.block_orthogonal_distance) < 0.1
    cls = classify_blocks(report.unmixing @ a, structure, tol_zero=0.05)
    # exactly one full-rank block per block row and column
    grid = np.array([[l == BlockLabel.FULL_RANK for l in row] for row in cls.labels])
    assert (grid.sum(axis=0) == 1).all() and (grid.sum(axis=1) == 1).all()


def gen_mean_independent_blocks(n, seed):
    """Two independent 2-blocks; inside each, sign-symmetric coordinates
    sharing a latent scale: mean independent but dependent, with distinct
    fourth-moment profiles per coordinate."""
    rng = np.random.default_rng(seed)
    cols = []
    shapes = [(0.3, 1.0), (0.8, 1.6)]
    for a, b in shapes:
        u = rng.standard_normal(n)
        z1 = rng.choice([-1.0, 1.0], n)
        z2 = rng.choice([-1.0, 1.0], n)
        x1 = z1 * (np.abs(u) + a)
        x2 = z2 * (u * u + b)
        cols += [x1 / x1.std(), x2 / x2.std()]
    return np.column_stack(cols)


def test_reflectional_recovery_up_to_block_signed_permutation():
    sources = gen_mean_independent_blocks(200_000, 20)
    a = random_orthogonal(4, 21)
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    pattern = intersect_patterns(pattern_from_partition(spec, 4), reflectional_pattern(4, 4))
    report = estimate_unmixing(mix(sources, a), pattern, RecoveryOptions(order=4, restarts=8, seed=22))
    product = report.unmixing @ a
    assert is_block_signed_permutation(product, BlockStructure((2, 2)), tol=0.05)


def test_verify_identifiability_exact_cases():
    structure = BlockStructure((2, 2))
    a = random_orthogonal(4, 23)
    ident = verify_identifiability(np.linalg.inv(a), a, structure)
    assert ident.residual < 1e-12
    assert ident.assignment == (0, 1)
    # composing with a block swap moves the assignment, not the residual
    swap = np.zeros((4, 4))
    swap[:2, 2:] = random_orthogonal(2, 24)
    swap[2:, :2] = random_orthogonal(2, 25)
    ident2 = verify_identifiability(swap @ np.linalg.inv(a), a, structure)
    assert ident2.residual < 1e-12
    assert ident2.assignment == (1, 0)
    # a random orthogonal product is far from the group
    ident3 = verify_identifiability(random_orthogonal(4, 26), a, structure)
    assert ident3.residual > 0.1
    with pytest.raises(ValueError, match="singular"):
        verify_identifiability(np.eye(2), np.zeros((2, 2)), BlockStructure((1, 1)))
    with pytest.raises(ValueError, match=r"\(4, 4\) != .* \(3, 3\)"):
        verify_identifiability(np.eye(4), np.eye(3), structure)


def test_verify_identifiability_is_scale_free():
    # det(1e-4 Q) = 1e-16 at d = 4, but the matrix is perfectly conditioned
    a = 1e-4 * random_orthogonal(4, 27)
    ident = verify_identifiability(np.linalg.inv(a), a, BlockStructure((2, 2)))
    assert ident.residual < 1e-14
    with pytest.raises(ValueError, match="non-finite"):
        verify_identifiability(np.eye(4), np.where(np.eye(4) > 0, 1.0, np.nan), BlockStructure((2, 2)))


def test_verify_identifiability_refuses_non_finite_input_without_a_warning():
    infinite = np.where(np.eye(4) > 0, np.inf, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^ground-truth mixing matrix contains non-finite values$"):
            verify_identifiability(np.eye(4), infinite, BlockStructure((2, 2)))
        with pytest.raises(ValueError, match="^unmixing matrix contains non-finite values$"):
            verify_identifiability(infinite, np.eye(4), BlockStructure((2, 2)))
        # finite factors whose product overflows
        with pytest.raises(ValueError, match="^matrix contains non-finite values$"):
            verify_identifiability(1e200 * np.eye(4), 1e200 * random_orthogonal(4, 1), BlockStructure((2, 2)))


@st.composite
def plane_problems(draw):
    """A Haar-rotated generic member of a diagonal or two-block pattern, and a plane."""
    d = draw(st.integers(2, 4))
    r = draw(st.integers(2, 5))
    if draw(st.booleans()):
        pattern = diagonal_pattern(d, r)
    else:
        split = draw(st.integers(1, d - 1))
        blocks = (tuple(range(1, split + 1)), tuple(range(split + 1, d + 1)))
        pattern = pattern_from_partition(PartitionSpec(d, blocks), r)
    seed = draw(st.integers(0, 2**16))
    i = draw(st.integers(0, d - 2))
    j = draw(st.integers(i + 1, d - 1))
    dense = multilinear_transform(random_orthogonal(d, seed), generic_sample(pattern, rng=seed)).to_dense()
    return dense, pattern.dense_zero_mask(), i, j


def _rotated(dense, i, j, theta):
    """A copy of the cube rotated by theta in plane (i, j), through a stack of one."""
    stack = dense[None].copy()
    _apply_plane(stack, i, j, np.array([math.cos(theta)]), np.array([math.sin(theta)]))
    return stack[0]


def _cross_block_problem():
    # a plane across blocks is only pi-periodic: the minimum at -1.2 lies
    # outside [-pi/4, pi/4] and has no copy a quarter turn away
    pattern = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4)
    dense = _rotated(generic_sample(pattern, rng=0).to_dense(), 0, 2, 1.2)
    return dense, pattern.dense_zero_mask(), 0, 2


def _swapped_member_problem():
    # a member with coordinates 1 and 3 swapped: only a quarter turn in plane
    # (1, 3) brings it back, so the minimum is at pi/2, a root of P at infinity
    pattern = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4)
    order = [2, 1, 0, 3]
    dense = generic_sample(pattern, rng=2).to_dense()[np.ix_(*[order] * 4)]
    return dense, pattern.dense_zero_mask(), 0, 2


@settings(max_examples=50, deadline=None)
@given(plane_problems())
@example(_cross_block_problem())
@example(_swapped_member_problem())
def test_plane_search_finds_the_minimum_over_a_full_period(problem):
    dense, mask, i, j = problem

    def energy(theta):
        return _dense_energy(_rotated(dense, i, j, theta), mask)

    # rounding of the energies, relative to the tensor's squared norm
    tol = 1e-12 * float(np.sum(dense**2))
    found = energy(_minimize_plane(dense[None], mask, i, j)[0])
    grid = np.linspace(-math.pi / 2, math.pi / 2, 360, endpoint=False)
    assert found <= min(energy(t) for t in grid) + tol
    assert found <= energy(0.0) + tol


def test_plane_search_keeps_the_quarter_turn_when_the_leading_coefficient_is_zero():
    # a member with coordinates 2 and 3 swapped; with these integer entries P's leading
    # coefficient, proportional to f'(pi/2), is exactly 0, so np.roots drops the root at
    # infinity and only the pi/2 candidate finds the quarter turn back
    pattern = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4)
    member = tensor_from_entries(4, 4, [((1, 1, 1, 2), 2.0), ((1, 1, 2, 2), 2.0), ((3, 4, 4, 4), 1.0)])
    assert is_member(member, pattern)
    dense = member.to_dense()[np.ix_(*[[0, 2, 1, 3]] * 4)]
    mask = pattern.dense_zero_mask()
    samples = _plane_energies(dense[None], mask, 1, 2, _sample_powers(4))
    assert np.einsum("bs,sp->bp", samples, recovery._tangent_maps(4)[0])[0, 0] == 0.0
    theta = _minimize_plane(dense[None], mask, 1, 2)[0]
    assert abs(theta) == math.pi / 2
    assert _dense_energy(_rotated(dense, 1, 2, theta), mask) < 1e-24 < _dense_energy(dense, mask)


@st.composite
def block_problems(draw):
    """A Haar-rotated generic member of a diagonal, two-block or graph pattern, and a random plane."""
    d = draw(st.integers(2, 5))
    r = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["diagonal", "two-block", "graph"]))
    if kind == "diagonal":
        pattern = diagonal_pattern(d, r)
    elif kind == "two-block":
        split = draw(st.integers(1, d - 1))
        pattern = pattern_from_partition(PartitionSpec(d, (tuple(range(1, split + 1)), tuple(range(split + 1, d + 1)))), r)
    else:
        pairs = list(itertools.combinations(range(1, d + 1), 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True))
        pattern = pattern_from_graph(IndependenceGraph(d, edges), r)
    seed = draw(st.integers(0, 2**16))
    i = draw(st.integers(0, d - 2))
    j = draw(st.integers(i + 1, d - 1))
    dense = multilinear_transform(random_orthogonal(d, seed), generic_sample(pattern, rng=seed)).to_dense()
    return dense, pattern.dense_zero_mask(), i, j


@settings(max_examples=60, deadline=None)
@given(block_problems())
def test_block_samples_match_rotating_the_whole_cube(problem):
    dense, mask, i, j = problem
    n = 2 * dense.ndim + 1
    whole = np.array(
        [_dense_energy(_rotated(dense, i, j, t), mask) for t in math.pi * np.arange(n) / n]
    )
    blocks = _plane_energies(dense[None], mask, i, j, _sample_powers(dense.ndim))[0]
    # the blocks leave out the entries no plane-(i, j) rotation moves: compare changes from t = 0
    np.testing.assert_allclose(blocks - blocks[0], whole - whole[0], rtol=0, atol=1e-12 * (1 + np.max(whole)))


def complex_companion_minimize(stack, mask, i, j):
    """The plane search by the roots of z^r f'(z), z = e^{2it}, on the complex companion matrices of ``np.roots``."""
    r = stack.ndim - 1
    n = 2 * r + 1
    angles = math.pi * np.arange(n) / n
    samples = _plane_energies(stack, mask, i, j, _sample_powers(r))
    c = np.fft.rfft(samples) / n
    k = np.arange(r + 1)
    weights = np.where(k == 0, 1.0, 2.0) * c

    def energy(t, w):
        return np.real(np.exp(2j * np.multiply.outer(t, k)) @ w)

    theta, value = np.empty((2, len(stack)))
    for row in range(len(stack)):
        poly = np.concatenate([(k * c[row])[::-1], -np.conj(k * c[row])[1:]])
        critical = np.angle(np.roots(poly)) / 2
        candidates = np.concatenate([angles, critical])
        values = np.concatenate([samples[row], energy(critical, weights[row])])
        best = int(np.argmin(values))
        theta[row], value[row] = candidates[best], values[best]
    theta[theta > math.pi / 2] -= math.pi
    for row in np.flatnonzero(~((-math.pi / 4 < theta) & (theta <= math.pi / 4))):
        back = theta[row] - math.copysign(math.pi / 2, theta[row])
        back_value = energy(np.array([back]), weights[row])[0]
        if back_value <= value[row] + 1e-12 * (1.0 + abs(value[row])):
            theta[row], value[row] = back, back_value
    return np.where(value < samples[:, 0], theta, 0.0)


@settings(max_examples=80, deadline=None)
@given(block_problems())
@example(_swapped_member_problem())
def test_tangent_roots_find_the_complex_companion_minimum(problem):
    dense, mask, i, j = problem

    def energy(theta):
        return _dense_energy(_rotated(dense, i, j, theta), mask)

    found = energy(_minimize_plane(dense[None], mask, i, j)[0])
    reference = energy(complex_companion_minimize(dense[None], mask, i, j)[0])
    assert abs(found - reference) <= 1e-12 * (1.0 + abs(reference))


def test_plane_table_holds_the_ix_gathers():
    for d in range(2, 6):
        for r in range(2, 7):
            cube = np.arange(d**r).reshape((d,) * r)
            table = _plane_table(d, r)
            assert len(table) == math.comb(d, 2)
            for (i, j), blocks in table.items():
                pair, rest = [i, j], [k for k in range(d) if k not in (i, j)]
                gathers = [cube[np.ix_(*[pair] * m, *[rest] * (r - m))].ravel() for m in range(1 if rest else r, r + 1)]
                assert len(blocks) == len(gathers)
                for positions, gather in zip(blocks, gathers):
                    np.testing.assert_array_equal(positions, gather)
                    assert not positions.flags.writeable


def test_plane_table_is_bounded_by_the_dense_budget(monkeypatch):
    assert _plane_table(30, 4) is None
    # at d = 5, r = 3 each of the 10 planes has 2*9 + 4*3 + 8 = 38 positions
    for budget, built in [(380, True), (379, False)]:
        _plane_table.cache_clear()
        monkeypatch.setattr(recovery, "MAX_DENSE_ENTRIES", budget)
        table = _plane_table(5, 3)
        assert (table is not None) == built
        assert not built or sum(len(positions) for blocks in table.values() for positions in blocks) == budget
    _plane_table.cache_clear()


def test_plane_search_allocates_less_than_one_cube():
    pattern = diagonal_pattern(30, 4)
    dense = multilinear_transform(random_orthogonal(30, 0), generic_sample(pattern, rng=0)).to_dense()
    mask = pattern.dense_zero_mask()
    # a stack of one, then a stack of three cubes
    for stack in (dense[None], np.stack([dense, dense[::-1, ::-1, ::-1, ::-1], -dense])):
        _minimize_plane(stack, mask, 0, 1)  # the rotation powers are cached once per order
        tracemalloc.start()
        try:
            _minimize_plane(stack, mask, 3, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # only the blocks with an index in {i, j} are gathered, never a copy of a cube
        assert peak < stack.nbytes


def _population_diagonal_problem():
    # coordinates 1 and 2 carry no cumulant, so from the identity the first
    # plane, (1, 2), is all zeros: its leading coefficient is exactly 0
    dense = tensor_from_entries(4, 4, [((3, 3, 3, 3), 1.0), ((4, 4, 4, 4), -2.0)]).to_dense()
    return dense, diagonal_pattern(4, 4).dense_zero_mask(), 0, 1


def _bytes(result):
    q, energy, sweeps = result
    return q.tobytes(), np.float64(energy).tobytes(), sweeps


@settings(max_examples=25, deadline=None)
@given(block_problems(), st.integers(0, 2**16))
@example(_population_diagonal_problem(), 0)
def test_stacked_descent_gives_each_restart_its_own_descent(problem, seed):
    dense, mask, _, _ = problem
    d = len(dense)
    starts = list(enumerate([np.eye(d)] + [random_orthogonal(d, seed + k) for k in range(3)]))
    stacked = recovery._descend(dense, mask, starts, RecoveryOptions())
    for start, result in zip(starts, stacked):
        [alone] = recovery._descend(dense, mask, [start], RecoveryOptions())
        assert _bytes(result) == _bytes(alone)


def test_flat_planes_keep_np_roots_inside_a_stack(monkeypatch):
    dense, mask, _, _ = _population_diagonal_problem()
    polynomials = []
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda p: polynomials.append(p) or roots(p))
    starts = list(enumerate([np.eye(4), random_orthogonal(4, 1), random_orthogonal(4, 2)]))
    results = recovery._descend(dense, mask, starts, RecoveryOptions())
    assert polynomials and not np.any(polynomials[0])
    # the identity stops after one sweep and leaves the stack; the others go on
    assert results[0][2] == 1 and min(sweeps for _, _, sweeps in results[1:]) > 1


@pytest.mark.parametrize("d", [3, 5])
def test_restart_zero_on_a_diagonal_target_is_the_ica_descent(d):
    pattern = diagonal_pattern(d, 4)
    dense = multilinear_transform(random_orthogonal(d, d), generic_sample(pattern, rng=d)).to_dense()
    mask, opts = pattern.dense_zero_mask(), RecoveryOptions(restarts=3, seed=d)
    results = recovery._run_restarts(dense, mask, opts)
    [ica] = recovery._descend(dense, mask, [(0, np.eye(d))], opts)
    assert _bytes(results[0]) == _bytes(ica)
    for restart, result in enumerate(results[1:], start=1):
        [alone] = recovery._descend(dense, mask, [(restart, random_orthogonal(d, substream(d, "restart", restart)))], opts)
        assert _bytes(result) == _bytes(alone)


def test_restart_zero_on_a_partition_target_counts_both_descents():
    pattern = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4)
    dense = multilinear_transform(random_orthogonal(4, 3), generic_sample(pattern, rng=3)).to_dense()
    mask, opts = pattern.dense_zero_mask(), RecoveryOptions(restarts=1)
    [(_, _, sweeps)] = recovery._run_restarts(dense, mask, opts)
    [(q_ica, _, ica_sweeps)] = recovery._descend(dense, diagonal_pattern(4, 4).dense_zero_mask(), [(0, np.eye(4))], opts)
    start = q_ica[_regroup(_transform_modewise(q_ica, dense), mask)]
    [(_, _, target_sweeps)] = recovery._descend(dense, mask, [(0, start)], opts)
    assert sweeps == ica_sweeps + target_sweeps


def test_fewer_restarts_are_the_first_results_of_more():
    pattern = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4)
    tensor = multilinear_transform(random_orthogonal(4, 3), generic_sample(pattern, rng=3))
    three = minimize_off_pattern(tensor, pattern, RecoveryOptions(restarts=3, seed=5))
    eight = minimize_off_pattern(tensor, pattern, RecoveryOptions(restarts=8, seed=5))
    assert [(q.tobytes(), e) for q, e in three] == [(q.tobytes(), e) for q, e in eight[:3]]


def test_stacks_hold_at_most_the_dense_budget(monkeypatch):
    # a diagonal mask: _regroup, which reads the same budget, keeps the identity on either path
    pattern = diagonal_pattern(4, 4)
    tensor = multilinear_transform(random_orthogonal(4, 1), generic_sample(pattern, rng=1))
    opts = RecoveryOptions(restarts=8, seed=2)
    whole = minimize_off_pattern(tensor, pattern, opts)
    sizes = []
    minimize = recovery._minimize_plane

    def recording(stack, *args):
        sizes.append(len(stack))
        return minimize(stack, *args)

    monkeypatch.setattr(recovery, "_minimize_plane", recording)
    monkeypatch.setattr(recovery, "MAX_DENSE_ENTRIES", 2 * 4**4)
    split = minimize_off_pattern(tensor, pattern, opts)
    assert max(sizes) == 2
    assert [(q.tobytes(), e) for q, e in split] == [(q.tobytes(), e) for q, e in whole]


def test_descent_error_names_its_restart(monkeypatch):
    # every cube starts at a member; only the middle one turns, and any turn raises the energy
    pattern = diagonal_pattern(3, 4)
    dense = generic_sample(pattern, rng=0).to_dense()
    monkeypatch.setattr(recovery, "_minimize_plane", lambda stack, mask, i, j: np.array([0.0, 0.3, 0.0]))
    starts = [(3, np.eye(3)), (4, np.eye(3)), (5, np.eye(3))]
    with pytest.raises(recovery.DescentError, match=r"^restart 4: objective increased within a sweep: 0\.0 -> "):
        recovery._descend(dense, pattern.dense_zero_mask(), starts, RecoveryOptions())


@pytest.mark.parametrize(
    "blocks, laws",
    [
        (((1, 2), (3, 4)), ["uniform", "uniform", "rademacher_mixture", "rademacher_mixture"]),
        (((1, 2), (3, 4, 5)), ["uniform", "uniform", "rademacher_mixture", "rademacher_mixture", "rademacher_mixture"]),
        (((1, 2), (3, 4), (5, 6)), ["uniform", "uniform", "rademacher_mixture", "rademacher_mixture", "uniform", "rademacher_mixture"]),
    ],
)
def test_restart_zero_alone_recovers_partitioned_sources(blocks, laws):
    # n = 100k: these draws reach residuals below 0.01.  Over 40 draws per
    # structure, one (2, 3) draw failed, and eight restarts failed on it too.
    spec = PartitionSpec(len(laws), blocks)
    pattern = pattern_from_partition(spec, 4)
    structure = BlockStructure(tuple(map(len, blocks)))
    for run in range(3):
        sources = gen_partitioned_sources(100_000, spec, laws, 7000 + 10 * spec.dim + run)
        a = random_orthogonal(spec.dim, 8000 + 10 * spec.dim + run)
        report = estimate_unmixing(mix(sources, a), pattern, RecoveryOptions(restarts=1, seed=run))
        assert verify_identifiability(report.unmixing, a, structure).residual < 0.1


@pytest.mark.parametrize("blocks", [((1, 2, 3, 4), (5, 6, 7, 8)), ((1, 2), (3, 4), (5, 6), (7, 8))])
def test_regroup_transpositions_group_scrambled_members(blocks):
    # d!·C(d+r-1, r) = 40320 · 330 > 2^22 = MAX_DENSE_ENTRIES at d = 8, r = 4, so the candidates are transpositions
    pattern = pattern_from_partition(PartitionSpec(8, blocks), 4)
    mask = pattern.dense_zero_mask()
    for seed in range(5):
        perm = np.random.default_rng(seed).permutation(8)
        dense = generic_sample(pattern, rng=seed).to_dense()[np.ix_(*[perm] * 4)]
        order = _regroup(dense, mask)
        assert sorted(order) == list(range(8))
        assert _dense_energy(dense[np.ix_(*[order] * 4)], mask) <= 1e-24 * np.sum(dense**2)


@pytest.mark.parametrize("d", [4, 8])
def test_regroup_keeps_the_identity_for_a_diagonal_mask(d):
    pattern = diagonal_pattern(d, 4)
    dense = multilinear_transform(random_orthogonal(d, d), generic_sample(pattern, rng=d)).to_dense()
    assert _regroup(dense, pattern.dense_zero_mask()) == list(range(d))


@pytest.mark.parametrize(
    "blocks",
    [
        ((1, 2), (3,)),
        ((1, 2), (3, 4, 5)),
        ((1,), (2, 3), (4, 5, 6)),
        ((1, 2, 3), (4, 5, 6)),
        ((1, 2), (3, 4), (5, 6, 7)),
        ((1, 2, 3), (4, 5, 6, 7)),
    ],
)
def test_regroup_finds_the_best_order_at_small_d(blocks):
    pattern = pattern_from_partition(PartitionSpec(sum(map(len, blocks)), blocks), 4)
    d, mask = pattern.dim, pattern.dense_zero_mask()
    for seed in range(2):
        # a rotated member: no order reaches zero, so the minimum is a real comparison
        dense = multilinear_transform(random_orthogonal(d, seed), generic_sample(pattern, rng=seed)).to_dense()
        best = min(_dense_energy(dense[np.ix_(*[p] * 4)], mask) for p in itertools.permutations(range(d)))
        order = _regroup(dense, mask)
        energy = _dense_energy(dense[np.ix_(*[order] * 4)], mask)
        assert energy - best <= _SWAP_RTOL * energy
        # a scrambled member: some order reaches zero, where transpositions alone stall at d = 7
        perm = np.random.default_rng(seed).permutation(d)
        scrambled = generic_sample(pattern, rng=seed).to_dense()[np.ix_(*[perm] * 4)]
        order = _regroup(scrambled, mask)
        assert _dense_energy(scrambled[np.ix_(*[order] * 4)], mask) <= 1e-24 * np.sum(scrambled**2)


def _regroup_until_stable(dense, mask):
    """_regroup's d! regime repeated until a pass over all orders takes none."""
    d, r = dense.shape[0], dense.ndim
    order, energy, taken = list(range(d)), _dense_energy(dense, mask), True
    while taken:
        taken = False
        for candidate in itertools.permutations(range(d)):
            value = _dense_energy(dense[np.ix_(*[candidate] * r)], mask)
            if energy - value > _SWAP_RTOL * energy:
                order, energy, taken = list(candidate), value, True
    return order


def test_regroup_scores_each_of_the_d_factorial_orders_once(monkeypatch):
    pattern = pattern_from_partition(PartitionSpec(5, ((1, 2), (3, 4, 5))), 4)
    mask = pattern.dense_zero_mask()
    calls = []

    def counting_ranks(perms, idx):
        # one order per row: the d! orders in one gather; the identity's energy needs none
        calls.extend(map(tuple, np.atleast_2d(perms)))
        return _permuted_ranks(perms, idx)

    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(5)
        dense = generic_sample(pattern, rng=seed).to_dense()[np.ix_(*[perm] * 4)]
        expected = _regroup_until_stable(dense, mask)
        assert expected != list(range(5))  # some order was taken, so a second pass would rescan
        monkeypatch.setattr(recovery, "_permuted_ranks", counting_ranks)
        calls.clear()
        assert _regroup(dense, mask) == expected
        assert sorted(calls) == list(itertools.permutations(range(5)))
        monkeypatch.undo()


def _transpositions(order):
    for i, j in itertools.combinations(range(len(order)), 2):
        swapped = list(order)
        swapped[i], swapped[j] = order[j], order[i]
        yield swapped


def test_regroup_scores_each_transposition_pass_in_one_gather(monkeypatch):
    # d = 8, r = 4 is beyond the d! budget: each pass gathers the C(8, 2) transpositions of the order it starts from
    pattern = pattern_from_partition(PartitionSpec(8, ((1, 2, 3), (4, 5, 6), (7, 8))), 4)
    mask = pattern.dense_zero_mask()
    calls = []

    def counting_ranks(perms, idx):
        calls.append(np.array(perms).tolist())
        return _permuted_ranks(perms, idx)

    monkeypatch.setattr(recovery, "_permuted_ranks", counting_ranks)
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(8)
        dense = generic_sample(pattern, rng=seed).to_dense()[np.ix_(*[perm] * 4)]
        calls.clear()
        order = _regroup(dense, mask)
        assert len(calls) > 1  # some transposition was taken, so a second pass ran
        assert [len(candidates) for candidates in calls] == [math.comb(8, 2)] * len(calls)
        # the order each pass starts from, read back from its swap of positions 0 and 1
        bases = [candidates[0][1::-1] + candidates[0][2:] for candidates in calls]
        assert bases[0] == list(range(8)) and bases[-1] == order
        for k, (base, candidates) in enumerate(zip(bases, calls)):
            assert candidates == list(_transpositions(base))
            assert k + 1 == len(calls) or bases[k + 1] in candidates


def test_regroup_transpositions_end_at_a_local_optimum():
    # rotated members: no order reaches zero, so each comparison is a real one
    patterns = [
        pattern_from_partition(PartitionSpec(8, ((1, 2), (3, 4, 5), (6, 7, 8))), 4),
        pattern_from_partition(PartitionSpec(8, ((1, 2, 3), (4, 5, 6, 7, 8))), 4),
        pattern_from_graph(IndependenceGraph(8, [(v, v + 1) for v in range(1, 8)]), 4),
    ]
    for pattern in patterns:
        mask = pattern.dense_zero_mask()
        for seed in range(2):
            dense = multilinear_transform(random_orthogonal(8, seed), generic_sample(pattern, rng=seed)).to_dense()
            order = _regroup(dense, mask)
            energy = _dense_energy(dense[np.ix_(*[order] * 4)], mask)
            for swapped in _transpositions(order):
                assert energy - _dense_energy(dense[np.ix_(*[swapped] * 4)], mask) <= _SWAP_RTOL * energy


def test_reflectional_stabilizer_is_signed_permutation_group():
    # population-level probe: minimizing reflectional off-pattern energy of
    # Q . T can only converge onto signed permutations
    pattern = reflectional_pattern(3, 4)
    found = 0
    for seed in range(3):
        t = generic_sample(pattern, rng=100 + seed)
        results = minimize_off_pattern(t, pattern, RecoveryOptions(order=4, restarts=4, seed=seed))
        for q, energy in results:
            if energy < 1e-16:
                found += 1
                _, dist = nearest_signed_permutation(q)
                assert dist < 1e-6
    assert found >= 3  # the identity restart always converges


def _rotation_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


_X_QUARTER_TURN = np.array([[1.0, 0, 0], [0, 0, -1.0], [0, 1.0, 0]])


def test_two_block_stabilizer_matches_elimination_result():
    # d=3, blocks {1,2} | {3}, order 3: the stabilizer of a generic pattern
    # member consists of the block-orthogonal matrices together with a
    # tensor-dependent family characterized by a vanishing (3,3) entry
    spec = PartitionSpec(3, ((1, 2), (3,)))
    pattern = pattern_from_partition(spec, 3)
    structure = BlockStructure((2, 1))
    for seed in range(3):
        t = generic_sample(pattern, rng=200 + seed)
        results = minimize_off_pattern(t, pattern, RecoveryOptions(order=3, restarts=6, seed=seed))
        converged = [(q, e) for q, e in results if e < 1e-16]
        assert converged
        for q, _ in converged:
            from pica.groups import is_block_orthogonal

            in_block_group = is_block_orthogonal(q, structure, 1e-6)
            q2_shaped = abs(q[2, 2]) < 1e-6
            assert in_block_group or q2_shaped, q
            if q2_shaped:
                # for orthogonal matrices the vanishing corner forces the
                # leading 2x2 block to be singular
                assert abs(np.linalg.det(q[:2, :2])) < 1e-6


def test_fixed_singular_corner_matrices_break_generic_patterns():
    # matrices with the q_33 = 0 shape preserve the pattern only for
    # tensors tuned to them, never for fresh generic ones
    spec = PartitionSpec(3, ((1, 2), (3,)))
    pattern = pattern_from_partition(spec, 3)
    rng = np.random.default_rng(27)
    from pica.tensor import multilinear_transform

    for _ in range(20):
        q = _rotation_z(rng.uniform(0, 2 * np.pi)) @ _X_QUARTER_TURN @ _rotation_z(rng.uniform(0, 2 * np.pi))
        assert abs(q[2, 2]) < 1e-12
        t = generic_sample(pattern, rng=rng)
        res = is_member(multilinear_transform(q, t), pattern, 1e-6)
        assert not res.member
        assert res.max_violation > 1e-6


def test_report_json_round_trip(tmp_path):
    x = gen_independent_sources(5000, 2, "uniform", 28)
    report = estimate_unmixing(x, diagonal_pattern(2, 4), RecoveryOptions(order=4, restarts=2, seed=29))
    obj = report_to_json(report)
    back = report_from_json(obj)
    np.testing.assert_allclose(back.unmixing, report.unmixing, atol=0)
    np.testing.assert_allclose(back.rotation, report.rotation, atol=0)
    assert back.objective == report.objective
    path = tmp_path / "report.json"
    save_report(report, path)
    loaded = load_report(path)
    np.testing.assert_allclose(loaded.unmixing, report.unmixing, atol=0)


def test_recovery_options_validation():
    with pytest.raises(ValueError, match="order"):
        RecoveryOptions(order=2)
    with pytest.raises(ValueError, match="restarts"):
        RecoveryOptions(restarts=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        RecoveryOptions(seed=-1)


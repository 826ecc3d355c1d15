import itertools

import numpy as np
import pytest

from pica.estimation import DegenerateDataError, sample_cumulant, whiten
from pica.groups import (
    BlockLabel,
    BlockStructure,
    is_block_signed_permutation,
    nearest_signed_permutation,
    random_orthogonal,
)
from pica.patterns import (
    PartitionSpec,
    diagonal_pattern,
    generic_sample,
    intersect_patterns,
    is_member,
    pattern_from_partition,
    reflectional_pattern,
)
from pica.recovery import (
    RecoveryOptions,
    comon_pipeline,
    estimate_unmixing,
    load_report,
    minimize_off_pattern,
    off_pattern_energy,
    recovered_block_classification,
    report_from_json,
    report_to_json,
    save_report,
    verify_identifiability,
)
from pica.simulate import gen_independent_sources, gen_partitioned_sources, mix
from pica.tensor import SymmetricTensor, num_entries, tensor_from_entries


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
    with pytest.raises(ValueError, match="match"):
        off_pattern_energy(SymmetricTensor(3, 3), diagonal_pattern(4, 3))


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
    with pytest.raises(ValueError, match="order"):
        estimate_unmixing(x, diagonal_pattern(3, 3), RecoveryOptions(order=4))


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
    cls = recovered_block_classification(report, a, structure)
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


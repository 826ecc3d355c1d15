import itertools
import math
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pica.tensor import (
    SymmetricTensor,
    _canonical_flat_positions,
    _colex_columns,
    _colex_ranks,
    _dense_rank_array,
    _permuted_ranks,
    _transform_modewise,
    canonical_indices,
    canonical_rank,
    hessian_eval,
    load_tensor,
    marginalize,
    multilinear_transform,
    num_entries,
    polynomial_eval,
    save_tensor,
    tensor_from_entries,
    tensor_from_json,
    tensor_to_json,
)


def random_tensor(order, dim, rng):
    return SymmetricTensor(order, dim, rng.standard_normal(num_entries(dim, order)))


def direct_sum(a, dense):
    """Reference action: the full O(d^{2r}) contraction sum in one einsum."""
    order = dense.ndim
    out_letters = string.ascii_lowercase[:order]
    in_letters = string.ascii_uppercase[:order]
    spec = ",".join(o + i for o, i in zip(out_letters, in_letters))
    spec += f",{in_letters}->{out_letters}"
    return np.einsum(spec, *([a] * order), dense, optimize=False)


def colex_tuples(dim, order):
    """Reference enumeration: the non-decreasing index tuples, sorted colexicographically."""
    return sorted(itertools.combinations_with_replacement(range(1, dim + 1), order), key=lambda t: t[::-1])


def test_canonical_indices_match_python_enumeration():
    grid = [(1, 1), (1, 8), (5, 1), (2, 2), (3, 4), (4, 3), (2, 8), (6, 3), (3, 8), (7, 5), (45, 4)]
    for d, r in grid:
        idx = canonical_indices(d, r)
        assert idx.dtype == np.int64 and idx.shape == (num_entries(d, r), r)
        assert not idx.flags.writeable
        assert list(map(tuple, idx.tolist())) == colex_tuples(d, r), (d, r)


def test_rank_matches_colex_enumeration():
    for d, r in [(2, 2), (3, 2), (3, 4), (4, 3), (2, 8), (6, 3)]:
        for pos, idx in enumerate(colex_tuples(d, r)):
            assert canonical_rank(idx) == pos
        np.testing.assert_array_equal(_colex_ranks(canonical_indices(d, r)), np.arange(num_entries(d, r)))


def test_colex_columns_are_the_rank_binomials():
    table = _colex_columns(9, 8)
    assert table.shape == (8, 10) and table.dtype == np.int64
    for k in range(8):
        assert table[k].tolist() == [0] + [math.comb(v - 1 + k, k + 1) for v in range(1, 10)]
    assert _colex_columns(3, 0).shape == (0, 4)


def test_dense_rank_array_matches_per_position_rank():
    for d, r in [(1, 3), (3, 1), (2, 8), (4, 3), (5, 4), (300, 2)]:
        position = {idx: pos for pos, idx in enumerate(colex_tuples(d, r))}
        want = [position[tuple(sorted(p))] for p in itertools.product(range(1, d + 1), repeat=r)]
        np.testing.assert_array_equal(_dense_rank_array(d, r), want)


@pytest.mark.parametrize("d, r", [(30, 4), (6, 8)])
def test_cold_dense_rank_array_peaks_below_four_cube_copies(d, r):
    tracemalloc.start()
    try:
        ranks = _dense_rank_array.__wrapped__(d, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.dtype == np.int64 and peak < 4 * ranks.nbytes


def test_from_dense_round_trips_through_cached_flat_positions():
    rng = np.random.default_rng(0)
    for d in range(1, 6):
        for r in range(1, 7):
            positions = _canonical_flat_positions(d, r)
            assert not positions.flags.writeable
            with pytest.raises(ValueError):
                positions[0] = 0
            t = random_tensor(r, d, rng)
            back = SymmetricTensor.from_dense(t.to_dense())
            np.testing.assert_array_equal(back.values, t.values)


def test_permuted_ranks_gather_the_relabelled_cube_bit_for_bit():
    rng = np.random.default_rng(0)
    # d = 7 at r = 3..5 is the reach of the regroup's search over all d! orders; at r = 4 it checks every one
    shapes = [(d, r) for d in range(1, 7) for r in range(1, 7)] + [(7, 3), (7, 4), (7, 5)]
    for d, r in shapes:
        t = random_tensor(r, d, rng)
        dense, idx = t.to_dense(), canonical_indices(d, r) - 1
        if (d, r) == (7, 4):
            perms = np.array(list(itertools.permutations(range(d))))
        else:
            perms = np.array([rng.permutation(d) for _ in range(3)])
        stacked = t.values[_permuted_ranks(perms, idx)]
        assert stacked.shape == (len(perms), num_entries(d, r))
        for p, row in zip(perms, stacked):
            want = SymmetricTensor.from_dense(dense[np.ix_(*[p] * r)]).values
            np.testing.assert_array_equal(t.values[_permuted_ranks(p, idx)], want)
            np.testing.assert_array_equal(row, want)


def test_permuted_ranks_of_all_orders_peak_below_twenty_bytes_per_gathered_entry():
    d, r = 7, 4
    perms, idx = np.array(list(itertools.permutations(range(d)))), canonical_indices(d, r) - 1
    _permuted_ranks(perms[:1], idx)  # the rank cube is cached, as it is wherever the cube already exists
    tracemalloc.start()
    try:
        ranks = _permuted_ranks(perms, idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.shape == (math.factorial(d), num_entries(d, r))
    assert peak <= 20 * ranks.size


def test_unique_entry_count():
    for d, r in [(2, 2), (3, 4), (5, 3), (4, 6)]:
        assert len(canonical_indices(d, r)) == math.comb(d + r - 1, r)


def test_identity_as_tensor():
    t = tensor_from_entries(2, 2, [((1, 1), 1.0), ((2, 2), 1.0)])
    assert t.lookup((1, 2)) == 0.0
    assert t.lookup((1, 1)) == 1.0
    np.testing.assert_allclose(t.to_dense(), np.eye(2))


def test_lookup_is_permutation_invariant_on_given_entry():
    t = tensor_from_entries(3, 2, [((1, 1, 2), 5.0)])
    assert t.lookup((2, 1, 1)) == 5.0
    assert t.lookup((1, 2, 1)) == 5.0


def test_from_entries_conflicts_and_range():
    with pytest.raises(ValueError, match="conflicting"):
        tensor_from_entries(2, 2, [((1, 2), 1.0), ((2, 1), 2.0)])
    # same value twice is fine
    tensor_from_entries(2, 2, [((1, 2), 1.0), ((2, 1), 1.0)])
    with pytest.raises(ValueError, match="out of range"):
        tensor_from_entries(2, 2, [((1, 3), 1.0)])
    with pytest.raises(ValueError, match="length"):
        tensor_from_entries(2, 2, [((1, 2, 2), 1.0)])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.permutations(list(range(4))))
def test_lookup_invariant_under_any_permutation(seed, perm):
    rng = np.random.default_rng(seed)
    t = random_tensor(4, 3, rng)
    idx = tuple(rng.integers(1, 4, size=4))
    shuffled = tuple(idx[p] for p in perm)
    assert t.lookup(idx) == t.lookup(shuffled)


def test_immutability():
    t = random_tensor(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        t.values[0] = 99.0
    with pytest.raises(AttributeError):
        t.order = 5


def test_identity_action_is_exact():
    rng = np.random.default_rng(7)
    for order, dim in [(2, 3), (3, 4), (4, 2)]:
        t = random_tensor(order, dim, rng)
        out = multilinear_transform(np.eye(dim), t)
        assert out.allclose(t, 0.0)


def test_group_action_composition():
    rng = np.random.default_rng(11)
    for order in range(2, 5):
        for dim in range(2, 5):
            t = random_tensor(order, dim, rng)
            a = rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim))
            lhs = multilinear_transform(a @ b, t)
            rhs = multilinear_transform(a, multilinear_transform(b, t))
            assert lhs.allclose(rhs, 1e-12 * max(1.0, lhs.max_abs()))


def test_naive_and_modewise_transforms_agree():
    # the mode-wise kernel must agree with the direct-sum reference
    rng = np.random.default_rng(3)
    for order in (2, 3, 4):
        for dim in (3, 4):
            t = random_tensor(order, dim, rng)
            a = rng.standard_normal((dim, dim))
            np.testing.assert_allclose(
                multilinear_transform(a, t).to_dense(), direct_sum(a, t.to_dense()), atol=1e-11
            )


def test_high_order_transform_uses_modewise_route():
    rng = np.random.default_rng(31)
    t = random_tensor(5, 2, rng)
    q = rng.standard_normal((2, 2))
    out = multilinear_transform(q, t)
    np.testing.assert_allclose(out.to_dense(), direct_sum(q, t.to_dense()), atol=1e-12)


def test_modewise_kernel_contracts_leading_modes_like_tensordot():
    # a 1 x d matrix leaves its contracted modes as trailing axes of length 1; a vector drops them
    rng = np.random.default_rng(37)
    for dim in range(1, 6):
        for order in range(1, 7):
            dense = random_tensor(order, dim, rng).to_dense()
            x = rng.standard_normal(dim)
            want = dense
            for k in range(order + 1):
                if k:
                    want = np.tensordot(want, x, axes=(0, 0))
                got = _transform_modewise(x[None], dense, k)
                assert got.shape == (dim,) * (order - k) + (1,) * k
                np.testing.assert_allclose(got.reshape(want.shape), want, rtol=1e-12, atol=0)
                np.testing.assert_array_equal(_transform_modewise(x, dense, k), got.reshape(want.shape))


def test_transform_dimension_mismatch():
    t = random_tensor(3, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="does not match"):
        multilinear_transform(np.eye(4), t)


def test_transform_preserves_example_partition_sparsity():
    # the worked counterexample matrix keeps the two-block sparsity pattern
    q = 0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1.0]])
    t = tensor_from_entries(
        3,
        4,
        [
            ((1, 1, 1), 1.0), ((1, 2, 2), 1.0), ((1, 1, 2), 2.0), ((2, 2, 2), 2.0),
            ((3, 3, 3), 3.0), ((3, 4, 4), 3.0), ((3, 3, 4), 5.0), ((4, 4, 4), 5.0),
        ],
    )
    out = multilinear_transform(q, t)
    blocks = {1: 0, 2: 0, 3: 1, 4: 1}
    for idx, val in out.entries():
        if len({blocks[i] for i in idx}) > 1:
            assert abs(val) < 1e-12, idx


def test_marginalize_all_ones():
    t = SymmetricTensor(2, 3, np.ones(num_entries(3, 2)))
    m = marginalize(t)
    np.testing.assert_allclose(m.to_dense(), np.full(3, 3.0))


def test_marginalize_identity_covariance():
    t = tensor_from_entries(2, 2, [((1, 1), 1.0), ((2, 2), 1.0)])
    np.testing.assert_allclose(marginalize(t).to_dense(), np.ones(2))


def test_marginalize_position_independent_and_bruteforce():
    rng = np.random.default_rng(5)
    t = random_tensor(4, 3, rng)
    outs = [marginalize(t, position=p) for p in range(1, 5)]
    for other in outs[1:]:
        assert outs[0].allclose(other, 0.0)
    # repeated marginalization down to a matrix vs a brute-force quadruple sum
    m = marginalize(marginalize(t))
    dense = t.to_dense()
    brute = np.zeros((3, 3))
    for i, j in itertools.product(range(3), repeat=2):
        brute[i, j] = sum(
            dense[a, b, i, j] for a, b in itertools.product(range(3), repeat=2)
        )
    np.testing.assert_allclose(m.to_dense(), brute, atol=1e-12)


def test_marginalize_requires_order_two():
    t = SymmetricTensor(1, 3, np.ones(3))
    with pytest.raises(ValueError, match="order >= 2"):
        marginalize(t)


def test_polynomial_diagonal_and_zero():
    t = tensor_from_entries(3, 3, [((i, i, i), 1.0) for i in range(1, 4)])
    x = np.array([1.0, 2.0, -1.0])
    assert polynomial_eval(t, x) == pytest.approx((x**3).sum())
    assert polynomial_eval(t, np.zeros(3)) == 0.0


def test_polynomial_transform_compatibility():
    # f_{A.T}(x) == f_T(A^T x)
    rng = np.random.default_rng(13)
    for _ in range(100):
        t = random_tensor(3, 3, rng)
        a = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        lhs = polynomial_eval(multilinear_transform(a, t), x)
        rhs = polynomial_eval(t, a.T @ x)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(rhs)))


def test_polynomial_dimension_mismatch():
    t = random_tensor(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="shape"):
        polynomial_eval(t, np.ones(4))


def test_hessian_quadratic_case():
    rng = np.random.default_rng(17)
    t = random_tensor(2, 4, rng)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(hessian_eval(t, x), 2.0 * t.to_dense(), atol=1e-14)


def test_hessian_transform_identity():
    # Hessian of f_{Q.T} at x equals Q H(Q^T x) Q^T
    rng = np.random.default_rng(19)
    for _ in range(20):
        t = random_tensor(3, 3, rng)
        q = rng.standard_normal((3, 3))
        x = rng.standard_normal(3)
        lhs = hessian_eval(multilinear_transform(q, t), x)
        rhs = q @ hessian_eval(t, q.T @ x) @ q.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.abs(rhs).max()))


def test_hessian_against_finite_differences():
    rng = np.random.default_rng(23)
    t = random_tensor(3, 3, rng)
    x = rng.standard_normal(3)
    h = 1e-5
    fd = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            ea = np.eye(3)[a] * h
            eb = np.eye(3)[b] * h
            fd[a, b] = (
                polynomial_eval(t, x + ea + eb)
                - polynomial_eval(t, x + ea - eb)
                - polynomial_eval(t, x - ea + eb)
                + polynomial_eval(t, x - ea - eb)
            ) / (4 * h * h)
    exact = hessian_eval(t, x)
    rel = np.abs(fd - exact).max() / max(1.0, np.abs(exact).max())
    assert rel < 1e-4


def test_hessian_requires_order_two():
    t = SymmetricTensor(1, 2, np.ones(2))
    with pytest.raises(ValueError, match="order >= 2"):
        hessian_eval(t, np.ones(2))


def test_order_cap():
    with pytest.raises(ValueError, match="order"):
        SymmetricTensor(9, 2)


def test_json_round_trip_and_colex_order(tmp_path):
    rng = np.random.default_rng(29)
    t = random_tensor(3, 3, rng)
    obj = tensor_to_json(t)
    ranks = [canonical_rank(tuple(e["idx"])) for e in obj["entries"]]
    assert ranks == sorted(ranks)  # writer emits colex order
    back = tensor_from_json(obj)
    assert t.allclose(back, 0.0)
    path = tmp_path / "t.json"
    save_tensor(t, path)
    assert load_tensor(path).allclose(t, 0.0)


def test_json_refuses_non_finite_values_before_writing(tmp_path):
    path = tmp_path / "t.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_tensor(tensor_from_entries(2, 2, [((1, 2), value)]), path)
        assert not path.exists()


def test_json_omits_zero_entries():
    t = tensor_from_entries(2, 3, [((1, 2), 4.0)])
    obj = tensor_to_json(t)
    assert obj["entries"] == [{"idx": [1, 2], "val": 4.0}]


def test_construction_and_shape_errors():
    with pytest.raises(ValueError, match="unique entries"):
        SymmetricTensor(2, 2, np.ones(5))
    with pytest.raises(ValueError, match="hypercubic"):
        SymmetricTensor.from_dense(np.ones((2, 3)))
    asym = np.zeros((2, 2))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        SymmetricTensor.from_dense(asym, tol=1e-12)
    t = tensor_from_entries(2, 2, [((1, 1), 1.0)])
    with pytest.raises(ValueError, match="position"):
        marginalize(t, position=3)
    with pytest.raises(ValueError, match="index length"):
        t.lookup((1, 1, 1))
    with pytest.raises(ValueError, match="shape"):
        hessian_eval(t, np.ones(3))

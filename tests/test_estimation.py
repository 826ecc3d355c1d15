import gc
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pica.estimation import (
    _CSV_BLOCK_ROWS,
    DegenerateDataError,
    center,
    read_csv,
    sample_cumulant,
    sample_moment,
    sample_moments,
    whiten,
    write_csv,
)
from pica.partitions import cumulants_to_moments, moments_to_cumulants
from pica.tensor import (
    MAX_DENSE_ENTRIES,
    SymmetricTensor,
    canonical_indices,
    multilinear_transform,
    tensor_from_entries,
)


def reference_moment(x, r):
    """Per-entry product loop: each column product rebuilt from scratch, left to right."""
    idxs = sorted(itertools.combinations_with_replacement(range(1, x.shape[1] + 1), r), key=lambda t: t[::-1])
    vals = np.empty(len(idxs))
    for rank, idx in enumerate(idxs):
        prod = x[:, idx[0] - 1].copy()
        for col in idx[1:]:
            prod *= x[:, col - 1]
        vals[rank] = prod.mean()
    return vals


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(1, 40),
    st.sampled_from(["C", "F", "slice"]),
    st.integers(0, 2**32 - 1),
)
@example(1, 8, 1, "C", 0)
@example(5, 8, 1, "slice", 1)
@example(3, 4, 3, "F", 2)
def test_walk_matches_per_entry_reference_bit_for_bit(d, r, n, layout, seed):
    wide = np.random.default_rng(seed).standard_normal((n, d + 2))
    x = {"C": np.ascontiguousarray(wide[:, :d]), "F": np.asfortranarray(wide[:, :d]), "slice": wide[:, 1 : d + 1]}[layout]
    moments = sample_moments(x, r)
    assert [m.order for m in moments] == list(range(1, r + 1))
    for k, m in enumerate(moments, start=1):
        assert np.array_equal(m.values, reference_moment(x, k)), (k, layout)


@pytest.mark.parametrize("d", [1, 3])
def test_walk_divides_raw_sums_as_mean_does_at_one_row(d):
    # at n = 1 each sum is the product itself, signed zeros included
    x = np.array([[-0.0, 1.5, -3.0][:d]])
    for k, m in enumerate(sample_moments(x, 8), start=1):
        assert m.values.tobytes() == reference_moment(x, k).tobytes()


def test_sample_moments_leave_no_reference_cycle():
    # a cycle would hold the (n, d) column copy and the product rows until the collector runs
    x = np.random.default_rng(0).standard_normal((1000, 3))
    gc.collect()
    gc.disable()
    try:
        sample_moments(x, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_constant_rows_moment():
    c = 1.7
    x = np.full((10, 3), c)
    for r in (1, 2, 3):
        t = sample_moment(x, r)
        assert np.allclose(t.values, c**r)


def test_two_row_hand_computation():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    mu2 = sample_moment(x, 2)
    np.testing.assert_allclose(mu2.to_dense(), 0.5 * np.eye(2))


def test_gaussian_fourth_moment_matches_conversion_oracle():
    # oracle: the Gaussian cumulant spec pushed through the partition sum
    kappas = [
        SymmetricTensor(1, 1),
        tensor_from_entries(2, 1, [((1, 1), 1.0)]),
        SymmetricTensor(3, 1),
        SymmetricTensor(4, 1),
    ]
    expected = cumulants_to_moments(kappas)[3].lookup((1, 1, 1, 1))
    assert expected == 3.0
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1_000_000, 3))
    mu4 = sample_moment(x, 4)
    for i in range(1, 4):
        assert abs(mu4.lookup((i, i, i, i)) - expected) < 0.05


def test_moment_order_range():
    x = np.zeros((5, 2))
    with pytest.raises(ValueError):
        sample_moment(x, 0)
    with pytest.raises(ValueError):
        sample_moment(x, 9)


def test_centered_second_cumulant_is_covariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 3)) @ rng.standard_normal((3, 3))
    xc, _ = center(x)
    k2 = sample_cumulant(xc, 2)
    cov = xc.T @ xc / xc.shape[0]
    np.testing.assert_allclose(k2.to_dense(), cov, atol=1e-12)


def test_gaussian_higher_cumulants_vanish():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200_000, 3))
    assert sample_cumulant(x, 3).max_abs() < 0.05
    assert sample_cumulant(x, 4).max_abs() < 0.08


def test_independent_nongaussian_cross_cumulants_vanish():
    rng = np.random.default_rng(3)
    n = 200_000
    x = np.column_stack([rng.exponential(1.0, n) - 1.0, rng.exponential(1.0, n) - 1.0])
    k3 = sample_cumulant(x, 3)
    for idx, v in k3.entries():
        if len(set(idx)) > 1:
            assert abs(v) < 0.05, idx
    # diagonal skewness of Exp(1) is 2
    assert k3.lookup((1, 1, 1)) > 1.5
    assert k3.lookup((2, 2, 2)) > 1.5


def test_center_properties():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((100, 3)) + np.array([1.0, -2.0, 0.5])
    xc, mean = center(x)
    assert np.abs(xc.mean(axis=0)).max() < 1e-12
    xcc, mean2 = center(xc)
    np.testing.assert_allclose(xcc, xc, atol=1e-12)
    assert np.abs(mean2).max() < 1e-12
    # constant column
    y = np.column_stack([np.full(50, 3.0), rng.standard_normal(50)])
    yc, ymean = center(y)
    assert np.abs(yc[:, 0]).max() == 0.0
    assert ymean[0] == pytest.approx(3.0)


def test_whiten_already_white():
    # four points with exact identity sample covariance
    x = np.array([[np.sqrt(2), 0], [-np.sqrt(2), 0], [0, np.sqrt(2)], [0, -np.sqrt(2)]])
    res = whiten(x)
    np.testing.assert_allclose(res.transform, np.eye(2), atol=1e-12)


def test_whiten_closed_form_diagonal():
    # exact sample covariance diag(4, 1) -> transform diag(1/2, 1)
    x = np.array([[np.sqrt(8), 0], [-np.sqrt(8), 0], [0, np.sqrt(2)], [0, -np.sqrt(2)]])
    res = whiten(x)
    np.testing.assert_allclose(res.transform, np.diag([0.5, 1.0]), atol=1e-6)


def test_whiten_contract_and_row_map():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4000, 3)) @ rng.standard_normal((3, 3)) + 2.0
    res = whiten(x)
    n = x.shape[0]
    cov = res.whitened.T @ res.whitened / n
    assert np.abs(cov - np.eye(3)).max() < 1e-8
    np.testing.assert_allclose(res.whitened, (x - res.mean) @ res.transform.T, atol=1e-12)
    # second-order cumulant of whitened data is the identity
    k2 = sample_cumulant(res.whitened, 2)
    assert np.abs(k2.to_dense() - np.eye(3)).max() < 1e-8
    # transform is symmetric positive definite
    np.testing.assert_allclose(res.transform, res.transform.T, atol=1e-12)
    assert np.linalg.eigvalsh(res.transform).min() > 0


def test_whiten_degenerate_data():
    rng = np.random.default_rng(6)
    col = rng.standard_normal(100)
    x = np.column_stack([col, col])  # rank 1
    with pytest.raises(DegenerateDataError):
        whiten(x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 60), st.integers(0, 2**32 - 1))
@example(4, 8, 60, 0)
def test_sample_cumulant_equivariance(d, r, n, seed):
    # kappa_r(X A^T) = A . kappa_r(X) holds exactly for plug-in estimators; rounding
    # is measured against (max |x| * max row sum |A|)^r, which bounds every moment product
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    a = rng.standard_normal((d, d))
    lhs = sample_cumulant(x @ a.T, r)
    rhs = multilinear_transform(a, sample_cumulant(x, r))
    scale = (np.abs(x).max() * np.abs(a).sum(axis=1).max()) ** r
    assert np.abs(lhs.values - rhs.values).max() <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_sample_moment_cumulant_round_trip(d, r, n, seed):
    x = np.random.default_rng(seed).standard_normal((n, d))
    moments = sample_moments(x, r)
    back = cumulants_to_moments(moments_to_cumulants(moments))
    for mu, mu_back in zip(moments, back):
        assert np.abs(mu_back.values - mu.values).max() <= 1e-10 * max(mu.max_abs(), 1.0)


def test_unique_entry_budget_refused_before_building():
    x = np.zeros((1, 60))
    count = math.comb(67, 8)
    assert count > MAX_DENSE_ENTRIES
    for call in (lambda: sample_moments(x, 8), lambda: canonical_indices(60, 8), lambda: SymmetricTensor(8, 60)):
        with pytest.raises(ValueError, match=f"d = 60, r = 8 has C\\(d\\+r-1, r\\) = {count} "):
            call()


def test_sample_cumulant_overflow_is_refused_without_a_warning():
    x = 1e100 * np.random.default_rng(0).standard_normal((50, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(sample_cumulant(x, 2).values).all()
        with pytest.raises(ValueError, match="^the order-4 sample cumulant overflows a float"):
            sample_cumulant(x, 4)


def test_sample_multilinearity_is_exact():
    rng = np.random.default_rng(7)
    for r in (3, 4):
        x = rng.standard_normal((1000, 3))
        a = rng.standard_normal((3, 3))
        lhs = sample_cumulant(x @ a.T, r)
        rhs = multilinear_transform(a, sample_cumulant(x, r))
        assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_cumulant_additivity_for_independent_samples():
    rng = np.random.default_rng(8)
    n = 100_000
    x = np.column_stack([rng.uniform(-1, 1, n) for _ in range(2)])
    y = np.column_stack([rng.exponential(1.0, n) - 1.0 for _ in range(2)])
    kx = sample_cumulant(x, 3)
    ky = sample_cumulant(y, 3)
    kxy = sample_cumulant(x + y, 3)
    scale = max(kx.max_abs(), ky.max_abs(), 1.0)
    tol = 5.0 / np.sqrt(n) * scale
    assert np.abs(kxy.values - kx.values - ky.values).max() < tol


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((20, 3))
    path = tmp_path / "data.csv"
    write_csv(path, x)
    back = read_csv(path)
    np.testing.assert_allclose(back, x, atol=0)
    # headerless single-column data still parses as a matrix
    write_csv(path, x[:, :1])
    assert read_csv(path).shape == (20, 1)


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (_CSV_BLOCK_ROWS - 1, 3), (_CSV_BLOCK_ROWS, 8), (_CSV_BLOCK_ROWS + 1, 8), (3 * _CSV_BLOCK_ROWS, 2)],
)
def test_write_csv_matches_savetxt_bytes(tmp_path, shape):
    x = np.random.default_rng(shape[0]).standard_normal(shape) * 10.0 ** np.arange(shape[1])
    write_csv(tmp_path / "block.csv", x)
    np.savetxt(tmp_path / "numpy.csv", x, fmt="%.17g", delimiter=",")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()


def test_write_csv_extreme_values_match_savetxt_and_round_trip(tmp_path):
    x = np.array([[-0.0, 5e-324, -1.5e-300, 1.7e308], [1.0, -2.5, 1e-5, 123456789.0]])
    write_csv(tmp_path / "block.csv", x)
    np.savetxt(tmp_path / "numpy.csv", x, fmt="%.17g", delimiter=",")
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
    back = read_csv(tmp_path / "block.csv")
    assert back.tobytes() == x.tobytes()  # bitwise, so the sign of -0.0 survives


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_write_csv_compresses_what_read_csv_decompresses(tmp_path, suffix):
    x = np.random.default_rng(3).standard_normal((50, 3))
    write_csv(tmp_path / f"data.csv{suffix}", x)
    assert read_csv(tmp_path / f"data.csv{suffix}").tobytes() == x.tobytes()


def test_non_finite_rejected():
    x = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        sample_moment(x, 2)

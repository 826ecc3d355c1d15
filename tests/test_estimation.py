import gc
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pica import estimation
from pica.estimation import (
    _CSV_BLOCK_VALUES,
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


def exact_moments(x, r):
    """Every moment of orders 1..r as an exact Fraction, and the exact mean of |products|, in colex order."""
    n, d = x.shape
    rows = {(): [Fraction(1)] * n}
    exact, scale = [], []
    for k in range(1, r + 1):
        for idx in canonical_indices(d, k):
            t = tuple(int(i) for i in idx)
            rows[t] = [p * Fraction(float(v)) for p, v in zip(rows[t[:-1]], x[:, t[-1] - 1])]
            exact.append(sum(rows[t]) / n)
            scale.append(sum(map(abs, rows[t])) / n)
    return exact, scale


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 40), st.booleans(), st.integers(0, 2**32 - 1))
@example(5, 8, 40, True, 0)
@example(1, 1, 1, False, 1)
def test_moments_match_exact_means_within_rounding(d, r, n, split, seed):
    # An order-k mean rounds k - 1 products, at most 2n additions over the
    # rows and the blocks, and one division: within (k + 2n + 1) u of the
    # mean of |products|, u = 2^-53.  Split, each BLAS product takes at most
    # 128 multiply-adds or one observation.
    x = np.random.default_rng(seed).standard_normal((n, d))
    estimation._moment_plan.cache_clear()
    try:
        with mock.patch.object(estimation, "_PRODUCT_MACS", 128 if split else estimation._PRODUCT_MACS):
            got = np.concatenate([m.values for m in sample_moments(x, r)])
    finally:
        estimation._moment_plan.cache_clear()
    exact, scale = exact_moments(x, r)
    orders = np.concatenate([np.full(math.comb(d + k - 1, k), k) for k in range(1, r + 1)])
    for value, mean, mean_abs, k in zip(got, exact, scale, orders):
        assert abs(Fraction(float(value)) - mean) <= (k + 2 * n + 1) * Fraction(2) ** -53 * mean_abs, (k, value)


# (d, r, n): one row; fewer rows than one block; a last block shorter than the others, at
# d = 13, r = 8 in blocks of 64 rows (2380 product rows, 84 products per block).
_BLOCK_ROWS = max(estimation._BLOCK_ROWS_MIN, estimation._BLOCK_ENTRIES // math.comb(3 + 3, 3))


@pytest.mark.parametrize(
    "d, r, n", [(3, 6, 1), (3, 6, _BLOCK_ROWS // 2), (3, 5, 2 * _BLOCK_ROWS + 5), (13, 8, 70)]
)
def test_moments_are_bit_identical_across_layouts_and_calls(d, r, n):
    x = np.random.default_rng(n).standard_normal((n, d))
    wide = np.zeros((n, d + 2))
    wide[:, 1 : d + 1] = x
    bits = [
        b"".join(m.values.tobytes() for m in sample_moments(layout, r))
        for layout in (x, np.asfortranarray(x), wide[:, 1 : d + 1], x)
    ]
    assert bits[1:] == bits[:-1]


# r = 1 and 2 reach BLAS dots and matrix-vector products, which OpenBLAS threads at other sizes than matrix
# products; whitening at d = 1 reaches them too
_THREADS_SCRIPT = """
import hashlib, numpy as np
from pica.estimation import sample_moments, whiten
from pica.patterns import PartitionSpec, pattern_from_partition
from pica.recovery import RecoveryOptions, estimate_unmixing
from pica.simulate import gen_partitioned_sources, mix
sha = hashlib.sha256()
for d, r, n in ((1, 1, 20000), (2, 1, 20000), (1, 2, 20000), (2, 2, 20000), (4, 8, 20000), (8, 4, 5000), (13, 8, 70)):
    for m in sample_moments(np.random.default_rng(d).standard_normal((n, d)), r):
        sha.update(m.values.tobytes())
for d in (1, 2, 8):
    white = whiten(np.random.default_rng(d).standard_normal((50000, d)) + 1.0)
    for array in (white.whitened, white.transform, white.mean):
        sha.update(array.tobytes())
spec = PartitionSpec(4, ((1, 2), (3, 4)))
y = mix(gen_partitioned_sources(20000, spec, "uniform", 3), np.random.default_rng(4).standard_normal((4, 4)))
report = estimate_unmixing(y, pattern_from_partition(spec, 4), RecoveryOptions(restarts=2, seed=5))
for array in (y, report.unmixing, report.mean, np.array(report.objective_per_restart)):
    sha.update(array.tobytes())
print(sha.hexdigest())
"""


def test_moments_do_not_depend_on_the_blas_thread_count():
    src = str(Path(estimation.__file__).resolve().parent.parent)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, capture_output=True, text=True, check=True)
        digests.append(run.stdout)
    assert digests[0] == digests[1]


# (d, r, n) for the streamed whitening: fewer rows than one moment block; a last moment block of one row (the
# 10 product rows of d = 3, r = 3..4 take 3276 observations per block); a last whitening product of one row
# (29127 rows at d = 3); several blocks of both at d = 8; r = 6.
_MOMENT_ROWS = max(estimation._BLOCK_ROWS_MIN, estimation._BLOCK_ENTRIES // math.comb(3 + 2, 2))
_STREAM_CASES = [
    (3, 4, 100),
    (3, 4, 2 * _MOMENT_ROWS + 1),
    (3, 3, estimation._product_rows(3, 3) + 1),
    (8, 4, 5000),
    (5, 6, 700),
]


@pytest.mark.parametrize("d, r, n", _STREAM_CASES)
def test_streamed_whitened_cumulant_is_the_two_step_one_bit_for_bit(d, r, n):
    rng = np.random.default_rng(n)
    x = rng.uniform(-1.0, 1.0, (n, d)) @ rng.standard_normal((d, d)) + 2.0
    wide = np.zeros((n, d + 2))
    wide[:, 1 : d + 1] = x
    bits = []
    for layout in (x, np.asfortranarray(x), wide[:, 1 : d + 1]):
        white = whiten(layout)
        two_step = (white.mean, white.transform, sample_cumulant(white.whitened, r).values)
        mean, transform = estimation._whitening(layout)
        streamed = (mean, transform, estimation._cumulant(layout, r, (mean, transform)).values)
        assert [a.tobytes() for a in two_step] == [a.tobytes() for a in streamed]
        bits.append(b"".join(a.tobytes() for a in two_step) + white.whitened.tobytes())
    assert bits[1:] == bits[:-1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_whitened_moments_of_few_rows_are_those_of_the_whitened_rows(n):
    # one row cannot be whitened, so any affine map stands in for the whitening
    rng = np.random.default_rng(n)
    x, mean, transform = rng.standard_normal((n, 4)), rng.standard_normal(4), rng.standard_normal((4, 4))
    streamed = estimation._moments(x, 5, (mean, transform))
    two_step = sample_moments(estimation._rows_times(x, transform, mean), 5)
    assert [m.values.tobytes() for m in streamed] == [m.values.tobytes() for m in two_step]
    if n == 1:
        with pytest.raises(DegenerateDataError):
            whiten(x)


def test_moments_take_one_walk_over_the_rows():
    # one walk over the rows whitens each block once, however many sums it holds: more than 2^21 at d = 18, r = 8
    rng = np.random.default_rng(18)
    x, mean, transform = rng.standard_normal((2, 18)), rng.standard_normal(18), rng.standard_normal((18, 18))
    try:
        with mock.patch.object(estimation, "_rows_times", wraps=estimation._rows_times) as rows_times:
            streamed = estimation._moments(x, 8, (mean, transform))
        assert rows_times.call_count == 1
        two_step = sample_moments(estimation._rows_times(x, transform, mean), 8)
        assert [m.values.tobytes() for m in streamed] == [m.values.tobytes() for m in two_step]
    finally:
        estimation._moment_plan.cache_clear()  # the plan holds about 234 MB


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_moments_refuse_a_non_finite_value_in_the_last_block_without_a_check_pass(bad):
    x = np.random.default_rng(0).standard_normal((2 * _BLOCK_ROWS + 5, 3))
    x[-1, -1] = bad
    with mock.patch.object(estimation, "as_sample_matrix", side_effect=AssertionError("a separate check pass")):
        with pytest.raises(ValueError, match="non-finite"):
            sample_moments(x, 6)
        with pytest.raises(ValueError, match="non-finite"):
            sample_cumulant(x, 6)


@pytest.mark.parametrize("d", range(1, 12))
def test_row_blocked_products_are_one_product_bit_for_bit(d):
    # a last block of one row, which is padded to two: a one-row product is a matrix-vector one
    step = estimation._product_rows(d, d)
    rng = np.random.default_rng(d)
    x, a, shift = rng.standard_normal((2 * step + 1, d)), rng.standard_normal((d, d)), rng.standard_normal(d)
    assert estimation._rows_times(x, a).tobytes() == (x @ a.T).tobytes()
    assert estimation._rows_times(x, a, shift).tobytes() == ((x - shift) @ a.T).tobytes()


@pytest.mark.parametrize("d", [1, 3])
def test_one_row_moments_are_the_row_products(d):
    # at n = 1 each sum is the product itself; the BLAS sums start from +0.0, so zeros lose their sign
    x = np.array([[-0.0, 1.5, -3.0][:d]])
    exact, _ = exact_moments(x, 8)
    assert np.concatenate([m.values for m in sample_moments(x, 8)]).tolist() == [float(v) for v in exact]


def test_sample_moments_leave_no_reference_cycle():
    # a cycle would hold the product rows and the sums until the collector runs
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


def test_center_mean_is_whitens_mean_bit_for_bit():
    # 20k rows are several blocks of whiten's mean pass, whose sums differ from x.mean's in the last bits
    x = np.random.default_rng(8).standard_normal((20_000, 4)) * [1.0, 3.0, 1e-3, 50.0] + [0.1, -7.0, 2.0, 1e3]
    xc, mean = center(x)
    assert mean.tobytes() == whiten(x).mean.tobytes()
    assert xc.tobytes() == (x - whiten(x).mean).tobytes()


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


@pytest.mark.parametrize("order", ["C", "F"])
def test_npy_round_trip_is_bit_exact_and_mapped(tmp_path, order):
    x = np.asarray(np.random.default_rng(11).standard_normal((300, 4)) * 10.0 ** np.arange(4), order=order)
    x[0, 0] = -0.0
    write_csv(tmp_path / "data.npy", x)
    back = read_csv(tmp_path / "data.npy")
    assert back.tobytes() == np.ascontiguousarray(x).tobytes()
    assert isinstance(back.base, np.memmap)
    assert whiten(back).whitened.tobytes() == whiten(x).whitened.tobytes()
    # a CSV path still gets text, whatever other file sits next to it
    write_csv(tmp_path / "data.csv", x)
    assert read_csv(tmp_path / "data.csv").tobytes() == back.tobytes()


def test_npy_of_the_wrong_shape_or_values_is_refused(tmp_path):
    np.save(tmp_path / "flat.npy", np.ones(5))
    np.save(tmp_path / "nan.npy", np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError, match="2-D"):
        read_csv(tmp_path / "flat.npy")
    with pytest.raises(ValueError, match="finite"):
        read_csv(tmp_path / "nan.npy")
    (tmp_path / "text.npy").write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match=r"text\.npy is not a \.npy file"):
        read_csv(tmp_path / "text.npy")


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
    [(1, 1), (_CSV_BLOCK_VALUES // 3 - 1, 3), (_CSV_BLOCK_VALUES // 8, 8), (_CSV_BLOCK_VALUES // 8 + 1, 8),
     (3 * _CSV_BLOCK_VALUES // 2, 2)],
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


def _savetxt_bytes(x) -> bytes:
    buffer = io.BytesIO()
    np.savetxt(buffer, x, fmt="%.17g", delimiter=",")
    return buffer.getvalue()


def _write_csv_bytes(x) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        write_csv(os.path.join(tmp, "x.csv"), x)
        return Path(tmp, "x.csv").read_bytes()


_any_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 6)),
              elements=st.one_of(_any_finite, st.floats(-1e18, 1e18), st.floats(-1e-3, 1e-3))))
@example(np.array([[1.0]]))
@example(np.array([[-0.0, 5e-324, 1e-4, 1e17, 123.5]]))
def test_write_csv_matches_savetxt_on_any_finite_matrix(x):
    assert _write_csv_bytes(x) == _savetxt_bytes(x)


def test_write_csv_rounds_exact_ties_half_even():
    # each has 18 significant digits ending in an exact 5: %.17g rounds it to the even neighbour
    ties = np.array([12345678 + 1 / 1024, 12345678 + 3 / 1024, 1234567 + 1 / 2048, 1234567 + 3 / 2048])
    x = np.concatenate([ties, -ties])[:, None]
    expected = [b"12345678.000976562", b"12345678.002929688", b"1234567.0004882812", b"1234567.0014648438"]
    assert _write_csv_bytes(x).split(b"\n")[:4] == expected
    assert _write_csv_bytes(x) == _savetxt_bytes(x)


def test_write_csv_next_to_powers_of_ten_and_the_fixed_form_edges():
    powers = 10.0 ** np.arange(-5, 18)
    x = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    # the smallest and largest magnitudes written without Python's %, and their neighbours outside that range
    edges = np.array([1e-4, np.nextafter(1e-4, 0), np.nextafter(1e17, 0), 1e17])
    x = np.concatenate([x, edges, -x, -edges]).reshape(-1, 2)
    assert _write_csv_bytes(x) == _savetxt_bytes(x)


def test_write_csv_subnormals_zeros_and_huge_values():
    x = np.array([[5e-324, -5e-324, 2.2250738585072009e-308, 0.0], [-0.0, 1.7e308, -1.7976931348623157e308, 1e-300]])
    assert _write_csv_bytes(x) == _savetxt_bytes(x)


def test_write_csv_reads_f_order_and_strided_input():
    x = np.random.default_rng(5).standard_normal((300, 12)) * 10.0 ** np.arange(-6, 18, 2)
    for view in (np.asfortranarray(x), x[::3, ::2], x[::-1, 1::5]):
        assert _write_csv_bytes(view) == _savetxt_bytes(np.ascontiguousarray(view))


def test_write_csv_places_python_formatted_values_anywhere_in_a_block():
    d = 8
    x = np.random.default_rng(6).standard_normal((3 * (_CSV_BLOCK_VALUES // d), d))
    rows = _CSV_BLOCK_VALUES // d
    # first and last column of a row, and the last value of a block and the first of the next
    for i, j, value in [(0, 0, 0.0), (5, d - 1, -1e-300), (rows - 1, d - 1, 1e200), (rows, 0, -0.0), (2 * rows, 0, 5e-324)]:
        x[i, j] = value
    assert _write_csv_bytes(x) == _savetxt_bytes(x)
    x[:, 3] = 0.0  # a column of them
    assert _write_csv_bytes(x) == _savetxt_bytes(x)


def test_write_csv_peak_memory_is_block_sized(tmp_path):
    x = np.random.default_rng(7).standard_normal((100_000, 8))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "x.csv", x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("name", ["x.csv", "x.csv.gz", "x.npy"])
def test_write_csv_refuses_a_non_finite_last_row_before_any_file_exists(tmp_path, name):
    # the last row is a block of its own in the finiteness check, after 42 blocks of the text writer
    x = np.random.default_rng(2).standard_normal((2 * estimation._product_rows(4, 4) + 1, 4))
    x[-1] = [1.0, np.nan, -np.inf, 2.0]
    with pytest.raises(ValueError, match="non-finite"):
        write_csv(tmp_path / name, x)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_write_csv_compresses_what_read_csv_decompresses(tmp_path, suffix):
    x = np.random.default_rng(3).standard_normal((50, 3))
    write_csv(tmp_path / f"data.csv{suffix}", x)
    assert read_csv(tmp_path / f"data.csv{suffix}").tobytes() == x.tobytes()


def test_non_finite_rejected():
    x = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        sample_moment(x, 2)

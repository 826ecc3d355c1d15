import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pica.estimation import sample_cumulant, sample_moments
from pica.groups import random_orthogonal
from pica import partitions
from pica.partitions import MAX_CONVERSION_ENTRIES, cumulants_to_moments, enumerate_partitions, moments_to_cumulants
from pica.simulate import gen_independent_sources, mix
from pica.tensor import SymmetricTensor, num_entries, tensor_from_entries

BELL = [1, 2, 5, 15, 52, 203]


def random_sequence(dim, r, rng):
    return [SymmetricTensor(k, dim, rng.standard_normal(num_entries(dim, k))) for k in range(1, r + 1)]


def colex_tuples(dim, order):
    """Reference enumeration: the non-decreasing index tuples, sorted colexicographically."""
    return sorted(itertools.combinations_with_replacement(range(1, dim + 1), order), key=lambda t: t[::-1])


def colex_positions(dim, r):
    """Position of every non-decreasing tuple of orders 1..r in its colex enumeration."""
    return {idx: rank for k in range(1, r + 1) for rank, idx in enumerate(colex_tuples(dim, k))}


def per_entry_convert(tensors, weight):
    """Reference partition sum: one Python product per entry, partition and block.

    Sub-tuples are sorted and found by their position in the colex
    enumeration, independently of the package's rank function; each entry
    looks up a block's sub-tuple once.
    """
    dim = tensors[0].dim
    position = colex_positions(dim, len(tensors))
    values = [t.values.tolist() for t in tensors]
    out = []
    for k in range(1, len(tensors) + 1):
        parts = [(weight(len(part)), [tuple(p - 1 for p in block) for block in part]) for part in enumerate_partitions(k)]
        idxs = colex_tuples(dim, k)
        vals = np.empty(len(idxs))
        for rank, idx in enumerate(idxs):
            sub = {}
            acc = 0.0
            for term, blocks in parts:
                for block in blocks:
                    if block not in sub:
                        sub[block] = values[len(block) - 1][position[tuple(sorted(idx[p] for p in block))]]
                    term *= sub[block]
                acc += term
            vals[rank] = acc
        out.append(SymmetricTensor(k, dim, vals))
    return out


def per_entry_recursion(tensors, sign):
    """Reference first-block recursion, one Python product per entry and block B holding position 1.

    out_k[i] = given_k[i] + sign * sum over B != all of kappa_|B|[i_B] mu_(k-|B|)[i_(B^c)],
    with the complement B^c of positions 2..k enumerated as the bits of 1..2^(k-1)-1.
    """
    dim = tensors[0].dim
    position = colex_positions(dim, len(tensors))
    given = [t.values for t in tensors]
    made = []
    kappa, mu = (made, given) if sign < 0 else (given, made)
    for k in range(1, len(tensors) + 1):
        idxs = colex_tuples(dim, k)
        vals = np.empty(len(idxs))
        for rank, idx in enumerate(idxs):
            acc = 0.0
            for rest in range(1, 2 ** (k - 1)):
                c = tuple(idx[p] for p in range(1, k) if rest >> (p - 1) & 1)
                b = tuple(idx[p] for p in range(k) if p == 0 or not rest >> (p - 1) & 1)
                acc += float(kappa[len(b) - 1][position[b]]) * float(mu[len(c) - 1][position[c]])
            vals[rank] = given[k - 1][rank] + sign * acc
        made.append(vals)
    return [SymmetricTensor(k, dim, v) for k, v in enumerate(made, start=1)]


MOBIUS = [
    (moments_to_cumulants, lambda m: (-1) ** (m - 1) * math.factorial(m - 1)),
    (cumulants_to_moments, lambda m: 1.0),
]


def assert_matches_partition_sum(seq):
    """Both directions agree with the partition sum within 1e-12 * max(1, largest entry) per order."""
    for convert, weight in MOBIUS:
        for got, want in zip(convert(seq), per_entry_convert(seq, weight), strict=True):
            assert np.abs(got.values - want.values).max() <= 1e-12 * max(1.0, want.max_abs()), (convert, got)


def test_r3_partitions_match_worked_example():
    got = {frozenset(frozenset(b) for b in p) for p in enumerate_partitions(3)}
    want = {
        frozenset({frozenset({1, 2, 3})}),
        frozenset({frozenset({1}), frozenset({2, 3})}),
        frozenset({frozenset({2}), frozenset({1, 3})}),
        frozenset({frozenset({3}), frozenset({1, 2})}),
        frozenset({frozenset({1}), frozenset({2}), frozenset({3})}),
    }
    assert got == want


def test_single_element():
    assert enumerate_partitions(1) == (((1,),),)


def test_bell_counts():
    assert [len(enumerate_partitions(r)) for r in range(1, 7)] == BELL


def test_enumeration_order_is_stable():
    parts = enumerate_partitions(4)
    assert parts[0] == ((1, 2, 3, 4),)
    assert parts[-1] == ((1,), (2,), (3,), (4,))


def test_enumeration_order_matches_restricted_growth_strings():
    """Independent reference: restricted-growth strings in lexicographic order, split into blocks."""
    for r in range(1, 8):
        strings = sorted(
            a for a in itertools.product(*(range(p) for p in range(1, r + 1)))
            if all(a[p] <= max(a[:p]) + 1 for p in range(1, r))
        )
        want = tuple(
            tuple(tuple(p + 1 for p in range(r) if a[p] == b) for b in range(max(a) + 1)) for a in strings
        )
        assert enumerate_partitions(r) == want, r


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6))
def test_partitions_are_valid_and_canonical(r):
    seen = set()
    for part in enumerate_partitions(r):
        flat = sorted(i for b in part for i in b)
        assert flat == list(range(1, r + 1))  # disjoint cover
        mins = [b[0] for b in part]
        assert mins == sorted(mins)  # blocks ordered by minimum
        for b in part:
            assert list(b) == sorted(b)
        key = tuple(part)
        assert key not in seen
        seen.add(key)


def test_out_of_range():
    with pytest.raises(ValueError):
        enumerate_partitions(0)
    with pytest.raises(ValueError):
        enumerate_partitions(9)


def test_r3_cumulant_formula_matches_displayed_expansion():
    rng = np.random.default_rng(0)
    mus = random_sequence(3, 3, rng)
    kappas = moments_to_cumulants(mus)
    mu1, mu2, mu3 = mus
    for idx, got in kappas[2].entries():
        i1, i2, i3 = idx
        want = (
            mu3.lookup((i1, i2, i3))
            - mu2.lookup((i1, i2)) * mu1.lookup((i3,))
            - mu2.lookup((i1, i3)) * mu1.lookup((i2,))
            - mu2.lookup((i2, i3)) * mu1.lookup((i1,))
            + 2 * mu1.lookup((i1,)) * mu1.lookup((i2,)) * mu1.lookup((i3,))
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_r3_moment_formula_matches_displayed_expansion():
    rng = np.random.default_rng(1)
    kappas = random_sequence(3, 3, rng)
    mus = cumulants_to_moments(kappas)
    k1, k2, k3 = kappas
    for idx, got in mus[2].entries():
        i1, i2, i3 = idx
        want = (
            k3.lookup((i1, i2, i3))
            + k2.lookup((i1, i2)) * k1.lookup((i3,))
            + k2.lookup((i1, i3)) * k1.lookup((i2,))
            + k2.lookup((i2, i3)) * k1.lookup((i1,))
            + k1.lookup((i1,)) * k1.lookup((i2,)) * k1.lookup((i3,))
        )
        assert got == pytest.approx(want, abs=1e-12)


def test_zero_mean_second_order():
    rng = np.random.default_rng(2)
    mus = random_sequence(4, 2, rng)
    mus[0] = SymmetricTensor(1, 4)  # zero mean
    kappas = moments_to_cumulants(mus)
    assert kappas[1].allclose(mus[1], 0.0)


def test_deterministic_variable_moments_are_mean_powers():
    # all cumulants zero except the first: mu_r is the outer power of the mean
    mean = np.array([0.5, -2.0, 1.5])
    kappas = [tensor_from_entries(1, 3, [((i + 1,), mean[i]) for i in range(3)])]
    for k in range(2, 5):
        kappas.append(SymmetricTensor(k, 3))
    mus = cumulants_to_moments(kappas)
    for idx, got in mus[3].entries():
        want = np.prod([mean[i - 1] for i in idx])
        assert got == pytest.approx(want, abs=1e-12)


def test_gaussian_isserlis_fourth_moments():
    # kappa_1 = 0, kappa_2 = Id, kappa_3 = kappa_4 = 0 gives pairing moments
    kappas = [
        SymmetricTensor(1, 2),
        tensor_from_entries(2, 2, [((1, 1), 1.0), ((2, 2), 1.0)]),
        SymmetricTensor(3, 2),
        SymmetricTensor(4, 2),
    ]
    mu4 = cumulants_to_moments(kappas)[3]
    assert mu4.lookup((1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)
    assert mu4.lookup((1, 1, 1, 1)) == pytest.approx(3.0, abs=1e-12)
    assert mu4.lookup((1, 1, 1, 2)) == pytest.approx(0.0, abs=1e-12)


def test_round_trip_is_identity():
    rng = np.random.default_rng(3)
    for trial in range(10):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(2, 6))
        mus = random_sequence(d, r, rng)
        back = cumulants_to_moments(moments_to_cumulants(mus))
        for m, b in zip(mus, back):
            assert m.allclose(b, 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(2, 8, 0)
def test_conversion_matches_per_entry_reference_bit_for_bit(dim, r, seed):
    seq = random_sequence(dim, r, np.random.default_rng(seed))
    for convert, sign in [(moments_to_cumulants, -1.0), (cumulants_to_moments, 1.0)]:
        for got, want in zip(convert(seq), per_entry_recursion(seq, sign), strict=True):
            assert np.array_equal(got.values, want.values)
    assert_matches_partition_sum(seq)


@pytest.mark.parametrize("seed", range(4))
def test_one_dimensional_order_8_matches_per_entry_reference_bit_for_bit(seed):
    # every order has one entry, so each block of subsets is a single column
    seq = random_sequence(1, 8, np.random.default_rng(seed))
    for convert, sign in [(moments_to_cumulants, -1.0), (cumulants_to_moments, 1.0)]:
        for got, want in zip(convert(seq), per_entry_recursion(seq, sign), strict=True):
            assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("block_entries", [1, 10, 40])
def test_blocked_conversion_matches_one_block_bit_for_bit(monkeypatch, block_entries):
    # with a bound of 1 each tuple is a block of its own; 10 and 40 split the higher orders into several blocks
    rng = np.random.default_rng(5)
    seq = []
    for k in range(1, 9):
        values = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -3.0], num_entries(2, k))
        # entry (1, ..., 1) sums only zero products: a sum started from zeros is +0.0,
        # one started from the first product can be -0.0
        values[0] = -0.0
        seq.append(SymmetricTensor(k, 2, values))
    for convert, sign in [(moments_to_cumulants, -1.0), (cumulants_to_moments, 1.0)]:
        whole = convert(seq)
        monkeypatch.setattr(partitions, "_BLOCK_ENTRIES", block_entries)
        blocked = convert(seq)
        monkeypatch.undo()
        for got, one_block, want in zip(blocked, whole, per_entry_recursion(seq, sign), strict=True):
            assert got.values.tobytes() == one_block.values.tobytes() == want.values.tobytes()
    assert np.signbit(moments_to_cumulants(seq)[-1].values[0])


def test_sample_moment_conversion_matches_partition_sum_at_d4_r8():
    laws = ["uniform", "laplace_like", "rademacher_mixture", "exponential"]
    x = mix(gen_independent_sources(20_000, 4, laws, 0), random_orthogonal(4, 1))
    assert_matches_partition_sum(sample_moments(x, 8))


def test_inconsistent_sequences_rejected():
    rng = np.random.default_rng(4)
    good = random_sequence(3, 3, rng)
    with pytest.raises(ValueError, match="order"):
        moments_to_cumulants([good[0], good[2], good[1]])
    mixed = [good[0], SymmetricTensor(2, 4), good[2]]
    with pytest.raises(ValueError, match="dim"):
        moments_to_cumulants(mixed)
    with pytest.raises(ValueError, match="empty"):
        moments_to_cumulants([])


def test_conversion_over_its_budget_is_refused():
    # d=16, r=8: 490314 unique entries, held once per non-empty position subset
    tensors = [SymmetricTensor(k, 16) for k in range(1, 9)]
    assert num_entries(16, 8) * 255 > MAX_CONVERSION_ENTRIES
    with pytest.raises(ValueError, match=r"d = 16, r = 8 needs .* = 125030070 sub-tuple entries"):
        moments_to_cumulants(tensors)
    with pytest.raises(ValueError, match="sub-tuple entries"):
        sample_cumulant(np.zeros((2, 16)), 8)

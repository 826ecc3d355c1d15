import dataclasses
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pica import groups
from pica._rng import as_generator
from pica.groups import (
    BlockLabel,
    BlockStructure,
    classify_blocks,
    compatible_block_permutations,
    conjecture_probe,
    coset_residual,
    graph_automorphism_check,
    is_block_orthogonal,
    is_block_signed_permutation,
    is_signed_permutation,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    nearest_signed_permutation,
    orthogonality_defect,
    random_block_orthogonal,
    random_orthogonal,
    random_signed_permutation,
    save_matrix,
    signed_permutations,
)
from pica.patterns import (
    IndependenceGraph,
    PartitionSpec,
    diagonal_pattern,
    generic_sample,
    is_member,
    pattern_from_graph,
    pattern_from_partition,
)
from pica.tensor import multilinear_transform

EXAMPLE_Q = 0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1.0]])


def block_signed_permutation(structure, rng):
    """Element of the block signed-permutation group, for containment tests."""
    q = np.zeros((structure.dim, structure.dim))
    sizes = structure.sizes
    classes = {}
    for i, k in enumerate(sizes):
        classes.setdefault(k, []).append(i)
    sigma = [0] * len(sizes)
    for k, members in classes.items():
        for src, dst in zip(members, rng.permutation(members)):
            sigma[src] = int(dst)
    for i, j in enumerate(sigma):
        q[structure.span(i), structure.span(j)] = random_signed_permutation(sizes[i], rng)
    return q


def test_block_structure_basics():
    b = BlockStructure((2, 3, 1))
    assert b.dim == 6
    assert b.offsets == (0, 2, 5)
    assert b.span(1) == slice(2, 5)
    assert BlockStructure.from_string("2,2").sizes == (2, 2)
    with pytest.raises(ValueError):
        BlockStructure((0, 2))
    with pytest.raises(ValueError):
        BlockStructure(tuple([1] * 9))


def test_random_orthogonal_dimension_one():
    vals = {float(random_orthogonal(1, seed)[0, 0]) for seed in range(40)}
    assert vals <= {1.0, -1.0}
    assert len(vals) == 2


def test_random_orthogonal_defect():
    worst = max(orthogonality_defect(random_orthogonal(5, s)) for s in range(1000))
    assert worst < 1e-12


def test_random_orthogonal_sign_symmetry():
    # column sums should be symmetric about zero across draws
    rng = np.random.default_rng(0)
    sums = np.array([random_orthogonal(3, rng).sum(axis=0) for _ in range(10_000)])
    assert abs(sums.mean()) < 4.0 * sums.std() / np.sqrt(sums.size)


def test_random_signed_permutation_contract():
    assert float(random_signed_permutation(1, 3)[0, 0]) in (1.0, -1.0)
    for seed in range(50):
        q = random_signed_permutation(4, seed)
        assert is_signed_permutation(q, 0.0)


def test_random_signed_permutation_uniform_d2():
    # d=2: 8 elements; chi-square over 10^4 draws not rejected at 1%
    rng = np.random.default_rng(1)
    counts = {}
    draws = 10_000
    for _ in range(draws):
        q = random_signed_permutation(2, rng)
        counts[q.tobytes()] = counts.get(q.tobytes(), 0) + 1
    assert len(counts) == 8
    expected = draws / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 18.475  # chi2(7) at the 1% level


def test_random_block_orthogonal_shapes():
    b = BlockStructure((2, 2))
    shapes = set()
    for seed in range(40):
        q = random_block_orthogonal(b, seed)
        assert orthogonality_defect(q) < 1e-12
        assert is_block_orthogonal(q, b, 1e-12)
        top_right = b.block(q, 0, 1)
        occupied = np.abs(top_right).max() > 0.5
        shapes.add(occupied)
        # off-pattern entries are exactly zero
        if occupied:
            assert np.abs(b.block(q, 0, 0)).max() == 0.0
        else:
            assert np.abs(top_right).max() == 0.0
    assert shapes == {True, False}  # both block-diagonal and swapped occur


def test_random_block_orthogonal_plain_haar_when_single_block():
    b = BlockStructure((3,))
    q = random_block_orthogonal(b, 7)
    assert orthogonality_defect(q) < 1e-12


def test_random_block_orthogonal_incompatible_sizes_stay_diagonal():
    b = BlockStructure((2, 1))
    for seed in range(30):
        q = random_block_orthogonal(b, seed)
        assert np.abs(b.block(q, 0, 1)).max() == 0.0
        assert np.abs(b.block(q, 1, 0)).max() == 0.0


def test_compatible_block_permutations():
    assert sorted(compatible_block_permutations(BlockStructure((2, 2)))) == [(0, 1), (1, 0)]
    assert list(compatible_block_permutations(BlockStructure((2, 1)))) == [(0, 1)]
    assert len(list(compatible_block_permutations(BlockStructure((1, 1, 2, 2))))) == 4


def test_classify_blocks_block_diagonal():
    b = BlockStructure((2, 2))
    q = np.zeros((4, 4))
    q[:2, :2] = random_orthogonal(2, 0)
    q[2:, 2:] = random_orthogonal(2, 1)
    cls = classify_blocks(q, b)
    assert cls.labels[0][0] == BlockLabel.FULL_RANK
    assert cls.labels[1][1] == BlockLabel.FULL_RANK
    assert cls.labels[0][1] == BlockLabel.ZERO
    assert cls.labels[1][0] == BlockLabel.ZERO


def test_classify_blocks_example_all_singular():
    cls = classify_blocks(EXAMPLE_Q, BlockStructure((2, 2)))
    assert all(l == BlockLabel.SINGULAR_NONZERO for row in cls.labels for l in row)
    assert cls.count(BlockLabel.SINGULAR_NONZERO) == 4


def test_classify_blocks_haar_full_rank():
    b = BlockStructure((2, 2))
    full = sum(classify_blocks(random_orthogonal(4, s), b).all_full_rank() for s in range(100))
    assert full >= 99


def test_predicates_on_example_matrix():
    b = BlockStructure((2, 2))
    assert orthogonality_defect(EXAMPLE_Q) < 1e-15
    assert not is_block_orthogonal(EXAMPLE_Q, b, 1e-10)
    assert not is_block_signed_permutation(EXAMPLE_Q, b, 1e-10)
    assert not is_signed_permutation(EXAMPLE_Q, 1e-10)


def test_signed_permutation_with_singleton_blocks_passes_all():
    singles = BlockStructure((1, 1, 1, 1))
    for seed in range(20):
        q = random_signed_permutation(4, seed)
        assert is_signed_permutation(q, 0.0)
        assert is_block_orthogonal(q, singles, 0.0)
        assert is_block_signed_permutation(q, singles, 0.0)


def test_group_containments_by_construction():
    # SP(k) blocks -> block signed permutation -> block orthogonal -> orthogonal
    rng = np.random.default_rng(2)
    b = BlockStructure((2, 2))
    for _ in range(1000):
        q = block_signed_permutation(b, rng)
        assert is_block_signed_permutation(q, b, 0.0)
        assert is_block_orthogonal(q, b, 0.0)
        assert orthogonality_defect(q) < 1e-15
    for seed in range(1000):
        q = random_block_orthogonal(b, seed)
        assert is_block_orthogonal(q, b, 1e-12)
        assert orthogonality_defect(q) < 1e-12


def reference_block_verdicts(q, structure, tol):
    """(block-orthogonal, block signed permutation) by the per-block rule.

    Within tol: q is orthogonal, and each block row and column holds exactly
    one block with an entry above tol, of its own size.  For the second
    verdict each such block also holds exactly one entry above tol per row
    and column, each within tol of magnitude 1.
    """
    m = structure.count
    if np.abs(q @ q.T - np.eye(len(q))).max() > tol:
        return False, False
    occupied = [(i, j) for i in range(m) for j in range(m) if np.abs(structure.block(q, i, j)).max() > tol]
    if sorted(i for i, _ in occupied) != list(range(m)) or sorted(j for _, j in occupied) != list(range(m)):
        return False, False
    if any(structure.sizes[i] != structure.sizes[j] for i, j in occupied):
        return False, False

    def signed_permutation(blk):
        nz = np.abs(blk) > tol
        return (nz.sum(0) == 1).all() and (nz.sum(1) == 1).all() and (np.abs(np.abs(blk[nz]) - 1) <= tol).all()

    return True, all(signed_permutation(structure.block(q, i, j)) for i, j in occupied)


@st.composite
def block_matrices(draw):
    """A block signed permutation or a Haar block-orthogonal matrix, some entries moved by a multiple of tol."""
    structure = BlockStructure(tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    haar = draw(st.booleans())
    q = random_block_orthogonal(structure, rng) if haar else block_signed_permutation(structure, rng)
    tol = draw(st.sampled_from([1e-10, 1e-6, 0.05]))
    # below, at and just past tol: zeros cross the occupancy threshold, ones the magnitude one
    scale = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0]))
    q = q + (rng.random(q.shape) < 0.3) * scale * tol * rng.choice([-1.0, 1.0], size=q.shape)
    return q, structure, tol, haar, scale


@settings(max_examples=300, deadline=None)
@given(block_matrices())
def test_block_verdicts_follow_the_per_block_rule(case):
    q, structure, tol, haar, scale = case
    verdicts = is_block_orthogonal(q, structure, tol), is_block_signed_permutation(q, structure, tol)
    assert verdicts == reference_block_verdicts(q, structure, tol)
    if scale == 0.0 and tol < 0.05:
        # a Haar block of size 2 or more is a rotation, not a signed permutation
        assert verdicts == (True, not haar or max(structure.sizes) == 1)


def test_coset_residual_members_are_zero():
    b = BlockStructure((2, 2))
    for seed in range(20):
        q = random_block_orthogonal(b, seed)
        res, _ = coset_residual(q, b)
        assert res < 1e-12


def test_coset_residual_haar_floor():
    b = BlockStructure((2, 2))
    residuals = np.array([coset_residual(random_orthogonal(4, s), b)[0] for s in range(2000)])
    assert np.quantile(residuals, 0.01) > 0.1  # rare non-generic dips exist
    assert residuals.min() > 0.02


def test_coset_residual_signed_permutation_assignment():
    singles = BlockStructure((1, 1, 1))
    perm = np.array([[0, 1, 0], [0, 0, -1], [1, 0, 0.0]])
    res, assignment = coset_residual(perm, singles)
    assert res < 1e-15
    assert assignment == (1, 2, 0)


def _captured(mass, sigma):
    return sum(mass[i, sigma[i]] for i in range(len(sigma)))


def bruteforce_coset_residual(w, structure):
    """coset_residual by scoring every size-compatible block assignment.

    Returns (residual, assignment, the best score's margin over every other
    assignment, block mass matrix).
    """
    m = structure.count
    mass = np.array([[np.sum(structure.block(w, i, j) ** 2) for j in range(m)] for i in range(m)])
    perms = np.array(list(compatible_block_permutations(structure)))
    scores = mass[np.arange(m), perms].sum(axis=1)
    top = int(np.argmax(scores))
    best = tuple(int(j) for j in perms[top])
    defect_sq = 0.0
    for i in range(m):
        blk = structure.block(w, i, best[i])
        defect_sq += float(np.sum((blk.T @ blk - np.eye(blk.shape[1])) ** 2))
    residual = math.sqrt(max(float(mass.sum() - _captured(mass, best)), 0.0) + defect_sq) / math.sqrt(structure.dim)
    margin = scores[top] - np.delete(scores, top).max(initial=-np.inf)
    return residual, best, margin, mass


COSET_STRUCTURES = [(1,) * 8, (2, 2), (2, 3), (1, 2, 1, 2, 2), (3, 3, 2)]


@st.composite
def coset_problems(draw):
    structure = BlockStructure(draw(st.sampled_from(COSET_STRUCTURES)))
    d = structure.dim
    kind = draw(st.sampled_from(["entries", "haar", "near"]))
    if kind == "entries":
        # small integers and repeated values give exact ties
        entries = st.one_of(st.integers(-2, 2).map(float), st.floats(-4, 4, allow_nan=False))
        w = np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d))).reshape(d, d)
        return w, structure
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return random_orthogonal(d, g), structure
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.3]))
    return random_block_orthogonal(structure, g) + noise * g.standard_normal((d, d)), structure


@settings(max_examples=60, deadline=None)
@given(coset_problems())
def test_coset_residual_matches_the_bruteforce_assignment(problem):
    w, structure = problem
    residual, assignment = coset_residual(w, structure)
    ref_residual, ref_assignment, margin, mass = bruteforce_coset_residual(w, structure)
    if margin > 1e-12 * max(1.0, mass.sum()):
        assert assignment == ref_assignment
        assert residual == ref_residual
    else:
        # a tie within rounding: either assignment is an optimum
        assert sorted(assignment) == list(range(structure.count))
        assert _captured(mass, assignment) >= _captured(mass, ref_assignment) - 1e-12 * max(1.0, mass.sum())


@pytest.mark.parametrize("sizes", COSET_STRUCTURES)
def test_coset_residual_keeps_the_identity_assignment_on_ties(sizes):
    structure = BlockStructure(sizes)
    identity = tuple(range(structure.count))
    assert coset_residual(np.zeros((structure.dim,) * 2), structure) == (1.0, identity)
    assert coset_residual(np.eye(structure.dim), structure) == (0.0, identity)


@pytest.mark.parametrize("sizes", [(4,), (2, 2), (1, 1, 1, 1)])
def test_coset_residual_rejects_non_finite(sizes):
    w = random_orthogonal(4, 0)
    w[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        coset_residual(w, BlockStructure(sizes))


def test_nearest_signed_permutation():
    q = random_signed_permutation(4, 5)
    p, dist = nearest_signed_permutation(q + 0.01)
    np.testing.assert_allclose(p, q)
    assert dist == pytest.approx(0.01, abs=1e-12)


@pytest.mark.parametrize("d", range(1, 7))
def test_nearest_signed_permutation_matches_brute_force(d):
    rng = np.random.default_rng(d)
    cases = [rng.standard_normal((d, d)) for _ in range(20)]
    cases += [random_signed_permutation(d, rng) + 0.3 * rng.standard_normal((d, d)) for _ in range(20)]
    cases += [rng.integers(-2, 3, (d, d)).astype(float) for _ in range(10)]  # exact ties
    for q in cases:
        perms = itertools.permutations(range(d))
        gains = sorted((sum(abs(q[i, j]) for i, j in enumerate(perm)), perm) for perm in perms)
        p, dist = nearest_signed_permutation(q)
        cols = np.abs(p).argmax(axis=1)
        assert np.abs(q[np.arange(d), cols]).sum() == pytest.approx(gains[-1][0], abs=1e-12)
        if len(gains) == 1 or gains[-1][0] - gains[-2][0] > 1e-12:
            assert tuple(cols) == gains[-1][1]
        np.testing.assert_array_equal(p[np.arange(d), cols], np.where(q[np.arange(d), cols] >= 0, 1.0, -1.0))
        assert is_signed_permutation(p)
        assert dist == np.abs(q - p).max()


def test_nearest_signed_permutation_refuses_large_or_non_finite_input():
    with pytest.raises(ValueError, match="d <= 8, got 9"):
        nearest_signed_permutation(np.eye(9))
    q = np.eye(3)
    q[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        nearest_signed_permutation(q)


def test_graph_automorphism_check_matches_dense_conjugation():
    rng = np.random.default_rng(0)
    for d in range(1, 6):
        pairs = list(itertools.combinations(range(1, d + 1), 2))
        for edges in [[], pairs] + [[e for e in pairs if rng.random() < 0.5] for _ in range(4)]:
            graph = IndependenceGraph(d, edges)
            a = graph.adjacency()
            for perm in itertools.permutations(range(d)):
                p = np.eye(d)[list(perm)]
                assert graph_automorphism_check(p, graph) == bool((p.T @ a @ p == a).all()), (edges, perm)


def test_graph_automorphism_star():
    star = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    # hub fixed, leaves permuted: automorphism
    p = np.zeros((4, 4))
    p[0, 0] = 1
    p[1, 2] = p[2, 3] = p[3, 1] = 1
    assert graph_automorphism_check(p, star)
    # swapping hub and a leaf breaks the degree sequence
    swap = np.eye(4)[[1, 0, 2, 3]]
    assert not graph_automorphism_check(swap, star)


def test_graph_automorphism_chain_exhaustive():
    for d in range(3, 7):
        chain = IndependenceGraph(d, [(i, i + 1) for i in range(1, d)])
        autos = []
        for perm in itertools.permutations(range(d)):
            p = np.zeros((d, d))
            for i, j in enumerate(perm):
                p[i, j] = 1.0
            if graph_automorphism_check(p, chain):
                autos.append(perm)
        assert sorted(autos) == sorted([tuple(range(d)), tuple(reversed(range(d)))])


def test_graph_automorphism_rejects_non_permutation():
    star = IndependenceGraph(3, [(1, 2), (1, 3)])
    with pytest.raises(ValueError, match="permutation"):
        graph_automorphism_check(random_orthogonal(3, 0), star)


def test_signed_permutations_enumeration():
    mats = list(signed_permutations(2))
    assert len(mats) == 8
    keys = {m.tobytes() for m in mats}
    assert len(keys) == 8


def test_conjecture_probe_star():
    star = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    report = conjecture_probe(star, 3, trials=10, rng=0)
    assert report.exhaustive
    assert report.matrices_checked == 2**4 * 24
    assert report.conjecture_holds
    # hub fixed: 3! leaf permutations, each with 2^4 sign choices
    assert report.automorphism_count == 6 * 16


def test_conjecture_probe_chain():
    chain = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4)])
    report = conjecture_probe(chain, 3, trials=10, rng=1)
    assert report.conjecture_holds
    assert report.automorphism_count == 2 * 16  # identity and reversal


def test_conjecture_probe_complete_graph_degenerate():
    complete = IndependenceGraph(3, [(1, 2), (1, 3), (2, 3)])
    report = conjecture_probe(complete, 3, trials=5, rng=2)
    # no zero constraints: every signed permutation preserves the pattern,
    # and every permutation is an automorphism
    assert report.automorphism_count == report.matrices_checked
    assert report.conjecture_holds


def reference_probe(graph, order, trials, rng, tol):
    """Per signed matrix, the probe's question asked of one dense transform and membership test per generic member.

    Every signed matrix at d <= 4, 200 seeded draws above.  Each row holds the matrix's permutation, whether
    that is an automorphism, whether every transformed member is a member within ``tol``, and the largest
    violation over the members.
    """
    g = as_generator(rng)
    pattern = pattern_from_graph(graph, order)
    tensors = [generic_sample(pattern, rng=g) for _ in range(trials)]
    if graph.dim <= 4:
        matrices = list(signed_permutations(graph.dim))
    else:
        matrices = [random_signed_permutation(graph.dim, g) for _ in range(200)]
    rows = []
    for q in matrices:
        results = [is_member(multilinear_transform(q, t), pattern, tol) for t in tensors]
        rows.append((np.abs(q).argmax(axis=1), graph_automorphism_check(np.abs(q), graph),
                     all(res.member for res in results), max(res.max_violation for res in results)))
    return rows


def seeded_graph(d, seed):
    """Each vertex pair an edge with probability 1/2."""
    keep = np.random.default_rng(seed).random(math.comb(d, 2)) < 0.5
    return [pair for pair, k in zip(itertools.combinations(range(1, d + 1), 2), keep) if k]


PROBE_GRAPHS = {
    "star": lambda d: [(1, v) for v in range(2, d + 1)],
    "chain": lambda d: [(v, v + 1) for v in range(1, d)],
    "empty": lambda d: [],
    "complete": lambda d: list(itertools.combinations(range(1, d + 1), 2)),
    **{f"random{seed}": lambda d, seed=seed: seeded_graph(d, seed) for seed in range(3)},
}


# the dense reference's membership tolerance: a preserving matrix leaves exact zeros, so it is a member at
# both; at 1e-8 no other matrix is, while at 1.0 some pass, which is why the probe asks for exact zeros
@pytest.mark.parametrize("tol", [1e-8, 1.0])
@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", sorted(PROBE_GRAPHS))
def test_conjecture_probe_matches_dense_transforms(kind, d, order, tol):
    # the complete graph has an empty zero set
    graph = IndependenceGraph(d, PROBE_GRAPHS[kind](d))
    rows = reference_probe(graph, order, 3, d * order, tol)
    exact = groups._preserves_zero_set(np.array([perm for perm, *_ in rows]), pattern_from_graph(graph, order))
    for (perm, auto, member, violation), keeps in zip(rows, exact.tolist()):
        assert keeps == (violation == 0.0) == auto, perm
        assert member == keeps or (tol == 1.0 and member), perm
    autos = sum(graph_automorphism_check(np.eye(d)[list(p)], graph) for p in itertools.permutations(range(d)))
    signed = 2**d * math.factorial(d)
    expected = {"dim": d, "order": order, "exhaustive": True, "matrices_checked": signed,
                "automorphism_count": 2**d * autos, "agreements": signed, "disagreements": [], "conjecture_holds": True}
    assert conjecture_probe(graph, order, trials=3, rng=d * order).to_json() == expected


def test_probe_report_json_is_the_deep_copy_json(monkeypatch):
    star = IndependenceGraph(4, PROBE_GRAPHS["star"](4))
    # the benchmark's probe: its whole report is a few lines
    assert len(json.dumps(conjecture_probe(star, 3, 20, 5).to_json(), indent=2)) < 1024
    # with no permutation called an automorphism, the star's 6 hub-fixing permutations disagree, each named
    monkeypatch.setattr(groups, "_automorphisms", lambda perms, a: np.zeros(len(perms), dtype=bool))
    report = conjecture_probe(star, 3, trials=1)
    assert not report.conjecture_holds
    assert report.agreements == 384 - 96 and report.automorphism_count == 0
    assert [d["permutation"] for d in report.disagreements] == [[1, *p] for p in itertools.permutations((2, 3, 4))]
    assert all(not d["is_automorphism"] and d["preserves_pattern"] for d in report.disagreements)
    deep = {**dataclasses.asdict(report), "conjecture_holds": report.conjecture_holds}
    assert json.dumps(report.to_json(), indent=2) == json.dumps(deep, indent=2)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("sizes", [(2, 2), (2, 1), (1, 1, 2, 2), (2, 3, 3)])
def test_zero_set_rule_gives_the_block_respecting_permutations(sizes, order):
    structure = BlockStructure(sizes)
    d, offsets = structure.dim, list(structure.offsets)
    spec = PartitionSpec(d, tuple(tuple(range(o + 1, o + k + 1)) for o, k in zip(offsets, sizes)))
    perms = np.array(list(itertools.permutations(range(d))))
    preserves = groups._preserves_zero_set(perms, pattern_from_partition(spec, order))
    # pi respects the blocks iff it maps each block onto one block of its size: block b onto sigma(b)
    labels = np.repeat(np.arange(len(sizes)), sizes)[perms]
    sigma = labels[:, offsets]
    respects = np.ones(len(perms), dtype=bool)
    for b, k in enumerate(sizes):
        respects &= (labels[:, structure.span(b)] == sigma[:, b : b + 1]).all(axis=1)
        respects &= np.array(sizes)[sigma[:, b]] == k
    assert np.array_equal(preserves, respects)
    compatible = list(compatible_block_permutations(structure))
    assert set(map(tuple, sigma[preserves].tolist())) == set(compatible)
    assert preserves.sum() == math.prod(map(math.factorial, sizes)) * len(compatible)
    assert groups._preserves_zero_set(perms, diagonal_pattern(d, order)).all()


def test_conjecture_probe_bounds(monkeypatch):
    # d! (|Z| + d^2) at r = 3: 8! (110 + 64) for one edge on 8 vertices, 9! (154 + 81) > 2^26 on 9
    assert conjecture_probe(IndependenceGraph(8, [(1, 2)]), 3, trials=1).conjecture_holds
    star = conjecture_probe(IndependenceGraph(8, PROBE_GRAPHS["star"](8)), 4, trials=1)
    assert star.matrices_checked == 2**8 * math.factorial(8) and star.automorphism_count == 2**8 * math.factorial(7)
    assert star.conjecture_holds

    def no_table(*args):
        raise AssertionError("the permutation table was built")

    monkeypatch.setattr(itertools, "permutations", no_table)
    with pytest.raises(ValueError, match=r"d = 9, r = 3 gathers d! \(\|Z\| \+ d\^2\) entries, over the budget"):
        conjecture_probe(IndependenceGraph(9, [(1, 2)]), 3, trials=1)
    # from d = 10 on, d! d^2 alone is over the budget, and no pattern is built either
    monkeypatch.setattr(groups, "pattern_from_graph", no_table)
    with pytest.raises(ValueError, match="d = 12, r = 3 gathers"):
        conjecture_probe(IndependenceGraph(12, []), 3, trials=1)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials >= 1"):
            conjecture_probe(IndependenceGraph(3, [(1, 2)]), 3, trials=trials)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        conjecture_probe(IndependenceGraph(3, [(1, 2)]), 3, trials=1, rng=-1)


def test_conjecture_census_script(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location("conjecture_census", Path(__file__).with_name("conjecture_census.py"))
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.main(["--dim", "4"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(o["dim"], o["pairs"], o["disagreements"]) for o in lines] == [(2, 4, 0), (3, 16, 0), (4, 128, 0)]
    monkeypatch.setattr(groups, "_automorphisms", lambda perms, a: np.zeros(len(perms), dtype=bool))
    assert census.main(["--dim", "2", "--orders", "3"]) == 1
    [line] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert line["disagreements"] == 2 and line["counterexample"]["edges"] == []


def test_block_orthogonal_preserves_partition_pattern():
    # forward inclusion, sampled
    rng = np.random.default_rng(3)
    for dims, sizes in [((4), (2, 2)), ((5), (2, 3)), ((3), (2, 1))]:
        structure = BlockStructure(sizes)
        blocks, start = [], 1
        for k in sizes:
            blocks.append(tuple(range(start, start + k)))
            start += k
        spec = PartitionSpec(structure.dim, tuple(blocks))
        for r in (3, 4):
            pattern = pattern_from_partition(spec, r)
            for trial in range(25):
                t = generic_sample(pattern, rng=rng)
                q = random_block_orthogonal(structure, rng)
                res = is_member(multilinear_transform(q, t), pattern, 1e-10)
                assert res.member, (sizes, r, trial, res.max_violation)


def test_full_rank_non_block_orthogonal_breaks_pattern():
    # converse direction, sampled
    rng = np.random.default_rng(4)
    structure = BlockStructure((2, 2))
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    for r in (3, 4):
        pattern = pattern_from_partition(spec, r)
        for trial in range(25):
            t = generic_sample(pattern, rng=rng)
            while True:
                q = random_orthogonal(4, rng)
                cls = classify_blocks(q, structure)
                if cls.all_full_rank() and not is_block_orthogonal(q, structure, 1e-8):
                    break
            res = is_member(multilinear_transform(q, t), pattern, 1e-6)
            assert not res.member, (r, trial)
            assert res.max_violation > 1e-6


def test_matrix_json_round_trip(tmp_path):
    q = random_orthogonal(3, 11)
    obj = matrix_to_json(q)
    np.testing.assert_allclose(matrix_from_json(obj), q, atol=0)
    path = tmp_path / "q.json"
    save_matrix(q, path)
    np.testing.assert_allclose(load_matrix(path), q, atol=0)


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="square"):
        orthogonality_defect(np.ones((2, 3)))
    with pytest.raises(ValueError, match="does not match"):
        matrix_from_json({"dim": 3, "rows": [[1, 0], [0, 1]]})
    with pytest.raises(ValueError, match="positive"):
        random_orthogonal(0, 0)
    with pytest.raises(ValueError, match="positive"):
        random_signed_permutation(0, 0)
    with pytest.raises(ValueError, match="does not match"):
        classify_blocks(np.eye(3), BlockStructure((2, 2)))

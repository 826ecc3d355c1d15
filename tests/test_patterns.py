import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest

from pica.patterns import (
    IndependenceGraph,
    PartitionSpec,
    ZeroPattern,
    diagonal_pattern,
    generic_sample,
    intersect_patterns,
    is_member,
    load_pattern,
    marginal_distinctness,
    mean_independence_pattern,
    pattern_from_graph,
    pattern_from_json,
    pattern_from_partition,
    pattern_to_json,
    reflectional_pattern,
    sample_membership_tol,
    save_pattern,
)
from pica.simulate import _complete_components
from pica.tensor import SymmetricTensor, marginalize, multilinear_transform, num_entries, tensor_from_entries

EXAMPLE_Q = 0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1.0]])

# Worked counterexample tensor: two-block sparsity with tied within-block
# entries so the matrix above preserves the pattern exactly.
EXAMPLE_T = tensor_from_entries(
    3,
    4,
    [
        ((1, 1, 1), 1.0), ((1, 2, 2), 1.0), ((1, 1, 2), 2.0), ((2, 2, 2), 2.0),
        ((3, 3, 3), 3.0), ((3, 4, 4), 3.0), ((3, 3, 4), 5.0), ((4, 4, 4), 5.0),
    ],
)


def star_graph(d):
    return IndependenceGraph(d, [(1, j) for j in range(2, d + 1)])


def chain_graph(d):
    return IndependenceGraph(d, [(i, i + 1) for i in range(1, d)])


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(4, ((1, 2), (2, 3, 4)))  # overlap
    with pytest.raises(ValueError):
        PartitionSpec(4, ((1, 2),))  # not covering
    spec = PartitionSpec(4, ((3, 4), (1, 2)))
    assert spec.sizes == (2, 2)


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        IndependenceGraph(3, [(1, 1)])
    with pytest.raises(ValueError, match="outside"):
        IndependenceGraph(3, [(1, 4)])
    for edge in ([1, 2, 3], [1], []):
        with pytest.raises(ValueError, match=f"edge {re.escape(str(tuple(edge)))} is not a pair"):
            IndependenceGraph(3, [(1, 2), edge])
    g = IndependenceGraph(3, [(2, 1), (1, 2)])
    assert g.sorted_edges() == [(1, 2)]


def test_partition_pattern_examples():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    p = pattern_from_partition(spec, 3)
    for idx in [(1, 1, 3), (1, 3, 3), (2, 2, 4), (1, 1, 4), (2, 3, 3)]:
        assert p.is_zero_constrained(idx), idx
    for idx in [(1, 1, 2), (3, 4, 4), (1, 1, 1), (4, 4, 4)]:
        assert not p.is_zero_constrained(idx), idx


def test_single_block_has_no_zeros():
    p = pattern_from_partition(PartitionSpec(3, ((1, 2, 3),)), 3)
    assert p.zero_count() == 0


def test_singleton_blocks_equal_diagonal():
    for d, r in [(3, 3), (4, 2), (2, 4)]:
        spec = PartitionSpec(d, tuple((i,) for i in range(1, d + 1)))
        assert pattern_from_partition(spec, r).same_predicate(diagonal_pattern(d, r))


def test_graph_pattern_five_vertex_example():
    # components {1,2,3} with edges 12, 23 and {4,5} with edge 45
    g = IndependenceGraph(5, [(1, 2), (2, 3), (4, 5)])
    p3 = pattern_from_graph(g, 3)
    assert p3.is_zero_constrained((1, 2, 4))
    assert p3.is_zero_constrained((1, 3, 3))  # 1 and 3 not adjacent
    assert not p3.is_zero_constrained((1, 2, 3))  # connected through 2
    p4 = pattern_from_graph(g, 4)
    assert p4.is_zero_constrained((1, 2, 4, 5))


def test_star_pattern_closed_form():
    # free iff the tuple contains the hub or is constant
    for d in range(3, 7):
        g = star_graph(d)
        for r in range(2, 6):
            p = pattern_from_graph(g, r)
            for idx in itertools.combinations_with_replacement(range(1, d + 1), r):
                free = (1 in idx) or len(set(idx)) == 1
                assert p.is_zero_constrained(idx) == (not free), (d, r, idx)


def test_chain_pattern_gap_condition():
    for d in range(2, 7):
        g = chain_graph(d)
        for r in (2, 3, 4):
            p = pattern_from_graph(g, r)
            for idx in itertools.combinations_with_replacement(range(1, d + 1), r):
                distinct = sorted(set(idx))
                gap = any(b - a > 1 for a, b in zip(distinct, distinct[1:]))
                assert p.is_zero_constrained(idx) == gap, (d, r, idx)


def test_complete_components_match_partition_pattern():
    # a disjoint union of complete graphs induces the partition pattern
    blocks = ((1, 2, 3), (4, 5))
    edges = [(1, 2), (1, 3), (2, 3), (4, 5)]
    g = IndependenceGraph(5, edges)
    spec = PartitionSpec(5, blocks)
    for r in (2, 3, 4):
        assert pattern_from_graph(g, r).same_predicate(pattern_from_partition(spec, r))


def components(vertices, edges):
    """Connected components of the induced subgraph, by union-find.

    Each component lists its vertices in the order of ``vertices``, and
    components come in the order of their first vertex.
    """
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        if u in parent and v in parent:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    found = {}
    for v in vertices:
        found.setdefault(find(v), []).append(v)
    return [tuple(c) for c in found.values()]


def reference_mask(dim, order, zero):
    """Zero set from a predicate evaluated on one canonical index tuple at a time, in colex order."""
    idxs = sorted(itertools.combinations_with_replacement(range(1, dim + 1), order), key=lambda t: t[::-1])
    return np.array([zero(idx) for idx in idxs], dtype=bool)


def reference_complete_blocks(graph):
    blocks = components(range(1, graph.dim + 1), graph.edges)
    if all(pair in graph.edges for block in blocks for pair in itertools.combinations(block, 2)):
        return tuple(blocks)
    return None


def random_partition(d, rng):
    labels = rng.integers(0, rng.integers(1, d + 1), d)
    return PartitionSpec(d, tuple(tuple(int(i) + 1 for i in np.flatnonzero(labels == b)) for b in np.unique(labels)))


@pytest.mark.parametrize("d", range(1, 8))
def test_zero_masks_and_complete_components_match_per_tuple_reference(d):
    rng = np.random.default_rng(d)
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    specs = [random_partition(d, rng) for _ in range(3)]
    graphs = [IndependenceGraph(d, []), IndependenceGraph(d, pairs)]
    graphs += [IndependenceGraph(d, [e for e in pairs if rng.random() < p]) for p in (0.3, 0.5, 0.7)]
    graphs += [IndependenceGraph(d, [e for b in spec.blocks for e in itertools.combinations(b, 2)]) for spec in specs]
    for graph in graphs:
        spec = _complete_components(graph)
        assert (None if spec is None else spec.blocks) == reference_complete_blocks(graph), graph.edges
    for r in range(2, 7):
        for spec in specs:
            want = reference_mask(d, r, lambda idx: sum(not set(idx).isdisjoint(b) for b in spec.blocks) > 1)
            np.testing.assert_array_equal(pattern_from_partition(spec, r).zero_mask, want)
        for graph in graphs:
            want = reference_mask(d, r, lambda idx: len(components(set(idx), graph.edges)) > 1)
            np.testing.assert_array_equal(pattern_from_graph(graph, r).zero_mask, want)
        want = reference_mask(d, r, lambda idx: len(set(idx)) > 1)
        np.testing.assert_array_equal(diagonal_pattern(d, r).zero_mask, want)
        want = reference_mask(d, r, lambda idx: any(c == 1 for c in Counter(idx).values()))
        np.testing.assert_array_equal(mean_independence_pattern(d, r).zero_mask, want)
        if r % 2 == 0:
            want = reference_mask(d, r, lambda idx: any(c % 2 != 0 for c in Counter(idx).values()))
            np.testing.assert_array_equal(reflectional_pattern(d, r).zero_mask, want)


def test_diagonal_pattern_counts():
    p = diagonal_pattern(2, 3)
    free = [idx for idx in itertools.combinations_with_replacement((1, 2), 3) if not p.is_zero_constrained(idx)]
    assert free == [(1, 1, 1), (2, 2, 2)]
    p34 = diagonal_pattern(3, 4)
    assert p34.zero_count() == math.comb(6, 4) - 3  # 12


def test_reflectional_pattern():
    p = reflectional_pattern(2, 4)
    free = [idx for idx in itertools.combinations_with_replacement((1, 2), 4) if not p.is_zero_constrained(idx)]
    assert free == [(1, 1, 1, 1), (1, 1, 2, 2), (2, 2, 2, 2)]
    assert reflectional_pattern(3, 4).free_count() == 6
    assert reflectional_pattern(3, 2).same_predicate(diagonal_pattern(3, 2))
    with pytest.raises(ValueError, match="even"):
        reflectional_pattern(3, 3)


def test_mean_independence_pattern():
    p = mean_independence_pattern(3, 4)
    assert p.is_zero_constrained((1, 1, 1, 2))
    assert not p.is_zero_constrained((1, 1, 2, 2))
    assert not p.is_zero_constrained((1, 1, 1, 1))
    # at order four the free set coincides with the reflectional one
    assert p.same_predicate(reflectional_pattern(3, 4))
    p5 = mean_independence_pattern(2, 5)
    assert not p5.is_zero_constrained((1, 1, 1, 2, 2))
    assert p5.is_zero_constrained((1, 1, 1, 1, 2))


def test_pattern_requires_order_two():
    with pytest.raises(ValueError):
        diagonal_pattern(3, 1)


def test_is_member_zero_tensor():
    p = diagonal_pattern(3, 3)
    res = is_member(SymmetricTensor(3, 3), p, 0.0)
    assert res.member and res.max_violation == 0.0


def test_is_member_example_golden_pair():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    p = pattern_from_partition(spec, 3)
    assert is_member(EXAMPLE_T, p, 0.0).member
    transformed = multilinear_transform(EXAMPLE_Q, EXAMPLE_T)
    res = is_member(transformed, p, 1e-12)
    assert res.member
    assert res.max_violation < 1e-12


def test_is_member_generic_tensor_fails_diagonal():
    rng = np.random.default_rng(0)
    p = diagonal_pattern(3, 3)
    for _ in range(20):
        t = SymmetricTensor(3, 3, rng.standard_normal(num_entries(3, 3)))
        res = is_member(t, p, 0.1)
        assert not res.member
        assert res.max_violation > 0.1
        assert type(res.worst_index) is tuple and all(type(i) is int for i in res.worst_index)


def test_is_member_shape_mismatch():
    with pytest.raises(ValueError, match="match"):
        is_member(SymmetricTensor(3, 3), diagonal_pattern(3, 4), 0.0)


def test_generic_sample_contract():
    p = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 3)
    t1 = generic_sample(p, rng=42)
    t2 = generic_sample(p, rng=42)
    assert t1.allclose(t2, 0.0)  # bit-identical per seed
    assert is_member(t1, p, 0.0).member  # exact zeros by construction
    t3 = generic_sample(p, rng=43)
    assert np.abs(t1.values - t3.values).max() > 0  # distinct seeds differ
    # scale multiplies the free entries
    t4 = generic_sample(p, scale=2.0, rng=42)
    np.testing.assert_allclose(t4.values, 2.0 * t1.values, atol=0)


def test_generic_sample_empty_free_set():
    p = ZeroPattern("composite", 2, 2, np.ones(3, dtype=bool))
    t = generic_sample(p, rng=0)
    assert t.max_abs() == 0.0


def iterated_marginal_distinctness(t, tol):
    """Reference verdict: marginalize one mode at a time down to a matrix."""
    while t.order > 2:
        t = marginalize(t)
    diag = np.diagonal(t.to_dense())
    i, j = np.triu_indices(len(diag), 1)
    return not (np.abs(diag[i] - diag[j]) <= tol).any()


def test_marginal_distinctness():
    # diagonal order-4 tensor with entries i has distinct marginal diagonals
    t = tensor_from_entries(4, 3, [((i, i, i, i), float(i)) for i in range(1, 4)])
    # fully exchangeable tensor has equal marginals
    s = tensor_from_entries(4, 3, [((i, i, i, i), 1.0) for i in range(1, 4)])
    # a NaN difference is not a tie
    nan = tensor_from_entries(2, 2, [((1, 1), math.nan), ((2, 2), 1.0)])
    cases = [(t, 1e-10, True), (s, 1e-10, False), (nan, 1e-10, True)]
    # generic reflectional tensors pass with probability one
    p = reflectional_pattern(3, 4)
    cases += [(generic_sample(p, rng=seed), 1e-6, True) for seed in range(100)]
    for tensor, tol, verdict in cases:
        assert marginal_distinctness(tensor, tol) == iterated_marginal_distinctness(tensor, tol) == verdict


def test_intersect_patterns():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    a = pattern_from_partition(spec, 4)
    b = reflectional_pattern(4, 4)
    c = intersect_patterns(a, b)
    assert c.is_zero_constrained((1, 1, 3, 3))  # cross-block even-multiplicity entry
    assert c.is_zero_constrained((1, 1, 1, 2))  # within-block odd multiplicity
    assert not c.is_zero_constrained((1, 1, 2, 2))
    assert c.zero_count() == int((a.zero_mask | b.zero_mask).sum())


def test_sample_membership_tol():
    p = diagonal_pattern(2, 3)
    t = tensor_from_entries(3, 2, [((1, 1, 1), 2.0), ((2, 2, 2), -4.0)])
    assert sample_membership_tol(t, p, 10_000) == pytest.approx(5.0 / 100.0 * 4.0)


def test_json_round_trips(tmp_path):
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    cases = {
        pattern_from_partition(spec, 3): {"kind": "partition", "order": 3, "dim": 4, "blocks": [[1, 2], [3, 4]]},
        pattern_from_graph(star_graph(4), 3): {"kind": "graph", "order": 3, "dim": 4, "edges": [[1, 2], [1, 3], [1, 4]]},
        diagonal_pattern(3, 4): {"kind": "diagonal", "order": 4, "dim": 3},
        reflectional_pattern(3, 4): {"kind": "reflectional", "order": 4, "dim": 3},
        mean_independence_pattern(3, 4): {"kind": "mean_independence", "order": 4, "dim": 3},
    }
    for p, expected in cases.items():
        obj = pattern_to_json(p)
        # key order included: it is the order of the saved file
        assert list(obj.items()) == list(expected.items())
        back = pattern_from_json(obj)
        assert back.same_predicate(p)
        path = tmp_path / f"{p.kind}.json"
        save_pattern(p, path)
        assert load_pattern(path).same_predicate(p)


def test_composite_pattern_has_no_json():
    a = diagonal_pattern(3, 4)
    b = reflectional_pattern(3, 4)
    with pytest.raises(ValueError, match="composite"):
        pattern_to_json(intersect_patterns(a, b))


def test_zero_pattern_is_immutable():
    p = pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 3)
    for name, value in (("dim", 5), ("kind", "diagonal"), ("meta", {})):
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    with pytest.raises(ValueError):
        p.zero_mask[0] = not p.zero_mask[0]
    assert (p.kind, p.dim, p.meta) == ("partition", 4, {"blocks": [[1, 2], [3, 4]]})


def test_pattern_error_paths():
    with pytest.raises(ValueError, match="unknown pattern kind"):
        pattern_from_json({"kind": "weird", "order": 3, "dim": 2})
    with pytest.raises(ValueError, match="share order"):
        intersect_patterns(diagonal_pattern(2, 3), diagonal_pattern(3, 3))
    with pytest.raises(ValueError, match="mask has shape"):
        ZeroPattern("diagonal", 3, 2, np.ones(2, dtype=bool))
    p = diagonal_pattern(2, 3)
    with pytest.raises(ValueError, match="index length"):
        p.is_zero_constrained((1, 1))

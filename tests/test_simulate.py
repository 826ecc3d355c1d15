import re

import numpy as np
import pytest

from pica import simulate as simulate_module
from pica._rng import child_generators
from pica.estimation import _product_rows, sample_cumulant, whiten
from pica.groups import random_orthogonal
from pica.patterns import (
    IndependenceGraph,
    PartitionSpec,
    is_member,
    pattern_from_graph,
    pattern_from_partition,
    sample_membership_tol,
)
from pica.simulate import (
    DIST_TAGS,
    SourceSpec,
    gen_graph_sources,
    gen_independent_sources,
    gen_partitioned_sources,
    load_source_spec,
    mix,
    save_source_spec,
    simulate,
    source_spec_from_json,
    source_spec_to_json,
)
from pica.tensor import multilinear_transform

N_BIG = 1_000_000
N_MED = 200_000

# population excess kurtosis per distribution tag
KURTOSIS = {"uniform": -1.2, "laplace_like": 3.0, "rademacher_mixture": -1.75, "exponential": 6.0}


def diag_kurtosis(x, col):
    v = x[:, col] - x[:, col].mean()
    return (v**4).mean() - 3 * (v**2).mean() ** 2


def test_uniform_kurtosis_closed_form():
    x = gen_independent_sources(N_BIG, 2, "uniform", 0)
    k4 = sample_cumulant(x, 4)
    for i in (1, 2):
        assert abs(k4.lookup((i, i, i, i)) - KURTOSIS["uniform"]) < 0.05


def test_laplace_and_rademacher_kurtosis():
    x = gen_independent_sources(N_MED, 1, "laplace_like", 1)
    assert abs(diag_kurtosis(x, 0) - KURTOSIS["laplace_like"]) < 0.3
    y = gen_independent_sources(N_MED, 2, "rademacher_mixture", 2)
    k3 = sample_cumulant(y, 3)
    assert k3.max_abs() < 0.05  # symmetric: third cumulants vanish
    assert abs(diag_kurtosis(y, 0) - KURTOSIS["rademacher_mixture"]) < 0.05


def test_columns_are_pairwise_uncorrelated():
    x = gen_independent_sources(N_MED, 4, "uniform", 3)
    xc = x - x.mean(axis=0)
    corr = xc.T @ xc / N_MED
    off = np.abs(corr - np.diag(np.diag(corr))).max()
    assert off < 5.0 / np.sqrt(N_MED)


def test_standardization():
    for tag in ("uniform", "laplace_like", "rademacher_mixture", "exponential"):
        x = gen_independent_sources(N_MED, 1, tag, 4)
        assert abs(x.mean()) < 5.0 / np.sqrt(N_MED)
        assert abs(x.var() - 1.0) < 25.0 / np.sqrt(N_MED)


def test_gaussian_restriction():
    with pytest.raises(ValueError, match="gaussian"):
        gen_independent_sources(100, 2, "gaussian", 0)
    x = gen_independent_sources(1000, 2, ["gaussian", "uniform"], 0)
    assert x.shape == (1000, 2)
    with pytest.raises(ValueError, match="gaussian"):
        gen_independent_sources(100, 3, ["gaussian", "gaussian", "uniform"], 0)
    with pytest.raises(ValueError, match="unknown"):
        gen_independent_sources(100, 1, "cauchy", 0)


def test_dist_tags_keep_their_order():
    assert DIST_TAGS == ("uniform", "laplace_like", "rademacher_mixture", "exponential", "gaussian")
    with pytest.raises(ValueError, match=f"known: {re.escape(str(DIST_TAGS))}"):
        gen_independent_sources(100, 1, "cauchy", 0)


def test_determinism_per_seed():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    graph = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    for gen in (
        lambda s: gen_independent_sources(500, 3, "uniform", s),
        lambda s: gen_partitioned_sources(500, spec, "uniform", s),
        lambda s: gen_graph_sources(500, graph, s),
    ):
        a, b = gen(7), gen(7)
        np.testing.assert_array_equal(a, b)
        c = gen(8)
        assert np.abs(a - c).max() > 0


def test_partitioned_pattern_membership_at_scale():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    x = gen_partitioned_sources(N_BIG, spec, "uniform", 5)
    k4 = sample_cumulant(x, 4)
    pattern = pattern_from_partition(spec, 4)
    tol = sample_membership_tol(k4, pattern, N_BIG)
    res = is_member(k4, pattern, tol)
    assert res.member, (res.max_violation, tol)
    # dependence inside each block is real: some within-block cross entry is large
    for block in spec.blocks:
        cross = [
            abs(v)
            for idx, v in k4.entries()
            if set(idx) <= set(block) and len(set(idx)) > 1
        ]
        assert max(cross) > 0.05, block


def test_partitioned_sources_have_identity_block_covariance():
    spec = PartitionSpec(5, ((1, 2, 3), (4, 5)))
    x = gen_partitioned_sources(50_000, spec, "laplace_like", 6)
    cov = x.T @ x / x.shape[0]
    for block in spec.blocks:
        cols = [i - 1 for i in block]
        np.testing.assert_allclose(cov[np.ix_(cols, cols)], np.eye(len(cols)), atol=1e-10)
    # cross-block correlation is only statistical noise
    assert abs(cov[0, 3]) < 5.0 / np.sqrt(50_000) * 2


def test_partitioned_singleton_blocks_reduce_to_independent():
    spec = PartitionSpec(3, ((1,), (2,), (3,)))
    x = gen_partitioned_sources(N_MED, spec, "uniform", 7)
    k4 = sample_cumulant(x, 4)
    for i in (1, 2, 3):
        assert abs(k4.lookup((i, i, i, i)) - KURTOSIS["uniform"]) < 0.1
    xc = x - x.mean(axis=0)
    corr = xc.T @ xc / N_MED
    assert np.abs(corr - np.diag(np.diag(corr))).max() < 5.0 / np.sqrt(N_MED)


def test_star_sources_match_quoted_entries():
    graph = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    x = gen_graph_sources(N_BIG, graph, 8)
    k3 = sample_cumulant(x, 3)
    # entries with no hub index and not all equal vanish
    for idx, v in k3.entries():
        if 1 not in idx and len(set(idx)) > 1:
            assert abs(v) < 0.05, idx
    # hub-leaf diagonal entries stay away from zero
    assert max(abs(k3.lookup((1, j, j))) for j in (2, 3, 4)) > 0.05
    pattern = pattern_from_graph(graph, 3)
    tol = sample_membership_tol(k3, pattern, N_BIG)
    assert is_member(k3, pattern, tol).member


def test_chain_sources_match_quoted_entries():
    graph = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4)])
    x = gen_graph_sources(N_BIG, graph, 9)
    k3 = sample_cumulant(x, 3)
    for last in (1, 2, 3, 4):
        assert abs(k3.lookup((1, 3, last))) < 0.05  # gap between 1 and 3
    assert abs(k3.lookup((1, 1, 2))) > 0.05
    pattern = pattern_from_graph(graph, 3)
    tol = sample_membership_tol(k3, pattern, N_BIG)
    assert is_member(k3, pattern, tol).member
    # distance-two coordinates share no noise terms: exactly independent
    xc = x - x.mean(axis=0)
    assert abs((xc[:, 0] * xc[:, 2]).mean()) < 5.0 / np.sqrt(N_BIG)


def test_complete_block_graph_delegates_to_partitioned():
    graph = IndependenceGraph(4, [(1, 2), (3, 4)])
    x = gen_graph_sources(N_MED, graph, 10)
    k4 = sample_cumulant(x, 4)
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    pattern = pattern_from_partition(spec, 4)
    tol = sample_membership_tol(k4, pattern, N_MED)
    assert is_member(k4, pattern, tol).member


def test_unsupported_graph_errors_with_families():
    cycle = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError, match="star.*chain.*complete"):
        gen_graph_sources(100, cycle, 0)


def test_all_generators_are_non_gaussian_per_coordinate():
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    graph = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    chain = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4)])
    samples = {
        "independent": gen_independent_sources(N_MED, 3, "uniform", 11),
        "partitioned": gen_partitioned_sources(N_MED, spec, "uniform", 12),
        "star": gen_graph_sources(N_MED, graph, 13),
        "chain": gen_graph_sources(N_MED, chain, 14),
    }
    for name, x in samples.items():
        for col in range(x.shape[1]):
            assert abs(diag_kurtosis(x, col)) > 0.1, (name, col)


def test_mix_identity_and_inverse():
    x = gen_independent_sources(1000, 3, "uniform", 15)
    np.testing.assert_array_equal(mix(x, np.eye(3)), x)
    a = random_orthogonal(3, 0) * 1.3
    y = mix(mix(x, a), np.linalg.inv(a))
    np.testing.assert_allclose(y, x, atol=1e-10)
    with pytest.raises(ValueError, match="mixing"):
        mix(x, np.eye(4))


@pytest.mark.parametrize("d", range(2, 12))
def test_mix_rows_are_one_product_bit_for_bit(d):
    # mix runs a block of rows at a time on one BLAS thread; here the last block holds one row
    n = 2 * _product_rows(d, d) + 1
    x = gen_independent_sources(n, d, "uniform", d)
    a = np.random.default_rng(d).standard_normal((d, d))
    assert mix(x, a).tobytes() == (x @ a.T).tobytes()


def test_partitioned_latents_are_mixed_as_one_product_bit_for_bit():
    # one block of three coordinates, drawn and mixed as gen_partitioned_sources does, with one product
    n = 2 * _product_rows(3, 3) + 1
    [g] = child_generators(7, 1)
    latents = np.column_stack([simulate_module._DRAWS["uniform"](n, g) for _ in range(3)])
    m = g.standard_normal((3, 3))
    while np.linalg.svd(m, compute_uv=False)[-1] < 0.3:
        m = g.standard_normal((3, 3))
    block = latents @ m.T
    block[:, 0] = block[:, 0] + simulate_module._COUPLING * block[:, 1] ** 3
    sources = gen_partitioned_sources(n, PartitionSpec(3, ((1, 2, 3),)), "uniform", 7)
    assert sources.tobytes() == whiten(block).whitened.tobytes()


def test_mix_cumulant_multilinearity():
    x = gen_independent_sources(2000, 3, "laplace_like", 16)
    a = np.random.default_rng(1).standard_normal((3, 3))
    lhs = sample_cumulant(mix(x, a), 3)
    rhs = multilinear_transform(a, sample_cumulant(x, 3))
    assert np.abs(lhs.values - rhs.values).max() < 1e-10


def test_source_spec_round_trip(tmp_path):
    specs = [
        SourceSpec("independent", 3, "uniform"),
        SourceSpec("partitioned", 4, "laplace_like", blocks=((1, 2), (3, 4))),
        SourceSpec("graph", 4, edges=((1, 2), (1, 3), (1, 4))),
    ]
    for spec in specs:
        back = source_spec_from_json(source_spec_to_json(spec))
        assert back == spec
        path = tmp_path / "spec.json"
        save_source_spec(spec, path, extra={"n": 10, "seed": 1})
        assert load_source_spec(path) == spec
        x1 = simulate(spec, 200, 42)
        x2 = simulate(spec, 200, 42)
        np.testing.assert_array_equal(x1, x2)
        assert x1.shape == (200, spec.dim)


def test_source_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SourceSpec("magic", 3)
    with pytest.raises(ValueError, match="blocks"):
        SourceSpec("partitioned", 3)
    with pytest.raises(ValueError, match="edges"):
        SourceSpec("graph", 3)
    with pytest.raises(ValueError, match="no blocks"):
        SourceSpec("independent", 3, blocks=((1, 2, 3),))
    with pytest.raises(TypeError, match="no dist"):
        SourceSpec("graph", 3, "uniform", edges=((1, 2), (1, 3)))


def test_source_spec_json_names_a_law_only_when_one_is_used():
    assert "dist" not in source_spec_to_json(SourceSpec("graph", 3, edges=((1, 2), (1, 3))))
    assert source_spec_from_json({"kind": "graph", "d": 3, "edges": [[1, 2], [1, 3]]}).dist is None
    omitted = source_spec_from_json({"kind": "partitioned", "d": 4, "blocks": [[1, 2], [3, 4]]})
    assert source_spec_to_json(omitted)["dist"] == "uniform"

"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; module tests cover the same
machinery at smaller scale.
"""

import itertools
import json
import time

import numpy as np
import pytest

from pica import cli
from pica.estimation import read_csv, sample_cumulant, write_csv
from pica.groups import (
    BlockLabel,
    BlockStructure,
    classify_blocks,
    conjecture_probe,
    is_block_orthogonal,
    nearest_signed_permutation,
    random_block_orthogonal,
    random_orthogonal,
    save_matrix,
)
from pica.partitions import cumulants_to_moments, enumerate_partitions, moments_to_cumulants
from pica.patterns import (
    IndependenceGraph,
    PartitionSpec,
    diagonal_pattern,
    generic_sample,
    is_member,
    marginal_distinctness,
    pattern_from_graph,
    pattern_from_partition,
    reflectional_pattern,
    sample_membership_tol,
    save_pattern,
)
from pica.recovery import (
    RecoveryOptions,
    estimate_unmixing,
    minimize_off_pattern,
    verify_identifiability,
)
from pica.simulate import (
    SourceSpec,
    gen_graph_sources,
    gen_independent_sources,
    gen_partitioned_sources,
    mix,
    save_source_spec,
)
from pica.tensor import (
    SymmetricTensor,
    multilinear_transform,
    num_entries,
    save_tensor,
    tensor_from_entries,
)

EXAMPLE_Q = 0.5 * np.array([[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1.0]])
EXAMPLE_T = tensor_from_entries(
    3,
    4,
    [
        ((1, 1, 1), 1.0), ((1, 2, 2), 1.0), ((1, 1, 2), 2.0), ((2, 2, 2), 2.0),
        ((3, 3, 3), 3.0), ((3, 4, 4), 3.0), ((3, 3, 4), 5.0), ((4, 4, 4), 5.0),
    ],
)


def _verdict(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d} ({elapsed:6.1f}s / budget {budget:g}s): {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget ({elapsed:.1f}s)"


def test_criterion_01_combinatorial_exactness():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(2, 6))
        mus = [SymmetricTensor(k, d, rng.standard_normal(num_entries(d, k))) for k in range(1, r + 1)]
        back = cumulants_to_moments(moments_to_cumulants(mus))
        worst = max(worst, max(np.abs(m.values - b.values).max() for m, b in zip(mus, back)))
    # displayed third-order expansions, both directions
    mus = [SymmetricTensor(k, 3, rng.standard_normal(num_entries(3, k))) for k in (1, 2, 3)]
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
        worst = max(worst, abs(got - want))
    k1, k2, k3 = kappas
    back_mu = cumulants_to_moments(kappas)
    for idx, got in back_mu[2].entries():
        i1, i2, i3 = idx
        want = (
            k3.lookup((i1, i2, i3))
            + k2.lookup((i1, i2)) * k1.lookup((i3,))
            + k2.lookup((i1, i3)) * k1.lookup((i2,))
            + k2.lookup((i2, i3)) * k1.lookup((i1,))
            + k1.lookup((i1,)) * k1.lookup((i2,)) * k1.lookup((i3,))
        )
        worst = max(worst, abs(got - want))
    _verdict(1, worst < 1e-12, time.time() - start, 10.0, f"round-trip and order-3 formulas, max err {worst:.2e}")


def test_criterion_02_partition_counts():
    start = time.time()
    counts = [len(enumerate_partitions(r)) for r in range(1, 7)]
    ok = counts == [1, 2, 5, 15, 52, 203]
    _verdict(2, ok, time.time() - start, 10.0, f"Bell counts r=1..6: {counts}")


def test_criterion_03_sample_multilinearity():
    start = time.time()
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(20):
        r = 3 if trial % 2 == 0 else 4
        x = rng.standard_normal((1000, 3))
        a = rng.standard_normal((3, 3))
        lhs = sample_cumulant(x @ a.T, r)
        rhs = multilinear_transform(a, sample_cumulant(x, r))
        worst = max(worst, np.abs(lhs.values - rhs.values).max())
    _verdict(3, worst < 1e-10, time.time() - start, 5.0, f"20 trials, max err {worst:.2e}")


def test_criterion_04_gaussian_vanishing():
    start = time.time()
    rng = np.random.default_rng(104)
    x = rng.standard_normal((1_000_000, 3))
    worst = max(sample_cumulant(x, 3).max_abs(), sample_cumulant(x, 4).max_abs())
    _verdict(4, worst < 0.05, time.time() - start, 30.0, f"n=1e6 kappa3/kappa4 max |entry| {worst:.4f}")


def test_criterion_05_worked_counterexample_golden():
    start = time.time()
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    pattern = pattern_from_partition(spec, 3)
    structure = BlockStructure((2, 2))
    res = is_member(multilinear_transform(EXAMPLE_Q, EXAMPLE_T), pattern, 1e-12)
    cls = classify_blocks(EXAMPLE_Q, structure)
    all_singular = all(l == BlockLabel.SINGULAR_NONZERO for row in cls.labels for l in row)
    not_block_orth = not is_block_orthogonal(EXAMPLE_Q, structure, 1e-10)
    ok = res.member and res.max_violation < 1e-12 and all_singular and not_block_orth
    _verdict(
        5, ok, time.time() - start, 10.0,
        f"membership violation {res.max_violation:.2e}, blocks singular={all_singular}, "
        f"not block-orthogonal={not_block_orth}",
    )


def _blocks_to_spec(sizes: tuple[int, ...]) -> PartitionSpec:
    blocks, startv = [], 1
    for k in sizes:
        blocks.append(tuple(range(startv, startv + k)))
        startv += k
    return PartitionSpec(sum(sizes), tuple(blocks))


def test_criterion_06_block_orthogonal_iff_pattern_preserved():
    start = time.time()
    rng = np.random.default_rng(106)
    preserved = violated = total = 0
    for sizes in [(2, 2), (2, 3), (2, 1)]:
        structure = BlockStructure(sizes)
        spec = _blocks_to_spec(sizes)
        d = structure.dim
        for r in (3, 4):
            pattern = pattern_from_partition(spec, r)
            for _ in range(100):
                total += 1
                t = generic_sample(pattern, rng=rng)
                q = random_block_orthogonal(structure, rng)
                if is_member(multilinear_transform(q, t), pattern, 1e-10).member:
                    preserved += 1
                while True:
                    q2 = random_orthogonal(d, rng)
                    cls = classify_blocks(q2, structure)
                    if cls.all_full_rank() and not is_block_orthogonal(q2, structure, 1e-8):
                        break
                res = is_member(multilinear_transform(q2, t), pattern, 1e-6)
                if not res.member and res.max_violation > 1e-6:
                    violated += 1
    ok = preserved == total and violated == total
    _verdict(
        6, ok, time.time() - start, 60.0,
        f"block-orthogonal preserved {preserved}/{total}, full-rank non-member violated {violated}/{total}",
    )


def test_criterion_07_reflectional_stabilizer():
    start = time.time()
    pattern = reflectional_pattern(3, 4)
    checked = 0
    worst_dist = 0.0
    seed = 0
    tensors = 0
    while tensors < 20:
        seed += 1
        t = generic_sample(pattern, rng=seed)
        if not marginal_distinctness(t, 1e-3):
            continue
        tensors += 1
        results = minimize_off_pattern(t, pattern, RecoveryOptions(order=4, restarts=4, seed=seed))
        for q, energy in results:
            if energy < 1e-16:  # membership-preserving solutions only
                checked += 1
                _, dist = nearest_signed_permutation(q)
                worst_dist = max(worst_dist, dist)
    ok = checked >= 20 and worst_dist < 1e-6
    _verdict(
        7, ok, time.time() - start, 120.0,
        f"{checked} converged stabilizer elements over 20 tensors, max distance to SP(3) {worst_dist:.2e}",
    )


def test_criterion_08_graph_pattern_membership():
    start = time.time()
    n = 1_000_000
    star = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    xs = gen_graph_sources(n, star, 108)
    k3s = sample_cumulant(xs, 3)
    ps = pattern_from_graph(star, 3)
    tol_s = sample_membership_tol(k3s, ps, n)
    res_s = is_member(k3s, ps, tol_s)
    # quoted star behavior: leaf-only mixed entries vanish, hub-leaf does not
    star_zero_ok = all(
        abs(v) < 0.05 for idx, v in k3s.entries() if 1 not in idx and len(set(idx)) > 1
    )
    star_nonzero_ok = max(abs(k3s.lookup((1, j, j))) for j in (2, 3, 4)) > 0.05

    chain = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4)])
    xc = gen_graph_sources(n, chain, 202)
    k3c = sample_cumulant(xc, 3)
    pc = pattern_from_graph(chain, 3)
    tol_c = sample_membership_tol(k3c, pc, n)
    res_c = is_member(k3c, pc, tol_c)
    chain_zero_ok = all(abs(k3c.lookup((1, 3, last))) < 0.05 for last in (1, 2, 3, 4))
    chain_nonzero_ok = abs(k3c.lookup((1, 1, 2))) > 0.05

    ok = all([res_s.member, star_zero_ok, star_nonzero_ok, res_c.member, chain_zero_ok, chain_nonzero_ok])
    _verdict(
        8, ok, time.time() - start, 60.0,
        f"star violation {res_s.max_violation:.4f} (tol {tol_s:.4f}), "
        f"chain violation {res_c.max_violation:.4f} (tol {tol_c:.4f})",
    )


def test_criterion_09_comon_recovery():
    start = time.time()
    successes = {}
    for d in (2, 3):
        successes[d] = 0
        for run in range(10):
            sources = gen_independent_sources(100_000, d, "uniform", 1000 + 17 * run + d)
            a = random_orthogonal(d, 2000 + run + 31 * d)
            y = mix(sources, a)
            report = estimate_unmixing(
                y, diagonal_pattern(d, 4), RecoveryOptions(order=4, restarts=6, seed=run)
            )
            _, deviation = nearest_signed_permutation(report.unmixing @ a)
            if deviation < 0.05:
                successes[d] += 1
    ok = all(successes[d] >= 9 for d in (2, 3))
    _verdict(
        9, ok, time.time() - start, 120.0,
        f"aligned within 0.05 in {successes[2]}/10 (d=2) and {successes[3]}/10 (d=3) runs",
    )


def test_criterion_10_pica_recovery_with_gaussian_control():
    start = time.time()
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    pattern = pattern_from_partition(spec, 4)
    structure = BlockStructure((2, 2))
    # identifiability needs generic block tensors: giving the two blocks
    # different latent laws keeps their rotation invariants apart, otherwise
    # extra stabilizer elements appear (same failure mode as the worked
    # counterexample) and the coset residual is meaningless
    dists = ["uniform", "uniform", "rademacher_mixture", "rademacher_mixture"]
    successes = 0
    for run in range(10):
        sources = gen_partitioned_sources(100_000, spec, dists, 3000 + run)
        a = random_orthogonal(4, 4000 + run)
        report = estimate_unmixing(
            mix(sources, a), pattern, RecoveryOptions(order=4, restarts=8, seed=run)
        )
        ident = verify_identifiability(report.unmixing, a, structure)
        if ident.residual < 0.1:
            successes += 1
    # control: two bivariate Gaussian blocks are rotation invariant
    rng = np.random.default_rng(5007)
    gauss = rng.standard_normal((100_000, 4))
    a = random_orthogonal(4, 5000)
    report = estimate_unmixing(mix(gauss, a), pattern, RecoveryOptions(order=4, restarts=8, seed=0))
    control = verify_identifiability(report.unmixing, a, structure)
    ok = successes >= 8 and control.residual > 0.1
    _verdict(
        10, ok, time.time() - start, 300.0,
        f"residual < 0.1 in {successes}/10 runs; Gaussian control residual {control.residual:.3f}",
    )


def test_criterion_11_conjecture_probes():
    start = time.time()
    star = IndependenceGraph(4, [(1, 2), (1, 3), (1, 4)])
    chain = IndependenceGraph(4, [(1, 2), (2, 3), (3, 4)])
    rs = conjecture_probe(star, 3, trials=50, rng=111)
    rc = conjecture_probe(chain, 3, trials=50, rng=112)
    ok = (
        rs.exhaustive and rc.exhaustive
        and rs.matrices_checked == 384 and rc.matrices_checked == 384
        and rs.conjecture_holds and rc.conjecture_holds
    )
    _verdict(
        11, ok, time.time() - start, 60.0,
        f"star disagreements {len(rs.disagreements)}, chain disagreements {len(rc.disagreements)} "
        f"over 384 signed permutations each, checked exactly on the zero set",
    )


def test_criterion_12_cli_contract(tmp_path):
    start = time.time()
    checks = []

    spec_path = tmp_path / "spec.json"
    save_source_spec(SourceSpec("independent", 3, "uniform"), spec_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    checks.append(cli.run(["simulate", "--spec", str(spec_path), "--n", "400", "--seed", "5", "--out", str(out1)]) == 0)
    checks.append(cli.run(["simulate", "--spec", str(spec_path), "--n", "400", "--seed", "5", "--out", str(out2)]) == 0)
    checks.append(out1.read_bytes() == out2.read_bytes())

    kappa_path = tmp_path / "kappa.json"
    checks.append(cli.run(["cumulants", "--in", str(out1), "--order", "4", "--out", str(kappa_path)]) == 0)

    pat_path = tmp_path / "pattern.json"
    save_pattern(pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 3), pat_path)
    member_path = tmp_path / "member.json"
    save_tensor(EXAMPLE_T, member_path)
    checks.append(cli.run(["check", "--tensor", str(member_path), "--pattern", str(pat_path), "--tol", "1e-12"]) == 0)
    dense_path = tmp_path / "dense.json"
    save_tensor(tensor_from_entries(3, 4, [((1, 2, 3), 1.0)]), dense_path)
    checks.append(cli.run(["check", "--tensor", str(dense_path), "--pattern", str(pat_path), "--tol", "1e-12"]) == 3)

    # recover + verify on a small mixed data set
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    sources = gen_partitioned_sources(40_000, spec, "uniform", 12)
    a = random_orthogonal(4, 13)
    data_path = tmp_path / "mixed.csv"
    write_csv(data_path, mix(sources, a))
    pat4_path = tmp_path / "pattern4.json"
    save_pattern(pattern_from_partition(spec, 4), pat4_path)
    report_path = tmp_path / "report.json"
    checks.append(
        cli.run(
            ["recover", "--in", str(data_path), "--pattern", str(pat4_path), "--order", "4",
             "--restarts", "6", "--seed", "1", "--out", str(report_path)]
        ) == 0
    )
    truth_path = tmp_path / "truth.json"
    save_matrix(a, truth_path)
    checks.append(cli.run(["verify", "--report", str(report_path), "--truth", str(truth_path), "--blocks", "2,2"]) == 0)
    wrong_path = tmp_path / "wrong.json"
    save_matrix(random_orthogonal(4, 99), wrong_path)
    checks.append(cli.run(["verify", "--report", str(report_path), "--truth", str(wrong_path), "--blocks", "2,2"]) == 3)

    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps({"d": 3, "edges": [[1, 2], [1, 3]]}))
    checks.append(cli.run(["probe", "--graph", str(graph_path), "--order", "3", "--trials", "5", "--seed", "2"]) == 0)

    # usage and I/O error codes
    checks.append(cli.run(["frobnicate"]) == 1)
    checks.append(cli.run(["simulate", "--n", "10"]) == 1)
    checks.append(cli.run(["check", "--tensor", str(tmp_path / "missing.json"), "--pattern", str(pat_path)]) == 2)

    ok = all(checks)
    _verdict(12, ok, time.time() - start, 60.0, f"{sum(checks)}/{len(checks)} CLI contract checks")

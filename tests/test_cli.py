import json

import numpy as np
import pytest

from pica import cli
from pica.estimation import read_csv, sample_cumulant, write_csv
from pica.groups import random_orthogonal, save_matrix
from pica.patterns import (
    PartitionSpec,
    diagonal_pattern,
    pattern_from_partition,
    save_pattern,
)
from pica.recovery import load_report
from pica.simulate import SourceSpec, gen_partitioned_sources, mix, save_source_spec
from pica.tensor import load_tensor, save_tensor, tensor_from_entries


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_spec(path, spec):
    save_source_spec(spec, path)
    return str(path)


def test_simulate_is_byte_identical_per_seed(workdir):
    spec = write_spec(workdir / "spec.json", SourceSpec("independent", 3, "uniform"))
    out1, out2 = workdir / "a.csv", workdir / "b.csv"
    assert cli.run(["simulate", "--spec", spec, "--n", "500", "--seed", "7", "--out", str(out1)]) == 0
    assert cli.run(["simulate", "--spec", spec, "--n", "500", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    prov = json.loads((workdir / "a.csv.spec.json").read_text())
    assert prov["n"] == 500 and prov["seed"] == 7 and prov["kind"] == "independent"
    out3 = workdir / "c.csv"
    assert cli.run(["simulate", "--spec", spec, "--n", "500", "--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_simulate_matches_library_byte_for_byte(workdir):
    from pica.simulate import simulate as run_spec

    spec_obj = SourceSpec("partitioned", 4, "uniform", blocks=((1, 2), (3, 4)))
    spec = write_spec(workdir / "spec.json", spec_obj)
    out = workdir / "cli.csv"
    assert cli.run(["simulate", "--spec", spec, "--n", "300", "--seed", "9", "--out", str(out)]) == 0
    lib = workdir / "lib.csv"
    write_csv(lib, run_spec(spec_obj, 300, 9))
    assert out.read_bytes() == lib.read_bytes()


def test_cumulants_matches_library_byte_for_byte(workdir):
    spec = write_spec(workdir / "spec.json", SourceSpec("independent", 2, "laplace_like"))
    data = workdir / "data.csv"
    cli.run(["simulate", "--spec", spec, "--n", "2000", "--seed", "1", "--out", str(data)])
    out = workdir / "kappa.json"
    assert cli.run(["cumulants", "--in", str(data), "--order", "4", "--out", str(out)]) == 0
    # the CLI is a thin adapter: the library round trip reproduces the file
    lib = workdir / "lib.json"
    save_tensor(sample_cumulant(read_csv(data), 4), lib)
    assert out.read_bytes() == lib.read_bytes()


def test_check_member_and_non_member(workdir):
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    pat_path = workdir / "pattern.json"
    save_pattern(pattern_from_partition(spec, 3), pat_path)
    member = tensor_from_entries(
        3, 4,
        [((1, 1, 1), 1.0), ((1, 2, 2), 1.0), ((1, 1, 2), 2.0), ((2, 2, 2), 2.0),
         ((3, 3, 3), 3.0), ((3, 4, 4), 3.0), ((3, 3, 4), 5.0), ((4, 4, 4), 5.0)],
    )
    t_path = workdir / "member.json"
    save_tensor(member, t_path)
    assert cli.run(["check", "--tensor", str(t_path), "--pattern", str(pat_path), "--tol", "1e-12"]) == 0
    dense = tensor_from_entries(3, 4, [((1, 2, 3), 1.0)])
    d_path = workdir / "dense.json"
    save_tensor(dense, d_path)
    assert cli.run(["check", "--tensor", str(d_path), "--pattern", str(pat_path), "--tol", "1e-12"]) == 3


def test_check_random_dense_vs_diagonal(workdir):
    rng = np.random.default_rng(0)
    from pica.tensor import SymmetricTensor, num_entries

    t = SymmetricTensor(3, 3, rng.standard_normal(num_entries(3, 3)))
    t_path, p_path = workdir / "t.json", workdir / "p.json"
    save_tensor(t, t_path)
    save_pattern(diagonal_pattern(3, 3), p_path)
    assert cli.run(["check", "--tensor", str(t_path), "--pattern", str(p_path)]) == 3


def test_recover_verify_round_trip(workdir):
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    sources = gen_partitioned_sources(60_000, spec, "uniform", 3)
    a = random_orthogonal(4, 4)
    data = workdir / "mixed.csv"
    write_csv(data, mix(sources, a))
    pat_path = workdir / "pattern.json"
    save_pattern(pattern_from_partition(spec, 4), pat_path)
    report_path = workdir / "report.json"
    code = cli.run(
        ["recover", "--in", str(data), "--pattern", str(pat_path), "--order", "4",
         "--restarts", "6", "--seed", "5", "--out", str(report_path)]
    )
    assert code == 0
    report = load_report(report_path)
    assert report.objective >= 0.0
    truth_path = workdir / "truth.json"
    save_matrix(a, truth_path)
    assert cli.run(
        ["verify", "--report", str(report_path), "--truth", str(truth_path), "--blocks", "2,2"]
    ) == 0
    # a wrong ground truth fails the threshold
    wrong_path = workdir / "wrong.json"
    save_matrix(random_orthogonal(4, 99), wrong_path)
    assert cli.run(
        ["verify", "--report", str(report_path), "--truth", str(wrong_path), "--blocks", "2,2"]
    ) == 3


def test_recover_is_byte_identical_per_seed(workdir):
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    data = workdir / "mixed.csv"
    write_csv(data, mix(gen_partitioned_sources(5000, spec, "uniform", 6), random_orthogonal(4, 7)))
    pat_path = workdir / "pattern.json"
    save_pattern(pattern_from_partition(spec, 4), pat_path)
    reports = [workdir / "a.json", workdir / "b.json"]
    for report in reports:
        code = cli.run(
            ["recover", "--in", str(data), "--pattern", str(pat_path), "--restarts", "3",
             "--seed", "8", "--out", str(report)]
        )
        assert code == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_probe_star_graph(workdir, capsys):
    graph_path = workdir / "graph.json"
    graph_path.write_text(json.dumps({"d": 3, "edges": [[1, 2], [1, 3]]}))
    out_path = workdir / "probe.json"
    code = cli.run(
        ["probe", "--graph", str(graph_path), "--order", "3", "--trials", "5",
         "--seed", "11", "--out", str(out_path)]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["conjecture_holds"]
    assert payload["matrices_checked"] == 2**3 * 6


def test_help_exits_zero(capsys):
    assert cli.run(["-h"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_usage_errors_exit_one():
    assert cli.run([]) == 1
    assert cli.run(["frobnicate"]) == 1
    assert cli.run(["simulate", "--n", "10"]) == 1  # missing required flags
    assert cli.run(["check", "--tensor", "x.json"]) == 1


def test_io_errors_exit_two(workdir, capsys):
    missing = str(workdir / "nope.json")
    assert cli.run(["check", "--tensor", missing, "--pattern", missing]) == 2
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["check", "--tensor", str(bad), "--pattern", str(bad)]) == 2
    # malformed CSV
    csv_path = workdir / "bad.csv"
    csv_path.write_text("1,2\n3,nan\n")
    assert cli.run(["cumulants", "--in", str(csv_path), "--order", "3", "--out", str(workdir / "o.json")]) == 2
    # JSON that parses but has the wrong shape
    tensor_path, pattern_path = workdir / "t.json", workdir / "p.json"
    save_tensor(tensor_from_entries(2, 2, [((1, 1), 1.0)]), tensor_path)
    save_pattern(diagonal_pattern(2, 2), pattern_path)
    data = workdir / "data.csv"
    write_csv(data, np.random.default_rng(0).standard_normal((50, 4)))
    malformed = [
        ({"order": 2, "dim": 2, "entries": None},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        ({"order": 2, "dim": 2, "entries": [{"idx": 5, "val": 1.0}]},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        ({"kind": "partition", "order": 4, "dim": 4, "blocks": 5},
         ["recover", "--in", str(data), "--pattern", str(bad), "--seed", "0", "--out", str(workdir / "r.json")]),
        ({"d": 3, "edges": 5}, ["probe", "--graph", str(bad), "--seed", "0"]),
        ([{"kind": "independent", "d": 2}],
         ["simulate", "--spec", str(bad), "--n", "10", "--seed", "0", "--out", str(workdir / "x.csv")]),
    ]
    capsys.readouterr()
    for content, argv in malformed:
        bad.write_text(json.dumps(content))
        assert cli.run(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bad.json" in err[0], err


def test_simulate_rejects_bad_spec(workdir):
    bad_spec = workdir / "spec.json"
    bad_spec.write_text(json.dumps({"kind": "partitioned", "d": 3, "dist": "uniform"}))
    out = workdir / "x.csv"
    assert cli.run(["simulate", "--spec", str(bad_spec), "--n", "10", "--seed", "0", "--out", str(out)]) == 2


def test_check_output_format(workdir, capsys):
    t_path, p_path = workdir / "t.json", workdir / "p.json"
    save_tensor(tensor_from_entries(3, 2, [((1, 1, 1), 1.0)]), t_path)
    save_pattern(diagonal_pattern(2, 3), p_path)
    assert cli.run(["check", "--tensor", str(t_path), "--pattern", str(p_path)]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "max violation" in out

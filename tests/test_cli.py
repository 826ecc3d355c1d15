import json
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import pica
from pica import cli, recovery
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


def test_npy_files_give_the_csv_results(workdir, capsys):
    # simulate --out x.npy writes np.save's binary file; cumulants and recover map it and match the CSV run
    spec_obj = SourceSpec("partitioned", 4, "uniform", blocks=((1, 2), (3, 4)))
    spec = write_spec(workdir / "spec.json", spec_obj)
    for suffix in ("csv", "npy"):
        out = str(workdir / f"sources.{suffix}")
        assert cli.run(["simulate", "--spec", spec, "--n", "3000", "--seed", "4", "--out", out]) == 0
    assert (workdir / "sources.npy").read_bytes()[:6] == b"\x93NUMPY"
    assert np.load(workdir / "sources.npy").tobytes() == read_csv(workdir / "sources.csv").tobytes()
    pat_path = workdir / "pattern.json"
    save_pattern(pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4), pat_path)
    for suffix in ("csv", "npy"):
        data = str(workdir / f"sources.{suffix}")
        assert cli.run(["cumulants", "--in", data, "--order", "4", "--out", str(workdir / f"kappa.{suffix}.json")]) == 0
        assert cli.run(
            ["recover", "--in", data, "--pattern", str(pat_path), "--restarts", "2", "--seed", "1",
             "--out", str(workdir / f"report.{suffix}.json")]
        ) == 0
    for stem in ("kappa", "report"):
        assert (workdir / f"{stem}.csv.json").read_bytes() == (workdir / f"{stem}.npy.json").read_bytes()
    (workdir / "bad.npy").write_text("1,2\n3,4\n")
    capsys.readouterr()
    assert cli.run(["cumulants", "--in", str(workdir / "bad.npy"), "--order", "3", "--out", str(workdir / "k.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_dimension_mismatch_exits_two(workdir, capsys):
    spec = PartitionSpec(4, ((1, 2), (3, 4)))
    data = workdir / "mixed.csv"
    write_csv(data, mix(gen_partitioned_sources(2000, spec, "uniform", 6), random_orthogonal(4, 7)))
    pat3_path, pat4_path = workdir / "pattern3.json", workdir / "pattern4.json"
    save_pattern(pattern_from_partition(PartitionSpec(3, ((1, 2), (3,))), 4), pat3_path)
    save_pattern(pattern_from_partition(spec, 4), pat4_path)
    report_path, truth_path = workdir / "report.json", workdir / "truth.json"
    save_matrix(random_orthogonal(3, 8), truth_path)
    # a 12^8 dense cube is over the budget, so recover refuses it with one line
    data12, pat12_path = workdir / "wide.csv", workdir / "pattern12.json"
    write_csv(data12, np.random.default_rng(0).standard_normal((50, 12)))
    pat12_path.write_text(json.dumps({"kind": "partition", "order": 8, "dim": 12,
                                      "blocks": [list(range(1, 7)), list(range(7, 13))]}))
    recover = ["recover", "--restarts", "1", "--seed", "0", "--out", str(report_path)]
    assert cli.run(recover + ["--in", str(data), "--pattern", str(pat4_path)]) == 0
    capsys.readouterr()
    cases = [
        (recover + ["--in", str(data), "--pattern", str(pat3_path)], "pattern dim 3 != data column count 4"),
        (recover + ["--in", str(data12), "--pattern", str(pat12_path), "--order", "8"], "d^r = 12^8 = 429981696"),
        (["verify", "--report", str(report_path), "--truth", str(truth_path), "--blocks", "2,2"], "(4, 4) != "),
    ]
    for argv, message in cases:
        assert cli.run(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0], err


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


_NO_SCIPY_SCRIPT = textwrap.dedent(
    """
    import json, os, sys
    from pica import cli, recovery
    from pica.estimation import read_csv
    from pica.groups import random_orthogonal, save_matrix
    from pica.patterns import diagonal_pattern, save_pattern
    from pica.simulate import SourceSpec, mix, save_source_spec

    work = sys.argv[1]
    path = lambda name: os.path.join(work, name)
    save_source_spec(SourceSpec("independent", 3, "uniform"), path("spec.json"))
    save_pattern(diagonal_pattern(3, 4), path("pattern.json"))
    save_matrix(random_orthogonal(3, 0), path("truth.json"))
    with open(path("graph.json"), "w") as fh:
        json.dump({"d": 4, "edges": [[1, 2], [1, 3], [1, 4]]}, fh)
    codes = [
        cli.run(["simulate", "--spec", path("spec.json"), "--n", "2000", "--seed", "1", "--out", path("x.csv")]),
        cli.run(["cumulants", "--in", path("x.csv"), "--order", "4", "--out", path("kappa.json")]),
        cli.run(["check", "--tensor", path("kappa.json"), "--pattern", path("pattern.json"), "--tol", "1"]),
        cli.run(["recover", "--in", path("x.csv"), "--pattern", path("pattern.json"), "--order", "4",
                 "--restarts", "1", "--seed", "2", "--out", path("report.json")]),
        cli.run(["verify", "--report", path("report.json"), "--truth", path("truth.json"), "--blocks", "1,1,1"]),
        cli.run(["probe", "--graph", path("graph.json"), "--order", "3", "--trials", "2", "--seed", "3",
                 "--out", path("probe.json")]),
    ]
    a = random_orthogonal(3, 4)
    report = recovery.comon_pipeline(mix(read_csv(path("x.csv")), a), recovery.RecoveryOptions(restarts=1), a_true=a)
    codes.append(int(report.extras["is_signed_permutation"]))
    print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
    """
)


def test_simulate_verify_and_probe_import_no_scipy(workdir):
    # pica depends on numpy alone: no command, nor the classical pipeline's
    # signed-permutation check, imports scipy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pica.__file__)))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(workdir)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    # verify exits 3: the truth is not the mixing behind x.csv
    assert result["codes"] == [0, 0, 0, 0, 3, 0, 1]
    assert result["scipy"] == []


def test_help_exits_zero(capsys):
    assert cli.run(["-h"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_usage_errors_exit_one():
    assert cli.run([]) == 1
    assert cli.run(["frobnicate"]) == 1
    assert cli.run(["simulate", "--n", "10"]) == 1  # missing required flags
    assert cli.run(["check", "--tensor", "x.json"]) == 1


def test_non_finite_or_negative_tolerance_is_a_usage_error(workdir, capsys):
    t_path, p_path = workdir / "t.json", workdir / "p.json"
    save_tensor(tensor_from_entries(3, 2, [((1, 1, 1), 1.0)]), t_path)
    save_pattern(diagonal_pattern(2, 3), p_path)
    check = ["check", "--tensor", str(t_path), "--pattern", str(p_path), "--tol"]
    assert cli.run(check + ["0"]) == 0
    # parsing refuses the bound before the report or truth file is read
    verify = ["verify", "--report", str(workdir / "r.json"), "--truth", str(workdir / "a.json"), "--blocks", "2,2",
              "--threshold"]
    capsys.readouterr()
    for argv in [check + ["nan"], check + ["-1"], check + ["inf"], verify + ["nan"], verify + ["-0.5"]]:
        assert cli.run(argv) == 1, argv
        assert "expected a finite number >= 0" in capsys.readouterr().err


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
    report_path, pattern4_path = workdir / "report.json", workdir / "p4.json"
    save_pattern(diagonal_pattern(4, 4), pattern4_path)
    assert cli.run(["recover", "--in", str(data), "--pattern", str(pattern4_path), "--restarts", "1",
                    "--seed", "0", "--out", str(report_path)]) == 0
    verify = ["verify", "--report", str(report_path), "--truth", str(bad), "--blocks", "2,2"]
    recover_bad_pattern = ["recover", "--in", str(data), "--pattern", str(bad), "--seed", "0", "--out", str(workdir / "r.json")]
    simulate_bad_spec = ["simulate", "--spec", str(bad), "--n", "10", "--seed", "0", "--out", str(workdir / "x.csv")]
    report = json.loads(report_path.read_text())
    truth_path = workdir / "truth.json"
    save_matrix(np.eye(4), truth_path)
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
        # non-finite numbers, written as JSON's NaN/Infinity tokens or as an overflowing literal
        ({"dim": 4, "rows": np.where(np.eye(4) > 0, 1.0, np.nan).tolist()}, verify),
        ('{"dim": 4, "rows": [[1e999, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}', verify),
        ({"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": float("nan")}]},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        ({"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": -float("inf")}]},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        # numbers written as JSON strings (or booleans) are not numbers
        ({"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": "nan"}]},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        ({"dim": 4, "rows": np.where(np.eye(4) > 0, "1", "0").tolist()}, verify),
        ({"dim": 4, "rows": np.eye(4, dtype=bool).tolist()}, verify),
        ('{"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": 1' + "0" * 400 + "}]}",
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        # integers must be JSON integers: no truncated fractions, strings or booleans
        ({"kind": "partition", "order": 4.9, "dim": 4, "blocks": [[1, 2], [3, 4]]}, recover_bad_pattern),
        ({"kind": "partition", "order": 4, "dim": "4", "blocks": [[1, 2], [3, 4]]}, recover_bad_pattern),
        ({"kind": "partition", "order": 4, "dim": 4, "blocks": [[1, 2.5], [3, 4]]}, recover_bad_pattern),
        ({"kind": "graph", "order": 4, "dim": 4, "edges": [[1, "2"]]}, recover_bad_pattern),
        ({"order": 2, "dim": 2, "entries": [{"idx": [1, 1.5], "val": 1.0}]},
         ["check", "--tensor", str(bad), "--pattern", str(pattern_path)]),
        ({"d": 3, "edges": [[True, 2]]}, ["probe", "--graph", str(bad), "--seed", "0"]),
        ({"dim": 4.5, "rows": np.eye(4).tolist()}, verify),
        ({"d": 3.5, "edges": [[1, 2]]}, ["probe", "--graph", str(bad), "--seed", "0"]),
        ({"d": 3, "edges": [[1, 2.5]]}, ["probe", "--graph", str(bad), "--seed", "0"]),
        ({"kind": "independent", "d": "2"}, simulate_bad_spec),
        # a distribution must be a tag or a list of tags
        ({"kind": "independent", "d": 3, "dist": 5}, simulate_bad_spec),
        ({"kind": "independent", "d": 3, "dist": None}, simulate_bad_spec),
        ({"kind": "independent", "d": 3, "dist": True}, simulate_bad_spec),
        ({"kind": "partitioned", "d": 4, "blocks": [[1, 2], [3, 4.0001]]}, simulate_bad_spec),
        ({"kind": "graph", "d": 3, "edges": [[1, 2.5]]}, simulate_bad_spec),
        # an edge that is not a pair of vertices
        ({"d": 3, "edges": [[1, 2, 3]]}, ["probe", "--graph", str(bad), "--seed", "0"]),
        ({"kind": "graph", "order": 2, "dim": 2, "edges": [[1]]},
         ["check", "--tensor", str(tensor_path), "--pattern", str(bad)]),
        ({"kind": "graph", "d": 3, "edges": [[1, 2, 3]]}, simulate_bad_spec),
        # graph sources draw their own laws, so a spec that names one is refused
        ({"kind": "graph", "d": 3, "edges": [[1, 2], [1, 3]], "dist": "exponential"}, simulate_bad_spec),
        ({**report, "order": 4.5}, ["verify", "--report", str(bad), "--truth", str(truth_path), "--blocks", "2,2"]),
        ({**report, "sweeps_per_restart": ["3"]},
         ["verify", "--report", str(bad), "--truth", str(truth_path), "--blocks", "2,2"]),
    ]
    capsys.readouterr()
    for content, argv in malformed:
        bad.write_text(content if isinstance(content, str) else json.dumps(content))
        assert cli.run(argv) == 2, argv
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "bad.json" in err[0], err
    # a graph that names neither d nor dim is refused on reading, not built with 0 vertices
    for edges in ([[1, 2]], []):
        bad.write_text(json.dumps({"edges": edges}))
        assert cli.run(["probe", "--graph", str(bad), "--seed", "0"]) == 2
        assert capsys.readouterr().err.strip() == f"pica: invalid input: {bad}: the graph names no vertex count: missing d"


def test_a_missing_key_exits_two_with_one_line_naming_the_file(workdir, capsys):
    tensor_path, bad = workdir / "t.json", workdir / "bad.json"
    save_tensor(tensor_from_entries(3, 3, [((1, 1, 1), 1.0)]), tensor_path)
    cases = [
        ({"d": 3}, ["probe", "--graph", str(bad), "--seed", "0"], "'edges'"),
        ({"order": 3, "dim": 3}, ["check", "--tensor", str(tensor_path), "--pattern", str(bad)], "'kind'"),
    ]
    capsys.readouterr()
    for content, argv, key in cases:
        bad.write_text(json.dumps(content))
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err.strip() == f"pica: invalid input: {bad}: malformed content: missing key {key}"


def test_empty_and_out_of_range_inputs_exit_two(workdir, capsys):
    graph_path, empty_csv, data = workdir / "graph.json", workdir / "empty.csv", workdir / "data.csv"
    graph_path.write_text(json.dumps({"d": 3, "edges": [[1, 2], [1, 3]]}))
    empty_csv.write_text("")
    write_csv(data, np.random.default_rng(0).standard_normal((50, 2)))
    wide = workdir / "wide.csv"
    write_csv(wide, np.random.default_rng(0).standard_normal((1, 60)))
    sixteen = workdir / "sixteen.csv"
    write_csv(sixteen, np.random.default_rng(0).standard_normal((20, 16)))
    huge = workdir / "huge.csv"
    write_csv(huge, 1e100 * np.random.default_rng(0).standard_normal((50, 3)))
    not_npy = workdir / "bad.npy"
    not_npy.write_text("1,2\n3,4\n")
    out = str(workdir / "o.json")
    # a pattern or graph of dimension < 1 is refused by canonical_indices, not left to an IndexError
    tensor_path, zero_graph = workdir / "t.json", workdir / "zero.json"
    save_tensor(tensor_from_entries(4, 2, []), tensor_path)
    zero_graph.write_text(json.dumps({"d": 0, "edges": []}))
    nine_graph = workdir / "nine.json"
    nine_graph.write_text(json.dumps({"d": 9, "edges": [[1, 2]]}))
    dim_patterns = {dim: workdir / f"dim{dim}.json" for dim in (0, -2)}
    for dim, path in dim_patterns.items():
        path.write_text(json.dumps({"kind": "diagonal", "order": 4, "dim": dim}))
    recover = ["recover", "--in", str(data), "--seed", "0", "--out", out]
    cases = [
        (["check", "--tensor", str(tensor_path), "--pattern", str(dim_patterns[0])], "dim must be positive, got 0"),
        (["check", "--tensor", str(tensor_path), "--pattern", str(dim_patterns[-2])], "dim must be positive, got -2"),
        (recover + ["--pattern", str(dim_patterns[0])], "dim must be positive, got 0"),
        (recover + ["--pattern", str(dim_patterns[-2])], "dim must be positive, got -2"),
        (["probe", "--graph", str(zero_graph), "--seed", "0"], "dim must be positive, got 0"),
        (["probe", "--graph", str(graph_path), "--trials", "0", "--seed", "0"], "trials >= 1, got 0"),
        (["probe", "--graph", str(graph_path), "--trials", "-1", "--seed", "0"], "trials >= 1, got -1"),
        # 9! (154 + 81) entries to gather at r = 3, refused before the permutation table is built
        (["probe", "--graph", str(nine_graph), "--order", "3", "--seed", "0", "--out", out],
         "the probe at d = 9, r = 3 gathers d! (|Z| + d^2) entries, over the budget 67108864"),
        (["cumulants", "--in", str(empty_csv), "--order", "4", "--out", out], "must be non-empty"),
        (["cumulants", "--in", str(data), "--order", "0", "--out", out], "order must be in 1..8, got 0"),
        # C(67, 8) unique entries are refused before any tuple is built
        (["cumulants", "--in", str(wide), "--order", "8", "--out", out], "d = 60, r = 8 has C(d+r-1, r) = 6522361560"),
        # C(23, 8) = 490314 unique entries fit the entry budget, not the conversion's, which bounds the estimate's memory
        (["cumulants", "--in", str(sixteen), "--order", "8", "--out", out], "(2^r - 1) = 125030070 sub-tuple entries"),
        # fourth powers near 1e400 overflow: refused, where a file of NaN values was written
        (["cumulants", "--in", str(huge), "--order", "4", "--out", out], "the order-4 sample cumulant overflows a float"),
        # CSV text under a .npy name, which np.load would refuse as a pickle, pointing at allow_pickle
        (["cumulants", "--in", str(not_npy), "--order", "4", "--out", out], "bad.npy is not a .npy file"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        for argv, message in cases:
            assert cli.run(argv) == 2, argv
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and message in err[0], err
    assert not os.path.exists(out)


def test_descent_failure_exits_two(workdir, capsys, monkeypatch):
    def non_monotone(*args):
        raise recovery.DescentError("objective increased within a sweep: 0.5 -> 0.75")

    monkeypatch.setattr(recovery, "_descend", non_monotone)
    data, pattern_path = workdir / "data.csv", workdir / "p.json"
    write_csv(data, np.random.default_rng(0).standard_normal((50, 2)))
    save_pattern(diagonal_pattern(2, 4), pattern_path)
    argv = ["recover", "--in", str(data), "--pattern", str(pattern_path), "--restarts", "1",
            "--seed", "0", "--out", str(workdir / "r.json")]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["pica: descent failed: objective increased within a sweep: 0.5 -> 0.75"]


def test_negative_seed_exits_two_before_any_work(workdir, capsys, monkeypatch):
    def no_descent(*args):
        raise AssertionError("a negative seed reached the descent")

    monkeypatch.setattr(recovery, "_descend", no_descent)
    data, pattern_path, out = workdir / "data.csv", workdir / "p.json", workdir / "r.json"
    write_csv(data, np.random.default_rng(0).standard_normal((50, 4)))
    save_pattern(pattern_from_partition(PartitionSpec(4, ((1, 2), (3, 4))), 4), pattern_path)
    capsys.readouterr()
    for restarts in ("1", "2"):
        argv = ["recover", "--in", str(data), "--pattern", str(pattern_path), "--restarts", restarts,
                "--seed", "-1", "--out", str(out)]
        assert cli.run(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["pica: invalid input: seed must be >= 0, got -1"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "probe"])
def test_simulate_and_probe_refuse_a_negative_seed_before_any_draw(workdir, capsys, monkeypatch, command):
    spec = write_spec(workdir / "spec.json", SourceSpec("partitioned", 4, "uniform", blocks=((1, 2), (3, 4))))
    graph = workdir / "graph.json"
    graph.write_text(json.dumps({"d": 3, "edges": [[1, 2], [1, 3]]}))
    out = workdir / "out"
    argv = {
        "simulate": ["simulate", "--spec", spec, "--n", "50", "--seed", "-1", "--out", str(out)],
        "probe": ["probe", "--graph", str(graph), "--order", "3", "--trials", "2", "--seed", "-1", "--out", str(out)],
    }[command]

    def no_draw(*args, **kwargs):
        raise AssertionError("a negative seed reached a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    capsys.readouterr()
    assert cli.run(argv) == 2
    assert capsys.readouterr().err.strip().splitlines() == ["pica: invalid input: seed must be >= 0, got -1"]
    assert not out.exists()


def test_verify_overflow_prints_one_line(workdir, capsys):
    data, pattern_path, report_path = workdir / "data.csv", workdir / "p.json", workdir / "r.json"
    write_csv(data, np.random.default_rng(0).standard_normal((50, 4)))
    save_pattern(diagonal_pattern(4, 4), pattern_path)
    assert cli.run(["recover", "--in", str(data), "--pattern", str(pattern_path), "--restarts", "1",
                    "--seed", "0", "--out", str(report_path)]) == 0
    # finite entries whose product overflows: coset_residual's refusal is the one line
    report = json.loads(report_path.read_text())
    report_path.write_text(json.dumps({**report, "unmixing": (1e200 * np.eye(4)).tolist()}))
    truth_path = workdir / "truth.json"
    save_matrix(1e200 * random_orthogonal(4, 1), truth_path)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        assert cli.run(["verify", "--report", str(report_path), "--truth", str(truth_path), "--blocks", "2,2"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["pica: invalid input: matrix contains non-finite values"]


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
    # the worst index prints as plain ints
    save_tensor(tensor_from_entries(4, 2, [((1, 1, 1, 1), 1.0), ((2, 1, 2, 2), -0.5), ((1, 1, 2, 2), 0.25)]), t_path)
    save_pattern(diagonal_pattern(2, 4), p_path)
    assert cli.run(["check", "--tensor", str(t_path), "--pattern", str(p_path)]) == 3
    assert capsys.readouterr().out == "non-member: max violation 5.000000e-01 at [1, 2, 2, 2] (tol 1e-10)\n"

"""Batch command-line front end.

Thin adapters around the library: simulate sources, estimate cumulants,
check pattern membership, recover an unmixing matrix, verify it against
ground truth, and probe the graph-automorphism conjecture.

Exit codes: 0 success or positive verdict, 1 usage error, 2 I/O or format
error (including degenerate input data), 3 negative verdict.  Verdicts get
their own code so shell pipelines can branch on mathematical outcomes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _json, estimation, groups, patterns, recovery, simulate, tensor

__all__ = ["run", "main", "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_VERDICT"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERDICT = 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageExit(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pica", description="Cumulant-pattern component analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate sources from a spec JSON")
    p.add_argument("--spec", required=True, help="SourceSpec JSON path")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("cumulants", help="sample cumulant tensor from CSV data")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--out", required=True, help="output tensor JSON path")

    p = sub.add_parser("check", help="pattern membership verdict for a tensor")
    p.add_argument("--tensor", required=True, help="tensor JSON path")
    p.add_argument("--pattern", required=True, help="pattern JSON path")
    p.add_argument("--tol", type=float, default=patterns.POPULATION_TOL)

    p = sub.add_parser("recover", help="estimate the unmixing matrix")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--pattern", required=True, help="pattern JSON path")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output report JSON path")

    p = sub.add_parser("verify", help="coset residual of a recovery vs ground truth")
    p.add_argument("--report", required=True, help="recovery report JSON path")
    p.add_argument("--truth", required=True, help="true mixing matrix JSON path")
    p.add_argument("--blocks", required=True, help="block sizes, e.g. 2,2")
    p.add_argument("--threshold", type=float, default=0.1)

    p = sub.add_parser("probe", help="graph-automorphism conjecture probe")
    p.add_argument("--graph", required=True, help="graph JSON path: {d, edges}")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", help="optional report JSON path")

    return parser


def _graph_from_json(obj: dict) -> patterns.IndependenceGraph:
    dim = int(obj.get("d", obj.get("dim", 0)))
    return patterns.IndependenceGraph(dim, [tuple(e) for e in obj["edges"]])


def _cmd_simulate(args) -> int:
    spec = simulate.load_source_spec(args.spec)
    data = simulate.simulate(spec, args.n, args.seed)
    estimation.write_csv(args.out, data)
    simulate.save_source_spec(spec, str(args.out) + ".spec.json", extra={"n": args.n, "seed": args.seed})
    print(f"wrote {data.shape[0]} x {data.shape[1]} samples to {args.out}")
    return EXIT_OK


def _cmd_cumulants(args) -> int:
    data = estimation.read_csv(args.infile)
    kappa = estimation.sample_cumulant(data, args.order)
    tensor.save_tensor(kappa, args.out)
    print(f"wrote order-{args.order} cumulant tensor (dim {kappa.dim}) to {args.out}")
    return EXIT_OK


def _cmd_check(args) -> int:
    t = tensor.load_tensor(args.tensor)
    pat = patterns.load_pattern(args.pattern)
    result = patterns.is_member(t, pat, args.tol)
    verdict = "member" if result.member else "non-member"
    worst = list(result.worst_index) if result.worst_index else None
    print(f"{verdict}: max violation {result.max_violation:.6e} at {worst} (tol {args.tol:g})")
    return EXIT_OK if result.member else EXIT_VERDICT


def _cmd_recover(args) -> int:
    data = estimation.read_csv(args.infile)
    pat = patterns.load_pattern(args.pattern)
    opts = recovery.RecoveryOptions(order=args.order, restarts=args.restarts, seed=args.seed)
    report = recovery.estimate_unmixing(data, pat, opts)
    recovery.save_report(report, args.out)
    print(f"objective {report.objective:.6e} (best of {args.restarts} restarts) -> {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = recovery.load_report(args.report)
    a_true = groups.load_matrix(args.truth)
    structure = groups.BlockStructure.from_string(args.blocks)
    ident = recovery.verify_identifiability(report.unmixing, a_true, structure)
    print(
        f"coset residual {ident.residual:.6e} (threshold {args.threshold:g}), "
        f"assignment {list(ident.assignment)}"
    )
    return EXIT_OK if ident.residual < args.threshold else EXIT_VERDICT


def _cmd_probe(args) -> int:
    graph = _json.load(args.graph, _graph_from_json)
    report = groups.conjecture_probe(graph, args.order, args.trials, args.seed)
    if args.out:
        _json.dump(report.to_json(), args.out)
    summary = {
        "matrices_checked": report.matrices_checked,
        "automorphism_count": report.automorphism_count,
        "agreements": report.agreements,
        "disagreements": len(report.disagreements),
        "conjecture_holds": report.conjecture_holds,
    }
    print(json.dumps(summary))
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "cumulants": _cmd_cumulants,
    "check": _cmd_check,
    "recover": _cmd_recover,
    "verify": _cmd_verify,
    "probe": _cmd_probe,
}


def run(argv: list[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    except SystemExit as exc:  # argparse exits itself for --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"pica: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, estimation.DegenerateDataError) as exc:
        print(f"pica: invalid input: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

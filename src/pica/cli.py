"""Batch command-line front end.

Thin adapters around the library: simulate sources, estimate cumulants,
check pattern membership, recover an unmixing matrix, verify it against
ground truth, and probe the graph-automorphism conjecture.

Exit codes: 0 success or positive verdict, 1 usage error, 2 I/O or format
error (including degenerate input data, and a recovery whose descent fails
its monotone check), 3 negative verdict.  Verdicts get their own code so
shell pipelines can branch on mathematical outcomes.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _tolerance(text: str) -> float:
    """A finite number >= 0: a NaN or negative bound would turn every verdict negative."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="pica", description="Cumulant-pattern component analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate sources from a spec JSON")
    p.set_defaults(handler=_cmd_simulate)
    p.add_argument("--spec", required=True, help="SourceSpec JSON path")
    p.add_argument("--n", required=True, type=int, help="number of samples")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output CSV path; one ending in .npy gets binary np.save output, not text")

    p = sub.add_parser("cumulants", help="sample cumulant tensor from CSV data")
    p.set_defaults(handler=_cmd_cumulants)
    p.add_argument("--in", dest="infile", required=True, help="input CSV path, or a .npy file, which is memory-mapped")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--out", required=True, help="output tensor JSON path")

    p = sub.add_parser("check", help="pattern membership verdict for a tensor")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("--tensor", required=True, help="tensor JSON path")
    p.add_argument("--pattern", required=True, help="pattern JSON path")
    p.add_argument("--tol", type=_tolerance, default=patterns.POPULATION_TOL)

    p = sub.add_parser("recover", help="estimate the unmixing matrix")
    p.set_defaults(handler=_cmd_recover)
    p.add_argument("--in", dest="infile", required=True, help="input CSV path, or a .npy file, which is memory-mapped")
    p.add_argument("--pattern", required=True, help="pattern JSON path")
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="output report JSON path")

    p = sub.add_parser("verify", help="coset residual of a recovery vs ground truth")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--report", required=True, help="recovery report JSON path")
    p.add_argument("--truth", required=True, help="true mixing matrix JSON path")
    p.add_argument("--blocks", required=True, help="block sizes, e.g. 2,2")
    p.add_argument("--threshold", type=_tolerance, default=0.1)

    p = sub.add_parser("probe", help="exact graph-automorphism conjecture probe over every signed permutation")
    p.set_defaults(handler=_cmd_probe)
    p.add_argument("--graph", required=True, help="graph JSON path: {d, edges}")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--trials", type=int, default=50,
                   help="accepted and no longer used: the probe is exact; must be >= 1")
    p.add_argument("--seed", required=True, type=int,
                   help="accepted and no longer used: nothing is drawn; must be >= 0")
    p.add_argument("--out", help="optional report JSON path")

    return parser


def _graph_from_json(obj: dict) -> patterns.IndependenceGraph:
    dim = obj.get("d", obj.get("dim"))
    if dim is None:
        raise ValueError("the graph names no vertex count: missing d")
    return patterns.IndependenceGraph(_json.integer(dim), [tuple(map(_json.integer, e)) for e in obj["edges"]])


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
    opts = recovery.RecoveryOptions(order=args.order, restarts=args.restarts, seed=args.seed)
    data = estimation.read_csv(args.infile)
    pat = patterns.load_pattern(args.pattern)
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
        return args.handler(args)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"pica: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # estimation.DegenerateDataError among them
        print(f"pica: invalid input: {exc}", file=sys.stderr)
        return EXIT_IO
    except recovery.DescentError as exc:
        print(f"pica: descent failed: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

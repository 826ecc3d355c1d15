"""The conjecture census: the exact probe on every labelled graph, one line per dimension.

    python3 tests/conjecture_census.py --dim D [--orders R [R ...]]

For each d in 2..D this runs `pica.groups.conjecture_probe` on each of the
2^C(d, 2) labelled graphs on d vertices, at each order R (default 3 and 4).
Graph number g has the k-th vertex pair, in `itertools.combinations` order,
as an edge iff bit k of g is set.  The probe is exact and exhaustive, so a
census line is a proof by enumeration: at that d and those orders, a signed
permutation preserves the graph's pattern iff its permutation is a graph
automorphism.  One JSON line per d holds the number of graphs, the number of
(graph, order) pairs, how many of those pairs found a disagreement, the
first counterexample (its edges, its order and its disagreements) or null,
and the wall time in seconds.  The exit code is 1 if any pair found a
disagreement.  `--dim 5` checks 2196 pairs in well under a second; `--dim 6`
adds 65,536 pairs and takes about a minute.  This is a script, not a pytest
module.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pica.groups import conjecture_probe  # noqa: E402
from pica.patterns import IndependenceGraph  # noqa: E402


def census_line(d: int, orders: list[int]) -> dict:
    start = time.perf_counter()
    pairs = list(itertools.combinations(range(1, d + 1), 2))
    disagreements, counterexample = 0, None
    for number in range(2 ** len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if number >> k & 1]
        for order in orders:
            report = conjecture_probe(IndependenceGraph(d, edges), order, trials=1)
            if not report.conjecture_holds:
                disagreements += 1
                if counterexample is None:
                    counterexample = {"edges": edges, "order": order, "disagreements": report.disagreements}
    return {
        "dim": d,
        "orders": orders,
        "graphs": 2 ** len(pairs),
        "pairs": 2 ** len(pairs) * len(orders),
        "disagreements": disagreements,
        "counterexample": counterexample,
        "seconds": round(time.perf_counter() - start, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, required=True, help="largest number of vertices, at least 2")
    parser.add_argument("--orders", type=int, nargs="+", default=[3, 4], metavar="R")
    args = parser.parse_args(argv)
    if args.dim < 2:
        parser.error(f"--dim must be at least 2, got {args.dim}")
    found = False
    for d in range(2, args.dim + 1):
        line = census_line(d, args.orders)
        print(json.dumps(line), flush=True)
        found |= line["disagreements"] > 0
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())

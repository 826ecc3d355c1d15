"""The recovery census: many in-process `recover_d4` recoveries, one verdict line.

    python3 tests/recovery_census.py [--seeds FIRST LAST] [--passes N]

For each seed in FIRST..LAST and each pass index 0..N-1 this builds the
benchmark's `recover_d4` inputs (three d = 4 partitioned-ICA problems) and
runs them, as `perfbench/passes.py` does in its untraced passes.  A
recovery fails when it raises or when its coset residual is 0.1 or more.
The one JSON line printed holds the number of recoveries and failures, the
restarts that ran `max_sweeps` sweeps, the total sweeps, and a sha256 digest
over each recovery's rotation, objectives per restart and sweeps per
restart, in order (the last three over the recoveries that did not raise),
so two versions of pica can be compared bit for bit.
The exit code is 1 if any recovery failed or any restart ran `max_sweeps`
sweeps, as a descent stalled by a change to the plane search would.  The
defaults give 1080 recoveries; this is a script, not a pytest module.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import RESIDUAL_GATE, RecoverD4  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=(1000, 1059), metavar=("FIRST", "LAST"))
    parser.add_argument("--passes", type=int, default=6)
    args = parser.parse_args(argv)

    workload = RecoverD4()
    sha = hashlib.sha256()
    recoveries = failed = max_sweep_hits = sweeps = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            for index in range(args.passes):
                ctx = workload.setup(seed, index, workdir, NullTracer())
                for problem, result in zip(ctx["problems"], workload.run(ctx)):
                    recoveries += 1
                    if "error" in result:
                        failed += 1
                        continue
                    failed += not result["residual"] < RESIDUAL_GATE
                    max_sweep_hits += sum(s >= problem["opts"].max_sweeps for s in result["sweeps"])
                    sweeps += sum(result["sweeps"])
                    sha.update(np.ascontiguousarray(result["rotation"]).tobytes())
                    sha.update(np.asarray(result["objectives"], dtype=float).tobytes())
                    sha.update(np.asarray(result["sweeps"], dtype=np.int64).tobytes())
    print(json.dumps({
        "recoveries": recoveries,
        "failed": failed,
        "max_sweep_hits": max_sweep_hits,
        "sweeps": sweeps,
        "digest": sha.hexdigest(),
    }))
    return 1 if failed or max_sweep_hits else 0


if __name__ == "__main__":
    sys.exit(main())

"""The recovery census: many in-process recoveries, one verdict line per census.

    python3 tests/recovery_census.py [--seeds FIRST LAST] [--passes N]
    python3 tests/recovery_census.py --structure SIZES [SIZES ...] [--draws N]

Default mode.  For each seed in FIRST..LAST and each pass index 0..N-1 this
builds the benchmark's `recover_d4` inputs (three d = 4 partitioned-ICA
problems) and runs them, as `perfbench/passes.py` does in its untraced
passes.  A recovery fails when it raises or when its coset residual is 0.1
or more.  The one JSON line printed holds the number of recoveries and
failures, the restarts that ran `max_sweeps` sweeps, the total sweeps, and a
sha256 digest over each recovery's rotation, objectives per restart and
sweeps per restart, in order (the last three over the recoveries that did
not raise), so two versions of pica can be compared bit for bit.
The exit code is 1 if any recovery failed or any restart ran `max_sweeps`
sweeps, as a descent stalled by a change to the plane search would.  The
defaults give 1080 recoveries; this is a script, not a pytest module.

Structure mode.  For each block structure given as comma-separated sizes
(say 2,3,3) and each draw s in 0..N-1, the sources are
`gen_partitioned_sources(100_000, spec, laws, s)` with consecutive blocks of
those sizes, uniform laws at even s and uniform and rademacher_mixture laws
alternating over the coordinates at odd s; the mixing is
`random_orthogonal(d, 1000 + s)` and the options `RecoveryOptions(restarts=8,
seed=s)`.  Each problem runs the steps of `estimate_unmixing`, keeping every
restart's rotation.  One JSON line per structure counts the failures (the
best restart's coset residual is 0.1 or more), the search failures (no
restart within 0.1), the objective failures, the near-ties (another restart
within 1% of the best objective whose rotation is at coset residual 0.1 or
more from the best's), the restarts that ran `max_sweeps` sweeps and the
sweeps, with the failed draws, the structure's wall time in seconds and a
digest as above.  An objective failure is a failed draw that no search could
recover: one more descent, started at the truth's rotation (the polar factor
of (V A)^-1 for the whitening transform V and the mixing A), stays within 0.1
of the truth's coset and ends at an objective no lower than the best
restart's.  In both modes, restart 0's sweeps on a non-diagonal target are
its ICA descent's and its target descent's together, so a `max_sweeps`
count can flag restart 0 when neither descent reached `max_sweeps` on its
own; on a diagonal target (all blocks of size 1) they are the ICA descent's
own, as that descent is restart 0.  This mode records; its exit code is 1
only if a recovery raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from pica.estimation import sample_cumulant, whiten  # noqa: E402
from pica.groups import BlockStructure, coset_residual, random_orthogonal  # noqa: E402
from pica.patterns import PartitionSpec, pattern_from_partition  # noqa: E402
from pica.recovery import RecoveryOptions, _descend, _run_restarts, verify_identifiability  # noqa: E402
from pica.simulate import gen_partitioned_sources, mix  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import RESIDUAL_GATE, RecoverD4  # noqa: E402

# Structure mode: a restart this close to the best objective, relative, is a near-tie.
NEAR_TIE_RTOL = 0.01


def digest_update(sha, rotation, objectives, sweeps) -> None:
    sha.update(np.ascontiguousarray(rotation).tobytes())
    sha.update(np.asarray(objectives, dtype=float).tobytes())
    sha.update(np.asarray(sweeps, dtype=np.int64).tobytes())


def recover_d4_census(seeds: tuple[int, int], passes: int) -> int:
    workload = RecoverD4()
    sha = hashlib.sha256()
    recoveries = failed = max_sweep_hits = sweeps = 0
    with tempfile.TemporaryDirectory() as workdir:
        for seed in range(seeds[0], seeds[1] + 1):
            for index in range(passes):
                ctx = workload.setup(seed, index, workdir, NullTracer())
                for problem, result in zip(ctx["problems"], workload.run(ctx)):
                    recoveries += 1
                    if "error" in result:
                        failed += 1
                        continue
                    failed += not result["residual"] < RESIDUAL_GATE
                    max_sweep_hits += sum(s >= problem["opts"].max_sweeps for s in result["sweeps"])
                    sweeps += sum(result["sweeps"])
                    digest_update(sha, result["rotation"], result["objectives"], result["sweeps"])
    print(json.dumps({
        "recoveries": recoveries,
        "failed": failed,
        "max_sweep_hits": max_sweep_hits,
        "sweeps": sweeps,
        "digest": sha.hexdigest(),
    }))
    return 1 if failed or max_sweep_hits else 0


def objective_failure(dense, mask, transform, a, structure, best_objective) -> bool:
    """Whether a descent from the truth's rotation, the polar factor of (V A)^-1, stays in the truth's coset
    and ends no lower than the best restart."""
    u, _, vt = np.linalg.svd(np.linalg.inv(transform @ a))
    [(q, objective, _)] = _descend(dense, mask, [(0, u @ vt)])
    return verify_identifiability(q @ transform, a, structure).residual < RESIDUAL_GATE and objective >= best_objective


def structure_census(sizes: tuple[int, ...], draws: int) -> int:
    d = sum(sizes)
    ends = np.cumsum(sizes)
    spec = PartitionSpec(d, tuple(tuple(range(end - size + 1, end + 1)) for size, end in zip(sizes, ends)))
    pattern = pattern_from_partition(spec, 4)
    mask, structure = pattern.dense_zero_mask(), BlockStructure(sizes)
    sha = hashlib.sha256()
    start = time.perf_counter()
    failed_draws, errors = [], []
    search_failures = objective_failures = near_ties = max_sweep_hits = sweeps = 0
    for s in range(draws):
        laws = ["uniform"] * d if s % 2 == 0 else [("uniform", "rademacher_mixture")[i % 2] for i in range(d)]
        a = random_orthogonal(d, 1000 + s)
        opts = RecoveryOptions(restarts=8, seed=s)
        try:
            white = whiten(mix(gen_partitioned_sources(100_000, spec, laws, s), a))
            dense = sample_cumulant(white.whitened, opts.order).to_dense()
            results = _run_restarts(dense, mask, opts)
            residuals = [verify_identifiability(q @ white.transform, a, structure).residual for q, _, _ in results]
        except Exception as exc:  # counted and reported; the census goes on
            errors.append(f"draw {s}: {type(exc).__name__}: {exc}")
            continue
        rotations, objectives, restart_sweeps = zip(*results)
        best = int(np.argmin(objectives))
        if not residuals[best] < RESIDUAL_GATE:
            failed_draws.append(s)
            objective_failures += objective_failure(dense, mask, white.transform, a, structure, objectives[best])
        search_failures += not min(residuals) < RESIDUAL_GATE
        near_ties += any(
            k != best
            and objectives[k] <= objectives[best] + NEAR_TIE_RTOL * abs(objectives[best])
            and not coset_residual(rotations[k] @ rotations[best].T, structure)[0] < RESIDUAL_GATE
            for k in range(len(results))
        )
        max_sweep_hits += sum(n >= opts.max_sweeps for n in restart_sweeps)
        sweeps += sum(restart_sweeps)
        digest_update(sha, rotations[best], objectives, restart_sweeps)
    print(json.dumps({
        "structure": list(sizes),
        "draws": draws,
        "failed": len(failed_draws) + len(errors),
        "failed_draws": failed_draws,
        "search_failures": search_failures,
        "objective_failures": objective_failures,
        "near_ties": near_ties,
        "max_sweep_hits": max_sweep_hits,
        "sweeps": sweeps,
        "seconds": round(time.perf_counter() - start, 3),
        "errors": errors,
        "digest": sha.hexdigest(),
    }))
    return 1 if errors else 0


def block_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(k) for k in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated block sizes, got {text!r}") from None
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"block sizes must be positive, got {text!r}")
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs=2, type=int, default=(1000, 1059), metavar=("FIRST", "LAST"))
    parser.add_argument("--passes", type=int, default=6)
    parser.add_argument("--structure", nargs="+", type=block_sizes, metavar="SIZES")
    parser.add_argument("--draws", type=int, default=10)
    args = parser.parse_args(argv)
    if not args.structure:
        return recover_d4_census(args.seeds, args.passes)
    return max(structure_census(sizes, args.draws) for sizes in args.structure)


if __name__ == "__main__":
    sys.exit(main())

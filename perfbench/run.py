"""Benchmark entry point: times one pica workload for a fixed number of seconds.

    python3 perfbench/run.py --workload recover_d4 --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh Python process (perfbench/passes.py) on inputs
derived from --seed and the pass's input index.  The first passes of a run
(DISTINCT_PASSES untraced, one traced) each get inputs of their own and
always run; they are the run's operations, so `attempted` and `failed`
depend on the seed alone.  Later passes repeat those inputs in turn, while
one more fits in --seconds; they only add timings, and each must
reproduce its first's outputs.  With --trace 0 the passes are untraced and
the result holds the end-to-end metrics of BENCHMARK.json; each pass is
followed by the workload's EXTRA_SETUPS set-up-only passes, so that
setup_s is a median of many set-ups spread over the run.  With --trace 1
each untraced pass is followed by a traced replay of the same inputs; the
result holds the per-layer metrics, and the replay's outputs must match the
untraced pass's byte for byte.

The last line of standard output is the result JSON.  The full record, with
the environment and every pass, goes to perfbench/out/, and a traced run
also writes its spans there as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# A run must end within 180 s; no pass may outlive this many seconds of it.
RUN_CEILING_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
LAYERS = ("simulate", "estimation", "partitions", "tensor", "patterns", "groups", "recovery", "cli")
# Passes with inputs of their own in an untraced run: enough gated operations
# that success_ratio moves by little when one more fails (18 recoveries on
# recover_d4), and few enough that a run's minimum work fits in --seconds.
DISTINCT_PASSES = {"recover_d4": 6, "cumulants_r8": 2, "pipeline_d8": 3}
# Set-up-only passes after each untraced pass: about one second of set-up per
# pass, more where passes are few and set-ups short.
EXTRA_SETUPS = {"recover_d4": 1, "cumulants_r8": 3, "pipeline_d8": 1}
COMMANDS = ("simulate", "cumulants", "check", "recover", "verify", "probe")

# Per-layer times: the summed durations of these spans over the whole pass,
# set-up included.
SPAN_METRICS = {
    "recovery.descent_s": ("recovery.minimize_off_pattern",),
    "recovery.verify_s": ("recovery.verify_identifiability",),
    "partitions.convert_s": ("partitions.moments_to_cumulants",),
    "estimation.moments_s": ("estimation.sample_moments",),
    "estimation.whiten_s": ("estimation.whiten",),
    "estimation.read_csv_s": ("estimation.read_csv",),
    "estimation.write_csv_s": ("estimation.write_csv",),
    "tensor.save_s": ("tensor.save_tensor",),
    "tensor.load_s": ("tensor.load_tensor",),
    "patterns.build_s": ("patterns.pattern_from_partition", "patterns.diagonal_pattern", "patterns.load_pattern"),
    "patterns.is_member_s": ("patterns.is_member",),
    "groups.probe_s": ("groups.conjecture_probe",),
    "simulate.generate_s": ("simulate.gen_partitioned_sources", "simulate.gen_independent_sources", "simulate.simulate"),
    **{f"cli.{cmd}_s": (f"cli.{cmd}",) for cmd in COMMANDS},
}
# Counts computed from the workload's shape and the program's reports; they
# repeat exactly for a given seed.
COUNT_METRICS = (
    "recovery.sweeps",
    "recovery.plane_searches",
    "recovery.max_sweep_hits",
    "partitions.terms",
    "estimation.moment_entry_rows",
    "estimation.csv_mb",
    "groups.probe_matrices",
)


class PassError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PICA_THREADS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = nproc
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str:
    # a checkout that is not a git repository must not report an enclosing one
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    return "unknown: not a git checkout"


def environment(env: dict, first_pass: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": first_pass["numpy"],
        "blas": first_pass["blas"],
        "thread_env": {var: env.get(var) for var in THREAD_VARS},
        "PICA_THREADS": env.get("PICA_THREADS", "unset"),
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def run_pass(workload: str, seed: int, index: int, mode: str, env: dict, ceiling: float, ref=None) -> dict:
    """One pass in a fresh process; mode is `untraced`, `traced` or `setup`."""
    workdir = OUT / "work" / f"{workload}-{seed}-{index}-{mode}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "passes.py"), workload, str(seed), str(index), mode, str(workdir)]
    if ref:
        cmd.append(json.dumps(ref))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, ceiling - time.perf_counter()),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise PassError(f"pass {index} ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced pass, with counts from its untraced twin."""
    spans = traced["spans"]
    m = {name: sum(s["end"] - s["start"] for s in spans if s["name"] in names) for name, names in SPAN_METRICS.items()}
    counts = untraced["counts"]
    for name in COUNT_METRICS:
        m[name] = counts.get(name, 0)
    m["process.timed_rss_growth_mb"] = untraced["timed_rss_growth_mb"]
    m["recovery.restart_yield"] = counts["restarts_found_best"] / counts["restarts"] if counts.get("restarts") else 0.0
    m["recovery.plane_search_ms"] = (
        1e3 * m["recovery.descent_s"] / m["recovery.plane_searches"] if m["recovery.plane_searches"] else 0.0
    )
    m["partitions.terms_per_s"] = m["partitions.terms"] / m["partitions.convert_s"] if m["partitions.convert_s"] else 0.0
    timed = [(s, t) for s, t in zip(spans, self_times(spans)) if s["start"] >= 0.0]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in timed if s["name"].split(".")[0] == layer)
    covered = sum(s["end"] - s["start"] for s, _ in timed if s["parent"] is None)
    m["trace.span_coverage"] = covered / traced["wall_s"]
    return m


def compare_repeat(first: dict, again: dict) -> list[str]:
    """A pass on the inputs of an earlier pass must give the same outputs and gate outcomes."""
    mismatches = []
    if first["digests"] != again["digests"]:
        mismatches.append("outputs differ from the first pass on the same inputs")
    if [op["ok"] for op in first["ops"]] != [op["ok"] for op in again["ops"]]:
        mismatches.append("gate outcomes differ from the first pass on the same inputs")
    return mismatches


def compare_pair(untraced: dict, traced: dict) -> list[str]:
    mismatches = []
    if untraced["digests"] != traced["digests"]:
        differing = sorted(k for k in set(untraced["digests"]) | set(traced["digests"])
                           if untraced["digests"].get(k) != traced["digests"].get(k))
        mismatches.append(f"traced replay differs from the untraced pass in {differing}")
    for key in set(untraced["counts"]) & set(traced["counts"]):
        if untraced["counts"][key] != traced["counts"][key]:
            mismatches.append(f"count {key} differs: {untraced['counts'][key]} vs {traced['counts'][key]}")
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "pica" / "__init__.py").is_file():
        print(f"perfbench: no pica sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    distinct = 1 if args.trace else DISTINCT_PASSES[args.workload]
    start = time.perf_counter()
    deadline, ceiling = start + args.seconds, start + RUN_CEILING_S
    untraced, traced, setups, mismatches, durations = [], [], [], [], []
    index = 0
    try:
        # after the distinct passes, a pass (or, traced, a pair) starts only if one more of median length fits
        while index < distinct or time.perf_counter() + statistics.median(durations) <= deadline:
            began = time.perf_counter()
            inputs = index % distinct
            u = run_pass(args.workload, args.seed, inputs, "untraced", env, ceiling)
            untraced.append(u)
            if index >= distinct:
                mismatches += [f"pass {index}: {p}" for p in compare_repeat(untraced[inputs], u)]
            if args.trace:
                t = run_pass(args.workload, args.seed, inputs, "traced", env, ceiling, ref=u["ref"])
                traced.append(t)
                mismatches += [f"pass {index}: {p}" for p in compare_pair(u, t)]
            else:
                setups.append(u["setup_s"])
                for _ in range(EXTRA_SETUPS[args.workload]):
                    setups.append(run_pass(args.workload, args.seed, inputs, "setup", env, ceiling)["setup_s"])
            index += 1
            durations.append(time.perf_counter() - began)
    except (PassError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # the run's operations are those of its distinct passes; repeats only add timings
    passes = untraced[:distinct] + traced[:distinct]
    ops = [op for p in passes for op in p["ops"]]
    failures = [op for op in ops if not op["ok"]]
    residuals = [r for p in passes for r in p["residuals"]]
    relerrs = [e for p in passes for e in p["relerrs"]]

    if args.trace:
        per_pass = [layer_metrics(t, u) for u, t in zip(untraced, traced)]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        # counts come from pass 0 alone, so they repeat exactly for a seed
        values.update({name: per_pass[0][name] for name in COUNT_METRICS})
        values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                      - statistics.median(p["wall_s"] for p in untraced))
        values["residual_median"] = statistics.median(residuals) if residuals else 0.0
        values["cumulant_relerr_max"] = max(relerrs) if relerrs else 0.0
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "success_ratio": (len(ops) - len(failures)) / len(ops),
        }
    undeclared = {m["name"] for m in declared} ^ set(values)
    if undeclared:
        mismatches.append(f"metrics differ from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    result = {
        "correct": not any(op["exact"] for op in failures) and not mismatches,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced),
        "distinct_passes": distinct,
        "setups_s": setups,
        "computed_counts": list(COUNT_METRICS) if args.trace else [],
        "failures": failures,
        "mismatches": mismatches,
        "residuals": residuals,
        "cumulant_relerrs": relerrs,
        "environment": environment(env, untraced[0]),
        "pass_records": [{k: v for k, v in p.items() if k != "spans"} for p in untraced + traced],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, p in enumerate(traced):
                for s in p["spans"]:
                    fh.write(json.dumps({"pass": i, **s}) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(untraced)} passes on {distinct} distinct inputs, "
          f"success_ratio {len(ops) - len(failures)}/{len(ops)} operations passed their gates, "
          f"residual_median {statistics.median(residuals) if residuals else 'n/a'}, "
          f"cumulant_relerr_max {max(relerrs) if relerrs else 'n/a'}")
    for failure in failures:
        print(f"  failed: {failure['op']}: {failure['error']}")
    for mismatch in mismatches:
        print(f"  mismatch: {mismatch}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

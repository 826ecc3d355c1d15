"""Self-test of the benchmark's interface and steadiness.

    python3 perfbench/selftest.py schema
        BENCHMARK.json's keys, limits, names and units; runs nothing.
    python3 perfbench/selftest.py counts
        two traced runs of seed 7 per workload must report the same computed
        counts.
    python3 perfbench/selftest.py steadiness
        two sets of the same 10 runs per workload, each run with another
        seed.  A seed must give the same `attempted` and `failed` in both
        sets.  For each end-to-end metric, setup_s included, the spread
        (third minus first quartile, over the median) of each set must stay
        within its bound, and the second set's median may not be worse than
        the first's by more than the bound.  Spreads above a third of the
        bound are flagged.  Writes perfbench/out/steadiness.json.
    python3 perfbench/selftest.py bare
        in a directory holding only BENCHMARK.json and the benchmark's files,
        run.py must fail without printing a result.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

from run import COUNT_METRICS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
RUN_BUDGET_S = 3420
RUN_TIMEOUT_S = 180
COUNTS_SEED = 7
STEADY_RUNS = 10
STEADY_SETS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def check_schema() -> list[str]:
    errors = []
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    spec = json.loads(raw)
    if len(raw) > 64 * 1024:
        errors.append("BENCHMARK.json exceeds 64 KiB")
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")

    paths = spec["paths"]
    if not 1 <= len(paths) <= 16:
        errors.append("paths must hold 1 to 16 directories")
    for p in paths:
        if not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"bad path {p!r}")
        elif not (ROOT / p).is_dir():
            errors.append(f"path {p!r} is not a directory")
        else:
            links = [f for f in (ROOT / p).rglob("*") if f.is_symlink()]
            errors += [f"{f} is a link" for f in links]

    command = spec["command"]
    if not 1 <= len(command) <= 32 or any(not isinstance(c, str) or len(c) > 200 for c in command):
        errors.append("command must be 1 to 32 strings of at most 200 characters")
    for c in command[1:]:
        if c.startswith("/") or ".." in c.split("/"):
            errors.append(f"command argument {c!r} leaves the repository")
        elif "/" in c and not any(c == p or c.startswith(p.rstrip("/") + "/") for p in paths):
            errors.append(f"command argument {c!r} names a file outside paths")

    rs = spec["run_seconds"]
    if not isinstance(rs, int) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")

    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        errors.append("need 2 to 8 workloads")
    for w in workloads:
        if set(w) != {"name", "why"} or "\n" in w["why"] or len(w["why"]) > 200:
            errors.append(f"workload {w.get('name')!r} needs exactly a name and a one-line why of <= 200 characters")

    e2e, layers = spec["end_to_end"], spec["per_layer"]
    if not 1 <= len(e2e) <= 16:
        errors.append("need 1 to 16 end-to-end metrics")
    if not 1 <= len(layers) <= 128:
        errors.append("need 1 to 128 per-layer metrics")
    for m in e2e:
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end-to-end metric {m.get('name')!r} has keys {sorted(m)}")
        elif not 0 < m["bound"] <= 0.25:
            errors.append(f"bound of {m['name']} must be in (0, 0.25]")
    for m in layers:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per-layer metric {m.get('name')!r} has keys {sorted(m)}")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in e2e):
        errors.append("setup_s must have the largest bound")

    names = [x["name"] for x in workloads + e2e + layers]
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("names must be unique")
    for m in e2e + layers:
        if not UNIT.fullmatch(m["unit"]):
            errors.append(f"bad unit {m['unit']!r} of {m['name']}")
        if m["better"] not in ("lower", "higher"):
            errors.append(f"better of {m['name']} must be lower or higher")

    from workloads import WORKLOADS

    if {w["name"] for w in workloads} != set(WORKLOADS):
        errors.append(f"workloads {sorted(w['name'] for w in workloads)} != implemented {sorted(WORKLOADS)}")
    if (4 + 22 * len(workloads)) * rs > RUN_BUDGET_S:
        errors.append("4 + 22 runs per workload of run_seconds each exceed the time budget")
    return errors


def bench_run(workload: str, seed: int, seconds: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = load_spec()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"run exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counts() -> list[str]:
    errors = []
    for w in load_spec()["workloads"]:
        first, second = (result_of(bench_run(w["name"], COUNTS_SEED, 1, 1))["metrics"] for _ in range(2))
        for name in COUNT_METRICS:
            if first[name]["value"] != second[name]["value"]:
                errors.append(f"{w['name']}: {name} {first[name]['value']} then {second[name]['value']}")
        print(f"{w['name']}: " + ", ".join(f"{n}={first[n]['value']}" for n in COUNT_METRICS), flush=True)
    return errors


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_steadiness() -> list[str]:
    """Runs go round-robin over the workloads, so a slow spell of the machine
    touches every workload a little instead of one workload's whole set."""
    spec = load_spec()
    e2e = spec["end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    errors, summary = [], {name: {m["name"]: {} for m in e2e} for name in names}
    medians = {name: [] for name in names}
    tallies = {}
    for s in range(STEADY_SETS):
        values = {name: {m["name"]: [] for m in e2e} for name in names}
        for i in range(STEADY_RUNS):
            seed = 1000 + i
            for name in names:
                result = result_of(bench_run(name, seed, spec["run_seconds"], 0))
                if not result["correct"]:
                    errors.append(f"{name} seed {seed}: correct is false")
                tally = (result["attempted"], result["failed"])
                first = tallies.setdefault((name, seed), tally)
                if tally != first:
                    errors.append(f"{name} seed {seed}: {tally[1]} of {tally[0]} operations failed in set {s + 1}, "
                                  f"{first[1]} of {first[0]} in set 1")
                for metric, v in result["metrics"].items():
                    values[name][metric].append(v["value"])
                print(f"{name} set {s + 1} run {i + 1}: failed {tally[1]}/{tally[0]}, "
                      + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name in names:
            medians[name].append({k: statistics.median(v) for k, v in values[name].items()})
            for m in e2e:
                vals, med = values[name][m["name"]], medians[name][-1][m["name"]]
                sp = spread(vals)
                summary[name][m["name"]][f"set{s + 1}"] = {"values": vals, "median": med, "spread": sp}
                flag = "" if sp < m["bound"] / 3 else "  above a third of the bound"
                print(f"  {name} set {s + 1} {m['name']}: median {med:.4g}, spread {sp:.3f} (bound {m['bound']}){flag}",
                      flush=True)
                if sp > m["bound"]:
                    errors.append(f"{name} set {s + 1}: spread of {m['name']} {sp:.3f} > bound {m['bound']}")
    for name in names:
        for m in e2e:
            a, b = medians[name][0][m["name"]], medians[name][1][m["name"]]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            summary[name][m["name"]]["second_worse_by"] = worse
            print(f"  {name} {m['name']}: second median worse by {worse:.3f} (bound {m['bound']})")
            if worse > m["bound"]:
                errors.append(f"{name}: second median of {m['name']} worse by {worse:.3f} > bound {m['bound']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steadiness.json").write_text(json.dumps({"errors": errors, "workloads": summary}, indent=2) + "\n")
    return errors


def check_bare() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    spec = load_spec()
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench_run(spec["workloads"][0]["name"], 1, 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] if proc.stdout.strip() else []
    errors = []
    if proc.returncode == 0:
        errors.append("run.py exited 0 without the pica sources")
    if last and last[0].startswith("{"):
        errors.append("run.py printed a result without the pica sources")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("check", choices=("schema", "counts", "steadiness", "bare"))
    args = parser.parse_args()
    checks = {"schema": check_schema, "counts": check_counts, "steadiness": check_steadiness, "bare": check_bare}
    errors = checks[args.check]()
    for e in errors:
        print(f"FAIL {e}")
    print(f"{args.check}: {'ok' if not errors else f'{len(errors)} failure(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

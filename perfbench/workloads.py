"""The three benchmark workloads: inputs, timed pass, traced replay, gates.

Each workload has four steps:

    setup(seed, index, workdir, tracer) -> ctx   make the inputs (untimed)
    run(ctx) -> out                              the timed pass, public API only
    replay(ctx, tracer, ref) -> out              the traced pass: the same work
                                                 split into the public calls it
                                                 is made of, one span per call
    check(ctx, out) -> outcome                   gates, computed counts, digests

``index`` numbers the passes of one run; the traced pass ``index`` gets
the same inputs as the untraced pass ``index``, so their outputs can be
compared byte for byte.  ``ref`` is the untraced pass's ``outcome["ref"]``.

An outcome is a dict with
    ops        one {"op", "ok", "error"} per gated operation
    counts     computed counts, exact for a given seed and pass index
    digests    sha256 of every output the traced replay must reproduce
    residuals  coset residuals, relerrs  cumulant check errors
    ref        what the traced replay needs from the untraced pass
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib

import numpy as np

from pica import cli, simulate
from pica.estimation import read_csv, sample_cumulant, sample_moments, whiten, write_csv
from pica.groups import BlockStructure, conjecture_probe, load_matrix, random_orthogonal, save_matrix
from pica.partitions import moments_to_cumulants
from pica.patterns import (
    POPULATION_TOL,
    IndependenceGraph,
    PartitionSpec,
    diagonal_pattern,
    is_member,
    load_pattern,
    pattern_from_partition,
    save_pattern,
)
from pica.recovery import (
    RecoveryOptions,
    RecoveryReport,
    estimate_unmixing,
    load_report,
    minimize_off_pattern,
    save_report,
    verify_identifiability,
)
from pica.simulate import (
    SourceSpec,
    gen_independent_sources,
    gen_partitioned_sources,
    load_source_spec,
    mix,
    save_source_spec,
)
from pica.tensor import load_tensor, polynomial_eval, save_tensor

RESIDUAL_GATE = 0.1
RELERR_GATE = 1e-9
# Restarts whose objective is within this relative distance of the best count
# as having found it (recovery.restart_yield).
YIELD_RTOL = 1e-9
# The cumulant gate evaluates the tensor's polynomial along these fixed unit
# vectors; they do not depend on the workload seed.
DIRECTION_SEED = 20240215
DIRECTIONS = 4


def derive(seed: int, *path) -> int:
    """A 32-bit input seed from the workload seed and a path of names and ints."""
    key = [int(seed)] + [zlib.crc32(p.encode()) if isinstance(p, str) else int(p) for p in path]
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return digest(fh.read())


def bell(k: int) -> int:
    """Number of set partitions of a k-set (Bell triangle)."""
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def moment_entries(d: int, r: int) -> int:
    """Unique entries of the moment tensors of orders 1..r on R^d."""
    return sum(math.comb(d + k - 1, k) for k in range(1, r + 1))


def conversion_terms(d: int, r: int) -> int:
    """Partition terms summed by one moments-to-cumulants conversion up to order r."""
    return sum(math.comb(d + k - 1, k) * bell(k) for k in range(1, r + 1))


def scalar_cumulant(y: np.ndarray, r: int) -> float:
    """Plug-in cumulant of order r of a scalar sample, by the moment recursion

        kappa_n = mu_n - sum_{m=1}^{n-1} C(n-1, m-1) kappa_m mu_{n-m}

    on raw plug-in moments.  Independent of pica's partition machinery.
    """
    mu = [1.0] + [float(np.mean(y**n)) for n in range(1, r + 1)]
    kappa = [0.0] * (r + 1)
    for n in range(1, r + 1):
        kappa[n] = mu[n] - sum(math.comb(n - 1, m - 1) * kappa[m] * mu[n - m] for m in range(1, n))
    return kappa[r]


def cumulant_relerr(kappa, x: np.ndarray) -> float:
    """Largest relative gap between f_kappa(u) and the scalar cumulant of x @ u."""
    u = np.random.default_rng(DIRECTION_SEED).standard_normal((DIRECTIONS, x.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    errs = []
    for direction in u:
        want = scalar_cumulant(x @ direction, kappa.order)
        errs.append(abs(polynomial_eval(kappa, direction) - want) / abs(want))
    return max(errs)


def _op(name: str, ok: bool, error: str | None = None, exact: bool = True) -> dict:
    """One gated operation.  An exact gate checks an identity or documented behaviour that
    holds for every input; a statistical gate (exact=False) checks a recovery
    against the truth, which a sample can fail."""
    return {"op": name, "ok": bool(ok), "exact": exact, "error": None if ok else (error or "gate failed")}


def _restart_counts(sweeps: list[int], objectives: list[float], max_sweeps: int, planes: int) -> dict:
    best = min(objectives)
    found = sum(abs(o - best) <= YIELD_RTOL * abs(best) for o in objectives)
    return {
        "recovery.sweeps": sum(sweeps),
        "recovery.plane_searches": sum(sweeps) * planes,
        "recovery.max_sweep_hits": sum(s >= max_sweeps for s in sweeps),
        "restarts": len(objectives),
        "restarts_found_best": found,
    }


def _merge_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


class RecoverD4:
    """Three partitioned-ICA recoveries shaped like acceptance criterion 10.

    The source samples are criterion 10's first three draws, the same in
    every run: the descent's sweep count is a property of the source draw
    and varies several-fold between draws, so drawing sources from the
    seed would make the pass time depend on the seed more than on the code.
    The seed draws each problem's Haar mixing matrix and restart seed.
    """

    name = "recover_d4"
    n = 100_000
    source_seeds = (3000, 3001, 3002)
    laws = ["uniform", "uniform", "rademacher_mixture", "rademacher_mixture"]
    restarts = 8

    def setup(self, seed, index, workdir, tr):
        spec = PartitionSpec(4, ((1, 2), (3, 4)))
        pattern = tr.call("patterns.pattern_from_partition", pattern_from_partition, spec, 4)
        problems = []
        for slot, source_seed in enumerate(self.source_seeds):
            tr.problem = slot
            sources = tr.call(
                "simulate.gen_partitioned_sources", gen_partitioned_sources, self.n, spec, self.laws, source_seed
            )
            a = tr.call("groups.random_orthogonal", random_orthogonal, 4, derive(seed, self.name, index, slot, "mixing"))
            y = tr.call("simulate.mix", mix, sources, a)
            opts = RecoveryOptions(order=4, restarts=self.restarts, seed=derive(seed, self.name, index, slot, "restarts"))
            problems.append({"y": y, "a": a, "opts": opts})
        tr.problem = None
        return {"pattern": pattern, "structure": BlockStructure((2, 2)), "problems": problems}

    def run(self, ctx):
        out = []
        for p in ctx["problems"]:
            try:
                report = estimate_unmixing(p["y"], ctx["pattern"], p["opts"])
                ident = verify_identifiability(report.unmixing, p["a"], ctx["structure"])
            except Exception as exc:  # counted as a failed problem; the pass goes on
                out.append({"error": type(exc).__name__})
                continue
            out.append(
                {
                    "rotation": report.rotation,
                    "residual": ident.residual,
                    "objectives": report.objective_per_restart,
                    "sweeps": report.sweeps_per_restart,
                }
            )
        return out

    def replay(self, ctx, tr, ref):
        """estimate_unmixing as its public steps, then verify_identifiability."""
        out = []
        for slot, p in enumerate(ctx["problems"]):
            tr.problem = slot
            try:
                white = tr.call("estimation.whiten", whiten, p["y"])
                moments = tr.call("estimation.sample_moments", sample_moments, white.whitened, 4)
                kappa = tr.call("partitions.moments_to_cumulants", moments_to_cumulants, moments)[-1]
                results = tr.call("recovery.minimize_off_pattern", minimize_off_pattern, kappa, ctx["pattern"], p["opts"])
                with tr.span("recovery.argmin"):
                    objectives = [energy for _, energy in results]
                    rotation = results[int(np.argmin(objectives))][0]
                    unmixing = rotation @ white.transform
                ident = tr.call(
                    "recovery.verify_identifiability", verify_identifiability, unmixing, p["a"], ctx["structure"]
                )
            except Exception as exc:  # counted as a failed problem; the pass goes on
                out.append({"error": type(exc).__name__})
                continue
            out.append(
                {
                    "rotation": rotation,
                    "residual": ident.residual,
                    "objectives": objectives,
                    "kappa": kappa,
                    "whitened": white.whitened,
                }
            )
        tr.problem = None
        return out

    def check(self, ctx, out):
        ops, residuals, relerrs, digests = [], [], [], {}
        counts = {
            "partitions.terms": len(out) * conversion_terms(4, 4),
            "estimation.moment_entry_rows": len(out) * self.n * moment_entries(4, 4),
        }
        for slot, (p, r) in enumerate(zip(ctx["problems"], out)):
            if "error" in r:
                ops.append(_op(f"problem{slot}", False, r["error"], exact=False))
                continue
            ops.append(_op(f"problem{slot}", r["residual"] < RESIDUAL_GATE, f"coset residual {r['residual']:.3g}", exact=False))
            residuals.append(r["residual"])
            digests[f"rotation{slot}"] = digest(r["rotation"])
            if "sweeps" in r:
                _merge_counts(counts, _restart_counts(r["sweeps"], r["objectives"], p["opts"].max_sweeps, 6))
            if "kappa" in r:
                err = cumulant_relerr(r["kappa"], r["whitened"])
                relerrs.append(err)
                ops.append(_op(f"cumulant{slot}", err < RELERR_GATE, f"relative error {err:.3g}"))
        return {"ops": ops, "counts": counts, "digests": digests, "residuals": residuals, "relerrs": relerrs, "ref": {}}


class CumulantsR8:
    """One order-8 sample cumulant on d=4 mixed non-Gaussian data.

    The partition-sum conversion does nearly all the work and no other
    workload reaches order 8, so a change there shows here alone.
    """

    name = "cumulants_r8"
    n = 20_000
    d = 4
    order = 8
    laws = ["uniform", "laplace_like", "rademacher_mixture", "exponential"]

    def setup(self, seed, index, workdir, tr):
        sources = tr.call(
            "simulate.gen_independent_sources",
            gen_independent_sources, self.n, self.d, self.laws, derive(seed, self.name, index, "sources"),
        )
        a = tr.call("groups.random_orthogonal", random_orthogonal, self.d, derive(seed, self.name, index, "mixing"))
        return {"x": tr.call("simulate.mix", mix, sources, a)}

    def run(self, ctx):
        try:
            return {"kappa": sample_cumulant(ctx["x"], self.order)}
        except Exception as exc:  # counted as a failed operation
            return {"error": type(exc).__name__}

    def replay(self, ctx, tr, ref):
        """sample_cumulant as its public steps."""
        try:
            moments = tr.call("estimation.sample_moments", sample_moments, ctx["x"], self.order)
            return {"kappa": tr.call("partitions.moments_to_cumulants", moments_to_cumulants, moments)[-1]}
        except Exception as exc:  # counted as a failed operation
            return {"error": type(exc).__name__}

    def check(self, ctx, out):
        counts = {
            "partitions.terms": conversion_terms(self.d, self.order),
            "estimation.moment_entry_rows": self.n * moment_entries(self.d, self.order),
        }
        if "error" in out:
            ops, relerrs, digests = [_op("cumulant", False, out["error"])], [], {}
        else:
            err = cumulant_relerr(out["kappa"], ctx["x"])
            ops, relerrs = [_op("cumulant", err < RELERR_GATE, f"relative error {err:.3g}")], [err]
            digests = {"kappa": digest(out["kappa"].values)}
        return {"ops": ops, "counts": counts, "digests": digests, "residuals": [], "relerrs": relerrs, "ref": {}}


class PipelineD8:
    """The six pica commands in sequence on d=8 mixed uniform sources.

    Set-up writes the mixed CSV, the truth matrix, the source spec, the
    diagonal pattern and a star graph; the timed pass runs the commands
    in-process through ``pica.cli.run``.  `check` must find the mixed data
    a non-member of the diagonal pattern (exit 3).
    """

    name = "pipeline_d8"
    n = 100_000
    d = 8
    order = 4
    restarts = 2
    probe_order = 3
    probe_trials = 20
    expected_codes = {"simulate": 0, "cumulants": 0, "check": 3, "recover": 0, "verify": 0, "probe": 0}
    # recover and verify depend on the recovery landing near the truth
    statistical = ("recover", "verify")
    files = {
        "spec": "spec.json",
        "pattern": "pattern.json",
        "graph": "graph.json",
        "mixed": "mixed.csv",
        "truth": "truth.json",
        "sim": "simulated.csv",
        "kappa": "kappa.json",
        "report": "report.json",
        "probe": "probe.json",
    }
    outputs = ("sim", "sim_spec", "kappa", "report", "probe")

    def setup(self, seed, index, workdir, tr):
        paths = {key: os.path.join(workdir, name) for key, name in self.files.items()}
        paths["sim_spec"] = paths["sim"] + ".spec.json"
        spec = SourceSpec("independent", self.d, "uniform")
        tr.call("simulate.save_source_spec", save_source_spec, spec, paths["spec"])
        sources = tr.call(
            "simulate.gen_independent_sources",
            gen_independent_sources, self.n, self.d, "uniform", derive(seed, self.name, index, "sources"),
        )
        truth = tr.call("groups.random_orthogonal", random_orthogonal, self.d, derive(seed, self.name, index, "mixing"))
        mixed = tr.call("simulate.mix", mix, sources, truth)
        tr.call("estimation.write_csv", write_csv, paths["mixed"], mixed)
        tr.call("groups.save_matrix", save_matrix, truth, paths["truth"])
        pattern = tr.call("patterns.diagonal_pattern", diagonal_pattern, self.d, self.order)
        tr.call("patterns.save_pattern", save_pattern, pattern, paths["pattern"])
        with open(paths["graph"], "w", encoding="utf-8") as fh:
            json.dump({"d": 4, "edges": [[1, 2], [1, 3], [1, 4]]}, fh)
        seeds = {cmd: derive(seed, self.name, index, cmd) for cmd in ("simulate", "recover", "probe")}
        return {"paths": paths, "mixed": mixed, "truth": truth, "seeds": seeds}

    def commands(self, ctx) -> list[tuple[str, list[str]]]:
        p, s = ctx["paths"], ctx["seeds"]
        return [
            ("simulate", ["simulate", "--spec", p["spec"], "--n", str(self.n), "--seed", str(s["simulate"]), "--out", p["sim"]]),
            ("cumulants", ["cumulants", "--in", p["mixed"], "--order", str(self.order), "--out", p["kappa"]]),
            ("check", ["check", "--tensor", p["kappa"], "--pattern", p["pattern"]]),
            (
                "recover",
                ["recover", "--in", p["mixed"], "--pattern", p["pattern"], "--order", str(self.order),
                 "--restarts", str(self.restarts), "--seed", str(s["recover"]), "--out", p["report"]],
            ),
            ("verify", ["verify", "--report", p["report"], "--truth", p["truth"], "--blocks", ",".join(["1"] * self.d)]),
            (
                "probe",
                ["probe", "--graph", p["graph"], "--order", str(self.probe_order), "--trials", str(self.probe_trials),
                 "--seed", str(s["probe"]), "--out", p["probe"]],
            ),
        ]

    def run(self, ctx):
        codes = {}
        for name, argv in self.commands(ctx):
            try:
                codes[name] = cli.run(argv)
            except Exception as exc:  # an escaped exception fails the command, not the pass
                codes[name] = type(exc).__name__
        return {"codes": codes}

    def replay(self, ctx, tr, ref):
        """Each command as the library calls cli.py makes for it.

        `recover` is split further into estimate_unmixing's public steps.
        minimize_off_pattern does not return sweep counts, so the report's
        sweeps_per_restart comes from the untraced pass (``ref``); every
        other field is recomputed and compared byte for byte.
        """
        p, s = ctx["paths"], ctx["seeds"]

        def simulate_cmd():
            spec = tr.call("simulate.load_source_spec", load_source_spec, p["spec"])
            data = tr.call("simulate.simulate", simulate.simulate, spec, self.n, s["simulate"])
            tr.call("estimation.write_csv", write_csv, p["sim"], data)
            extra = {"n": self.n, "seed": s["simulate"]}
            tr.call("simulate.save_source_spec", save_source_spec, spec, p["sim_spec"], extra=extra)
            return 0

        def cumulants_cmd():
            x = tr.call("estimation.read_csv", read_csv, p["mixed"])
            moments = tr.call("estimation.sample_moments", sample_moments, x, self.order)
            kappa = tr.call("partitions.moments_to_cumulants", moments_to_cumulants, moments)[-1]
            tr.call("tensor.save_tensor", save_tensor, kappa, p["kappa"])
            return 0

        def check_cmd():
            t = tr.call("tensor.load_tensor", load_tensor, p["kappa"])
            pattern = tr.call("patterns.load_pattern", load_pattern, p["pattern"])
            result = tr.call("patterns.is_member", is_member, t, pattern, POPULATION_TOL)
            return 0 if result.member else 3

        def recover_cmd():
            x = tr.call("estimation.read_csv", read_csv, p["mixed"])
            pattern = tr.call("patterns.load_pattern", load_pattern, p["pattern"])
            opts = RecoveryOptions(order=self.order, restarts=self.restarts, seed=s["recover"])
            white = tr.call("estimation.whiten", whiten, x)
            moments = tr.call("estimation.sample_moments", sample_moments, white.whitened, self.order)
            kappa = tr.call("partitions.moments_to_cumulants", moments_to_cumulants, moments)[-1]
            results = tr.call("recovery.minimize_off_pattern", minimize_off_pattern, kappa, pattern, opts)
            with tr.span("recovery.argmin"):
                objectives = [energy for _, energy in results]
                best = int(np.argmin(objectives))
                rotation = results[best][0]
                report = RecoveryReport(
                    unmixing=rotation @ white.transform,
                    whitening=white.transform,
                    rotation=rotation,
                    mean=white.mean,
                    objective=objectives[best],
                    objective_per_restart=objectives,
                    best_restart=best,
                    sweeps_per_restart=list(ref["sweeps"]),
                    order=self.order,
                    pattern_kind=pattern.kind,
                )
            tr.call("recovery.save_report", save_report, report, p["report"])
            return 0

        def verify_cmd():
            report = tr.call("recovery.load_report", load_report, p["report"])
            truth = tr.call("groups.load_matrix", load_matrix, p["truth"])
            structure = BlockStructure.from_string(",".join(["1"] * self.d))
            ident = tr.call("recovery.verify_identifiability", verify_identifiability, report.unmixing, truth, structure)
            return 0 if ident.residual < RESIDUAL_GATE else 3

        def probe_cmd():
            with open(p["graph"], "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            graph = IndependenceGraph(int(obj["d"]), [tuple(e) for e in obj["edges"]])
            report = tr.call(
                "groups.conjecture_probe", conjecture_probe, graph, self.probe_order, self.probe_trials, s["probe"]
            )
            with open(p["probe"], "w", encoding="utf-8") as fh:
                json.dump(report.to_json(), fh, indent=2)
                fh.write("\n")
            return 0

        steps = [("simulate", simulate_cmd), ("cumulants", cumulants_cmd), ("check", check_cmd),
                 ("recover", recover_cmd), ("verify", verify_cmd), ("probe", probe_cmd)]
        codes = {}
        for name, step in steps:
            try:
                with tr.span(f"cli.{name}"):
                    codes[name] = step()
            except Exception as exc:  # an escaped exception fails the command, not the pass
                codes[name] = type(exc).__name__
        return {"codes": codes}

    def check(self, ctx, out):
        p, codes = ctx["paths"], out["codes"]
        gates = {}
        relerrs, residuals, ref = [], [], {}
        counts = {
            "partitions.terms": 2 * conversion_terms(self.d, self.order),
            "estimation.moment_entry_rows": 2 * self.n * moment_entries(self.d, self.order),
        }
        try:
            if codes["cumulants"] == 0:
                err = cumulant_relerr(load_tensor(p["kappa"]), ctx["mixed"])
                relerrs.append(err)
                gates["cumulants"] = (err < RELERR_GATE, f"relative error {err:.3g}")
            if codes["recover"] == 0:
                with open(p["report"], "r", encoding="utf-8") as fh:
                    report = json.load(fh)
                unmixing = np.array(report["unmixing"], dtype=float)
                residual = verify_identifiability(unmixing, ctx["truth"], BlockStructure((1,) * self.d)).residual
                residuals.append(residual)
                gates["recover"] = (residual < RESIDUAL_GATE, f"coset residual {residual:.3g}")
                ref["sweeps"] = report["sweeps_per_restart"]
                opts = RecoveryOptions(order=self.order, restarts=self.restarts)
                counts.update(_restart_counts(
                    report["sweeps_per_restart"], report["objective_per_restart"],
                    opts.max_sweeps, self.d * (self.d - 1) // 2,
                ))
            if codes["probe"] == 0:
                with open(p["probe"], "r", encoding="utf-8") as fh:
                    probe = json.load(fh)
                counts["groups.probe_matrices"] = probe["matrices_checked"]
                gates["probe"] = (probe["conjecture_holds"], "conjecture probe found a disagreement")
            # CSV traffic of the timed pass: simulate writes one file, cumulants and recover read another
            counts["estimation.csv_mb"] = (os.path.getsize(p["sim"]) + 2 * os.path.getsize(p["mixed"])) / 1e6
        except (OSError, ValueError, KeyError) as exc:
            gates["outputs"] = (False, f"{type(exc).__name__}: {exc}")
        ops = []
        for name, expected in self.expected_codes.items():
            code = codes.get(name)
            ok, why = gates.get(name, (True, None))
            if code != expected:
                ok, why = False, f"exit {code}, expected {expected}"
            ops.append(_op(name, ok, why, exact=name not in self.statistical))
        if "outputs" in gates:
            ops.append(_op("outputs", *gates["outputs"]))
        digests = {key: file_digest(p[key]) for key in self.outputs if os.path.exists(p[key])}
        return {"ops": ops, "counts": counts, "digests": digests, "residuals": residuals, "relerrs": relerrs, "ref": ref}


WORKLOADS = {w.name: w for w in (RecoverD4(), CumulantsR8(), PipelineD8())}

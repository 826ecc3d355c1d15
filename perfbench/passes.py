"""One benchmark pass in a fresh process; run.py starts it.

    python3 perfbench/passes.py <workload> <seed> <index> <mode> <workdir> [<ref json>]

<mode> is `untraced`, `traced` or `setup`.  Set-up time runs from the first
statement of this file, so it includes interpreter-level imports of numpy
and pica and the input generation.  A `setup` pass stops there.  Otherwise
the timed region is the workload's run (or, traced, its replay) and
nothing else.  The last line of standard output is the pass record as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    name, seed, index, mode, workdir = sys.argv[1:6]
    ref = json.loads(sys.argv[6]) if len(sys.argv) > 6 else {}
    workload = WORKLOADS[name]
    tracer = Tracer() if mode == "traced" else NullTracer()

    ctx = workload.setup(int(seed), int(index), workdir, tracer)
    setup_peak = peak_rss_mb()
    start = time.perf_counter()
    if mode == "setup":
        print(json.dumps({"setup_s": start - T0}))
        return
    out = workload.replay(ctx, tracer, ref) if mode == "traced" else workload.run(ctx)
    end = time.perf_counter()
    peak = peak_rss_mb()

    record = workload.check(ctx, out)
    record.update(setup_s=start - T0, wall_s=end - start, peak_rss_mb=peak, timed_rss_growth_mb=peak - setup_peak)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record.update(numpy=numpy.__version__, blas=f"{blas.get('name')} {blas.get('version')}")
    if mode == "traced":
        for span in tracer.spans:
            span["start"] -= start
            span["end"] -= start
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Morse-report benchmark of henonmorse.

    python3 perfbench/run.py --workload {matrix,cli} --seed 0 \\
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` it measures the end-to-end metrics: set-up
time in fresh processes, then whole passes over the workload's ops until
another pass would end past ``--seconds`` (at least one pass).  With
``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics from the spans, with the tracing overhead.  Every op is
checked either way; an op fails on an exception, a non-zero exit code or a
failed check, and ``correct`` is true only when no op failed.

Times are reported in reference seconds (see speedprobe.py) because this
host's speed moves by up to 2x between runs; the wall-clock figures are
printed beside them and kept in the run record.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Records of the run
(machine, versions, timings, spans) go to ``.perfbench_runs/`` in the
checkout.
"""

from __future__ import annotations

import os

# one thread per process, for this process and every child it starts;
# set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speedprobe  # noqa: E402
import summary  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_SPAWNS = 3

# A fresh interpreter that imports the package and builds the inputs,
# probing its own speed meanwhile.  argv: [-c, perfbench dir, src dir,
# workload, seed, perf_counter reading just before the spawn]; it prints the
# seconds from the spawn to ready, less its probes inside that window, and
# its probes (the last one taken after the window).
SETUP_PROBE = """\
import json, sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import speedprobe
samples = [speedprobe.probe()]
with speedprobe.sampling(samples):
    import henonmorse, workloads
    workloads.make_inputs(sys.argv[3], int(sys.argv[4]))
seconds = time.perf_counter() - float(sys.argv[5]) - sum(samples)
samples.append(speedprobe.probe())
print(json.dumps([seconds, samples]), flush=True)
"""


def setup_seconds(workload, seed):
    """Medians of (wall, reference) seconds from spawning an interpreter to
    its first op being ready."""
    walls, refs = [], []
    for _ in range(SETUP_SPAWNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC),
             workload, str(seed), repr(time.perf_counter())],
            stdout=subprocess.PIPE, text=True, check=True)
        seconds, samples = json.loads(out.stdout.splitlines()[-1])
        walls.append(seconds)
        refs.append(speedprobe.to_reference(seconds, samples))
    return statistics.median(walls), statistics.median(refs)


def nproc():
    return len(os.sched_getaffinity(0))


def environment():
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = out.stdout.strip() or None
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": nproc(),
            "numba": has_numba, "git_rev": rev}


def measure(run_pass, seconds):
    """Whole passes until another one would run past `seconds`."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median([p.wall[0] for p in passes]) > seconds:
            return passes


def end_to_end(passes, setup):
    """{name: (value, unit, note)} of the end-to-end figures.  Times are in
    reference seconds; the note gives the wall-clock figure beside them."""

    def both(pairs, note):
        wall, ref = zip(*pairs)
        return ref, f"{note}; wall {statistics.median(wall):.6g} s"

    out = {"setup_s": (setup[1], "s", f"median of {SETUP_SPAWNS} spawns; "
                                      f"wall {setup[0]:.6g} s")}
    walls, note = both([p.wall for p in passes],
                       f"median of {len(passes)} passes")
    out["wall_s"] = (statistics.median(walls), "s", note)
    ops, note = both([t for p in passes for t in p.ops], "")
    out["op_p50_s"] = (statistics.median(ops), "s", f"n={len(ops)}{note}")
    tail = summary.tail(ops)
    if tail is not None:
        out["op_tail_s"] = (tail[1], "s", f"p{tail[0]:g}, n={len(ops)}")
    warm = [t for p in passes for t in p.warm]
    if warm:
        refs, note = both(warm, "")
        out["warm_op_p50_s"] = (statistics.median(refs), "s",
                                f"n={len(refs)}{note}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["peak_rss_mb"] = (peak, "MB", "ru_maxrss of this process")
    return out


def per_layer(untraced, traced, tracer):
    out = tracing.layer_metrics(tracer.spans, tracer.attrs)
    out["cli.cache.hits"] = (traced.cache_hits, "count")
    out["cli.cache.misses"] = (traced.cache_misses, "count")
    out["cli.bytes_written"] = (traced.bytes_written, "B")
    out["trace.untraced_wall_s"] = (untraced.wall[1], "s")
    out["trace.overhead_ratio"] = (traced.wall[1] / untraced.wall[1], "1")
    return out


def _record(pass_result):
    return {k: v for k, v in vars(pass_result).items()
            if not k.startswith("_")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "henonmorse" / "__init__.py").is_file():
        print(f"no henonmorse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import henonmorse
    import workloads
    if not Path(henonmorse.__file__).resolve().is_relative_to(SRC):
        print(f"henonmorse imported from {henonmorse.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workers = min(2, nproc())

    def run_pass(tracer=None):
        return workloads.run_pass(args.workload, inputs, tally, str(RUNS),
                                  workers, tracer)

    inputs = workloads.make_inputs(args.workload, args.seed)
    RUNS.mkdir(exist_ok=True)
    env = environment()
    tally = summary.Tally()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"# {tag} env {json.dumps(env, sort_keys=True)}")

    if args.trace:
        # an idle tracer times the pass the same way as the traced one
        untraced = run_pass(tracing.Tracer())
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(tracer)
        finally:
            tracer.uninstall()
        tracer.dump(RUNS / f"spans-{tag}.json")
        figures = {k: (v, u, "") for k, (v, u) in
                   per_layer(untraced, traced, tracer).items()}
        reported = figures
        timings = {"untraced": _record(untraced), "traced": _record(traced)}
    else:
        setup = setup_seconds(args.workload, args.seed)
        passes = measure(run_pass, args.seconds)
        timings = {"setup": setup, "passes": [_record(p) for p in passes]}
        figures = end_to_end(passes, setup)
        figures["failed_frac"] = (tally.failed_frac, "1",
                                  f"{tally.failed}/{tally.attempted}")
        # op_tail_s, warm_op_p50_s and failed_frac are printed but not
        # reported: not every workload has them, and failed_frac is 0 on
        # a healthy run (the result line carries failed and attempted)
        reported = {k: figures[k] for k in
                    ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")}

    print(f"# {tag}: {tally.attempted} ops attempted, {tally.failed} failed")
    for name, (value, unit, note) in figures.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    for label, problems in tally.failures:
        print(f"  FAILED {label}: {'; '.join(problems)}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in
               reported.items()}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(RUNS / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env, "failures": tally.failures, **result,
                   "timings": timings}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

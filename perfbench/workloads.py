"""Workloads of the Morse-report benchmark.

Each workload is a list of ops made from a seed and run through henonmorse's
public entry points: the library functions for ``matrix``,
``henonmorse.cli.main(argv)`` for ``cli``.  Every op is checked; the checks
run outside the timed region.

Why these workloads:

* ``matrix``: the acceptance matrix.  The singular eigensolve does almost
  all of the work.  The desk point (3, 0, 4.9, 2) is left out: its standard
  count is wrong (3 against the singular 2) on every seed, and a workload's
  ops must all pass for its figures to count.
* ``cli``: the only workload that writes and reads the result cache, writes
  files, runs the process pool and the dense oracle.  Its warm reruns time
  the cache read path alone.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os
import random
import shutil
import time

import henonmorse as hm
from henonmorse import cli as hm_cli
from speedprobe import probe, sampling, to_reference

WORKLOADS = ("matrix", "cli")

# relative half-width of the jitter applied to p by seeds other than 0
P_JITTER = 1e-3

# the reference point (3, 0, 3, 2) and five more matrix points: the median
# of six cold runs holds within about 5% between runs, that of four did not
CLI_POINTS = ((3, 0.0, 3.0, 2), (2, 1.0, 3.0, 2), (5, 0.0, 2.2, 1),
              (3, 2.7, 3.0, 3), (2, 0.0, 2.2, 1), (3, 1.0, 3.0, 2))
SWEEP = (2.0, 4.9, 16)      # p range and step count of the cli sweep


def matrix_points():
    """The subcritical (N, alpha, p, m) points of the acceptance matrix.

    A copy of the test suite's generator, so that editing the tests cannot
    move the benchmark's inputs.
    """
    pts = []
    for N in (2, 3, 5):
        for alpha in (0.0, 1.0, 2.7, 4.0):
            M = 2.0 * (N + alpha) / (2.0 + alpha)
            for p in (2.2, 3.0):
                if M > 2 and p >= (M + 2) / (M - 2):
                    continue
                for m in (1, 2, 3):
                    pts.append((N, alpha, p, m))
    return pts


def _critical_p(N, alpha):
    M = hm.generalized_dimension(N, alpha).M
    return (M + 2.0) / (M - 2.0) if M > 2 else math.inf


def _jittered(rng, value, N, alpha):
    out = value * (1.0 + rng.uniform(-P_JITTER, P_JITTER))
    if out >= _critical_p(N, alpha):
        raise ValueError(f"jitter made p={out!r} supercritical")
    return out


def make_inputs(workload, seed):
    """The workload's inputs.  Seed 0 gives the named points in the named
    order; any other seed permutes them and jitters p slightly, keeping it
    subcritical."""
    if workload == "matrix":
        points = matrix_points()
    elif workload == "cli":
        points = list(CLI_POINTS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    lo, hi, steps = SWEEP
    if seed != 0:
        rng = random.Random(seed)
        points = [(N, a, _jittered(rng, p, N, a), m)
                  for N, a, p, m in points]
        rng.shuffle(points)
        lo = _jittered(rng, lo, 3, 0.0)
        hi = _jittered(rng, hi, 3, 0.0)
    inputs = {"points": points}
    if workload == "cli":
        inputs["sweep"] = (lo, hi, steps)
    return inputs


def check_counts(point, dmap, sing_count, sing_values, sing_band, std_count,
                 std_band):
    """Problems with one point's spectra under acceptance criteria 01, 02
    and 04; empty when all hold."""
    N, alpha, p, m = point
    problems = []
    neg = [v for v in sing_values if v < 0]
    # criterion 01: exactly m negative singular eigenvalues, none near 0
    if sing_count != m or len(neg) != m:
        problems.append(f"criterion 01: singular count {sing_count}, "
                        f"{len(neg)} negative values, expected {m}")
    if not all(abs(v) > 1e-5 for v in neg):
        problems.append(f"criterion 01: near-zero eigenvalue in {neg}")
    if sing_band != 0:
        problems.append(f"criterion 01: singular zero band {sing_band}")
    # criterion 02: nu_i < -(M-1) for i < m, -(M-1) < nu_m < 0
    M = dmap.M
    for i, v in enumerate(neg, start=1):
        J = hm.angular_threshold(v, dmap)
        if i <= m - 1:
            ok = v < -(M - 1.0) - 1e-6 and J > dmap.exponent
        else:
            ok = -(M - 1.0) + 1e-6 < v < -1e-6 and J < dmap.exponent
        if not ok:
            problems.append(f"criterion 02: nu_{i} = {v:.17g} out of order")
    # criterion 04: the standard count equals the singular count
    if std_count != sing_count:
        problems.append(f"criterion 04: standard count {std_count} != "
                        f"singular count {sing_count}")
    if std_band != 0:
        problems.append(f"criterion 04: standard zero band {std_band}")
    return problems


class PassResult:
    """Timings and counters of one pass over a workload's ops.  Timings are
    (wall seconds, reference seconds) pairs.  Under a tracer the speed is
    probed only around each op, which keeps probes out of the spans, and
    each op's index in the pass becomes the op id of its spans.  An op
    whose work runs in child processes is not probed inside either: the
    children's load would slow the probe, and the probe would take a core
    from them."""

    def __init__(self, tracer=None):
        self.ops = []           # report ops, or cold morse runs on cli
        self.warm = []          # warm morse reruns (cli)
        self.wall = (0.0, 0.0)  # sum over every timed op
        self.log = []           # (op label, wall seconds, reference seconds)
        self.cache_hits = 0
        self.cache_misses = 0
        self.bytes_written = 0
        self._tracer = tracer
        self._last_probe = None

    def time(self, label, fn, series=None, children=False):
        """(result, error text) of fn(); exceptions become errors."""
        samples = [self._last_probe if self._last_probe is not None
                   else probe()]
        if self._tracer is None and not children:
            guard = sampling(samples)
        else:
            guard = contextlib.nullcontext()
        if self._tracer is not None:
            self._tracer.op = len(self.log)
        with guard:
            t0 = time.perf_counter()
            try:
                result, err = fn(), None
            except Exception as exc:
                result, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        dt -= sum(samples[1:])
        self._last_probe = probe()
        samples.append(self._last_probe)
        timing = (dt, to_reference(dt, samples))
        self.wall = (self.wall[0] + timing[0], self.wall[1] + timing[1])
        self.log.append((label,) + timing)
        if series is not None:
            series.append(timing)
        return result, err


def full_report(point):
    """Profile -> singular spectrum (k=m+2) -> standard counts (k=0) ->
    degeneracy scan -> Morse index for one point, the calls the acceptance
    fixture makes."""
    N, alpha, p, m = point
    dmap = hm.generalized_dimension(N, alpha)
    prof = hm.solve_nodal_power(dmap.M, p, m)
    a = hm.linearized_potential(prof)
    cfg = hm.SpectralConfig()
    sing = hm.solve_singular_spectrum(
        hm.WeightedSLProblem(M=dmap.M, a=a, kind="singular"), m + 2, cfg)
    std = hm.solve_standard_spectrum(
        hm.WeightedSLProblem(M=dmap.M, a=a, kind="standard"), 0, cfg)
    degen = hm.degeneracy_scan(sing, std, dmap)
    report = hm.morse_index(sing, dmap, m=m, degeneracy=degen)
    return dmap, sing, std, report


def run_library(inputs, tally, tracer=None):
    """A full report on each point, checked under criteria 01, 02 and
    04."""
    res = PassResult(tracer)
    for point in inputs["points"]:
        out, err = res.time(f"report {point}", lambda: full_report(point),
                            res.ops)
        if err:
            problems = [err]
        else:
            dmap, sing, std, _ = out
            problems = check_counts(
                point, dmap, sing.negative_count, sing.values,
                sing.meta["zero_band_count"], std.negative_count,
                std.meta["zero_band_count"])
        tally.record(f"report {point}", problems)
    return res


def _files(root):
    """{path: (size, mtime_ns)} of every file under root."""
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            st = os.stat(path)
            out[path] = (st.st_size, st.st_mtime_ns)
    return out


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def _point_argv(command, point, out):
    N, alpha, p, m = point
    return [command, "--N", str(N), "--alpha", repr(alpha), "--p", repr(p),
            "--m", str(m), "--out", out]


def _cached_counts(point, out):
    """Criteria 01, 02, 04 on the spectra a cold morse run cached."""
    docs = []
    for kind in ("singular", "standard"):
        paths = glob.glob(os.path.join(out, "cache", f"{kind}-*.json"))
        if len(paths) != 1:
            return [f"expected one cached {kind} spectrum, found "
                    f"{len(paths)}"]
        with open(paths[0]) as fh:
            docs.append(json.load(fh))
    sing, std = docs
    dmap = hm.generalized_dimension(point[0], point[1])
    return check_counts(
        point, dmap, sing["negative_count"],
        [e["value"] for e in sing["eigenvalues"]],
        sing["meta"]["zero_band_count"], std["negative_count"],
        std["meta"]["zero_band_count"])


def run_cli(inputs, workdir, workers, tally, tracer=None):
    """Cold morse, warm morse and oracle on each point, then the sweep with
    one worker, with `workers` workers, and again on the same directory."""
    res = PassResult(tracer)

    def call(label, argv, out, series=None, children=False):
        before = _files(out)
        sink = io.StringIO()

        def invoke():
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    return hm_cli.main(argv)
                except SystemExit as exc:
                    return exc.code
        rc, err = res.time(label, invoke, series, children)
        after = _files(out)
        res.bytes_written += sum(after[p][0] for p in after
                                 if after[p] != before.get(p))
        problems = [err] if err else []
        if rc != 0 and not err:
            problems.append(f"exit code {rc}: {sink.getvalue().strip()}")
        new_cache = [p for p in after if p not in before
                     and os.path.dirname(p) == os.path.join(out, "cache")]
        return problems, bool(new_cache)

    dirs = [os.path.join(workdir, f"point{i}")
            for i in range(len(inputs["points"]))]
    cold = {}
    for point, out in zip(inputs["points"], dirs):
        label = f"cold morse {point}"
        problems, wrote_cache = call(
            label, _point_argv("morse", point, out), out, res.ops)
        res.cache_misses += wrote_cache
        res.cache_hits += not wrote_cache
        if not problems:
            problems = _cached_counts(point, out)
        cold[out] = [_read(os.path.join(out, f))
                     for f in ("morse.json", "morse.csv")]
        tally.record(label, problems)
    for point, out in zip(inputs["points"], dirs):
        label = f"warm morse {point}"
        problems, wrote_cache = call(
            label, _point_argv("morse", point, out), out, res.warm)
        res.cache_misses += wrote_cache
        res.cache_hits += not wrote_cache
        warm = [_read(os.path.join(out, f))
                for f in ("morse.json", "morse.csv")]
        if warm != cold[out] or None in warm:
            problems.append("warm morse.json/morse.csv differ from the cold "
                            "run")
        tally.record(label, problems)
    for point, out in zip(inputs["points"], dirs):
        label = f"oracle {point}"
        problems, _ = call(label, _point_argv("oracle", point, out), out)
        tally.record(label, problems)

    lo, hi, steps = inputs["sweep"]
    first = None
    for n_workers, name in ((1, "sweep1"), (workers, "sweep2"),
                            (workers, "sweep2")):
        out = os.path.join(workdir, name)
        argv = ["sweep", "--N", "3", "--alpha", "0", "--m", "2", "--axis",
                "p", "--range", f"{lo!r}:{hi!r}", "--steps", str(steps),
                "--workers", str(n_workers), "--out", out]
        label = f"sweep workers={n_workers}"
        problems, _ = call(label, argv, out, children=n_workers > 1)
        table = _read(os.path.join(out, "sweep.csv"))
        if table is None:
            problems.append("no sweep.csv")
        elif first is None:
            first = table
        elif table != first:
            problems.append("sweep.csv differs from the first sweep")
        tally.record(label, problems)
    return res


def run_pass(workload, inputs, tally, scratch, workers, tracer=None):
    """One pass over the workload's ops; cli writes under a fresh directory
    inside `scratch`, removed afterwards."""
    if workload == "matrix":
        return run_library(inputs, tally, tracer)
    workdir = os.path.join(scratch, f"cli-{os.getpid()}-{time.time_ns()}")
    os.makedirs(workdir)
    try:
        return run_cli(inputs, workdir, workers, tally, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

"""Tests of the benchmark's own arithmetic: the tail percentile, self time,
failure counting, reference seconds and the per-op checks.  Run with
``python3 -m pytest perfbench``."""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import henonmorse as hm  # noqa: E402
import workloads  # noqa: E402
from speedprobe import PROBE_REF_S, sampling, to_reference  # noqa: E402
from summary import Tally, tail  # noqa: E402
from tracer import Tracer, covered, layer_metrics, self_times  # noqa: E402


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail(range(19)) is None
    q, value = tail(range(20))
    assert q == 50.0
    # nearest rank: the 10th of 20 sorted samples, 10 samples above it
    assert value == 9


@pytest.mark.parametrize("n, q", [(39, 50.0), (40, 75.0), (66, 75.0),
                                  (99, 75.0), (100, 90.0), (200, 95.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_beyond(n, q):
    got_q, value = tail(list(range(n))[::-1])
    assert got_q == q
    assert sum(1 for v in range(n) if v > value) >= 10


def test_tail_of_66_matrix_ops():
    # the matrix workload's op count: p75 is the 50th smallest sample
    data = [float(i) for i in range(66)]
    assert tail(data) == (75.0, 49.0)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(0.1, 0.3), (0.2, 0.4), (0.6, 0.7)], 0.0, 1.0) == \
        pytest.approx(0.4)
    assert covered([(-1.0, 0.5), (0.9, 2.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [6, 7]
    spans = [["root", 0.0, 10.0, -1, 0, 0],
             ["child", 1.0, 4.0, 0, 0, 0],
             ["grand", 2.0, 3.0, 1, 0, 0],
             ["child", 6.0, 7.0, 0, 0, 0]]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_tracer_nests_spans_and_counts_work():
    tr = Tracer()

    def inner(rows):
        return sum(rows)

    traced_inner = tr.wrap("kernels.sturm_count", inner,
                           work=lambda a, kw, r: len(a[0]))

    def outer():
        return traced_inner([1, 2, 3]) + traced_inner([4])

    tr.op = 7
    assert tr.wrap("spectral.solve_singular_spectrum", outer)() == 10
    names = [s[0] for s in tr.spans]
    assert names == ["spectral.solve_singular_spectrum",
                     "kernels.sturm_count", "kernels.sturm_count"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert all(s[4] == 7 for s in tr.spans)
    metrics = layer_metrics(tr.spans, tr.attrs)
    assert metrics["kernels.sturm_count.calls"] == (2, "count")
    assert metrics["kernels.sturm_count.rows"] == (4, "count")
    assert metrics["kernels.bytes_computed"] == (64, "B")
    assert metrics["kernels.inverse_iteration.calls"] == (0, "count")


def test_tracer_records_failed_call_and_reraises():
    tr = Tracer()

    def boom(prob, k):
        raise RuntimeError("unresolved")

    traced = tr.wrap("spectral.solve_standard_spectrum", boom,
                     attrs=lambda a, kw, r: {"full": a[1] > 0,
                                             "ok": r is not None})
    with pytest.raises(RuntimeError):
        traced(None, 4)
    assert tr.spans[0][2] >= tr.spans[0][1]
    metrics = layer_metrics(tr.spans, tr.attrs)
    assert metrics["spectral.standard.full_attempts"] == (1, "count")
    assert metrics["spectral.standard.useful_ratio"] == (0.0, "1")


def test_tally_counts_each_failed_op_once():
    t = Tally()
    t.record("ok", [])
    t.record("raised", ["SpectralError: grid too coarse"])
    t.record("exit", ["exit code 3"])
    t.record("two checks", ["criterion 02: out of order",
                            "criterion 04: standard count 3 != 2"])
    assert t.attempted == 4
    assert t.failed == 3
    assert t.failed_frac == pytest.approx(0.75)
    assert Tally().failed_frac == 0.0


def test_reference_seconds_scale_with_probe_speed():
    assert to_reference(3.0, [PROBE_REF_S] * 4) == pytest.approx(3.0)
    # a host running the loop at half speed halves the reference time
    assert to_reference(3.0, [2 * PROBE_REF_S]) == pytest.approx(1.5)
    assert to_reference(3.0, [PROBE_REF_S, 3 * PROBE_REF_S]) == \
        pytest.approx(1.5)


def test_sampling_probes_inside_a_busy_interval():
    samples = []
    with sampling(samples):
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    assert samples and all(s > 0 for s in samples)


def test_check_counts_reports_ordering_and_count_mismatch():
    # nu_2 just below -(M-1) = -2, standard count 3 against singular 2
    dmap = hm.generalized_dimension(3, 0.0)
    problems = workloads.check_counts(
        (3, 0.0, 4.9, 2), dmap, 2, [-2.18, -2.0000000041], 0, 3, 0)
    assert [p.split(":")[0] for p in problems] == ["criterion 02",
                                                   "criterion 04"]
    assert workloads.check_counts(
        (3, 0.0, 3.0, 2), dmap, 2, [-5.0, -1.0], 0, 2, 0) == []


def test_matrix_inputs_are_the_acceptance_matrix_on_every_seed():
    points = workloads.matrix_points()
    assert len(points) == 66
    assert workloads.make_inputs("matrix", 0)["points"] == points
    jittered = workloads.make_inputs("matrix", 3)["points"]
    assert sorted(pt[:2] + pt[3:] for pt in jittered) == \
        sorted(pt[:2] + pt[3:] for pt in points)
    assert jittered != points


def test_op_with_children_is_not_probed_inside(monkeypatch):
    def no_sampling(samples):
        raise AssertionError("probed inside the op")

    monkeypatch.setattr(workloads, "sampling", no_sampling)
    res = workloads.PassResult()
    result, err = res.time("sweep", lambda: time.sleep(0.05) or 7,
                           children=True)
    assert (result, err) == (7, None)
    (label, wall, ref), = res.log
    assert wall >= 0.05 and ref > 0

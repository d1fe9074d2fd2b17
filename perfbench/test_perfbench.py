"""Tests of the benchmark's own arithmetic (no tenshop command is run)."""

import json
from pathlib import Path

import pytest

import run
import spans
import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0.0) == 1.0
    assert stats.percentile(values, 50.0) == 2.5
    assert stats.percentile(values, 100.0) == 4.0
    assert stats.percentile(list(range(101)), 90.0) == 90.0


@pytest.mark.parametrize("n, level", [
    (19, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert stats.tail_level(n) == level


def test_timing_summary_reports_tail_only_with_support():
    few = stats.timing_summary([1.0] * 50)
    assert few == {"n": 50, "median": 1.0, "mean": 1.0}
    many = stats.timing_summary([float(v) for v in range(200)])
    assert many["p95"] == stats.percentile(range(200), 95.0)
    assert "p99" not in many


def test_self_time_subtracts_children_once_and_clips():
    spans_ = [
        (0, 100, -1),   # root
        (10, 30, 0),    # children overlap on [20, 30]
        (20, 50, 0),
        (90, 120, 0),   # reaches past the root's end
        (12, 18, 1),    # grandchild: not the root's business
    ]
    assert spans.self_times(spans_) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_recorder_self_time_and_counts():
    recorder = spans.Recorder()
    inner = recorder.wrap("model.inner", lambda: None)
    outer = recorder.wrap("formfind.outer", lambda: inner() or inner())
    outer()
    agg = recorder.aggregate()
    o, i = agg["names"]["formfind.outer"], agg["names"]["model.inner"]
    assert (o["calls"], i["calls"]) == (1, 2)
    assert o["self_ns"] == o["incl_ns"] - i["incl_ns"]
    assert i["outer_ns"] == i["incl_ns"]  # parent lies in another layer


def test_recorder_marks_raising_spans():
    recorder = spans.Recorder()

    def boom():
        raise TypeError("bad record")

    wrapped = recorder.wrap("hopsim.run_single_hop", boom)
    with pytest.raises(TypeError):
        wrapped()
    assert recorder.aggregate()["names"]["hopsim.run_single_hop"]["raised"] == 1


def test_campaign_crash_partway_fails_every_prevented_sample():
    # Two clean rows written, then the command died: the rest failed.
    assert stats.campaign_outcome(5, 2, 2, 1, False) == (5, 3, False)
    assert stats.failed_share(5, 3) == 0.6
    # A crash before any row is written fails the whole campaign.
    attempted, failed, wrong = stats.campaign_outcome(4, 0, 0, 1, False)
    assert stats.failed_share(attempted, failed) == 1.0 and not wrong


def test_campaign_success_needs_every_row_and_checksum():
    assert stats.campaign_outcome(4, 4, 3, 0, True) == (4, 1, False)
    assert stats.campaign_outcome(4, 4, 4, 0, False) == (4, 4, True)
    assert stats.campaign_outcome(4, 3, 3, 0, True) == (4, 4, True)


def test_failed_share_needs_attempts():
    with pytest.raises(ValueError):
        stats.failed_share(0, 0)


def test_benchmark_json_per_layer_metrics_are_produced():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    cmd = {"trace": {"names": {}, "counters": {}}, "wall_s": 1.0,
           "startup_s": 0.1, "bytes_written": 10}
    produced = run.layer_metrics(cmd, run.Formfind)
    for metric in spec["per_layer"]:
        assert produced[metric["name"]][1] == metric["unit"], metric["name"]

"""The pair-set summary of tools/bench_pairs.py, built from recorded runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402

ENV = {"nproc": 2, "machine": "x86_64", "python": "3.11.7", "numpy": "2.4.6",
       "blas": "scipy-openblas 0.3.31", "blas_threads": 1}
CALIBRATION = {
    side: {"cpu_mhz": [2100.0, 2100.0], "gemm_s": gemm, "pace_kernel_s": 6.2e-4}
    for side, gemm in (("before", 2.4e-4), ("after", 2.5e-4))
}


BETTER = {"op_p50_s": "lower", "peak_rss_mb": "lower", "frames_per_s": "higher", "expr_err": "lower"}


def run(commit, p50, rss, fps=50.0, err=0.0):
    record = {"env": dict(ENV, commit=commit)}
    result = {"metrics": {"op_p50_s": {"value": p50, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"},
                          "frames_per_s": {"value": fps, "unit": "1/s"}, "expr_err": {"value": err, "unit": "1"}}}
    return record, result


def test_summary_carries_pairs_wins_and_calibration():
    seeds = [5, 6, 7, 8]
    runs = {"parent": [run("aaa", p, 80.0) for p in (0.40, 0.42, 0.41, 0.39)],
            "change": [run("bbb", c, 81.0) for c in (0.38, 0.43, 0.40, 0.37)]}
    s = bench_pairs.summarise(seeds, runs, "subject line", CALIBRATION, BETTER)
    assert (s["version"], s["parent"], s["change"], s["seeds"]) == ("subject line", "aaa", "bbb", "5-8")
    assert [(p["seed"], p["first"], p["metrics"]["parent"]["op_p50_s"], p["metrics"]["change"]["op_p50_s"])
            for p in s["pairs"]] == [
        (5, "parent", 0.40, 0.38), (6, "change", 0.42, 0.43), (7, "parent", 0.41, 0.40), (8, "change", 0.39, 0.37)]
    assert s["quartiles"]["parent"]["op_p50_s"]["median"] == 0.405
    assert s["quartiles"]["parent"]["peak_rss_mb"]["median"] == 80.0
    assert s["quartiles"]["change"]["peak_rss_mb"]["median"] == 81.0
    assert s["calibration"] == CALIBRATION and s["calibration_agrees"] is True
    assert s["host"].startswith("2-CPU x86_64 ") and s["host"].endswith("1 BLAS thread(s)")
    assert s["by_metric"]["op_p50_s"] == {"better": "lower", "change_wins": "3/4",
                                          "median_change_pct": round(100 * (0.39 / 0.405 - 1), 1), "claimable": False}


def test_a_set_states_each_metric_once_per_pair_side():
    """No pair, top-level field, calibration or file header repeats a number the set holds elsewhere."""
    parent = [(0.4012345, 80.12345), (0.4023456, 80.23456), (0.4034567, 80.34567)]
    runs = {"parent": [run("aaa", p, rss) for p, rss in parent],
            "change": [run("bbb", p - 0.01, rss + 1.0) for p, rss in parent]}
    s = bench_pairs.summarise([1, 2, 3], runs, "subject line", CALIBRATION, BETTER)
    assert list(s) == ["version", "parent", "change", "host", "calibration", "calibration_agrees", "seeds",
                       "pairs", "quartiles", "by_metric"]
    assert all(list(p) == ["seed", "first", "metrics"] for p in s["pairs"])
    text = json.dumps(s)
    for _, result in runs["parent"] + runs["change"]:
        for name in ("op_p50_s", "peak_rss_mb"):
            assert text.count(repr(result["metrics"][name]["value"])) == 1, name
    assert list(bench_pairs.header("train", 30)) == ["workload", "command", "method", "sets"]


def test_every_end_to_end_metric_gets_wins_in_its_own_direction():
    seeds = [1, 2, 3, 4]
    runs = {"parent": [run("aaa", 0.40, rss, fps) for rss, fps in ((500.0, 40.0), (502.0, 41.0),
                                                                     (501.0, 42.0), (503.0, 40.5))],
            "change": [run("bbb", 0.40, rss, fps) for rss, fps in ((450.0, 41.0), (452.0, 40.0),
                                                                     (504.0, 43.0), (449.0, 40.0))]}
    s = bench_pairs.summarise(seeds, runs, "subject line", CALIBRATION, dict(BETTER, setup_s="lower"))
    m = s["by_metric"]
    assert list(m) == ["op_p50_s", "peak_rss_mb", "frames_per_s", "expr_err"]  # only metrics the runs report
    assert m["peak_rss_mb"] == {"better": "lower", "change_wins": "3/4",
                                "median_change_pct": round(100 * (451.0 / 501.5 - 1), 1), "claimable": False}
    assert m["frames_per_s"] == {"better": "higher", "change_wins": "2/4",
                                 "median_change_pct": round(100 * (40.5 / 40.75 - 1), 1), "claimable": False}
    assert m["op_p50_s"]["change_wins"] == "0/4"  # a tie is no win
    assert m["expr_err"] == {"better": "lower", "change_wins": "0/4", "median_change_pct": None,
                             "claimable": False}


def test_a_gain_is_claimable_from_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_parent_spread():
    # the parent's op_p50_s quartiles are 0.40225 and 0.40675 (0.0045 apart); frames_per_s's 40.225 and 40.675
    seeds = list(range(1, 11))
    parent = [0.40 + 0.001 * k for k in range(10)]  # median 0.4045
    wide = [p - 0.01 for p in parent[:9]] + [parent[9] + 0.01]  # 9/10 wins, median 0.3945
    narrow = [p - 0.004 for p in parent]  # 10/10 wins, median 0.4005: within the parent's spread
    fps = [40.0 + 0.1 * k for k in range(10)]
    runs = {"parent": [run("aaa", p, 80.0, f) for p, f in zip(parent, fps)],
            "change": [run("bbb", c, 80.0, f + 2.0) for c, f in zip(wide, fps)]}
    m = bench_pairs.summarise(seeds, runs, "subject line", CALIBRATION, BETTER)["by_metric"]
    assert (m["op_p50_s"]["change_wins"], m["op_p50_s"]["claimable"]) == ("9/10", True)
    assert (m["frames_per_s"]["change_wins"], m["frames_per_s"]["claimable"]) == ("10/10", True)
    assert m["peak_rss_mb"]["claimable"] is False  # every pair a tie
    runs["change"] = [run("bbb", c, 80.0, f - 2.0) for c, f in zip(narrow, fps)]
    m = bench_pairs.summarise(seeds, runs, "subject line", CALIBRATION, BETTER)["by_metric"]
    assert (m["op_p50_s"]["change_wins"], m["op_p50_s"]["claimable"]) == ("10/10", False)
    assert (m["frames_per_s"]["change_wins"], m["frames_per_s"]["claimable"]) == ("0/10", False)


def test_metrics_outside_the_end_to_end_list_get_no_wins():
    runs = {side: [run(c, 0.4, 80.0) for _ in range(2)] for side, c in (("parent", "aaa"), ("change", "bbb"))}
    s = bench_pairs.summarise([1, 2], runs, "subject line", CALIBRATION, {"op_p50_s": "lower", "peak_rss_mb": "lower"})
    assert list(s["by_metric"]) == ["op_p50_s", "peak_rss_mb"]
    assert set(s["quartiles"]["change"]) == {"op_p50_s", "peak_rss_mb", "frames_per_s", "expr_err"}


@pytest.mark.parametrize("after, agrees", [(2.6e-4, True), (2.4e-4, True), (2.2e-4, True), (2.7e-4, False),
                                           (3.24e-4, False), (2.1e-4, False)])
def test_calibration_band(capsys, after, agrees):
    calibration = {"before": dict(CALIBRATION["before"], gemm_s=2.4e-4), "after": dict(CALIBRATION["after"], gemm_s=after)}
    assert bench_pairs.calibration_agrees(calibration) is agrees
    warned = capsys.readouterr().err
    assert ("outside the 10% band" in warned) is not agrees


def test_calibration_times_both_kernels():
    c = bench_pairs.calibrate(ROOT)
    assert set(c) == {"cpu_mhz", "gemm_s", "pace_kernel_s"}  # the CPU model is in the set's host
    assert c["gemm_s"] > 0 and c["pace_kernel_s"] > 0

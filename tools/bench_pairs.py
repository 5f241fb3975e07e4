"""Alternating parent/change pairs of the benchmark, summarised in BENCH_<workload>.json.

    python3 tools/bench_pairs.py WORKLOAD PARENT_CHECKOUT CHANGE_CHECKOUT FIRST-LAST

For each seed in FIRST..LAST it runs `perfbench/run.py --workload WORKLOAD
--seed SEED --seconds S` in both checkouts, one after the other, the parent
first on odd seeds and the change first on even ones. S is `run_seconds` from
the change checkout's `BENCHMARK.json`, so both sides run for the benchmark's
own length. A run that is not `correct` or reports a failed op stops the tool
before anything is written.

The summary is one set appended to the `sets` of `BENCH_<workload>.json` in
the change checkout; the file is made, with the workload, metric, command and
method, if it is missing. A set holds every pair's `op_p50_s`, each side's
quartiles (linear interpolation), the change's wins and the median change in
percent; each pair also carries every end-to-end metric of both runs, and
`quartiles` gives each side's quartiles of every metric. `by_metric` gives
the same wins and median change for every end-to-end metric, a win being a
pair whose change is better in the direction `better` of the change
checkout's `BENCHMARK.json` (lower or higher); the median change stays the
signed change of the value, so -5.0 is a fall either way. The set's two
commits come from the run records and its host from the change's first
record.

Each set also records a host calibration, taken before and after the pairs
in a fresh interpreter of the change checkout with the benchmark's BLAS
threads: the CPU model and the MHz of each CPU from /proc/cpuinfo, and the
median times of one float32 GEMM of the `train` step's MLP shape and of the
benchmark's `pace_kernel`. Two sets under the same host string whose
calibrations differ ran on hosts of different speed. `calibration_agrees`
records whether the before and after GEMM medians lie within
`CALIBRATION_BAND` of each other; when they do not, the host changed speed
during the set, a warning goes to stderr, and the set's medians should be
compared with no other set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRIC = "op_p50_s"
CALIBRATION_BAND = 0.10  # largest gap between a set's two GEMM medians, relative to the smaller one
# Run in the change checkout. The GEMM is [384, 128] @ [128, 512]: the first
# MLP layer of a default-config train step (384 tokens, dim 128, hidden 512).
CALIBRATE = """
import json, os, statistics, sys, time
sys.path[:0] = ["perfbench", "src"]
from run import BLAS_THREADS, THREAD_VARS
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
import numpy as np
from bench import pace_kernel
a, b = (np.random.default_rng(0).standard_normal(s).astype(np.float32) for s in ((384, 128), (128, 512)))
def median_s(fn):
    fn()
    times = []
    for _ in range(200):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
print(json.dumps({"gemm_s": median_s(lambda: a @ b), "pace_kernel_s": median_s(pace_kernel)}))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """-> (record, result) of one benchmark run, or SystemExit if it is not clean."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{checkout}: seed {seed} exited with {proc.returncode}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{checkout}: seed {seed} rejected: correct={result['correct']}, "
                         f"{result['failed']} of {result['attempted']} ops failed")
    return record, result


def sig(x):
    return float(f"{x:.5g}")


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": sig(q1), "median": sig(median), "q3": sig(q3)}


def side_commit(records, side):
    commits = {r["env"]["commit"] for r in records}
    if len(commits) != 1:
        raise SystemExit(f"{side} runs report several commits: {sorted(commits)}")
    return commits.pop()


def cpuinfo():
    """-> (CPU model, [MHz of each CPU]) from /proc/cpuinfo; ("unknown CPU", []) without it."""
    model, mhz = "unknown CPU", []
    path = Path("/proc/cpuinfo")
    for line in path.read_text().splitlines() if path.is_file() else ():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and model == "unknown CPU":
            model = value.strip()
        elif key.strip() == "cpu MHz":
            mhz.append(float(value))
    return model, mhz


def host(env):
    return (f"{env['nproc']}-CPU {env['machine']} {cpuinfo()[0]}, Python {env['python']}, numpy {env['numpy']}, "
            f"{env['blas']}, {env['blas_threads']} BLAS thread(s)")


def calibrate(checkout: Path):
    """The host calibration: CPU model and MHz, and the GEMM and pace-kernel medians."""
    proc = subprocess.run([sys.executable, "-c", CALIBRATE], cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{checkout}: calibration exited with {proc.returncode}")
    model, mhz = cpuinfo()
    return {"cpu_model": model, "cpu_mhz": mhz,
            **{name: sig(s) for name, s in json.loads(proc.stdout).items()}}


def calibration_agrees(calibration) -> bool:
    """Whether the `before` and `after` GEMM medians differ by at most
    CALIBRATION_BAND of the smaller one; warns on stderr when they do not."""
    before, after = calibration["before"]["gemm_s"], calibration["after"]["gemm_s"]
    agrees = abs(after - before) <= CALIBRATION_BAND * min(before, after)
    if not agrees:
        print(f"warning: calibration GEMM went from {before:.3g} s to {after:.3g} s, outside the "
              f"{CALIBRATION_BAND:.0%} band; compare this set's medians with no other set's", file=sys.stderr)
    return agrees


def header(workload, seconds, unit):
    """The fields of a new bench file, before its first set."""
    return {
        "workload": workload,
        "metric": METRIC,
        "unit": unit,
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED --seconds {seconds:g}",
        "method": ("alternating parent/change pairs, parent first on odd seeds; every run reported "
                   "correct with no failed op; quartiles by linear interpolation"),
        "sets": [],
    }


def compare(parent, change, better):
    """The change's values against the parent's, pair by pair: the direction `better`
    ("lower" or "higher"), the wins as "k/n" and the median change in percent (None
    from a zero parent median)."""
    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    return {"better": better, "change_wins": f"{wins}/{len(parent)}",
            "median_change_pct": round(100.0 * (mc / mp - 1.0), 1) if mp else None}


def summarise(seeds, runs, subject, calibration, better):
    """One set; `runs` maps each side to its (record, result) per seed, in seed order,
    `calibration` holds the host calibrations taken `before` and `after` the pairs,
    and `better` maps each end-to-end metric to "lower" or "higher"."""
    values = {side: [{k: m["value"] for k, m in result["metrics"].items()} for _, result in runs[side]]
              for side in ("parent", "change")}
    pairs = []
    for k, seed in enumerate(seeds):
        pairs.append({"seed": seed, "first": "parent" if seed % 2 else "change",
                      "parent": sig(values["parent"][k][METRIC]),
                      "change": sig(values["change"][k][METRIC]),
                      "metrics": {side: values[side][k] for side in ("parent", "change")}})
    names = list(values["change"][0])
    series = {n: {side: [v[n] for v in values[side]] for side in values} for n in names}
    by_metric = {n: compare(series[n]["parent"], series[n]["change"], better[n]) for n in names if n in better}
    p50, rss = series[METRIC], series["peak_rss_mb"]
    return {
        "version": subject,
        "parent": side_commit([r for r, _ in runs["parent"]], "parent"),
        "change": side_commit([r for r, _ in runs["change"]], "change"),
        "host": host(runs["change"][0][0]["env"]),
        "calibration": calibration,
        "calibration_agrees": calibration_agrees(calibration),
        "seeds": f"{seeds[0]}-{seeds[-1]}",
        "pairs": pairs,
        f"parent_{METRIC}": quartiles(p50["parent"]),
        f"change_{METRIC}": quartiles(p50["change"]),
        "change_wins": by_metric[METRIC]["change_wins"],
        "median_change_pct": by_metric[METRIC]["median_change_pct"],
        "parent_peak_rss_mb_median": sig(statistics.median(rss["parent"])),
        "change_peak_rss_mb_median": sig(statistics.median(rss["change"])),
        "quartiles": {side: {n: quartiles(series[n][side]) for n in names} for side in ("parent", "change")},
        "by_metric": by_metric,
    }


def seed_range(text):
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected FIRST-LAST, got {text!r}") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least two seeds for quartiles, got {text!r}")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("seeds", type=seed_range)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {"parent": [], "change": []}
    before = calibrate(args.change)
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            record, result = run_once(getattr(args, side), args.workload, seed, seconds)
            runs[side].append((record, result))
            print(f"seed {seed} {side}: {METRIC} {result['metrics'][METRIC]['value']:.4f}", file=sys.stderr)
    subject = subprocess.run(["git", "log", "-1", "--format=%s"], cwd=args.change,
                             capture_output=True, text=True).stdout.strip()
    calibration = {"before": before, "after": calibrate(args.change)}
    s = summarise(args.seeds, runs, subject or "change checkout", calibration, better)
    out = args.change / f"BENCH_{args.workload}.json"
    unit = runs["change"][0][1]["metrics"][METRIC]["unit"]
    bench = json.loads(out.read_text()) if out.is_file() else header(args.workload, seconds, unit)
    bench["sets"].append(s)
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"{out}: {s['change_wins']} pairs won, median {s['median_change_pct']:+.1f}%, "
          f"parent {s[f'parent_{METRIC}']}, change {s[f'change_{METRIC}']}")
    for name, c in s["by_metric"].items():
        pct = "n/a" if c["median_change_pct"] is None else f"{c['median_change_pct']:+.1f}%"
        print(f"  {name} ({c['better']} is better): {c['change_wins']} pairs won, median {pct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

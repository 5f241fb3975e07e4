"""Benchmark entry point.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Prints progress to stderr and, as the last line of stdout, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
is the run record (environment, sample counts, tail percentile), which is
also written to .perfbench/ in the checkout.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, fixed before numpy loads: the ops are small GEMMs that gain
# little from a second thread, and one thread keeps runs on a shared host steady.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "animate", "corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "puppetflow" / "__init__.py").is_file():
        print(f"puppetflow sources not found under {src}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    import bench  # imports numpy and puppetflow

    import_s = time.perf_counter() - START
    result, record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
                               import_s=import_s, blas_threads=threads)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

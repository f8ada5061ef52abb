"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload long-gauss --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The package is imported from ``src/`` of the checkout this file sits in.
The exit code is 0 when every correctness check passed, 1 when one
failed and 2 when the checkout holds no ``src/hmmkld``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Pinned before numpy loads: one BLAS thread, so timings do not depend on
# how many cores the machine happens to have free.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (SRC / "hmmkld" / "__init__.py").is_file():
        print(f"error: no hmmkld package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import hmmkld

    if Path(hmmkld.__file__).resolve().parent != SRC / "hmmkld":
        print(f"error: hmmkld imported from {hmmkld.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness

    result, code = harness.run(
        SPEC, args.workload, args.seed, args.seconds, bool(args.trace), SRC, OUT_DIR
    )
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())

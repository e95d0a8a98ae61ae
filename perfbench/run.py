"""Benchmark of the schwinger-su3 toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trace-sweep --seed 1 --seconds 25 --trace 0

Prints one JSON line with the run's summary and environment, then, as the
last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. ``attempted``
and ``failed`` count exact checks. Exits 1 if a check failed, 2 if the
checkout's ``src/`` cannot be imported. See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process, no worker threads: pinned before anything can import numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("trace-sweep", "state-corpus", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "schwinger_su3" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import schwinger_su3

    if Path(schwinger_su3.__file__).resolve().parent.parent != SRC:
        print(f"error: schwinger_su3 imported from {schwinger_su3.__file__}",
              file=sys.stderr)
        return 2

    import runner

    workload = runner.make_workload(args.workload)
    if args.trace:
        metrics, summary, tracer = runner.run_traced(workload, args.seed, args.seconds)
        out_dir = runner.HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        summary["trace_file"] = str(trace_path.relative_to(runner.ROOT))
    else:
        metrics, summary = runner.run_e2e(workload, args.seed, args.seconds)
    summary.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, env=runner.environment())
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["checks_attempted"],
        "failed": summary["checks_failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

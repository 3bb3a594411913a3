"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run also writes its spans to ``perfbench/out``.
Exit status is 0 when the run completed, whether or not its checks passed,
and 2 when it could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_train", "full_vote"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="minimum timed run length")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "wavems" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    # One BLAS thread in every workload, fixed before numpy loads its BLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    result = workloads.run(args.workload, args.seed, args.seconds, tracer, OUT)
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)

    if tracer:
        metrics = tracing.layer_metrics(tracer)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_file, timed={k: v for k, (v, _) in result["metrics"].items()})
        print(f"spans written to {trace_file}", file=sys.stderr)
    else:
        metrics = result["metrics"]
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != wanted:
        print("error: metric names or units differ from BENCHMARK.json: "
              f"{sorted(set(wanted.items()) ^ set(measured.items()))}", file=sys.stderr)
        return 2

    # The timed section's figures go to stderr in both modes; a traced run's
    # against an untraced one's give the tracing overhead.
    e2e = result["metrics"]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} units, {result['windows']} windows in "
          f"{result['wall_s']:.3f} s (units " + " ".join(
              f"{t:.3f}" for t in result["latencies"]) + " s; set-ups " + " ".join(
              f"{t:.3f}" for t in result["setup_times"]) + " s), " + ", ".join(
              f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items())
          + "; " + ", ".join(f"{k} {v}" for k, v in result["check_figures"].items()),
          file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

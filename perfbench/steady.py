"""Steadiness check: two sets of runs of the same code, compared per metric.

    python3 perfbench/steady.py

Runs ``run.py`` ten times per set and workload of ``BENCHMARK.json``, for
its ``run_seconds``, each run with its own seed and one after another,
cycling through the workloads inside a set. For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over median), the shift of the second set's median
against the first's in the metric's worse direction, and the metric's
bound. A spread above a third of its bound, or a shift above the bound, is
flagged, for every metric, ``setup_s`` included; so is a failed-unit share
that differs between sets. It then makes one traced run per workload and
reports the tracing overhead on ``windows_per_s``. Everything is also
written to ``perfbench/out/steady.json``. The exit status is 1 when any
flag is raised or any run is incorrect.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10  # per set and workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: " + ", ".join(
        f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
        if not trace) + ("" if result["correct"] else "  INCORRECT"), flush=True)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = 1
    for s in range(SETS):
        print(f"set {s + 1}", flush=True)
        for _ in range(RUNS):
            for w in workloads:
                results[w][s].append((seed, run_once(w, seed, seconds, 0)))
            seed += 1

    flags = []
    summary: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    print(f"\n{'workload':<11}{'metric':<15}{'set':>4}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>8}{'shift':>8}{'bound':>7}")
    for w in workloads:
        sets = results[w]
        entry = summary["workloads"][w] = {"metrics": {}, "failed_share": []}
        for run_list in sets:
            attempted = sum(r["attempted"] for _, r in run_list)
            entry["failed_share"].append(sum(r["failed"] for _, r in run_list) / attempted)
            flags += [f"{w} seed {sd}: checks failed" for sd, r in run_list
                      if not r["correct"]]
        if len(set(entry["failed_share"])) > 1:
            flags.append(f"{w}: failed share differs between sets {entry['failed_share']}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sign = 1 if m["better"] == "lower" else -1
            rows = []
            for s, run_list in enumerate(sets):
                values = [r["metrics"][name]["value"] for _, r in run_list]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                first_med = rows[0]["median"] if rows else med
                shift = sign * (med - first_med) / first_med
                rows.append({"values": values, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "shift": shift})
                print(f"{w:<11}{name:<15}{s + 1:>4}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                      f"{spread:>8.3f}{shift:>8.3f}{bound:>7.2f}")
                if spread > bound / 3:
                    flags.append(f"{w} {name} set {s + 1}: spread {spread:.3f} "
                                 f"> bound/3 {bound / 3:.3f}")
                if shift > bound:
                    flags.append(f"{w} {name} set {s + 1}: median worse by "
                                 f"{shift:.3f} > bound {bound}")
            entry["metrics"][name] = rows

    for w in workloads:
        traced = run_once(w, 1, seconds, 1)
        timed = json.loads((HERE / "out" / f"trace-{w}-seed1.json").read_text())["timed"]
        plain = statistics.median(r["metrics"]["windows_per_s"]["value"]
                                  for _, r in results[w][0])
        overhead = plain / timed["windows_per_s"] - 1
        summary["workloads"][w]["trace_overhead"] = overhead
        print(f"{w}: traced windows/s {timed['windows_per_s']:.6g} against untraced "
              f"median {plain:.6g}: tracing overhead {overhead:+.1%}")
        if not traced["correct"]:
            flags.append(f"{w}: traced run seed 1 failed its checks")

    summary["flags"] = flags
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print("\n" + ("\n".join(f"FLAG {f}" for f in flags) if flags else "no flags"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness check and baseline: run.py on several seeds per workload.

    python3 perfbench/prove.py [--workloads A,B] [--seeds 10] [--out perfbench/baseline.json]

For every end-to-end metric in BENCHMARK.json it prints the median of the
per-seed values, their spread (the distance between the first and third
quartile as a share of the median) next to a third of the metric's bound,
and their range (largest over smallest, minus 1) next to the bound itself.
The benchmark counts as steady when every spread, that of setup_s too, is
below a third of its bound. The range is the worst disagreement of any two
runs; it is printed, not tested. With --out it also runs each workload once
traced and writes the seed baseline: per workload, the medians in the form
run.py prints them, every per-seed value, the quartiles of every metric and
the machine details.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    """(details line, result line, duration) of one run.py invocation."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1]), time.perf_counter() - start


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    steady = True
    baseline = {"seeds": list(range(1, args.seeds + 1)), "run_seconds": spec["run_seconds"],
                "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        durations = []
        for seed in baseline["seeds"]:
            details, result, duration = run(workload, seed, spec["run_seconds"], 0)
            durations.append(duration)
            baseline["machine"] = details["machine"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({duration:.1f} s): " + " ".join(
                f"{name}={v[-1]:.5g}" for name, v in values.items()), flush=True)
        entry = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": {},
                 "quartiles": {}, "values": values, "run_durations_s": durations}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            worst = max(values[name]) / min(values[name]) - 1
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"  {name:14s} median {median:12.6g} {metric['unit']:5s} spread {spread:7.4f} "
                  f"(a third of the bound: {metric['bound'] / 3:.4f}) {'ok' if ok else 'WIDE'}  "
                  f"range {worst:7.4f} (bound {metric['bound']:.4f})")
            entry["metrics"][name] = {"value": median, "unit": metric["unit"]}
            entry["quartiles"][name] = [q1, median, q3]
        if args.out is not None:
            _, traced, duration = run(workload, baseline["seeds"][0], spec["run_seconds"], 1)
            entry["traced_seed_1"] = traced
            entry["traced_duration_s"] = duration
        baseline["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

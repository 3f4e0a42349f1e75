"""Measure every workload over several seeds and write a BENCH_<n>.json baseline.

Usage: python3 bench/baseline.py --out bench/BENCH_0.json [--seeds 1-10] [--seconds S]

Runs `bench/run.py` once per workload and seed with tracing off, from a fresh
process each time, and then once per workload with tracing on.  For each
end-to-end metric it records every run's value, the median and quartiles over
the runs, and the spread (third minus first quartile, over the median), which
must stay within the metric's bound in BENCHMARK.json.  The full record of the
traced run (per-layer metrics, trace overhead) is included.  With the
default seconds this takes about 25 minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not line["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    path = BENCH_DIR / "out" / f"run_{workload}_seed{seed}_trace{trace}.json"
    return json.loads(path.read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        records = []
        for seed in seeds:
            records.append(run_once(workload, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in records[-1]["end_to_end"].items()}
            print(workload, seed, values, flush=True)
        metrics = {}
        for name, first in records[0]["end_to_end"].items():
            values = [r["end_to_end"][name]["value"] for r in records]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": first["unit"],
                "median": median,
                "quartiles": [q1, q3],
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bounds.get(name),
                "passes_per_run": [r["end_to_end"][name]["samples"] for r in records],
                "values": values,
            }
            print(f"  {name:12s} median {median:.6g} spread {metrics[name]['spread']:.3f} "
                  f"bound {bounds.get(name)}", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        traced.pop("pass_samples")
        out["workloads"][workload] = {
            "commit": records[0]["commit"],
            "python": records[0]["python"],
            "nproc": records[0]["nproc"],
            "cpu": records[0]["cpu"],
            "end_to_end": metrics,
            "traced_run": traced,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

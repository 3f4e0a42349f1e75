"""silspath benchmark: cold passes over fixed public-API workloads, every op checked.

Usage:
    python3 bench/run.py --workload macdonald|verify|quotient|all --seed N
                         --seconds S --trace 0|1 [--quick]

Each pass runs in a fresh worker process, so every pass pays the library's
module-global caches cold, as a CLI user does on every run.  Passes repeat
until `--seconds` have been measured (at least `MIN_PASSES`), and each metric
is the median over passes.  The seed sets only the op order of each pass.

Every op's result is hashed and compared with `expected.json`; the verify ops
also check their identity.  An op that raises, differs or fails its identity
counts as failed, and any failed op makes the run exit nonzero.

The machine's speed drifts by tens of percent between and within runs, so
the timed metrics (`wall_s`, `max_op_s`, `setup_s`) are seconds at a fixed
reference speed: each pass's times are scaled by `CAL_REF_S` over the mean
time of a stdlib calibration loop that the worker runs between its ops.  The
times as measured are reported too (`*_raw_s`).

`--trace 0` reports the end-to-end metrics, measured untraced.  `--trace 1`
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  `--quick` runs a single op, in
one pass (two with tracing), to check that the run works and prints the
schema; its timings mean nothing.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A full record of the run is
written to `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 150.0  # no pass starts that could end past this; the contract allows 180 s

# The reference speed: the one at which the worker's calibration loop takes
# this long.  It only sets the scale; any fixed value compares runs alike.
CAL_REF_S = 0.040

END_TO_END = (
    ("wall_s", "s"),
    ("max_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_raw_s", "s"),
    ("max_op_raw_s", "s"),
    ("setup_raw_s", "s"),
)


class RunError(Exception):
    """The benchmark could not run: no program, or a worker that crashed."""


def load_expected() -> dict[str, str]:
    with open(BENCH_DIR / "expected.json") as f:
        return json.load(f)


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# -- one pass ------------------------------------------------------------------------


def run_pass(workload: str, order: list[str], trace: bool, timeout: float, spans_path=None) -> dict:
    """Run one cold pass in a fresh process and time its set-up."""
    config = {"workload": workload, "order": order, "trace": trace, "spans_path": spans_path}
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(config)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, timeout - setup_s))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"a {workload} pass ran past {timeout:.0f} s")
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RunError(f"worker exited with code {proc.returncode} before finishing its pass")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["wall_s"] = sum(op["seconds"] for op in result["ops"])
    return result


def check_ops(result: dict, expected: dict[str, str]) -> dict[int, str]:
    """Map the index of each failed op of a pass to the reason it failed."""
    bad = {}
    for index, op in enumerate(result["ops"]):
        if op["error"] is not None:
            bad[index] = f"{op['id']}: raised {op['error']}"
        elif not op["identity"]:
            bad[index] = f"{op['id']}: identity check failed"
        elif op["digest"] != expected.get(op["id"]):
            bad[index] = f"{op['id']}: digest {op['digest'][:12]} differs from the expected one"
    for index, layer_sum, wall in result.get("op_checks", []):
        if layer_sum > wall + 1e-9:
            bad.setdefault(index, f"{result['ops'][index]['id']}: layer self times {layer_sum} "
                                  f"exceed its traced wall time {wall}")
    return bad


# -- a run ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool, expected) -> dict:
    rng = random.Random(seed)
    ids = [c.op_id for c in workloads.cases(workload)][: 1 if quick else None]
    OUT_DIR.mkdir(exist_ok=True)
    passes: list[dict] = []
    failures: list[str] = []
    pass_times: list[float] = []
    t_start = perf_counter()
    while True:
        order = list(ids)
        rng.shuffle(order)
        traced = trace and len(passes) % 2 == 1
        # each traced pass overwrites the spans of the one before
        spans_path = str(OUT_DIR / f"spans_{workload}_seed{seed}.tsv.gz") if traced else None
        t_pass = perf_counter()
        result = run_pass(workload, order, traced, RUN_LIMIT_S + 25 - (t_pass - t_start), spans_path)
        pass_times.append(perf_counter() - t_pass)
        result["traced"] = traced
        passes.append(result)
        failures += check_ops(result, expected).values()
        if quick and (len(passes) == 2 or not trace):
            break
        elapsed = perf_counter() - t_start
        typical = statistics.median(pass_times)
        # a traced run ends on a traced pass, so its passes come in pairs
        enough = len(passes) >= (2 if trace else MIN_PASSES) and not (trace and len(passes) % 2)
        if (enough and elapsed + typical > seconds) or elapsed + 1.5 * typical > RUN_LIMIT_S:
            break
    return {"passes": passes, "failures": failures}


def speed_factor(result: dict) -> float:
    """What turns the pass's measured seconds into seconds at the reference speed.

    The calibration loop runs once before the first op and once after each
    op; the mean of those samples weighs the machine's fast and slow spells
    as the pass met them.
    """
    return CAL_REF_S / statistics.mean(result["cal_samples"])


def summarize(workload: str, seed: int, trace: bool, measured: dict) -> dict:
    passes = measured["passes"]
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = len(measured["failures"])
    raw = {
        "wall_raw_s": [p["wall_s"] for p in plain],
        "max_op_raw_s": [max(op["seconds"] for op in p["ops"]) for p in plain],
        "setup_raw_s": [p["setup_s"] for p in plain],
    }
    factors = [speed_factor(p) for p in plain]
    samples = {
        name[: -len("_raw_s")] + "_s": [v * f for v, f in zip(values, factors)]
        for name, values in raw.items()
    }
    samples["peak_rss_mb"] = [p["max_rss_kb"] / 1024 for p in plain]
    samples.update(raw)
    units = dict(END_TO_END)
    end_to_end = {k: {"value": statistics.median(v), "unit": units[k], "samples": len(v),
                      "quartiles": _quartiles(v)} for k, v in samples.items()}
    # Printed and recorded, but not a BENCHMARK.json metric: it is 0 whenever
    # the run is correct, and any failed op already fails the run.
    end_to_end["fail_frac"] = {"value": failed / attempted, "unit": "ratio", "samples": attempted}
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "passes": len(passes),
        "cases": {c.op_id: c.why for c in workloads.cases(workload)},
        "op_order_first_pass": [op["id"] for op in passes[0]["ops"]],
        "digests": {op["id"]: op["digest"] for op in passes[0]["ops"]},
        "attempted": attempted,
        "failed": failed,
        "failures": measured["failures"],
        "end_to_end": end_to_end,
        "pass_samples": [
            {"traced": p["traced"], "setup_s": p["setup_s"], "wall_s": p["wall_s"],
             "max_rss_kb": p["max_rss_kb"], "op_s": {op["id"]: op["seconds"] for op in p["ops"]},
             "cal_samples": p["cal_samples"]}
            for p in passes
        ],
        "trace_overhead": None,
        "per_layer": None,
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        layer = spans.median_metrics([p["layers"] for p in traced])
        traced_wall = statistics.median(p["wall_s"] * speed_factor(p) for p in traced)
        overhead = traced_wall / statistics.median(samples["wall_s"])
        layer["trace.overhead"] = overhead
        record["trace_overhead"] = overhead
        record["per_layer"] = {
            name: {"value": layer[name], "unit": unit, "samples": len(traced), "should_move": why}
            for name, unit, why in spans.LAYER_METRICS
        }
        record["traced_digests_match"] = all(
            op["digest"] == record["digests"].get(op["id"]) for p in traced for op in p["ops"]
        )
    return record


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def result_line(record: dict, names: list[str]) -> dict:
    """The contract's last line, with the named metrics of the record."""
    table = dict(record["end_to_end"])
    table.update(record["per_layer"] or {})
    return {
        "correct": record["failed"] == 0 and record.get("traced_digests_match", True),
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": table[n]["value"], "unit": table[n]["unit"]} for n in names},
    }


def print_table(record: dict) -> None:
    print(f"# {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"passes {record['passes']}  commit {record['commit'][:12]}  python {record['python']}  "
          f"nproc {record['nproc']}  cpu {record['cpu']}")
    rows = list(record["end_to_end"].items()) + list((record["per_layer"] or {}).items())
    for name, m in rows:
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']:6s} (n={m['samples']})")
    for msg in record["failures"]:
        print(f"  FAILED {msg}")


def main(argv=None, expected=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "silspath" / "__init__.py").is_file():
        print(f"no silspath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected() if expected is None else expected
    spec = benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    chosen = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for workload in chosen:
            measured = measure(workload, args.seed, args.seconds, bool(args.trace), args.quick, expected)
            record = summarize(workload, args.seed, bool(args.trace), measured)
            path = OUT_DIR / f"run_{workload}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1))
            print_table(record)
            lines.append(result_line(record, names))
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    if len(lines) == 1:
        line = lines[0]
    else:
        line = {
            "correct": all(x["correct"] for x in lines),
            "attempted": sum(x["attempted"] for x in lines),
            "failed": sum(x["failed"] for x in lines),
            "metrics": {f"{w}.{k}": v for w, x in zip(chosen, lines) for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

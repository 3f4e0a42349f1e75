"""One cold pass over a workload's ops, in a fresh process.

Usage: python3 bench/worker.py '<json config>'

The config holds the workload name, the op ids in the order to run them,
whether to trace, and where to write the spans.  The worker imports
`silspath` from the checkout's `src/`, builds every Cartan datum of the
workload, prints `ready`, runs the ops and prints one JSON result line.  An
op that raises is reported as failed and the pass goes on.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


def import_silspath():
    sys.path.insert(0, str(SRC_DIR))
    import silspath

    if Path(silspath.__file__).resolve().parent != SRC_DIR / "silspath":
        raise ImportError(f"silspath imported from {silspath.__file__}, not from {SRC_DIR}")
    return silspath


def main(config: dict) -> dict:
    sp = import_silspath()
    sys.path.insert(0, str(BENCH_DIR))
    import spans
    import workloads

    by_id = {c.op_id: c for c in workloads.cases(config["workload"])}
    order = [by_id[op_id] for op_id in config["order"]]
    tracer = spans.Tracer() if config["trace"] else None
    if tracer is not None:
        tracer.install(sp)
    try:
        for type_label, rank in sorted({(c.type_label, c.rank) for c in order}):
            sp.cartan.build(type_label, rank)
        print("ready", flush=True)
        ops = []
        cal_samples = [calibrate()]
        for index, case in enumerate(order):
            ops.append(_run_one(sp, workloads, case, index, tracer))
            cal_samples.append(calibrate())
    finally:
        if tracer is not None:
            tracer.remove()
    result = {
        "ops": ops,
        "cal_samples": cal_samples,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["op_checks"] = tracer.op_checks()
        if config.get("spans_path"):
            tracer.write_spans(config["spans_path"])
    return result


def calibrate() -> float:
    """Time a fixed stdlib-only loop of tuple, dict and Fraction work.

    The machine's speed drifts by tens of percent over seconds to minutes, and
    the drift moves this loop and the library alike.  The loop runs before
    the first op and after each op, and the pass's times are also reported
    scaled by the mean of its samples.  Its dict stays small (89 keys), so it
    adds nothing to the pass's peak memory.  The collector is off so that the
    library's live objects do not add to the loop's time.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        counts: dict[tuple[int, ...], int] = {}
        total = Fraction(0)
        for i in range(20000):
            key = tuple((i * k) % 89 for k in range(6))
            counts[key] = counts.get(key, 0) + 1
            if i % 8 == 0:
                total += Fraction(i % 7, 1 + i % 5)
        return perf_counter() - t0
    finally:
        gc.enable()


def _run_one(sp, workloads, case, index: int, tracer) -> dict:
    out = {"id": case.op_id, "seconds": None, "digest": None, "identity": None, "error": None}
    t0 = perf_counter()
    try:
        if tracer is None:
            payload, identity = workloads.run_op(sp, case)
        else:
            payload, identity = tracer.op_span(index, lambda: workloads.run_op(sp, case))
        out["seconds"] = perf_counter() - t0
        out["identity"] = identity
        out["digest"] = workloads.digest(payload)
    except Exception as exc:  # an op failure is reported, and the pass goes on
        out["seconds"] = perf_counter() - t0
        out["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))), flush=True)

"""Self-tests of the benchmark harness.

Usage: python3 bench/selftest.py    (about half a minute)

They check the harness, not the timings: the output schema, the exactness
gate, the trace wrappers, and that each per-layer counter moves on the
workload meant to exercise it and reads zero where the workload bypasses it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Small op subsets that still reach every layer of their workload.
SUBSETS = {
    "macdonald": None,  # the whole workload: the bypass claims are about all of it
    "verify": ["grch1:B3:(0,1,0):d3", "q0:B3:(1,0,0)"],
    "quotient": ["quotient:C2:(1,1)"],
}

# The workload on which each per-layer metric must be nonzero.
EXERCISED = {
    "cartan.build.calls": "all",
    "cartan.build.self_s": "all",
    "weyl.self_s": "all",
    "weyl.mul.calls": "macdonald",
    "weyl.weyl_group.calls": "verify quotient",
    "weyl.weyl_group.self_s": "verify quotient",
    "weyl.weyl_group.size": "verify quotient",
    "weyl.bruhat_leq.calls": "quotient",
    "weyl.bruhat_leq.self_s": "quotient",
    "weyl.bruhat_leq.distinct_frac": "quotient",
    "peterson.self_s": "all",
    "peterson.si_covers.calls": "verify",
    "peterson.si_covers.distinct_frac": "verify",
    "peterson.project.calls": "macdonald",
    "peterson.for_weight.calls": "all",
    "sils.self_s": "all",
    "sils.root_op.calls": "macdonald",
    "sils.root_op.null_frac": "macdonald",
    "sils.apply.calls": "macdonald",
    "sils.enumerate.calls": "verify",
    "sils.enumerate.self_s": "verify",
    "sils.enumerate.paths": "verify",
    "qls.self_s": "all",
    "qls.table.self_s": "all",
    "qls.table.size": "all",
    "qls.eta_kappa.calls": "all",
    "qls.eta_kappa.distinct_frac": "all",
    "qls.eta_iota.calls": "quotient",
    "qls.eta_iota.self_s": "quotient",
    "characters.self_s": "all",
    "characters.weyl_character.calls": "verify",
    "characters.weyl_character.self_s": "verify",
    "characters.mul.calls": "verify",
}

BYPASSED_ON_MACDONALD = (
    "weyl.bruhat_leq.calls",
    "peterson.si_covers.calls",
    "characters.weyl_character.calls",
    "weyl.weyl_group.calls",
)

_passes: dict[tuple[str, bool], dict] = {}


def traced_pass(workload: str, trace: bool = True) -> dict:
    """One pass over the workload's subset, run once and shared by the tests."""
    if (workload, trace) not in _passes:
        ids = SUBSETS[workload] or [c.op_id for c in workloads.cases(workload)]
        _passes[workload, trace] = run.run_pass(workload, ids, trace, timeout=120)
    return _passes[workload, trace]


def bench_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


class OutputSchema(unittest.TestCase):
    def test_quick_mode_prints_the_contract_line(self):
        spec = run.benchmark_spec()
        for workload in workloads.WORKLOADS:
            for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                                     "--trace", trace, "--quick")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    line = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(line["correct"], True)
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[section]}
                    self.assertEqual(set(line["metrics"]), set(want))
                    for name, m in line["metrics"].items():
                        self.assertEqual(set(m), {"value", "unit"})
                        self.assertEqual(m["unit"], want[name])
                        self.assertIsInstance(m["value"], (int, float))

    def test_benchmark_per_layer_metrics_are_traced_metrics(self):
        units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
        for m in run.benchmark_spec()["per_layer"]:
            self.assertEqual(units.get(m["name"]), m["unit"], m["name"])

    def test_every_case_has_an_expected_digest(self):
        expected = run.load_expected()
        ids = [c.op_id for w in workloads.WORKLOADS for c in workloads.cases(w)]
        self.assertEqual(len(ids), len(set(ids)))
        self.assertEqual(set(ids), set(expected))

    def test_without_sources_the_run_fails_without_a_result(self):
        bare = BENCH_DIR / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench_cli("--workload", "macdonald", "--seed", "1", "--seconds", "1", "--trace", "0",
                             cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class ExactnessGate(unittest.TestCase):
    def test_a_changed_digest_fails_the_run(self):
        expected = run.load_expected()
        first = workloads.cases("macdonald")[0].op_id
        expected[first] = "0" * 64
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "macdonald", "--seed", "1", "--seconds", "1", "--quick"],
                            expected=expected)
        self.assertNotEqual(code, 0)
        line = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertIs(line["correct"], False)
        self.assertEqual(line["failed"], 1)

    def test_traced_digests_equal_untraced_digests(self):
        for workload in ("verify", "quotient"):
            plain = {op["id"]: op["digest"] for op in traced_pass(workload, trace=False)["ops"]}
            traced = {op["id"]: op["digest"] for op in traced_pass(workload)["ops"]}
            self.assertEqual(plain, traced)
            self.assertEqual(run.check_ops(traced_pass(workload), run.load_expected()), {})


class LayerCounters(unittest.TestCase):
    def test_every_counter_moves_on_its_workload(self):
        self.assertEqual(set(EXERCISED), {n for n, _, _ in spans.LAYER_METRICS} - {"trace.overhead"})
        for name, where in EXERCISED.items():
            targets = list(workloads.WORKLOADS) if where == "all" else where.split()
            for workload in targets:
                with self.subTest(metric=name, workload=workload):
                    self.assertGreater(traced_pass(workload)["layers"][name], 0)

    def test_predicted_bypasses_read_zero_on_macdonald(self):
        layers = traced_pass("macdonald")["layers"]
        for name in BYPASSED_ON_MACDONALD:
            self.assertEqual(layers[name], 0, name)

    def test_layer_self_times_fit_in_each_op(self):
        for workload in workloads.WORKLOADS:
            checks = traced_pass(workload)["op_checks"]
            self.assertEqual(len(checks), len(traced_pass(workload)["ops"]))
            for _op, layer_sum, wall in checks:
                self.assertLessEqual(layer_sum, wall + 1e-9)


class Wrappers(unittest.TestCase):
    def test_wrappers_patch_call_sites_keep_caches_and_are_removed(self):
        sp = worker.import_silspath()
        ch, qls, weyl = sp.characters, sp.qls, sp.weyl
        originals = {
            "characters.weyl_group": ch.weyl_group,
            "weyl.weyl_group": weyl.weyl_group,
            "table": qls.QLSCrystal.__dict__["table"],
            "eta_kappa": qls.QLSCrystal.__dict__["eta_kappa"],
            "for_weight": sp.peterson.ParabolicQuotient.__dict__["for_weight"],
        }
        tracer = spans.Tracer()
        tracer.install(sp)
        try:
            self.assertIsNot(ch.weyl_group, originals["characters.weyl_group"])
            self.assertIs(ch.weyl_group, weyl.weyl_group)
            datum = sp.build("A", 2)
            crystal = qls.QLSCrystal(datum, (1, 1))
            self.assertIs(crystal.table, crystal.table)
            psi = next(iter(crystal.table))
            hits = originals["eta_kappa"].cache_info().hits
            self.assertIs(crystal.eta_kappa(psi), crystal.eta_kappa(psi))
            self.assertEqual(originals["eta_kappa"].cache_info().hits, hits + 1)
            sp.peterson.ParabolicQuotient.for_weight(datum, (1, 0))
            calls, _ = tracer.totals()
            self.assertEqual(calls["qls.table"], 1)
            self.assertEqual(calls["qls.eta_kappa"], 2)
            self.assertGreaterEqual(calls["peterson.for_weight"], 1)
        finally:
            tracer.remove()
        self.assertIs(ch.weyl_group, originals["characters.weyl_group"])
        self.assertIs(weyl.weyl_group, originals["weyl.weyl_group"])
        self.assertIs(qls.QLSCrystal.__dict__["table"], originals["table"])
        self.assertIs(qls.QLSCrystal.__dict__["eta_kappa"], originals["eta_kappa"])
        self.assertIs(sp.peterson.ParabolicQuotient.__dict__["for_weight"], originals["for_weight"])


if __name__ == "__main__":
    unittest.main(verbosity=2)

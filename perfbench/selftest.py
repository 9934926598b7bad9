"""Checks of the benchmark's own machinery: ``python3 perfbench/selftest.py``.

Run from the repository root.  Covers the ledger's self-time arithmetic,
the rebinding of ``from``-imported names, that tracing changes no verdict,
count or compiled circuit, the compile oracle (including a mutated
output it must reject), the tail-percentile rule and the host normalisation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from run import REFERENCE_START_S, normalise, tail  # noqa: E402

#: Runs in a fresh interpreter: verify a few passes and compile a few
#: circuits, optionally with the ledger installed first; prints JSON.
PROBE = r"""
import json, sys
traced = sys.argv[1] == "1"
if traced:
    import ledger
    book = ledger.Ledger()
    ledger.install(book)
from repro.engine import verify_passes
from repro.passes import ALL_VERIFIED_PASSES
from repro.bench.qasmbench import qasmbench_suite
from repro.bench.figure11 import default_device
from repro.transpiler.presets import verified_pipeline, baseline_pipeline
import repro.verify.verifier as verifier
chosen = [p for p in ALL_VERIFIED_PASSES
          if p.__name__ in ("CXCancellation", "LookaheadSwap", "Depth", "Unroller")]
report = verify_passes(chosen, use_cache=False)
verdicts = [(r.pass_name, r.verified, r.supported, len(r.subgoals), r.paths_explored)
            for r in report.results]
suite = qasmbench_suite()[:12]
device = default_device(suite)
outputs = []
for entry in suite:
    for factory in (verified_pipeline, baseline_pipeline):
        out = factory(device).run(entry.circuit())
        outputs.append([(g.name, g.qubits, g.q_controls, list(g.params)) for g in out])
result = {"verdicts": verdicts, "outputs": outputs,
          "wrapped": hasattr(verifier.analyze_pass, "__ledger_original__")}
if traced:
    result["calls"] = dict(book.calls)
print(json.dumps(result))
"""


def probe(traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", PROBE, "1" if traced else "0"],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class LedgerArithmetic(unittest.TestCase):
    def test_self_time_excludes_wrapped_children(self):
        clock = FakeClock()
        book = ledger.Ledger(clock)

        def inner():
            clock.now += 2.0

        def outer():
            clock.now += 1.0
            wrapped_inner()
            clock.now += 3.0
            wrapped_inner()

        wrapped_inner = book.wrap(ledger.target("repro.x", "inner"), inner)
        wrapped_outer = book.wrap(ledger.target("repro.x", "outer"), outer)
        wrapped_outer()
        self.assertEqual(book.self_s["x.inner"], 4.0)
        self.assertEqual(book.self_s["x.outer"], 4.0)
        self.assertEqual(book.calls["x.inner"], 2)
        self.assertEqual(book.calls["x.outer"], 1)

    def test_span_nests_like_a_wrapped_call(self):
        clock = FakeClock()
        book = ledger.Ledger(clock)
        with book.span("a"):
            clock.now += 1.0
            with book.span("b"):
                clock.now += 5.0
        self.assertEqual(dict(book.self_s), {"a": 1.0, "b": 5.0})

    def test_result_measure_is_summed(self):
        book = ledger.Ledger()
        spec = ledger.target("repro.x", "paths", extra="paths", measure=len)
        wrapped = book.wrap(spec, lambda n: [0] * n)
        wrapped(2)
        wrapped(3)
        self.assertEqual(book.extras["x.paths.paths"], 5)


class TracingChangesNothing(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = probe(traced=False)
        cls.traced = probe(traced=True)

    def test_from_imported_names_are_rebound(self):
        self.assertTrue(self.traced["wrapped"])
        self.assertFalse(self.plain["wrapped"])

    def test_same_verdicts_and_counts(self):
        self.assertEqual(self.plain["verdicts"], self.traced["verdicts"])
        self.assertTrue(all(verified for _, verified, *_ in self.plain["verdicts"]))

    def test_same_compiled_circuits(self):
        self.assertEqual(self.plain["outputs"], self.traced["outputs"])

    def test_layers_were_reached(self):
        calls = self.traced["calls"]
        self.assertEqual(calls["verify.preprocessor.analyze_pass"], 4)
        self.assertGreater(calls["verify.discharge.Discharger"], 0)
        self.assertEqual(calls["transpiler.passmanager.PassManager.run"], 24)


class CompileOracle(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        from repro.bench.figure11 import default_device
        from repro.bench.qasmbench import qasmbench_suite
        from repro.transpiler.presets import verified_pipeline

        import oracle

        cls.oracle = oracle
        suite = qasmbench_suite()
        cls.device = default_device(suite)
        entry = next(e for e in suite if e.name == "qft_n4")
        cls.source = entry.circuit()
        pipeline = verified_pipeline(cls.device)
        cls.compiled = pipeline.run(cls.source.copy())
        cls.layout = pipeline.property_set["layout"]
        cls.final = pipeline.property_set["final_layout"]

    def check(self, compiled, final=None):
        return self.oracle.check(self.source, compiled, self.device, self.layout,
                                 final or self.final)

    def test_accepts_the_compiled_circuit(self):
        self.assertEqual(self.check(self.compiled)[:2], (True, True))

    def test_rejects_a_dropped_gate(self):
        from repro.circuit.circuit import QCircuit

        gates = list(self.compiled)
        mutated = QCircuit(self.compiled.num_qubits, self.compiled.num_clbits)
        for gate in gates[1:]:
            mutated.append(gate)
        self.assertFalse(self.check(mutated)[0])

    def test_rejects_a_wrong_final_permutation(self):
        from repro.coupling.layout import Layout

        # qft_n4 routes with swaps, so the identity cannot be its final layout.
        self.assertFalse(self.check(self.compiled, Layout.trivial(4))[0])


class TailRule(unittest.TestCase):
    def test_requested_percentile_by_nearest_rank(self):
        self.assertEqual(tail(list(range(1, 201)), 95.0), (190, 95.0, 200))

    def test_steps_down_until_ten_samples_lie_beyond(self):
        self.assertEqual(tail(list(range(1, 101)), 95.0), (90, 90.0, 100))

    def test_median_is_the_floor(self):
        self.assertEqual(tail([3.0, 1.0, 2.0], 75.0), (2.0, 50.0, 3))


class Normalisation(unittest.TestCase):
    def test_a_reference_speed_control_leaves_the_time_unchanged(self):
        self.assertAlmostEqual(normalise(0.4, REFERENCE_START_S), 0.4)

    def test_a_host_twice_as_slow_reports_the_same_time(self):
        self.assertAlmostEqual(normalise(0.8, 2 * REFERENCE_START_S), 0.4)


if __name__ == "__main__":
    unittest.main()

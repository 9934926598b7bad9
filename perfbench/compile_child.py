"""Long-lived compile process for the ``compile`` workload.

``python3 compile_child.py SETUP_REPS TRACE`` builds the 48-circuit
``qasmbench_suite()`` and its ``figure11.default_device`` SETUP_REPS times,
then answers one JSON request per stdin line on stdout:

* ``{"op": i}`` — parse circuit ``i`` and compile it with
  ``verified_pipeline``, then the same with ``baseline_pipeline``.  The
  first compile of each circuit is checked by :mod:`oracle`; every later
  one must reproduce the checked output gate for gate.
* ``{"quit": true}`` — report peak RSS and exit.

With TRACE=1 the layer ledger is installed before ``repro`` is imported
and each reply carries the ledger delta of its verified and baseline runs.
"""

import time

FIRST_LINE = time.time()

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from ledger import Ledger, diff, install  # noqa: E402


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _signature(circuit) -> tuple:
    return tuple((gate.name, gate.qubits, gate.q_controls, tuple(gate.params),
                  gate.clbits) for gate in circuit)


def main() -> int:
    setup_reps, traced = int(sys.argv[1]), sys.argv[2] == "1"
    ledger = Ledger() if traced else None
    finder = install(ledger) if traced else None
    started = time.perf_counter()
    with ledger.span("startup.import") if traced else contextlib.nullcontext():
        from repro.bench.figure11 import default_device
        from repro.bench.qasmbench import qasmbench_suite
        from repro.transpiler.presets import baseline_pipeline, verified_pipeline

        import oracle
    import_s = time.perf_counter() - started
    if traced:
        finder.lazy = True
    setup_s = []
    for _ in range(setup_reps):
        began = time.perf_counter()
        suite = qasmbench_suite()
        device = default_device(suite)
        setup_s.append(time.perf_counter() - began)
    reference = {}
    print(json.dumps({"setup_s": setup_s, "circuits": len(suite), "import_s": import_s,
                      "first_line": FIRST_LINE}), flush=True)

    def compile_one(entry, factory):
        # Collect before every compile, untimed, so that no compile pays for
        # collecting the garbage of the ones before it.
        gc.collect()
        pipeline = factory(device)
        before = ledger.snapshot() if traced else None
        cpu = _cpu()
        began = time.perf_counter()
        circuit = entry.circuit()
        parsed = time.perf_counter()
        work = circuit.copy()  # the oracle needs the untouched input
        copied = time.perf_counter()
        compiled = pipeline.run(work)
        done = time.perf_counter()
        cpu = _cpu() - cpu
        timing = {"parse_s": parsed - began, "compile_s": done - copied,
                  "wall_s": (parsed - began) + (done - copied), "cpu_s": cpu,
                  "ledger": diff(ledger.snapshot(), before) if traced else None}
        return circuit, pipeline, compiled, timing

    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(json.dumps({"maxrss_kb": usage.ru_maxrss}), flush=True)
            return 0
        index = request["op"]
        entry = suite[index]
        circuit, pipeline, compiled, verified = compile_one(entry, verified_pipeline)
        _, base_pipeline, base_compiled, baseline = compile_one(entry, baseline_pipeline)
        ok, reason, dense = True, "", 0
        signature = (_signature(compiled), _signature(base_compiled))
        if index not in reference:
            for source_pm, output in ((pipeline, compiled),
                                      (base_pipeline, base_compiled)):
                props = source_pm.property_set
                good, checked, why = oracle.check(
                    circuit, output, device, props["layout"], props["final_layout"])
                dense += checked
                if not good:
                    ok, reason = False, why
            reference[index] = signature
        elif reference[index] != signature:
            ok, reason = False, "output differs from the checked compile"
        print(json.dumps({"verified": verified, "baseline": baseline, "ok": ok,
                          "reason": reason, "dense_checked": dense,
                          "output_gates": compiled.size()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

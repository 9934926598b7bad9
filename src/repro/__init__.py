"""Giallar reproduction: push-button verification for a Qiskit-style compiler.

The package is organised as:

* :mod:`repro.circuit`, :mod:`repro.dag`, :mod:`repro.qasm`, :mod:`repro.linalg`,
  :mod:`repro.coupling` — the circuit IRs, OpenQASM 2 front-end, dense-matrix
  semantics, and device models;
* :mod:`repro.smt`, :mod:`repro.symbolic` — the solver and the quantum-circuit
  rewrite rules;
* :mod:`repro.verify`, :mod:`repro.utility`, :mod:`repro.passes` — the
  push-button verifier, the verified utility library, and the 44 verified
  compiler passes (plus the buggy case-study variants);
* :mod:`repro.transpiler`, :mod:`repro.bench` — the baseline compiler and the
  benchmark harnesses for Table 2, Figure 11, and the Section 7 case studies.
"""

__version__ = "0.1.0"

__all__ = [
    "AnalysisPass",
    "Gate",
    "GeneralPass",
    "QCircuit",
    "RoutingPass",
    "VerificationResult",
    "__version__",
    "verify_pass",
    "verify_passes",
]


def __getattr__(name):
    # PEP 562: the re-exports load on first use, so that importing one
    # submodule does not execute the whole package.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.circuit import Gate, QCircuit
    from repro.verify import (
        AnalysisPass,
        GeneralPass,
        RoutingPass,
        VerificationResult,
        verify_pass,
        verify_passes,
    )

    exports = locals()
    globals().update((key, exports[key]) for key in __all__ if key in exports)
    return exports[name]

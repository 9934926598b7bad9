"""The static pass analyser (the preprocessor of Section 4)."""

import pytest

from repro.errors import UnsupportedPassError
from repro.engine import fingerprint
from repro.passes import (
    ALL_VERIFIED_PASSES,
    BUGGY_PASSES,
    EXTENSION_PASSES,
    BasicSwap,
    CommutativeCancellation,
    CXCancellation,
    Optimize1qGates,
    RemoveDiagonalGatesBeforeMeasure,
    UNSUPPORTED_PASSES,
    Width,
)
from repro.passes.unsupported import (
    BIPMapping,
    CrosstalkAdaptiveSchedule,
    StochasticSwap,
    UnitarySynthesis,
)
from repro.verify import GeneralPass, analyze_pass


def test_loc_counts_are_positive_and_small():
    for pass_class in ALL_VERIFIED_PASSES:
        analysis = analyze_pass(pass_class)
        assert analysis.supported
        assert 0 < analysis.lines_of_code < 200


def test_template_detection_per_pass():
    assert "while_gate_remaining" in analyze_pass(CXCancellation).templates_used
    assert "while_gate_remaining" in analyze_pass(CommutativeCancellation).templates_used
    assert "collect_runs" in analyze_pass(Optimize1qGates).templates_used
    assert "route_each_gate" in analyze_pass(BasicSwap).templates_used
    assert analyze_pass(Width).templates_used == ()


def test_utility_detection_per_pass():
    assert "next_gate" in analyze_pass(CXCancellation).utilities_used
    assert "next_gate" in analyze_pass(RemoveDiagonalGatesBeforeMeasure).utilities_used
    assert "merge_1q_gates" in analyze_pass(Optimize1qGates).utilities_used


def test_branch_counts_reflect_the_implementation():
    assert analyze_pass(Width).branch_count == 0
    assert analyze_pass(CXCancellation).branch_count >= 2
    # The paper's observation: branch expansion stays small for real passes.
    for pass_class in ALL_VERIFIED_PASSES:
        assert analyze_pass(pass_class).branch_count <= 9


@pytest.mark.parametrize("pass_class", UNSUPPORTED_PASSES,
                         ids=[p.__name__ for p in UNSUPPORTED_PASSES])
def test_unsupported_passes_report_a_reason(pass_class):
    analysis = analyze_pass(pass_class)
    assert not analysis.supported
    assert analysis.unsupported_reason


def test_unsupported_reasons_match_the_papers_taxonomy():
    reasons = {
        cls.__name__: analyze_pass(cls).unsupported_reason for cls in
        (StochasticSwap, CrosstalkAdaptiveSchedule, BIPMapping, UnitarySynthesis)
    }
    assert "random" in reasons["StochasticSwap"].lower()
    assert "solver" in reasons["CrosstalkAdaptiveSchedule"].lower()
    assert "solver" in reasons["BIPMapping"].lower()
    assert "approximat" in reasons["UnitarySynthesis"].lower()
    pulse_level = [
        cls for cls in UNSUPPORTED_PASSES
        if "pulse" in analyze_pass(cls).unsupported_reason.lower()
    ]
    assert len(pulse_level) == 8


def test_raw_loops_are_flagged_unless_declared_bounded():
    class Unbounded(GeneralPass):
        def run(self, circuit):
            total = 0
            while total < 5:
                total += 1
            return circuit

    class Bounded(GeneralPass):
        raw_loops_are_bounded = True

        def run(self, circuit):
            for _ in range(3):
                pass
            return circuit

    assert not analyze_pass(Unbounded).supported
    assert analyze_pass(Bounded).supported


def test_class_without_run_or_reason_is_an_error():
    class NotAPass:
        pass

    with pytest.raises(UnsupportedPassError):
        analyze_pass(NotAPass)


def test_dynamic_class_without_source_is_unsupported():
    namespace = {}
    exec("class Dynamic:\n    def run(self, c):\n        return c\n", namespace)
    with pytest.raises(UnsupportedPassError, match="cannot retrieve source of Dynamic: "):
        analyze_pass(namespace["Dynamic"])


@pytest.mark.parametrize(
    "pass_class",
    list(ALL_VERIFIED_PASSES) + list(EXTENSION_PASSES) + list(BUGGY_PASSES)
    + list(UNSUPPORTED_PASSES),
    ids=lambda cls: cls.__name__)
def test_source_index_reading_matches_inspect(pass_class, monkeypatch):
    indexed = analyze_pass(pass_class)
    # Without the index the preprocessor falls back to inspect.getsource.
    monkeypatch.setattr(fingerprint, "indexed_class_source", lambda cls: None)
    assert analyze_pass(pass_class) == indexed

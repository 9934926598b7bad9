"""The indexed rulebase finds exactly what the reference linear scan finds."""

import random

import pytest

from repro.circuit.gate import Gate
from repro.prover.rulebase import RuleBase
from repro.smt.congruence import CongruenceClosure
from repro.smt.ematch import instantiate_rules
from repro.smt.solver import goal_atoms
from repro.smt.terms import CIRCUIT, Rule, app, eq, lit, var
from repro.prover.methods.congruence import apply_sequence, cancellation_rule_for, gate_term
from repro.verify import Fact, Subgoal, VerificationSession
from repro.verify import facts as F


def _closure_with(terms):
    closure = CongruenceClosure()
    for term in terms:
        closure.add_term(term)
    return closure


def _partitions_agree(left: CongruenceClosure, right: CongruenceClosure,
                      seed_terms):
    """Both closures derive exactly the same equalities over the seeds.

    The *banks* may differ in incidental instantiation intermediates (the
    two enumerations visit matches in different orders, so they materialise
    different ``lhs[sigma]`` terms on the way to the same fixed point); the
    observable contract is the induced equivalence over the caller's terms.
    """
    seeds = []
    for term in seed_terms:
        seeds.extend(term.subterms())
    for i, first in enumerate(seeds):
        for second in seeds[i + 1:]:
            assert left.equal(first, second) == right.equal(first, second), \
                (first, second)


def _run_both(rules, seed_terms, max_rounds=6):
    linear = _closure_with(seed_terms)
    instantiate_rules(list(rules), linear, max_rounds=max_rounds)
    indexed = _closure_with(seed_terms)
    RuleBase(rules).instantiate(indexed, max_rounds=max_rounds)
    _partitions_agree(linear, indexed, seed_terms)
    return linear, indexed


def test_cancellation_chain_matches_linear_scan():
    register = var("Q0", CIRCUIT)
    sequence = []
    for i in range(5):
        gate = gate_term(Gate("h", (i % 2,)))
        sequence += [gate, gate]
    goal = eq(apply_sequence(sequence, register), register)
    rules = [cancellation_rule_for(Gate("h", (i,))) for i in range(16)]
    seeds = [sub for atom in goal_atoms(goal) for sub in atom.subterms()]
    linear, indexed = _run_both(rules, seeds)
    assert linear.equal(*goal.args)
    assert indexed.equal(*goal.args)


def test_variable_and_literal_triggers_match_linear_scan():
    # Triggers without the arg-0 literal discriminator take the plain
    # head-indexed path; semantics must still agree with the scan.
    x = var("X")
    rules = [
        Rule("ff_cancel", app("f", app("f", x)), x),
        Rule("g_rewrite", app("g", x), app("h", x)),
    ]
    nested = app("f", app("f", app("f", app("f", app("g", lit("q"))))))
    _run_both(rules, [nested])


@pytest.mark.parametrize("seed", range(6))
def test_random_rule_banks_match_linear_scan(seed):
    """Property-style: random rule sets over random banks, same fixpoint."""
    rng = random.Random(seed)
    ops = ["f", "g", "h"]
    payloads = [1, 2, 3, "a"]

    def random_term(depth):
        if depth == 0 or rng.random() < 0.3:
            return lit(rng.choice(payloads))
        return app(rng.choice(ops), random_term(depth - 1),
                   sort="Qubit")

    x = var("X")
    rules = []
    for index in range(rng.randint(1, 6)):
        body = random_term(2)
        pattern = app(rng.choice(ops),
                      x if rng.random() < 0.5 else body, sort="Qubit")
        if x in pattern.variables():
            template = x
        else:
            template = random_term(1)
        rules.append(Rule(f"r{index}", pattern, template))
    bank = [random_term(4) for _ in range(8)]
    _run_both(rules, bank)


def test_discharge_collected_rules_match_linear_scan():
    """The real thing: rules collected from a verifier subgoal."""
    from repro.prover.methods.congruence import Encoder, FactBase, collect_rules
    from repro.prover.methods.congruence import apply_sequence as seq

    session = VerificationSession()
    session.begin_path(())
    first, second, third = (session.fresh_gate(n) for n in "abc")
    facts = [
        (Fact(F.IS_CX, (first.uid,)), True),
        (Fact(F.IS_CX, (second.uid,)), True),
        (Fact(F.SAME_QUBITS, (first.uid, second.uid)), True),
        (Fact(F.COMMUTES, (second.uid, third.uid)), True),
        (Fact(F.NAME_IS, (third.uid, "h")), True),
    ]
    subgoal = Subgoal(kind="equivalence", description="mixed",
                      lhs=(first, third, second), rhs=(third,),
                      path_facts=tuple(facts))
    factbase = FactBase(subgoal)
    encoder = Encoder(factbase)
    elements = list(subgoal.lhs) + list(subgoal.rhs)
    encoder.identify_equal_gates(elements)
    rules = collect_rules(encoder, factbase, elements)
    assert rules  # the comparison must not be vacuous

    register = var("Q0", CIRCUIT)
    goal = eq(seq(encoder.encode_sequence(subgoal.lhs), register),
              seq(encoder.encode_sequence(subgoal.rhs), register))
    seeds = [sub for atom in goal_atoms(goal) for sub in atom.subterms()]
    linear, indexed = _run_both(rules, seeds)
    assert linear.equal(*goal.args) == indexed.equal(*goal.args)


def test_fired_rules_are_reported():
    register = var("Q0", CIRCUIT)
    gate = gate_term(Gate("h", (0,)))
    goal = eq(apply_sequence([gate, gate], register), register)
    rules = [cancellation_rule_for(Gate("h", (0,))),
             cancellation_rule_for(Gate("h", (7,)))]  # the second is idle
    closure = _closure_with(
        [sub for atom in goal_atoms(goal) for sub in atom.subterms()])
    performed, fired = RuleBase(rules).instantiate(closure)
    assert performed >= 1
    assert fired == ("cancel_h_0",)


def test_empty_rule_set_short_circuits():
    closure = _closure_with([lit(1)])
    assert RuleBase([]).instantiate(closure) == (0, ())


def test_fingerprint_is_content_identity():
    rule_a = [cancellation_rule_for(Gate("h", (0,)))]
    rule_b = [cancellation_rule_for(Gate("h", (0,)))]
    rule_c = [cancellation_rule_for(Gate("h", (1,)))]
    assert RuleBase(rule_a).fingerprint() == RuleBase(rule_b).fingerprint()
    assert RuleBase(rule_a).fingerprint() != RuleBase(rule_c).fingerprint()

import copy
import hashlib
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from gen import is_singular_unfounded
from helpers import PI0, PI3, atom, atoms, cl, lit, lits, prog, rule, trail
from smasp import engine, oracles
from smasp.engine import (
    AugmentedState,
    TraceStep,
    Transition,
    analyze_conflict,
    applicable,
    applicable_decide,
    applicable_unfounded,
    applicable_unit_propagate,
    run,
    step,
    strategy_priority,
    unfounded_reason,
)
from smasp.model import Clause, SmaspTheory, Trail, TrailEntry, _make_record, positive_part
from smasp.trace import Trace, TraceHeader, Validation, validate_trace
from smasp.translations import completion, ed_completion

F1 = SmaspTheory((cl("a", "b"), cl("-a", "c")))


def state(trail_spec, reasons=None, learned=()):
    return AugmentedState(trail(trail_spec, reasons), tuple(learned))


class TestUnitPropagate:
    def test_single_unit_after_decision(self):
        out = applicable_unit_propagate(state("a*"), F1)
        assert out == [(lit("c"), cl("-a", "c"))]

    def test_nothing_unit_initially(self):
        assert applicable_unit_propagate(state(""), F1) == []

    def test_unit_clauses_of_the_alias_completion(self):
        t = SmaspTheory(ed_completion(PI0), PI0)
        out = applicable_unit_propagate(state(""), t)
        assert out == [(lit("b"), cl("b")), (lit("-c"), cl("-c"))]

    def test_fully_falsified_clause_offers_its_duals(self):
        t = SmaspTheory((cl("-a"),))
        assert applicable_unit_propagate(state("a*"), t) == [(lit("-a"), cl("-a"))]


class TestDecide:
    def test_all_unassigned_polarities_in_order(self):
        assert applicable_decide(state(""), F1) == [
            lit("a"), lit("-a"), lit("b"), lit("-b"), lit("c"), lit("-c")]

    def test_complete_trail_offers_nothing(self):
        assert applicable_decide(state("a* c b*"), F1) == []

    def test_mid_path_example(self):
        assert applicable_decide(state("a* c"), F1) == [lit("b"), lit("-b")]


class TestFailBacktrack:
    def test_fail_on_decision_free_inconsistency(self):
        s = state("a -a")
        assert applicable(s, F1, "Fail") == [Transition("Fail")]
        assert applicable(s, F1, "Backtrack") == []

    def test_backtrack_flips_last_decision(self):
        s = state("a* b -b")
        assert applicable(s, F1, "Fail") == []
        assert applicable(s, F1, "Backtrack") == [Transition("Backtrack", literal=lit("-a"))]

    def test_consistent_trail_offers_neither(self):
        s = state("a* b")
        assert applicable(s, F1, "Fail") == []
        assert applicable(s, F1, "Backtrack") == []

    def test_backtrack_keeps_the_trail_free_of_repeats(self):
        # unreachable, as Decide takes only unassigned atoms: flipping a*
        # would put -a on the trail twice
        s = state("-a a*")
        assert applicable(s, F1, "Backtrack") == []
        with pytest.raises(ValueError, match="inapplicable Backtrack"):
            step(s, Transition("Backtrack", literal=lit("-a")), F1)

    def test_failed_state_offers_nothing(self):
        s = AugmentedState(failed=True)
        assert all(applicable(s, F1, rule) == [] for rule in engine.ALL_RULES)


class TestUnfounded:
    def test_circular_program_offers_both_negations(self):
        t = SmaspTheory(completion(PI3), PI3)
        out = applicable_unfounded(state(""), t)
        assert out == [(lit("-a"), atoms("a b")), (lit("-b"), atoms("a b"))]

    def test_founded_atoms_offer_nothing(self):
        t = SmaspTheory(completion(PI0), PI0)
        assert applicable_unfounded(state("b"), t) == []

    def test_candidates_survive_decisions(self):
        t = SmaspTheory(completion(PI3), PI3)
        out = applicable_unfounded(state("a* b"), t)
        assert out == [(lit("-a"), atoms("a b")), (lit("-b"), atoms("a b"))]


class TestUnfoundedReason:
    def test_no_external_bodies(self):
        assert unfounded_reason(atom("a"), atoms("a b"), trail(""), PI3) == cl("-a")

    def test_external_body_contributes_its_falsified_literal(self):
        pi = prog(rule("a", pos="b"))
        assert unfounded_reason(atom("a"), atoms("a"), trail("-b"), pi) == cl("-a", "b")

    def test_internal_bodies_are_skipped(self):
        pi = prog(rule("c", pos="d"), rule("c", pos="c"))
        assert unfounded_reason(atom("c"), atoms("c"), trail("-d"), pi) == cl("-c", "d")

    def test_unfalsified_external_body_is_an_error(self):
        pi = prog(rule("a", pos="b"))
        with pytest.raises(ValueError):
            unfounded_reason(atom("a"), atoms("a"), trail(""), pi)

    def test_the_error_names_the_smallest_open_member_that_is_not_false(self):
        # no rule defines the o_i or f: all are open, and only f is false
        names = [f"o{i}" for i in range(8)]
        for low, high in itertools.combinations(names, 2):
            for witness in (f"{high} {low} f", f"f {low} {high}", f"{low} f {high}"):
                message = f"open member {atom(low)!r} of an allegedly unfounded set is not false"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    unfounded_reason(atom("f"), atoms(witness), trail("-f"), prog(rule("g")))


class TestAnalyzeConflict:
    def test_single_resolution_step(self):
        s = state("a* b -b", reasons={"b": cl("-a", "b"), "-b": cl("-a", "-b")})
        learned, asserting, plen = analyze_conflict(s, cl("-a", "-b"))
        assert learned == cl("-a")
        assert asserting == lit("-a")
        assert plen == 0

    def test_already_asserting_clause_is_returned_unchanged(self):
        s = state("a* -a", reasons={"-a": cl("-a")}, learned=[cl("-a")])
        learned, asserting, plen = analyze_conflict(s, cl("-a"))
        assert (learned, asserting, plen) == (cl("-a"), lit("-a"), 0)

    def test_unfounded_reason_conflict(self):
        s = state("a* b -a", reasons={"b": cl("-a", "b"), "-a": cl("-a")})
        learned, asserting, plen = analyze_conflict(s, cl("-a"))
        assert (learned, asserting, plen) == (cl("-a"), lit("-a"), 0)

    def test_requires_an_inconsistent_trail_with_a_decision(self):
        with pytest.raises(ValueError):
            analyze_conflict(state("a b"), cl("-a"))


class TestStep:
    def test_decide_marks_the_literal(self):
        s = step(state(""), Transition("Decide", literal=lit("a")), F1)
        assert s.trail.entries[0].is_decision

    def test_unit_propagate_attaches_reason(self):
        s = step(state("a*"), Transition("UnitPropagate", literal=lit("c"),
                                         clause=cl("-a", "c")), F1)
        assert s.trail.entries[-1].reason == cl("-a", "c")

    def test_backjump_truncates_and_asserts(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        s = state("a* b -a", reasons={"b": cl("-a", "b"), "-a": cl("-a")})
        nxt = step(s, Transition("Backjump", literal=lit("-a"), clause=cl("-a"),
                                 prefix_length=0), t)
        assert tuple(e.literal for e in nxt.trail) == (lit("-a"),)
        assert not nxt.trail.entries[0].is_decision

    def test_backjump_literal_outside_the_theory_is_rejected(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        s = state("a* b -a", reasons={"b": cl("-a", "b"), "-a": cl("-a")})
        with pytest.raises(ValueError, match="outside the theory"):
            step(s, Transition("Backjump", literal=lit("z"), clause=cl("z"),
                               prefix_length=0), t)

    def test_unfounded_literal_outside_the_theory_is_rejected(self):
        t = SmaspTheory(completion(PI3), PI3)
        with pytest.raises(ValueError, match="inapplicable Unfounded"):
            step(state(""), Transition("Unfounded", literal=lit("-z"),
                                       witness=atoms("z")), t)

    def test_inapplicable_transition_is_an_error(self):
        with pytest.raises(ValueError):
            step(state(""), Transition("UnitPropagate", literal=lit("c"),
                                       clause=cl("-a", "c")), F1)

    def test_learn_appends_to_the_store(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        s = step(state("-a"), Transition("Learn", clause=cl("-a")), t)
        assert s.learned == (cl("-a"),)
        with pytest.raises(ValueError):
            step(s, Transition("Learn", clause=cl("-a")), t)


class TestStrategyPriority:
    def test_eager_decision_mode_delays_unfoundedness(self):
        groups = strategy_priority("cmodels")
        assert groups.index(("Decide",)) < groups.index(("Unfounded",))

    def test_eager_unfoundedness_mode(self):
        groups = strategy_priority("clasp")
        assert groups.index(("Unfounded",)) < groups.index(("Decide",))

    def test_definitional_mode_matches_clasp(self):
        assert strategy_priority("minisatid") == strategy_priority("clasp")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            strategy_priority("chronological")


class TestRun:
    def test_strategy_must_rank_conflict_handling_first(self):
        late = engine.Strategy("late", (("UnitPropagate",), ("Fail", "Backtrack"), ("Decide",)),
                               learning=False)
        with pytest.raises(ValueError):
            run(F1, late)

    def test_plain_backtracking_path(self):
        out = run(F1, "dpll")
        assert out.verdict == engine.VERDICT_MODEL
        assert [(s.transition.rule, s.transition.literal) for s in out.steps] == [
            ("Decide", lit("a")), ("UnitPropagate", lit("c")), ("Decide", lit("b"))]
        assert out.model == lits("a b c")

    def test_learning_run_on_the_alias_completion(self):
        t = SmaspTheory(ed_completion(PI0), PI0)
        out = run(t, "clasp")
        assert out.verdict == engine.VERDICT_MODEL
        transitions = [s.transition for s in out.steps]
        assert [tr.rule for tr in transitions] == ["UnitPropagateLearn"] * 4
        assert [tr.literal for tr in transitions[:2]] == [lit("b"), lit("-c")]
        assert transitions[2].literal.atom.name == "f{b,not c}"
        assert transitions[3].literal == lit("a")
        assert positive_part(out.model) & set(PI0.atoms) == set(atoms("a b"))

    def test_conflict_driven_run_with_unfounded_learning(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        out = run(t, "cmodels")
        assert out.verdict == engine.VERDICT_MODEL
        assert [(s.transition.rule, s.transition.literal) for s in out.steps] == [
            ("Decide", lit("a")),
            ("UnitPropagateLearn", lit("b")),
            ("Unfounded", lit("-a")),
            ("Backjump", lit("-a")),
            ("Learn", None),
            ("UnitPropagateLearn", lit("-b")),
        ]
        assert out.steps[4].transition.clause == cl("-a")
        assert out.model == lits("-a -b")

    def test_unsatisfiable_input(self):
        t = SmaspTheory((cl("x1"), cl("-x1")))
        for mode in engine.MODES:
            assert run(t, mode).verdict == engine.VERDICT_UNSAT

    def test_limit_verdict(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        assert run(t, "cmodels", max_steps=2).verdict == engine.VERDICT_LIMIT


class TestSingularUnfounded:
    def test_unit_propagation_alongside_unfoundedness(self):
        t = SmaspTheory(completion(PI3), PI3)
        assert is_singular_unfounded(state("b*"), t)

    def test_only_decide_alongside_unfoundedness(self):
        t = SmaspTheory(completion(PI3), PI3)
        assert not is_singular_unfounded(state(""), t)

    def test_empty_unfounded_set(self):
        t = SmaspTheory(completion(PI0), PI0)
        assert not is_singular_unfounded(state(""), t)


def _theories_for(pi):
    return (SmaspTheory(completion(pi), pi), SmaspTheory(ed_completion(pi), pi))


def _replay_states(theory, steps):
    """Reconstruct the state sequence of a recorded run."""
    s = AugmentedState()
    out = [s]
    for st in steps:
        s = step(s, st.transition, theory)
        out.append(s)
    return out


def test_runs_are_sound_complete_and_acyclic_on_random_theories():
    rng = random.Random(101)
    for _ in range(40):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        for theory in _theories_for(pi):
            has_model = bool(oracles.enumerate_smasp_models(theory))
            for mode in ("smodels", "cmodels", "clasp", "minisatid"):
                out = run(theory, mode)
                assert out.verdict != engine.VERDICT_LIMIT
                assert (out.verdict == engine.VERDICT_MODEL) == has_model
                if out.model is not None:
                    assert oracles.is_smasp_model(theory, out.model)
                # no augmented state is ever revisited: the learned
                # store only grows, so (trail digest, store size) pairs
                # identify states
                learned_size = 0
                seen_states = set()
                for s in out.steps:
                    if s.transition.rule == "Learn":
                        learned_size += 1
                    key = (s.trail_digest, learned_size)
                    assert key not in seen_states
                    seen_states.add(key)


def test_reason_and_learned_contracts_on_learning_runs():
    rng = random.Random(103)
    checked = 0
    for _ in range(12):
        pi = gen.random_program(rng, n_atoms=3, max_rules=5)
        theory = SmaspTheory(ed_completion(pi), pi)
        if len(theory.atoms) > 10:
            continue
        out = run(theory, "clasp")
        states = _replay_states(theory, out.steps)
        for s in states:
            prefix = s.trail.truncate(s.trail.first_conflict_index)
            seen = set()
            for e in prefix.entries:
                if not e.is_decision:
                    assert e.reason is not None
                    assert e.literal in e.reason
                    rest = [l for l in e.reason if l != e.literal]
                    assert all(l.dual in seen for l in rest)
                    assert oracles.entails(theory, e.reason)
                    checked += 1
                seen.add(e.literal)
            for c in s.learned:
                assert oracles.entails(theory, c)
    assert checked > 0


def test_eager_unfounded_mode_never_takes_singular_edges():
    rng = random.Random(107)
    for _ in range(25):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        theory = SmaspTheory(completion(pi), pi)
        out = run(theory, "smodels")
        states = _replay_states(theory, out.steps)
        for st, before in zip(out.steps, states):
            if st.transition.rule == "Unfounded":
                assert not is_singular_unfounded(before, theory)


def test_analyze_conflict_output_shape_on_random_conflicts():
    # learned clause is falsified by the consistent prefix and has one
    # literal at the deepest involved level
    rng = random.Random(109)
    seen = 0
    for _ in range(40):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        theory = SmaspTheory(ed_completion(pi), pi)
        out = run(theory, "clasp")
        states = _replay_states(theory, out.steps)
        for st, before in zip(out.steps, states):
            tr = st.transition
            if tr.rule != "Backjump":
                continue
            seen += 1
            prefix = before.trail.truncate(before.trail.first_conflict_index)
            level = {e.literal: lv for e, lv in zip(prefix, _levels(prefix))}
            levels = [level[l.dual] for l in tr.clause]
            top = max(levels)
            assert levels.count(top) == 1
            assert level[tr.literal.dual] == top
    assert seen > 0


def _levels(trail):
    """Decision level of each entry: entries before the first decision
    are level 0, and a decision opens the next level."""
    out, level = [], 0
    for e in trail:
        level += e.is_decision
        out.append(level)
    return out


def _rescanning_analysis(state, conflicting):
    """Conflict analysis that looks for each pivot from the end of the
    prefix, at the conflict level, as :func:`engine.analyze_conflict`
    did before it kept its place between resolutions."""
    prefix = state.trail.truncate(state.trail.first_conflict_index)
    level = {e.literal: lv for e, lv in zip(prefix, _levels(prefix))}
    current = set(conflicting.literals)
    while True:
        dec = max(level[l.dual] for l in current)
        at_dec = [l for l in current if level[l.dual] == dec]
        if len(at_dec) == 1:
            break
        pivot = next(e for e in reversed(prefix.entries) if not e.is_decision
                     and level[e.literal] == dec and e.literal.dual in current)
        current.discard(pivot.literal.dual)
        current.update(l for l in pivot.reason if l != pivot.literal)
    return Clause(tuple(current)), at_dec[0], state.trail.decision_indices[max(dec, 1) - 1]


def _completed_programs():
    """ED-completed random programs; under cmodels program 277 (index
    276) backjumps to level 0."""
    rng = random.Random(3)
    programs = [gen.random_program(rng, n_atoms=6, max_rules=10) for _ in range(300)]
    return [SmaspTheory(ed_completion(pi), pi) for pi in programs]


_ANALYSIS_COHORTS = {
    **{f"3sat-{n}-{seed}": (lambda n=n, seed=seed: [gen.random_3sat(random.Random(seed), n)])
       for n in (14, 30) for seed in (1, 2, 3)},
    "programs": _completed_programs,
}


@pytest.mark.parametrize("mode", ["clasp", "cmodels"])
@pytest.mark.parametrize("cohort", sorted(_ANALYSIS_COHORTS))
def test_one_pass_conflict_analysis_equals_rescanning_from_the_end(cohort, mode):
    """Every Backjump of the runs: the counting analysis learns what the
    rescanning one does. Learned clauses on 3-SAT span several levels;
    the programs include a level-0 Backjump under cmodels."""
    seen = level_zero = 0
    for theory in _ANALYSIS_COHORTS[cohort]():
        out = run(theory, mode, self_check=False)
        for s, before in zip(out.steps, _replay_states(theory, out.steps)):
            if s.transition.rule != "Backjump":
                continue
            seen += 1
            conflicting = engine.conflicting_clause(before)
            learned, asserting, kept = analyze_conflict(before, conflicting)
            assert (learned, asserting, kept) == _rescanning_analysis(before, conflicting)
            assert (s.transition.clause, s.transition.literal, s.transition.prefix_length) == (
                learned, asserting, kept)
            literals = [e.literal for e in before.trail.entries]
            level_zero += _levels(before.trail)[literals.index(asserting.dual)] == 0
    assert seen > 0
    if cohort == "programs" and mode == "cmodels":
        assert level_zero > 0


# a, then b and c propagated at level 1 and a clash on c; the analysis of
# -b | -c resolves on c, then on b
_ANALYSED = "a* b c -c"


@pytest.mark.parametrize("reasons, message", [
    ({"b": cl("b", "d"), "c": cl("-a", "c")},
     "clause literal d is not falsified by the trail prefix"),
    ({"c": cl("-a", "c")}, "no resolvable literal; reason bookkeeping is broken"),
], ids=["reason-literal-not-falsified", "pivot-without-reason"])
def test_conflict_analysis_rejects_broken_reasons(reasons, message):
    before = state(_ANALYSED, {**reasons, "-c": cl("-b", "-c")})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        analyze_conflict(before, cl("-b", "-c"))


def test_conflict_analysis_rejects_a_reason_literal_above_the_conflict_level():
    # b's reason holds -d, falsified by the level-2 decision d after it
    before = state("a* b c d* e -e", {"b": cl("-a", "b", "-d"), "c": cl("-a", "c")})
    with pytest.raises(ValueError, match="^reason literal -d lies above the conflict level$"):
        analyze_conflict(before, cl("-b", "-c"))


def test_conflict_analysis_below_the_top_level_passes_its_propagations():
    # -b | -c lies wholly at level 0, below the decision d; the scan
    # passes e, a level-1 propagation, then resolves on c and on b, as a
    # level-0 Backjump under cmodels does
    reasons = {"a": cl("a"), "b": cl("-a", "b"), "c": cl("-a", "c"), "e": cl("-d", "e")}
    before = state("a b c d* e -c", reasons)
    conflicting = cl("-b", "-c")
    assert analyze_conflict(before, conflicting) == (cl("-a"), lit("-a"), 3)
    assert _rescanning_analysis(before, conflicting) == (cl("-a"), lit("-a"), 3)


@pytest.mark.parametrize("value, field", [
    (Transition("Decide", literal=lit("a")), "literal"),
    (TraceStep(1, Transition("Fail"), "0" * 16), "index"),
    (AugmentedState(), "learned"),
    (TrailEntry(lit("a")), "reason"),
    (engine.for_mode("clasp"), "priority"),
    (engine._context(F1), "up_sources"),
    (run(F1, "dpll"), "verdict"),
    (oracles.well_founded_model(PI0), "literals"),
    (TraceHeader("dpll", "", "0.1.0"), "version"),
    (Trace(TraceHeader("dpll", ""), ()), "steps"),
    (Validation(True), "ok"),
])
def test_step_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls, fields", [
    (Transition, ("Backjump", lit("-a"), cl("-a", "b"), None, 2)),
    (Transition, ("Decide", lit("a"), None, None, None)),
    (AugmentedState, (trail("a* b", {"b": cl("-a", "b")}), (cl("a"),), False)),
    (TraceStep, (3, Transition("Fail"), "0" * 16)),
    (TrailEntry, (lit("-b"), False, cl("-b"))),
], ids=["Transition", "Transition-Decide", "AugmentedState", "TraceStep", "TrailEntry"])
def test_records_built_positionally_equal_records_built_by_keyword(cls, fields):
    made = _make_record(cls, fields)
    built = cls(**dict(zip(cls._fields, fields)))
    assert type(made) is type(built) is cls
    assert tuple(made) == tuple(built) == fields
    assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
    assert all(getattr(made, f) is getattr(built, f) for f in cls._fields)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_bulk_built_index_equals_one_built_clause_by_clause(rng, alias_completion):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=8)
    extra = gen.random_clauses(rng, gen.POOL, max_clauses=6)
    clauses = (ed_completion(pi) if alias_completion else completion(pi)) + extra
    ctx = engine._context(SmaspTheory(clauses, pi))
    bulk = engine.PropagationIndex(ctx)
    ref = engine.PropagationIndex(ctx._replace(up_sources=()))
    for c in ctx.up_sources:
        ref._add(c)
    assert bulk.n_sources == len(ref.clauses) == len(ctx.up_sources)
    assert bulk.clauses == ref.clauses
    assert bulk.codes == ref.codes
    assert bulk.n_true == ref.n_true and bulk.n_open == ref.n_open
    assert bulk.occurs == ref.occurs
    assert sorted(bulk.pending) == sorted(ref.pending)
    assert bulk.pending == sorted(bulk.pending)  # a sorted list is a heap


def _assert_digests_follow_the_definition(theory, mode):
    """Replay a run along an :class:`engine.Walk`, as ``run`` and
    ``validate_trace`` both do: after every step the new trail's
    ``Trail.digest``, the recorded digest and ``digest_trail`` of the
    trail all agree."""
    out = run(theory, mode, self_check=False)
    walk = engine.Walk(theory)
    assert walk.state.trail.digest == engine.digest_trail(walk.state.trail)
    for s in out.steps:
        digest = walk.advance(s.transition)
        assert digest == walk.state.trail.digest == engine.digest_trail(walk.state.trail) \
            == s.trail_digest, (mode, s.index, s.transition.rule)
    return {s.transition.rule for s in out.steps}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_trail_digest_matches_the_definition_on_random_programs(rng):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=10)
    for mode, theory in gen.theories_per_mode(pi):
        _assert_digests_follow_the_definition(theory, mode)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(10, 18))
def test_trail_digest_matches_the_definition_on_random_3sat(seed, n):
    theory = gen.random_3sat(random.Random(seed), n)
    for mode in engine.MODES:
        _assert_digests_follow_the_definition(theory, mode)


def test_trail_digest_sees_every_trail_changing_rule():
    seen = set()
    for seed in range(6):
        theory = gen.random_3sat(random.Random(seed), 14)
        for mode in ("dpll", "clasp"):
            seen |= _assert_digests_follow_the_definition(theory, mode)
    assert seen >= {"Decide", "UnitPropagate", "UnitPropagateLearn", "Backtrack",
                    "Backjump", "Learn", "Fail"}
    unfounded = SmaspTheory(ed_completion(PI3), PI3)
    assert "Unfounded" in _assert_digests_follow_the_definition(unfounded, "clasp")


def test_trail_digest_after_truncate():
    full = Trail()
    for literal, decision in (("a", True), ("b", False), ("-c", True), ("d", False), ("-b", False)):
        full = full.append(lit(literal), decision)
        assert full.digest == engine.digest_trail(full)
    assert full.digest == engine.digest_trail(trail("a* b -c* d -b"))
    assert full.first_conflict_index == 4
    for cut in map(full.truncate, range(len(full) + 1)):
        # append to the cut before its own digest is asked for, then ask
        longer = cut.append(lit("e"), decision=True).append(lit("-f"))
        assert longer.digest == engine.digest_trail(longer)
        assert cut.digest == engine.digest_trail(cut)


def test_trails_copy_deepcopy_and_pickle_equal():
    appended = trail("a* b").append(lit("-c"), reason=cl("-a", "-c")).append(lit("d"), True)
    for original in (trail("a* b"), appended):  # without and with a sha256 state
        for other in (copy.copy(original), copy.deepcopy(original),
                      pickle.loads(pickle.dumps(original))):
            assert other == original and other.entries == original.entries
            assert other.digest == original.digest == engine.digest_trail(original)
            assert other.append(lit("e")).digest == original.append(lit("e")).digest


@pytest.mark.parametrize("mode", ["dpll", "clasp"])
def test_a_run_and_a_strict_replay_each_look_the_context_up_once(monkeypatch, mode):
    theory = gen.random_3sat(random.Random(3), 20)
    lookups = []
    context = engine._context

    def counted(t):
        lookups.append(t)
        return context(t)

    monkeypatch.setattr(engine, "_context", counted)
    out = run(theory, mode)
    assert len(lookups) <= 1 and len(out.steps) > 20
    del lookups[:]
    trace = Trace(TraceHeader(mode, ""), out.steps)
    assert validate_trace(trace, theory, mode, strict_strategy=True) == Validation(True)
    assert len(lookups) <= 1


@pytest.mark.parametrize("seed", [2, 3])
@pytest.mark.parametrize("mode", ["dpll", "cmodels", "clasp"])
def test_a_run_truncates_its_trail_once_per_backtrack_or_backjump(monkeypatch, mode, seed):
    """Conflict analysis reads the trail below its first conflict in
    place, so only the step itself cuts the trail."""
    theory = gen.random_3sat(random.Random(seed), 18)
    cuts = []
    truncate = Trail.truncate
    monkeypatch.setattr(Trail, "truncate",
                        lambda t, length: cuts.append(length) or truncate(t, length))
    out = run(theory, mode)
    jumps = out.stats.get("Backtrack", 0) + out.stats.get("Backjump", 0)
    assert jumps > 0 and len(cuts) == jumps


def test_trail_digest_is_the_specified_hash():
    t = trail("a* -b c -d*")
    expected = hashlib.sha256(b"a@d -b c -d@d").hexdigest()[:16]
    assert engine.digest_trail(t) == expected

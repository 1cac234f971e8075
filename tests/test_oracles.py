import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import PI0, PI2, PI3, PI4, F0, atoms, cl, lits, prog, rule
from smasp import oracles, translations
from smasp.model import (
    Atom,
    CapExceeded,
    Clause,
    Literal,
    PcidTheory,
    Program,
    SmaspTheory,
    positive_part,
    satisfies,
)
from smasp.oracles import (
    clause_models,
    enumerate_answer_sets,
    enumerate_assignments,
    enumerate_pcid_models,
    enumerate_smasp_models,
    entails,
    greatest_unfounded_set,
    is_answer_set,
    is_input_answer_set,
    is_pcid_model,
    is_smasp_model,
    is_total,
    is_total_on,
    is_unfounded,
    reduct,
    w_fix,
    w_step,
    well_founded_model,
)
from smasp.translations import clausal, open_program


def heads_pos(pi):
    return {(r.head, r.pos, r.neg, r.negneg) for r in pi}


class TestReduct:
    def test_keeps_satisfied_negation_free(self):
        red = reduct(PI0, set(atoms("a b")))
        assert heads_pos(red) == heads_pos(prog(rule("a", pos="b"), rule("b")))

    def test_drops_rule_whose_negation_is_blocked(self):
        red = reduct(PI0, set(atoms("a b c")))
        assert heads_pos(red) == heads_pos(prog(rule("b")))

    def test_double_negation_requires_membership(self):
        assert reduct(prog(rule("c", negneg="c")), set()) == Program()


class TestAnswerSets:
    def test_running_example(self):
        assert is_answer_set(PI0, set(atoms("a b")))

    def test_circular_support_is_rejected(self):
        assert not is_answer_set(PI3, set(atoms("a b")))

    def test_empty_set_is_closed_and_minimal(self):
        assert is_answer_set(PI3, set())

    def test_enumeration_running_example(self):
        assert enumerate_answer_sets(PI0) == (frozenset(atoms("a b")),)

    def test_enumeration_circular(self):
        assert enumerate_answer_sets(PI3) == (frozenset(),)

    def test_enumeration_empty_program(self):
        assert enumerate_answer_sets(Program()) == (frozenset(),)

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "DEFAULT_ENUMERATION_CAP", 2)
        with pytest.raises(CapExceeded):
            enumerate_answer_sets(PI0)


class TestInputAnswerSets:
    def test_open_atom_may_enter(self):
        assert is_input_answer_set(PI0, set(atoms("b c")))

    def test_closed_answer_set_stays(self):
        assert is_input_answer_set(PI0, set(atoms("a b")))

    def test_blocked_rule_rejects(self):
        assert not is_input_answer_set(PI0, set(atoms("a b c")))


class TestUnfounded:
    def test_self_support_is_unfounded(self):
        assert is_unfounded(atoms("a"), frozenset(), PI2)

    def test_mutual_support_is_unfounded(self):
        assert is_unfounded(atoms("a b"), frozenset(), PI3)

    def test_fact_defeats_unfoundedness(self):
        assert not is_unfounded(atoms("b"), frozenset(), PI0)

    def test_inconsistent_context_is_an_error(self):
        with pytest.raises(ValueError):
            is_unfounded(atoms("a"), lits("a -a"), PI2)


class TestGreatestUnfoundedSet:
    def test_running_example(self):
        assert greatest_unfounded_set(frozenset(), PI0) == frozenset(atoms("c"))

    def test_opened_program_founds_everything(self):
        opened = open_program(PI0, PI0.atoms)
        assert greatest_unfounded_set(lits("b"), opened) == frozenset()

    def test_self_support(self):
        assert greatest_unfounded_set(frozenset(), PI2) == frozenset(atoms("a"))

    def test_equals_union_of_all_unfounded_subsets(self):
        rng = random.Random(23)
        for _ in range(60):
            pi = gen.random_program(rng, n_atoms=4, max_rules=6)
            m = gen.random_consistent_literals(rng, pi.atoms)
            union = set()
            universe = pi.atoms
            for size in range(len(universe) + 1):
                for u in itertools.combinations(universe, size):
                    if u and is_unfounded(u, m, pi):
                        union.update(u)
            assert greatest_unfounded_set(m, pi) == frozenset(union)


class TestWellFoundedOperator:
    def test_first_step_running_example(self):
        assert w_step(PI0, frozenset()) == lits("b -c")

    def test_second_step_fires_rule(self):
        assert w_step(PI0, lits("b -c")) == lits("a b -c")

    def test_inconsistent_input_saturates(self):
        assert w_step(PI0, lits("a -a")) == lits("a b c -a -b -c")

    def test_constraints_are_rejected(self):
        with pytest.raises(ValueError):
            w_step(prog(rule(None, pos="a")), frozenset())

    def test_fixpoint_running_example(self):
        assert w_fix(PI0, frozenset()) == lits("a b -c")

    def test_fixpoint_from_open_assumption(self):
        opened = open_program(PI0, PI0.atoms)
        assert w_fix(opened, lits("c")) == lits("b c -a")

    def test_fixpoint_of_choice_rule_is_empty(self):
        assert w_fix(PI4, frozenset()) == frozenset()

    def test_increasing_and_monotone(self):
        rng = random.Random(31)
        for _ in range(80):
            pi = gen.random_weakly_normal_program(rng)
            m1 = gen.random_consistent_literals(rng, pi.atoms)
            m2 = m1 | gen.random_consistent_literals(rng, pi.atoms)
            assert m1 <= w_step(pi, m1)
            if oracles.is_consistent_literals(m2) or True:
                assert w_step(pi, m1) <= w_step(pi, m2)


class TestWellFoundedModel:
    def test_total_running_example(self):
        wfm = well_founded_model(PI0)
        assert wfm.literals == lits("a b -c")
        assert wfm.is_total

    def test_choice_rule_leaves_atom_undefined(self):
        wfm = well_founded_model(PI4)
        assert wfm.literals == frozenset()
        assert not wfm.is_total

    def test_circular_atoms_are_false(self):
        wfm = well_founded_model(PI3)
        assert wfm.literals == lits("-a -b")
        assert wfm.is_total

    def test_consistent_on_random_programs(self):
        rng = random.Random(37)
        for _ in range(80):
            pi = gen.random_weakly_normal_program(rng)
            assert oracles.is_consistent_literals(well_founded_model(pi).literals)


class TestPcidModels:
    def test_both_models_accepted(self):
        t = PcidTheory(F0, PI0)
        assert is_pcid_model(t, lits("b -c a"))
        assert is_pcid_model(t, lits("b c -a"))

    def test_clause_model_failing_the_fixpoint_condition(self):
        assert not is_pcid_model(PcidTheory(F0, PI0), lits("-b -c a"))


class TestSmaspModels:
    def test_both_models_accepted(self):
        t = SmaspTheory(F0, PI0)
        assert is_smasp_model(t, lits("b -c a"))
        assert is_smasp_model(t, lits("b c -a"))

    def test_fact_must_enter_every_model(self):
        assert not is_smasp_model(SmaspTheory(F0, PI0), lits("-b -c -a"))


class TestEntailment:
    def test_shared_atom_is_entailed(self):
        assert entails(SmaspTheory(F0, PI0), cl("b"))

    def test_contingent_literal_is_not(self):
        assert not entails(SmaspTheory(F0, PI0), cl("-c"))

    def test_self_supported_atom_is_refuted(self):
        assert entails(SmaspTheory((), PI2), cl("-a"))

    def test_foreign_atoms_are_an_error(self):
        with pytest.raises(ValueError):
            entails(SmaspTheory(F0, PI0), cl("z"))


class TestTotality:
    def test_running_example_is_total(self):
        assert is_total(PcidTheory(F0, PI0))

    def test_closed_choice_is_not_total(self):
        assert not is_total(PcidTheory((), PI4))

    def test_empty_theory_is_vacuously_total(self):
        assert is_total(PcidTheory((), Program()))


def filtered(atoms, keep):
    """The definitional enumeration: every assignment, then the test."""
    return tuple(m for m in enumerate_assignments(atoms) if keep(m))


class TestClauseModels:
    def test_empty_universe_has_one_empty_assignment(self):
        assert tuple(clause_models((), ())) == (frozenset(),)

    def test_empty_universe_falsifies_every_clause(self):
        assert tuple(clause_models((cl("a"),), ())) == ()

    def test_clause_without_a_literal_over_the_universe_has_no_model(self):
        assert tuple(clause_models((cl("a", "-b"), cl("z")), atoms("a b"))) == ()

    def test_literals_outside_the_universe_are_false(self):
        assert tuple(clause_models((cl("-a", "z"),), atoms("a b"))) == (
            lits("-a b"), lits("-a -b"))

    def test_unmentioned_atoms_range_freely_in_enumeration_order(self):
        assert tuple(clause_models((cl("b"),), atoms("a b c"))) == (
            lits("a b c"), lits("a b -c"), lits("-a b c"), lits("-a b -c"))

    def test_enumerate_models_respects_the_cap(self, monkeypatch):
        monkeypatch.setattr(oracles, "DEFAULT_ENUMERATION_CAP", 2)
        with pytest.raises(CapExceeded):
            gen.enumerate_models((), atoms("a b c"))


OUTSIDE = (Atom("y"), Atom("z"))
_literals = st.builds(Literal, st.sampled_from(gen.POOL8 + OUTSIDE), st.booleans())
_clauses = st.lists(st.lists(_literals, min_size=1, max_size=4).map(
    lambda ls: Clause(tuple(ls))), max_size=6)


@settings(max_examples=400, deadline=None)
@given(_clauses, st.lists(st.sampled_from(gen.POOL8), max_size=8, unique=True))
def test_clause_models_is_the_filtered_enumeration(clauses, universe):
    # universes of 0-8 atoms, some unmentioned; clauses may reach outside
    # the universe, partly or entirely
    assert tuple(clause_models(clauses, universe)) == filtered(
        universe, lambda m: satisfies(m, clauses))


def test_model_enumerators_are_the_filtered_enumeration():
    rng = random.Random(71)
    for _ in range(60):
        pi = gen.random_program(rng, n_atoms=5, max_rules=6)
        t = SmaspTheory(gen.random_clauses(rng, gen.POOL), pi)
        assert enumerate_smasp_models(t) == filtered(t.atoms, lambda m: is_smasp_model(t, m))
        goal = gen.random_clauses(rng, t.atoms, max_clauses=2)
        assert entails(t, goal) == all(
            satisfies(m, goal) for m in filtered(t.atoms, lambda m: is_smasp_model(t, m)))
        wn = gen.random_weakly_normal_program(rng, n_atoms=5, max_rules=6)
        p = PcidTheory(gen.random_clauses(rng, gen.POOL), wn)
        assert enumerate_pcid_models(p) == filtered(p.atoms, lambda m: is_pcid_model(p, m))
        assert is_total(p) == all(
            is_total_on(p, m) for m in filtered(p.atoms, lambda m: satisfies(m, p.clauses)))


def test_pcid_enumerators_open_the_program_once_per_call(monkeypatch):
    calls = []
    real = translations.open_program

    def counted(pi, atoms):
        calls.append(pi)
        return real(pi, atoms)

    rng = random.Random(73)
    for _ in range(40):
        wn = gen.random_weakly_normal_program(rng, n_atoms=5, max_rules=6)
        p = PcidTheory(gen.random_clauses(rng, gen.POOL), wn)
        expected_models = filtered(p.atoms, lambda m: is_pcid_model(p, m))
        expected_total = all(
            is_total_on(p, m) for m in filtered(p.atoms, lambda m: satisfies(m, p.clauses)))
        with monkeypatch.context() as patch:
            patch.setattr(translations, "open_program", counted)
            calls.clear()
            assert enumerate_pcid_models(p) == expected_models
            assert len(calls) <= 1
            calls.clear()
            assert is_total(p) == expected_total
            assert len(calls) <= 1


class TestSimplifyBy:
    def test_satisfied_negation_is_erased(self):
        simplified = gen.simplify_by(PI0, lits("-c"))
        assert heads_pos(simplified) == heads_pos(prog(rule("a", pos="b"), rule("b")))

    def test_contradicted_body_drops_the_rule(self):
        assert heads_pos(gen.simplify_by(PI0, lits("c"))) == heads_pos(prog(rule("b")))

    def test_empty_context_is_identity(self):
        assert gen.simplify_by(PI0, frozenset()) == PI0

    def test_inconsistent_context_is_an_error(self):
        with pytest.raises(ValueError):
            gen.simplify_by(PI0, lits("c -c"))


def test_input_answer_sets_within_heads_are_answer_sets():
    # inside the head set the two notions coincide
    rng = random.Random(41)
    for _ in range(60):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        heads = sorted(pi.heads, key=lambda a: a.key)
        for size in range(len(heads) + 1):
            for x in itertools.combinations(heads, size):
                assert is_input_answer_set(pi, x) == is_answer_set(pi, x)


def test_input_answer_sets_with_foreign_inputs_project_to_answer_sets():
    # inputs disjoint from the program's atoms add nothing semantically
    rng = random.Random(43)
    extra = atoms("x y")
    for _ in range(60):
        pi = gen.random_program(rng, n_atoms=3, max_rules=5)
        heads = sorted(pi.heads, key=lambda a: a.key)
        for size in range(len(heads) + 1):
            for core in itertools.combinations(heads, size):
                for outside_size in range(len(extra) + 1):
                    for outside in itertools.combinations(extra, outside_size):
                        x = set(core) | set(outside)
                        if (x - pi.heads) & set(pi.atoms):
                            continue
                        assert is_input_answer_set(pi, x) == is_answer_set(pi, x & pi.heads)


def test_answer_sets_are_models_without_unfounded_subsets():
    # complete consistent assignments: stability is modelhood plus the
    # absence of non-empty unfounded subsets of the positive part
    rng = random.Random(47)
    for _ in range(50):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        reading = clausal(pi)
        for m in enumerate_assignments(pi.atoms):
            pos = positive_part(m)
            lhs = is_answer_set(pi, pos)
            no_unfounded = not any(
                is_unfounded(u, m, pi)
                for size in range(1, len(pos) + 1)
                for u in itertools.combinations(sorted(pos, key=lambda a: a.key), size))
            rhs = satisfies(m, reading) and no_unfounded
            assert lhs == rhs


def test_models_agree_between_theory_and_its_opened_program():
    rng = random.Random(53)
    for _ in range(50):
        pi = gen.random_program(rng, n_atoms=4, max_rules=5)
        clauses = gen.random_clauses(rng, pi.atoms)
        t = SmaspTheory(clauses, pi)
        opened = open_program(pi, t.atoms)
        t_opened = SmaspTheory(clauses, opened)
        for m in enumerate_assignments(t.atoms):
            assert is_smasp_model(t, m) == is_smasp_model(t_opened, m)


def test_total_theories_have_matching_model_relations():
    rng = random.Random(59)
    for _ in range(25):
        t = gen.random_total_pcid(rng)
        smasp = SmaspTheory(t.clauses, t.program)
        for m in enumerate_assignments(t.atoms):
            assert is_pcid_model(t, m) == is_smasp_model(smasp, m)


def test_fixpoint_iterations_match_across_the_simplification_route():
    rng = random.Random(61)
    for _ in range(60):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6,
                                allow_negneg=False, allow_constraints=False)
        open_pool = [a for a in gen.POOL[:5] if a not in pi.heads]
        n = gen.random_consistent_literals(rng, open_pool)
        for left, right in gen.wieq_routes(pi, n):
            assert left == right

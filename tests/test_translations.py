import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import PI0, PI2, PI3, F0, atom, atoms, cl, lit, prog, reference_clausal, rule
from smasp import oracles, translations
from smasp.model import (
    Atom,
    CapExceeded,
    Clause,
    Literal,
    ORIGIN_FRESH,
    PcidTheory,
    Program,
    SmaspTheory,
    positive_part,
)
from smasp.translations import (
    body_alias,
    clausal,
    completion,
    desugar_choice,
    ed_completion,
    fresh_body_atom,
    open_atoms,
    open_program,
    pi_translation,
)

F_ALIAS = Literal(Atom("f{b,not c}", origin=ORIGIN_FRESH))


class TestClausal:
    def test_running_example(self):
        assert set(clausal(PI0)) == {cl("a", "-b", "c"), cl("b")}

    def test_constraint_reading(self):
        assert set(clausal(prog(rule(None, pos="c", neg="b")))) == {cl("-c", "b")}

    def test_double_negation_reads_negatively(self):
        assert set(clausal(prog(rule("c", negneg="c")))) == {cl("c", "-c")}


class TestOpen:
    def test_non_head_atom_is_open(self):
        assert open_atoms(PI0, atoms("a b c")) == atoms("c")

    def test_heads_are_closed(self):
        assert open_atoms(PI0, atoms("a b")) == ()

    def test_everything_open_for_the_empty_program(self):
        assert open_atoms(Program(), atoms("x")) == atoms("x")

    def test_open_program_appends_choice_rule(self):
        opened = open_program(PI0, atoms("a b c"))
        assert opened.rules == PI0.rules + (rule("c", negneg="c"),)

    def test_open_program_identity_when_closed(self):
        assert open_program(PI0, atoms("a b")) == PI0

    def test_open_program_of_empty_program(self):
        assert open_program(Program(), atoms("a")) == prog(rule("a", negneg="a"))


class TestCompletion:
    def test_running_example_has_five_clauses(self):
        assert set(completion(PI0)) == {
            cl("a", "-b", "c"), cl("-a", "b"), cl("-a", "-c"), cl("b"), cl("-c")}

    def test_tautologies_are_kept(self):
        assert set(completion(PI2)) == {cl("a", "-a")}

    def test_body_only_atom_is_forced_false(self):
        out = set(completion(prog(rule("a", pos="d"))))
        assert cl("-d") in out
        assert out == {cl("a", "-d"), cl("-a", "d"), cl("-d")}

    def test_clause_budget(self, monkeypatch):
        rules = [rule("a", pos=f"b{i} c{i}", neg=f"d{i}") for i in range(8)]
        monkeypatch.setattr(translations, "DEFAULT_CLAUSE_BUDGET", 100)
        with pytest.raises(CapExceeded):
            completion(prog(*rules))


class TestEdCompletion:
    def test_running_example_has_seven_clauses(self):
        expected = {
            cl("a", "-b", "c"),
            Clause((lit("-a"), F_ALIAS)),
            Clause((F_ALIAS, lit("-b"), lit("c"))),
            Clause((F_ALIAS.dual, lit("b"))),
            Clause((F_ALIAS.dual, lit("-c"))),
            cl("b"),
            cl("-c"),
        }
        assert set(ed_completion(PI0)) == expected

    def test_singleton_bodies_use_no_alias(self):
        assert set(ed_completion(PI3)) == {cl("a", "-b"), cl("-a", "b")}

    def test_fact_only_program(self):
        assert set(ed_completion(prog(rule("b")))) == {cl("b")}

    def test_alias_naming_is_deterministic(self):
        body = rule("a", pos="b", neg="c").body
        assert fresh_body_atom(body) == F_ALIAS.atom
        assert body_alias(body) == F_ALIAS

    def test_alias_of_singleton_body_is_its_literal(self):
        assert body_alias(rule("a", neg="c").body) == lit("-c")


class TestPiTranslation:
    def test_running_example(self):
        t = PcidTheory(F0, PI0)
        expected = prog(
            rule("a", pos="b", neg="c"), rule("b"),
            rule("c", negneg="c"), rule(None, pos="c", neg="b"))
        assert pi_translation(t) == expected

    def test_no_clauses_yields_the_opened_program(self):
        t = PcidTheory((), PI0)
        assert pi_translation(t) == open_program(PI0, PI0.atoms)

    def test_unit_negative_clause(self):
        t = PcidTheory((cl("-x"),), Program())
        assert pi_translation(t) == prog(rule("x", negneg="x"), rule(None, pos="x"))


class TestPiSafety:
    def test_explicit_negation_of_open_atoms(self):
        assert gen.is_pi_safe((cl("-c"),), PI0)

    def test_completion_is_safe(self):
        assert gen.is_pi_safe(completion(PI0), PI0)

    def test_empty_clause_set_is_unsafe(self):
        assert not gen.is_pi_safe((), PI0)


class TestDesugarChoice:
    def test_bodiless_choice(self):
        assert desugar_choice([atom("a")]) == rule("a", negneg="a")

    def test_choice_with_body(self):
        assert desugar_choice([atom("a")], pos=atoms("b")) == rule("a", pos="b", negneg="a")

    def test_choice_with_negated_self(self):
        assert desugar_choice([atom("a")], neg=atoms("a")) == rule("a", neg="a", negneg="a")

    def test_multi_atom_choice_is_rejected(self):
        with pytest.raises(ValueError):
            desugar_choice(atoms("a b"))

    def test_desugared_choice_keeps_answer_set_semantics(self):
        # oracle equivalence on all interpretations: {a} :- B behaves
        # as "a may hold when B does"
        a, b = atoms("a b")
        with_body = prog(desugar_choice([a], pos=(b,)), rule("b"))
        assert set(oracles.enumerate_answer_sets(with_body)) == {
            frozenset({b}), frozenset({a, b})}
        negated = prog(desugar_choice([a], neg=(a,)))
        assert set(oracles.enumerate_answer_sets(negated)) == {frozenset()}


def test_answer_sets_match_models_of_safe_pairings():
    # the three clause-set choices describe the same answer sets
    rng = random.Random(71)
    for _ in range(30):
        pi = gen.random_program(rng, n_atoms=4, max_rules=5)
        answer_sets = set(oracles.enumerate_answer_sets(pi))

        opens = open_atoms(pi, pi.atoms)
        t_open = SmaspTheory(tuple(Clause((Literal(a, False),)) for a in opens), pi)
        via_open = {frozenset(positive_part(m))
                    for m in oracles.enumerate_smasp_models(t_open)}
        assert via_open == answer_sets

        t_comp = SmaspTheory(completion(pi), pi)
        via_comp = {frozenset(positive_part(m))
                    for m in oracles.enumerate_smasp_models(t_comp)}
        assert via_comp == answer_sets

        t_ed = SmaspTheory(ed_completion(pi), pi)
        via_ed = {frozenset(positive_part(m) & set(pi.atoms))
                  for m in oracles.enumerate_smasp_models(t_ed)}
        assert via_ed == answer_sets


def test_alias_extension_is_conservative():
    # models of the alias completion project onto models of the
    # clausified completion
    rng = random.Random(73)
    for _ in range(30):
        pi = gen.random_program(rng, n_atoms=4, max_rules=4)
        comp_models = set(gen.enumerate_models(completion(pi), pi.atoms))
        ed = ed_completion(pi)
        ed_atoms = SmaspTheory(ed).atoms
        projected = {frozenset(oracles.restrict_literals(m, pi.atoms))
                     for m in gen.enumerate_models(ed, ed_atoms)}
        assert projected == comp_models


def test_total_theories_translate_to_equivalent_programs():
    rng = random.Random(79)
    for _ in range(25):
        t = gen.random_total_pcid(rng)
        translated = pi_translation(t)
        for m in oracles.enumerate_assignments(t.atoms):
            assert oracles.is_pcid_model(t, m) == oracles.is_answer_set(
                translated, positive_part(m))


def test_alias_completion_commutes_with_the_constraint_encoding():
    rng = random.Random(83)
    for _ in range(40):
        program = gen.random_weakly_normal_program(rng)
        universe = tuple(sorted(set(program.atoms) | set(gen.POOL[:4]),
                                key=lambda a: a.key))
        clauses = gen.random_clauses(rng, universe)
        t = PcidTheory(clauses, program)
        opened = open_program(t.program, t.atoms)
        lhs = set(ed_completion(pi_translation(t)))
        rhs = set(ed_completion(opened)) | set(t.clauses)
        assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans(), st.integers(1, 20))
def test_clausal_matches_the_list_dedupe_reference(rng, negneg, max_rules):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 8), max_rules=max_rules,
                            allow_negneg=negneg, pool=gen.POOL8)
    doubled = pi.extend(reversed(pi.rules))
    for program in (pi, doubled, open_program(pi, gen.POOL8)):
        assert clausal(program) == reference_clausal(program)

"""The unfounded-set index and the Unfounded check against the
definitional oracle, and what only an Unfounded step needs.

``engine.UnfoundedIndex`` keeps the greatest unfounded set of the
propagation index's trail with source pointers; after every query it
must equal ``oracles.greatest_unfounded_set`` on the trail and the
opened program, false members included. ``engine.step`` checks an
Unfounded witness against the program itself; it must accept exactly
the witnesses that are unfounded in the opened program.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gen
from helpers import PI3, prog, rule, trail
from smasp import engine, oracles, translations
from smasp.engine import AugmentedState, run
from smasp.model import Clause, Literal, Program, SmaspTheory, Trail, TrailEntry, sorted_atoms
from smasp.trace import trace_from_outcome, validate_trace
from smasp.translations import completion, ed_completion


def _assert_index_matches_the_oracle(index, theory, current):
    edges = engine.applicable(AugmentedState(current), theory, engine.RULE_UNFOUNDED)
    assert index.first_unfounded(engine.RULE_UNFOUNDED) == (edges[0] if edges else None)
    if index.founding is None:  # built by the first query, unless nothing has a rule
        assert not theory.program.heads
    else:
        opened = translations.open_program(theory.program, theory.atoms)
        gus = oracles.greatest_unfounded_set(current.literal_set, opened)
        assert index.founding.gus() == sorted_atoms(gus)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_index_equals_the_greatest_unfounded_set_after_assigns_and_truncations(rng):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=10)
    # clauses may bring atoms the program does not mention: open atoms
    theory = SmaspTheory(gen.random_clauses(rng, gen.POOL8, max_clauses=3), pi)
    index = engine.PropagationIndex(engine._context(theory))
    current = Trail()
    for _ in range(rng.randint(1, 40)):
        if rng.random() < 0.4:
            _assert_index_matches_the_oracle(index, theory, current)
        free = [a for a in theory.atoms if current.is_unassigned(Literal(a))]
        if current and (not free or rng.random() < 0.3):
            current = current.truncate(rng.randrange(len(current)))
            free = [a for a in theory.atoms if current.is_unassigned(Literal(a))]
        current = current.append(Literal(rng.choice(free), rng.random() < 0.5),
                                 decision=rng.random() < 0.5)
        index.follow(current, len(current) - 1)
    _assert_index_matches_the_oracle(index, theory, current)


def test_a_truncation_founds_a_loop_again():
    # a :- b.  b :- a.  a :- not c.
    pi = prog(rule("a", pos="b"), rule("b", pos="a"), rule("a", neg="c"))
    theory = SmaspTheory((), pi)
    index = engine.PropagationIndex(engine._context(theory))
    assert index.first_unfounded(engine.RULE_UNFOUNDED) is None
    # a false atom stays a member; a false open atom is one
    for spec, gus in (("c*", "a b"), ("c* -a", "a b"), ("-c*", "c"), ("-c* a", "c"),
                      ("-a", "b"), ("-a c", "a b")):
        index.follow(trail(spec), len(trail(spec)) - 1)
        assert [a.name for a in index.founding.gus()] == gus.split()
        _assert_index_matches_the_oracle(index, theory, trail(spec))


def test_a_program_without_rule_heads_builds_no_index():
    theory = SmaspTheory((), prog(rule(None, pos="a", neg="b")))
    index = engine.PropagationIndex(engine._context(theory))
    index.follow(trail("-a"), 0)
    assert index.first_unfounded(engine.RULE_UNFOUNDED) is None and index.founding is None


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")
    monkeypatch.setattr(module, name, forbidden)


def _solve_and_replay(theory, mode):
    out = run(theory, mode, self_check=False)
    recorded = trace_from_outcome(out, mode, theory)
    for strict in (False, True):
        assert validate_trace(recorded, theory, mode, strict_strategy=strict).ok
    return {s.transition.rule for s in out.steps}


@pytest.mark.parametrize("mode", ["smodels", "cmodels", "clasp", "minisatid"])
def test_runs_without_an_unfounded_step_never_open_the_program(mode, monkeypatch):
    # a :- not b.  b :- not a.  c :- a.
    pi = prog(rule("a", neg="b"), rule("b", neg="a"), rule("c", pos="a"))
    theory = SmaspTheory((completion if mode == "smodels" else ed_completion)(pi), pi)
    engine._context.cache_clear()
    _forbid(monkeypatch, translations, "open_program")
    assert engine.RULE_UNFOUNDED not in _solve_and_replay(theory, mode)


# a :- b.  b :- a.  a :- e.  c :- not d.  d :- not c.  (e is open)
LOOP = prog(rule("a", pos="b"), rule("b", pos="a"), rule("a", pos="e"),
            rule("c", neg="d"), rule("d", neg="c"))


@pytest.mark.parametrize("pi", [PI3, LOOP], ids=["closed", "open-member"])
@pytest.mark.parametrize("mode", ["smodels", "cmodels", "clasp", "minisatid"])
def test_runs_with_unfounded_steps_never_open_the_program(mode, pi, monkeypatch):
    theory = dict(gen.theories_per_mode(pi))[mode]
    engine._context.cache_clear()
    _forbid(monkeypatch, translations, "open_program")
    assert engine.RULE_UNFOUNDED in _solve_and_replay(theory, mode)


def _reference_reason(atom, witness, m, opened):
    """``unfounded_reason`` read off the opened program's bodies: each
    external body gives its first falsified literal."""
    us = frozenset(witness)
    bodies = {b for a in us for b in opened.bodies(a) if not (b.pos_set & us)}
    return Clause((Literal(atom, positive=False),) + tuple(
        next(l for l in b.s_literals if l.dual in m) for b in bodies))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_step_accepts_exactly_the_witnesses_unfounded_in_the_opened_program(rng):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=10)
    theory = SmaspTheory(gen.random_clauses(rng, gen.POOL8, max_clauses=3), pi)
    m = gen.random_consistent_literals(rng, theory.atoms)
    current = Trail(tuple(TrailEntry(l, rng.random() < 0.3)
                          for l in rng.sample(sorted(m, key=lambda l: l.key), len(m))))
    opened = translations.open_program(pi, theory.atoms)
    gus = sorted_atoms(oracles.greatest_unfounded_set(m, opened))
    kind = rng.randrange(3)
    if kind == 0:  # the greatest unfounded set, as the engine offers it
        witness = list(gus)
    elif kind == 1:  # forged: an open member that is not false
        not_false = [a for a in translations.open_atoms(pi, theory.atoms)
                     if Literal(a, positive=False) not in m]
        witness = list(gus) + rng.sample(not_false, min(1, len(not_false)))
    else:  # any set
        witness = rng.sample(theory.atoms, rng.randint(0, len(theory.atoms)))
    assume(witness)
    rng.shuffle(witness)
    atom = rng.choice(witness)
    transition = engine.Transition(engine.RULE_UNFOUNDED, literal=Literal(atom, positive=False),
                                   witness=tuple(witness))
    expected = (Literal(atom, positive=False) not in m
                and oracles.is_unfounded(witness, m, opened))
    try:
        after = engine.step(AugmentedState(current), transition, theory)
    except ValueError:
        assert not expected
        return
    assert expected
    entry = after.trail.entries[-1]
    assert entry.literal == Literal(atom, positive=False)
    assert entry.reason == _reference_reason(atom, witness, m, opened)


@pytest.mark.parametrize("mode, theory", [
    ("dpll", SmaspTheory(completion(PI3), PI3)),
    ("clasp", gen.random_3sat(random.Random(5), 12)),
    ("smodels", SmaspTheory(gen.random_3sat(random.Random(6), 10).clauses, Program())),
], ids=["dpll", "clause-only-clasp", "clause-only-smodels"])
def test_dpll_and_clause_only_runs_never_build_the_unfounded_index(mode, theory, monkeypatch):
    _forbid(monkeypatch, engine, "UnfoundedIndex")
    _solve_and_replay(theory, mode)

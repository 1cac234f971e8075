"""The engine against its definitional side.

``run`` picks transitions from an incremental index and ``step`` checks
them locally; both must agree exactly with the ``applicable_*``
functions, which enumerate every candidate of every rule from scratch.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import reference_choice
from smasp import engine
from smasp.engine import AugmentedState, Transition, run, step
from smasp.model import Atom, Clause, Literal, Program, SmaspTheory, Trail, TrailEntry
from smasp.translations import completion, ed_completion


def _theories_per_mode(pi):
    return (
        ("smodels", SmaspTheory(completion(pi), pi)),
        ("cmodels", SmaspTheory(ed_completion(pi), pi)),
        ("clasp", SmaspTheory(ed_completion(pi), pi)),
        ("minisatid", SmaspTheory(ed_completion(pi), pi)),
        ("dpll", SmaspTheory(completion(pi))),
    )


def _random_3sat(rng, n):
    atoms = [Atom(f"x{i}") for i in range(1, n + 1)]
    return SmaspTheory(tuple(
        Clause(tuple(Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, 3)))
        for _ in range(int(4.26 * n))))


def _assert_canonical_run(theory, mode):
    """Replay ``run``: every recorded transition but Learn is the
    reference's first candidate in the state before it, and the run
    stops exactly where the reference finds nothing more to do."""
    strategy = engine.for_mode(mode)
    out = run(theory, mode, self_check=False)
    state, previous = AugmentedState(), None
    for recorded in out.steps:
        tr = Transition(recorded.rule, literal=recorded.literal, clause=recorded.clause,
                        witness=recorded.witness, prefix_length=recorded.prefix_length)
        if tr.rule == engine.RULE_LEARN:
            assert previous.rule == engine.RULE_BACKJUMP and previous.clause == tr.clause
        else:
            assert tr == reference_choice(state, theory, strategy), (mode, recorded.index)
        state, previous = step(state, tr, theory), tr
    assert out.verdict != engine.VERDICT_LIMIT
    assert reference_choice(state, theory, strategy) is None
    return out


def test_runs_on_random_programs_take_the_canonical_transitions():
    rng = random.Random(151)
    for _ in range(30):
        pi = gen.random_program(rng, n_atoms=6, max_rules=10)
        for mode, theory in _theories_per_mode(pi):
            _assert_canonical_run(theory, mode)


@pytest.mark.parametrize("n", range(16, 23))
def test_runs_on_random_3sat_above_the_oracle_caps_take_the_canonical_transitions(n):
    for seed in (1, 2):
        theory = _random_3sat(random.Random(100 * seed + n), n)
        assert len(theory.atoms) > 14
        verdicts = {_assert_canonical_run(theory, mode).verdict for mode in engine.MODES}
        assert len(verdicts) == 1


# -- step accepts exactly the definitional candidates ------------------------

POOL = tuple(Atom(n) for n in "abcde")
THEORY_ATOMS = POOL[:4]  # trails may also mention an atom outside the theory

literals = st.builds(Literal, st.sampled_from(POOL), st.booleans())
outside = st.builds(Literal, st.just(POOL[-1]), st.booleans())
theory_literals = st.builds(Literal, st.sampled_from(THEORY_ATOMS), st.booleans())
clauses = st.lists(theory_literals, min_size=1, max_size=3).map(lambda ls: Clause(tuple(ls)))
programs = st.one_of(
    st.just(Program()),
    st.integers(0, 2 ** 16).map(
        lambda seed: gen.random_program(random.Random(seed), n_atoms=4, max_rules=3)))
rules = st.sampled_from((engine.RULE_UNIT_PROPAGATE, engine.RULE_UNIT_PROPAGATE_LEARN,
                         engine.RULE_DECIDE))


def _accepts(state, transition, theory):
    try:
        step(state, transition, theory)
    except ValueError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(st.lists(clauses, min_size=1, max_size=5), programs,
       st.lists(clauses, max_size=3, unique=True),
       st.sampled_from((False,) * 9 + (True,)), rules, st.data())
def test_step_accepts_exactly_the_definitional_candidates(
        theory_clauses, program, learned, failed, rule, data):
    theory = SmaspTheory(tuple(theory_clauses), program)
    forced = []
    if rule == engine.RULE_DECIDE:
        own = [st.builds(Literal, st.sampled_from(theory.atoms), st.booleans())] * 2
        literal = data.draw(st.one_of(*own, literals, outside, st.none()))
        transition = Transition(rule, literal=literal)
    else:
        offered = list(engine._context(theory).up_sources) + list(learned)
        # hypothesis leans towards the first branch: offered clauses, then
        # their own literals, make up most draws
        picks = [st.sampled_from(offered)] * (2 if offered else 0)
        picks += [st.sampled_from(learned)] if learned else []
        clause = data.draw(st.one_of(*picks, clauses, st.none()))
        picks = [st.sampled_from(clause.literals)] * 2 if clause is not None else []
        literal = data.draw(st.one_of(*picks, literals, st.none()))
        transition = Transition(rule, literal=literal, clause=clause)
        # falsify the clause's other literals, or some of all its
        # literals, so that it is often unit or falsified
        if clause is not None:
            others = [l.complement() for l in clause if l != literal]
            duals = [l.complement() for l in clause]
            forced = data.draw(st.one_of(
                st.just(others), st.lists(st.sampled_from(duals), unique=True)))
    extra = data.draw(st.lists(literals, max_size=4))
    if extra and data.draw(st.booleans()):  # an inconsistent trail
        extra.append(data.draw(st.sampled_from(extra)).complement())
    order = data.draw(st.permutations(list(dict.fromkeys(forced + extra))))
    decisions = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    trail = Trail(tuple(TrailEntry(l, d) for l, d in zip(order, decisions)))
    state = AugmentedState(Trail() if failed else trail, tuple(learned), failed)
    if rule == engine.RULE_DECIDE:
        definitional = literal in engine.applicable_decide(state, theory)
    else:
        definitional = (literal, clause) in engine.applicable_unit_propagate(
            state, theory, include_learned=(rule == engine.RULE_UNIT_PROPAGATE_LEARN))
    assert _accepts(state, transition, theory) == definitional

"""The engine against its definitional side.

``run`` picks transitions from an incremental index, and strict
``validate_trace`` asks the same index for the canonical choice; both
must agree exactly with ``engine.applicable``, which lists every
candidate of every rule from scratch and keeps those ``step`` accepts.
The index keeps its own counts, so these checks also test ``step``.
"""

import functools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import reference_choice, reference_strict_replay
from smasp import engine, oracles
from smasp.engine import AugmentedState, TraceStep, Transition, run, step
from smasp.model import Atom, Clause, Literal, Program, SmaspTheory, Trail
from smasp.trace import Trace, TraceHeader, theory_digest, validate_trace


def _assert_canonical_run(theory, mode):
    """Replay ``run``: every recorded transition but Learn is the
    reference's first candidate in the state before it, and the run
    stops exactly where the reference finds nothing more to do."""
    strategy = engine.for_mode(mode)
    out = run(theory, mode, self_check=False)
    state, previous = AugmentedState(), None
    for recorded in out.steps:
        tr = recorded.transition
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
        for mode, theory in gen.theories_per_mode(pi):
            _assert_canonical_run(theory, mode)


@pytest.mark.parametrize("n", range(16, 23))
def test_runs_on_random_3sat_above_the_oracle_caps_take_the_canonical_transitions(n):
    for seed in (1, 2):
        theory = gen.random_3sat(random.Random(100 * seed + n), n)
        assert len(theory.atoms) > 14
        verdicts = {_assert_canonical_run(theory, mode).verdict for mode in engine.MODES}
        assert len(verdicts) == 1


def _mixed_runs():
    """``(mode, theory)`` pairs over random programs and 3-SAT formulas,
    in every mode."""
    rng = random.Random(167)
    runs = [pair for _ in range(10)
            for pair in gen.theories_per_mode(gen.random_program(rng, n_atoms=6, max_rules=10))]
    runs += [(mode, gen.random_3sat(random.Random(seed), n))  # (3, 12) is unsatisfiable
             for seed, n in ((1, 16), (2, 16), (3, 12)) for mode in engine.MODES]
    return runs


def test_runs_and_strict_replays_never_ask_applicable(monkeypatch):
    """``Walk.choose`` reads the index on a consistent trail and takes
    the conflict candidate on an inconsistent one: in every mode neither
    ``run`` nor a strict replay lists a rule's edges."""
    def forbidden(*args, **kwargs):
        raise AssertionError("an edge list was asked for")

    for name in ("applicable", "applicable_unit_propagate", "applicable_decide",
                 "applicable_unfounded"):
        monkeypatch.setattr(engine, name, forbidden)
    taken = set()
    for mode, theory in _mixed_runs():
        out = run(theory, mode, self_check=False)
        taken.update(out.stats)
        tr = Trace(TraceHeader(mode, theory_digest(theory)), out.steps)
        assert validate_trace(tr, theory, mode, strict_strategy=True).ok
    assert taken == engine.ALL_RULES


def test_runs_and_replays_never_ask_the_unfoundedness_oracle(monkeypatch):
    """``step`` checks an Unfounded witness in the one pass of
    ``unfounded_reason`` that builds its reason: in every mode neither
    ``run`` nor a strict or lax replay calls ``oracles.is_unfounded``."""
    def forbidden(*args, **kwargs):
        raise AssertionError("oracles.is_unfounded was called")

    monkeypatch.setattr(oracles, "is_unfounded", forbidden)
    taken = set()
    for mode, theory in _mixed_runs():
        out = run(theory, mode, self_check=False)
        taken.update(out.stats)
        tr = Trace(TraceHeader(mode, theory_digest(theory)), out.steps)
        for strict in (False, True):
            assert validate_trace(tr, theory, mode, strict_strategy=strict).ok
    assert engine.RULE_UNFOUNDED in taken


def test_strict_replays_ask_the_index_only_about_groups_above_the_step(monkeypatch):
    """Before each step a strict replay asks for Decide's or Unfounded's
    first candidate only when the step's rule ranks after that rule, so
    a replay in a mode that ranks Decide last never asks for a decision."""
    events = []  # index queries, and the rule of each step taken after them
    queried = {"first_unassigned": engine.RULE_DECIDE, "first_unfounded": engine.RULE_UNFOUNDED}
    for name in queried:
        query = getattr(engine.PropagationIndex, name)
        monkeypatch.setattr(engine.PropagationIndex, name, lambda index, rule, name=name,
                            query=query: events.append(name) or query(index, rule))
    take = engine.step
    monkeypatch.setattr(engine, "step", lambda state, tr, *rest:
                        events.append(tr.rule) or take(state, tr, *rest))
    asked = {mode: {name: 0 for name in queried} for mode in engine.MODES}
    for mode, theory in _mixed_runs():
        out = run(theory, mode, self_check=False)
        del events[:]
        tr = Trace(TraceHeader(mode, theory_digest(theory)), out.steps)
        assert validate_trace(tr, theory, mode, strict_strategy=True).ok
        rank = engine.Walk(theory, engine.for_mode(mode)).rank
        before = []
        for event in events:
            if event in queried:
                before.append(event)
                asked[mode][event] += 1
                continue
            for name in before:
                assert rank.get(event, -1) > rank[queried[name]], (mode, name, event)
            before = []
        assert not before
    assert [m for m in engine.MODES if asked[m]["first_unassigned"]] == ["cmodels"]
    assert asked["smodels"]["first_unfounded"] and asked["clasp"]["first_unfounded"]


# -- strict validate_trace agrees with the reference strict check ------------

def _first_group_candidates(state, theory, strategy):
    """Every transition of the first priority group that has one."""
    for group in strategy.priority:
        out = []
        for name in group:
            try:
                out += engine.applicable(state, theory, name)
            except ValueError:  # resolution reached a Backtrack literal
                pass
        if out:
            return out
    return []


def _random_strict_walk(theory, strategy, rng, max_steps=60):
    """Steps of a random walk that honours the priorities but takes any
    candidate of the chosen group, so the index must follow trails that
    ``run`` never builds."""
    state, steps = AugmentedState(), []

    def record(tr):
        steps.append(TraceStep(len(steps) + 1, tr, engine.digest_trail(state.trail)))

    while len(steps) < max_steps:
        options = _first_group_candidates(state, theory, strategy)
        if not options:
            break
        tr = rng.choice(options)
        state = step(state, tr, theory)
        record(tr)
        if (tr.rule == engine.RULE_BACKJUMP and strategy.learning
                and tr.clause not in state.learned and rng.random() < 0.8):
            tr = Transition(engine.RULE_LEARN, clause=tr.clause)
            state = step(state, tr, theory)
            record(tr)
    return steps


def _mutants(steps, theory, rng, count):
    """Traces with one step deleted, two swapped, a rule replaced or a
    Decide injected; renumbered, with the recorded digests kept or all
    dropped."""
    rules = sorted(engine.ALL_RULES)
    for _ in range(count):
        out = list(steps)
        kind = rng.randrange(4) if out else 3
        i = rng.randrange(len(out)) if out else 0
        if kind == 0:
            del out[i]
        elif kind == 1:
            j = rng.randrange(len(out))
            out[i], out[j] = out[j], out[i]
        elif kind == 2:
            out[i] = out[i]._replace(transition=out[i].transition._replace(
                rule=rng.choice(rules)))
        else:  # possibly past the last step
            i, a = rng.randrange(len(out) + 1), rng.choice(theory.atoms)
            out.insert(i, TraceStep(i + 1, Transition(engine.RULE_DECIDE,
                                                      literal=Literal(a, rng.random() < 0.5))))
        keep = rng.random() < 0.5
        yield tuple(TraceStep(k, s.transition, s.trail_digest if keep else "")
                    for k, s in enumerate(out, start=1))


def _assert_strict_check_matches_reference(theory, strategy, steps):
    if isinstance(strategy, str):
        strategy = engine.for_mode(strategy)
    tr = Trace(TraceHeader(strategy.mode, theory_digest(theory)), tuple(steps))
    got = validate_trace(tr, theory, strategy, strict_strategy=True)
    assert got == reference_strict_replay(tr, theory, strategy), strategy.mode
    return got


def test_strict_check_matches_the_reference_on_random_programs(monkeypatch):
    # each theory is replayed dozens of times; enumerate its models once
    monkeypatch.setattr(oracles, "enumerate_smasp_models",
                        functools.lru_cache(maxsize=None)(oracles.enumerate_smasp_models))
    rng = random.Random(157)
    valid = invalid = 0
    for _ in range(25):
        pi = gen.random_program(rng, n_atoms=6, max_rules=10)
        for mode, theory in gen.theories_per_mode(pi):
            strategy = engine.for_mode(mode)
            walks = [run(theory, mode, self_check=False).steps]
            walks += [_random_strict_walk(theory, strategy, rng) for _ in range(2)]
            for steps in walks:
                assert _assert_strict_check_matches_reference(theory, mode, steps).ok
                for mutant in _mutants(steps, theory, rng, 6):
                    ok = _assert_strict_check_matches_reference(theory, mode, mutant).ok
                    valid, invalid = valid + ok, invalid + (not ok)
    assert valid > 50 and invalid > 500


@pytest.mark.parametrize("n", range(16, 23))
def test_strict_check_matches_the_reference_on_random_3sat(n):
    for seed in (1, 2):
        theory = gen.random_3sat(random.Random(100 * seed + n), n)
        rng = random.Random(seed * 1000 + n)
        for mode in engine.MODES:
            strategy = engine.for_mode(mode)
            for steps in (run(theory, mode).steps, _random_strict_walk(theory, strategy, rng)):
                assert _assert_strict_check_matches_reference(theory, mode, steps).ok
                for mutant in _mutants(steps, theory, rng, 1):
                    _assert_strict_check_matches_reference(theory, mode, mutant)


# Backjump ranked before Backtrack: a flipped decision has no reason, so
# conflict analysis can fail on a trail that a Backtrack step built
BACKJUMP_FIRST = engine.Strategy("backjump-first", (
    (engine.RULE_BACKJUMP, engine.RULE_FAIL, engine.RULE_BACKTRACK),
    (engine.RULE_UNIT_PROPAGATE,),
    (engine.RULE_DECIDE,),
), learning=False)


def test_strict_check_on_a_conflict_analysis_cannot_resolve():
    x, y, z, w, u = (Literal(Atom(n)) for n in "xyzwu")
    nx, ny, nz, nw, nu = (l.dual for l in (x, y, z, w, u))
    c = [Clause((nx, ny, z)), Clause((nx, ny, nz)), Clause((nx, y, w)),
         Clause((y, nw, u)), Clause((y, nw, nu))]
    theory = SmaspTheory(tuple(c))
    up = engine.RULE_UNIT_PROPAGATE
    transitions = [
        Transition(engine.RULE_DECIDE, literal=x), Transition(engine.RULE_DECIDE, literal=y),
        Transition(up, literal=z, clause=c[0]), Transition(up, literal=nz, clause=c[1]),
        Transition(engine.RULE_BACKTRACK, literal=ny),
        Transition(up, literal=w, clause=c[2]), Transition(up, literal=u, clause=c[3]),
        Transition(up, literal=nu, clause=c[4]), Transition(engine.RULE_BACKTRACK, literal=nx),
    ]
    state, steps = AugmentedState(), []
    for tr in transitions:
        if tr is transitions[-1]:
            with pytest.raises(ValueError):  # resolution reaches the flipped ny
                engine.analyze_conflict(state, engine.conflicting_clause(state))
        state = step(state, tr, theory)
        steps.append(TraceStep(len(steps) + 1, tr, engine.digest_trail(state.trail)))
    assert _assert_strict_check_matches_reference(theory, BACKJUMP_FIRST, steps).ok
    decide = steps[:-1] + [TraceStep(len(steps), Transition(engine.RULE_DECIDE, literal=nx))]
    got = _assert_strict_check_matches_reference(theory, BACKJUMP_FIRST, decide)
    assert (got.step_index, got.reason) == (9, "higher-priority rule Backjump was applicable")
    for mutant in _mutants(steps, theory, random.Random(163), 40):
        _assert_strict_check_matches_reference(theory, BACKJUMP_FIRST, mutant)


@pytest.mark.parametrize("seed", range(6))
def test_strict_check_matches_the_reference_under_a_backjump_first_strategy(seed):
    rng = random.Random(seed)
    theory = gen.random_3sat(rng, 8)
    for _ in range(4):
        steps = _random_strict_walk(theory, BACKJUMP_FIRST, rng)
        assert _assert_strict_check_matches_reference(theory, BACKJUMP_FIRST, steps).ok
        for mutant in _mutants(steps, theory, rng, 4):
            _assert_strict_check_matches_reference(theory, BACKJUMP_FIRST, mutant)


def _learn_inserted(steps, theory, rng, count):
    """Traces with a Learn of a theory clause inserted, renumbered."""
    for _ in range(count):
        out = list(steps)
        i = rng.randrange(len(out) + 1)
        out.insert(i, TraceStep(i + 1, Transition(engine.RULE_LEARN,
                                                  clause=rng.choice(theory.clauses))))
        yield tuple(s._replace(index=k) for k, s in enumerate(out, start=1))


@pytest.mark.parametrize("learning", [False, True], ids=["policy-free", "learning"])
def test_strict_check_matches_the_reference_with_learn_in_the_second_group(learning):
    """Learn ranked beside UnitPropagateLearn: the second group's steps
    are left to step, but a Learn outside the learning policy is not."""
    strategy = engine.Strategy("learn-second", (
        (engine.RULE_BACKJUMP, engine.RULE_FAIL),
        (engine.RULE_UNIT_PROPAGATE_LEARN, engine.RULE_LEARN),
        (engine.RULE_DECIDE,),
    ), learning=learning)
    rng = random.Random(173)
    verdicts, reasons = set(), set()
    for _ in range(6):
        theory = gen.random_3sat(rng, 8)
        steps = _random_strict_walk(theory, strategy, rng)
        assert _assert_strict_check_matches_reference(theory, strategy, steps).ok
        for mutant in _learn_inserted(steps, theory, rng, 8):
            got = _assert_strict_check_matches_reference(theory, strategy, mutant)
            verdicts.add(got.ok)
            reasons.add(got.reason)
        for mutant in _mutants(steps, theory, rng, 4):
            _assert_strict_check_matches_reference(theory, strategy, mutant)
    # under the learning policy a Learn of a theory clause is always taken;
    # outside it, a Learn before a Decide ranks above it but is refused
    assert verdicts == ({True} if learning else {True, False})
    assert learning or "Learn must sit in the group of Decide" in reasons


# -- the index offers the first edge of each rule ---------------------------

POOL = tuple(Atom(n) for n in "abcd")

literals = st.builds(Literal, st.sampled_from(POOL), st.booleans())
clauses = st.lists(literals, min_size=1, max_size=3).map(lambda ls: Clause(tuple(ls)))
programs = st.one_of(
    st.just(Program()),
    st.integers(0, 2 ** 16).map(
        lambda seed: gen.random_program(random.Random(seed), n_atoms=4, max_rules=3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(clauses, min_size=1, max_size=5), programs, st.data())
def test_the_index_offers_the_first_edge_of_each_rule_on_random_states(
        theory_clauses, program, data):
    """On consistent trails with learned clauses, which no run builds in
    this order, each index query equals ``applicable(...)[0]``: the
    index keeps its own counts, so it checks the edges ``step`` accepts."""
    theory = SmaspTheory(tuple(theory_clauses), program)
    own = st.builds(Literal, st.sampled_from(theory.atoms), st.booleans())
    learned = data.draw(st.lists(st.lists(own, min_size=1, max_size=3).map(
        lambda ls: Clause(tuple(ls))), max_size=3, unique=True))
    chosen = data.draw(st.lists(own, unique_by=lambda l: l.atom, max_size=len(theory.atoms)))
    index, trail = engine.PropagationIndex(engine._context(theory)), Trail()
    learn_at = data.draw(st.integers(0, len(chosen)))  # the store grows mid-trail
    for i, literal in enumerate(chosen + [None]):
        if i == learn_at:
            for c in learned:
                index.learn(c)
        if literal is not None:
            trail = trail.append(literal, data.draw(st.booleans()))
            index.follow(trail, len(trail) - 1)
    state = AugmentedState(trail, tuple(learned))

    for rule, query in engine._QUERIES.items():  # as Walk.choose asks them
        edges = engine.applicable(state, theory, rule)
        assert getattr(index, query)(rule) == (edges[0] if edges else None), rule


# -- a walk's index lags behind the trail and catches up when asked ---------

def _eager_choice(state, strategy, index, queries, before):
    """:meth:`engine.Walk.choose` over an index that followed every step."""
    if state.failed:
        return None
    if not state.trail.is_consistent:
        return engine.conflict_candidate(state, engine.conflict_rule(state.trail, strategy))
    for rank, rule, _ in queries:
        if rank >= before:
            return None
        tr = getattr(index, engine._QUERIES[rule])(rule)
        if tr is not None:
            return tr
    return None


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_a_lagging_walk_answers_as_an_index_that_follows_every_step(rng):
    """A walk replays a run's steps and is queried at random points, each
    time with a random rank bound: every answer is that of a fresh index
    that followed the trail step by step, and once it has caught up the
    walk's index holds the same counts, assignment and trail."""
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=10)
    runs = list(gen.theories_per_mode(pi))
    runs += [(rng.choice(engine.MODES), gen.random_3sat(rng, rng.randint(10, 20)))]
    for mode, theory in runs:
        strategy = engine.for_mode(mode)
        walk = engine.Walk(theory, strategy)
        eager = engine.PropagationIndex(walk.ctx)
        bounds = [0, 1, 2, 3, sys.maxsize]
        for recorded in run(theory, strategy, self_check=False).steps + (None,):
            if rng.random() < 0.4:
                before, state = rng.choice(bounds), walk.state
                want = _eager_choice(state, strategy, eager, walk.queries, before)
                assert walk.choose(before) == want
                asked = not state.failed and state.trail.is_consistent and walk.queries[0][0] < before
                caught_up = not state.failed and walk.kept == len(state.trail)
                assert caught_up or not asked
                if caught_up:
                    for field in ("n_true", "n_open", "true", "trail"):
                        assert getattr(walk.index, field) == getattr(eager, field), field
            if recorded is None:
                break
            tr = recorded.transition
            walk.advance(tr)
            if tr.rule == engine.RULE_LEARN:
                eager.learn(tr.clause)
            elif not walk.state.failed:
                eager.follow(walk.state.trail, len(walk.state.trail) - 1)

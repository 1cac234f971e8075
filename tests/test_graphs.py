"""The paper's theorems checked on whole graphs, not only on the paths
``run`` takes.

For each mode, the explorer walks every state reachable from the empty
state. Out of each state it takes every edge that ``engine.applicable``
lists for every rule of the mode, ignoring the mode's priorities. Those
are the candidates ``step`` accepts, so these theorems are the main
check on ``step`` that does not go through the propagation index. That
is a subgraph of the paper's graph:

- Learn edges take only the clause of a Backjump, right after it, and
  only in a second test for the learning modes. There a Backjump is
  followed both with and without its Learn, so states hold learned
  stores that UnitPropagateLearn reads;
- Backjump offers one clause, the one conflict analysis learns, where
  the paper allows any entailed clause;
- Unfounded offers the greatest unfounded set, which has the same
  terminal states, because every unfounded set lies inside it.

On that subgraph the theorems say: it is acyclic, every terminal state
other than a failed one is a model, and a failed state is reachable
exactly when there is no model. Graphs grow fast with the number of
atoms: a 3-atom graph has up to some ten thousand edges, and 4-atom
graphs can have many times more. So the sample stays at theories over
at most 3 atoms, the alias atoms of the ED-completion included. Learn
edges multiply the states by the stores they reach: with them, one
3-atom theory of the sample passes 60,000 states, so that test stays
at 2 atoms.
"""

import random

import pytest

import gen
from smasp import engine, oracles
from smasp.engine import AugmentedState, Transition, applicable, step


def explore(theory, mode, learn=False):
    """The terminal states reachable from the empty state; asserts on
    the way that no state repeats on the current path. With ``learn``,
    a Backjump's edge goes on along the Learn of its clause, unless the
    store holds it, and the state that Learn reaches is a successor too."""
    rules = sorted(engine.for_mode(mode).rules)

    def successors(state):
        out = []
        for rule in rules:
            for tr in applicable(state, theory, rule):
                out.append(step(state, tr, theory))
                if learn and rule == engine.RULE_BACKJUMP and tr.clause not in state.learned:
                    out.append(step(out[-1], Transition(engine.RULE_LEARN, clause=tr.clause), theory))
        return out

    path, done, terminals, stack = set(), set(), set(), []

    def enter(state):
        out = successors(state)
        if not out:
            terminals.add(state)
        path.add(state)
        stack.append((state, iter(out)))

    enter(AugmentedState())
    while stack:
        state, edges = stack[-1]
        nxt = next(edges, None)
        if nxt is None:
            stack.pop()
            path.remove(state)
            done.add(state)
            continue
        assert nxt not in path, f"{mode}: a cycle through {nxt}"
        if nxt not in done:
            enter(nxt)
    return terminals


def sample(mode, count=3, max_atoms=3):
    """The first ``count`` theories of ``mode`` over at most
    ``max_atoms`` atoms, alias atoms included, from a fixed stream of
    random programs."""
    rng = random.Random(211)
    while count:
        theory = dict(gen.theories_per_mode(gen.random_program(rng, n_atoms=3, max_rules=4)))[mode]
        if len(theory.atoms) <= max_atoms:
            count -= 1
            yield theory


def check_theorems(theory, mode, learn=False):
    """The graph's theorems on ``theory``; returns its terminal states."""
    terminals = explore(theory, mode, learn)
    models = oracles.enumerate_smasp_models(theory)
    assert any(s.failed for s in terminals) == (not models)
    ends = {s.trail.literal_set for s in terminals if not s.failed}
    assert all(oracles.is_smasp_model(theory, m) for m in ends)
    # and every model is reached: deciding its literals one by one ends there
    assert ends == set(models)
    return terminals


@pytest.mark.parametrize("mode", engine.MODES)
def test_whole_graphs_are_acyclic_and_end_in_models_or_fail(mode):
    verdicts = {any(not s.failed for s in check_theorems(theory, mode)) for theory in sample(mode)}
    assert verdicts == {True, False}  # the sample has both verdicts


@pytest.mark.parametrize("mode", [m for m in engine.MODES if engine.for_mode(m).learning])
def test_graphs_with_learn_edges_are_acyclic_and_end_in_models_or_fail(mode):
    verdicts, stores = set(), set()
    for theory in sample(mode, count=4, max_atoms=2):
        terminals = check_theorems(theory, mode, learn=True)
        verdicts.add(any(not s.failed for s in terminals))
        stores.update(s.learned for s in terminals)
    assert verdicts == {True, False}
    assert any(stores)  # some terminal states hold learned clauses

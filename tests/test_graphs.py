"""The paper's theorems checked on whole graphs, not only on the paths
``run`` takes.

For each mode, the explorer walks every state reachable from the empty
state. Out of each state it takes every candidate that
``engine.applicable`` lists for every rule of the mode, ignoring the
mode's priorities, and passes each edge through ``step``. That is a
subgraph of the paper's graph:

- there are no Learn edges, since Learn is ``run``'s learning policy,
  so the learned store stays empty;
- Backjump offers one clause, the one conflict analysis learns, where
  the paper allows any entailed clause;
- Unfounded offers the greatest unfounded set, which has the same
  terminal states, because every unfounded set lies inside it.

On that subgraph the theorems say: it is acyclic, every terminal state
other than FailState is a model, and FailState is reachable exactly
when there is no model. Graphs grow fast with the number of atoms: a
3-atom graph has up to some ten thousand edges, and 4-atom graphs can
have many times more. So the sample stays at theories over at most 3
atoms, the alias atoms of the ED-completion included.
"""

import random

import pytest

import gen
from smasp import engine, oracles
from smasp.engine import AugmentedState, applicable, step

FAIL_STATE = AugmentedState(failed=True)


def explore(theory, mode):
    """The terminal states reachable from the empty state; asserts on
    the way that no state repeats on the current path."""
    rules = sorted(engine.for_mode(mode).rules)

    def successors(state):
        return [step(state, tr, theory) for rule in rules for tr in applicable(state, theory, rule)]

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


def sample(mode, count=3):
    """The first ``count`` theories of ``mode`` over at most 3 atoms,
    alias atoms included, from a fixed stream of random programs."""
    rng = random.Random(211)
    while count:
        theory = dict(gen.theories_per_mode(gen.random_program(rng, n_atoms=3, max_rules=4)))[mode]
        if len(theory.atoms) <= 3:
            count -= 1
            yield theory


@pytest.mark.parametrize("mode", engine.MODES)
def test_whole_graphs_are_acyclic_and_end_in_models_or_fail(mode):
    verdicts = set()
    for theory in sample(mode):
        terminals = explore(theory, mode)
        models = oracles.enumerate_smasp_models(theory)
        assert (FAIL_STATE in terminals) == (not models)
        ends = {s.trail.literal_set for s in terminals - {FAIL_STATE}}
        assert all(oracles.is_smasp_model(theory, m) for m in ends)
        # and every model is reached: deciding its literals one by one ends there
        assert ends == set(models)
        verdicts.add(bool(models))
    assert verdicts == {True, False}  # the sample has both verdicts

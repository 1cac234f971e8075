"""Units of work, counted from outside the engine rather than timed.

A strict replay reads the propagation index only when a priority group
with an index query ranks above a step's rule; the index catches up with
the trail then, so a literal that is assigned and undone between two
such steps never reaches it.
"""

import itertools

from smasp import engine
from smasp.model import Atom, Clause, Literal, SmaspTheory
from smasp.trace import trace_from_outcome, validate_trace


def pigeonhole(pigeons, holes):
    """Each pigeon sits in a hole, and no hole holds two pigeons."""
    sits = {(p, h): Atom(f"p{p}h{h}") for p in range(pigeons) for h in range(holes)}
    clauses = [Clause(tuple(Literal(sits[p, h]) for h in range(holes))) for p in range(pigeons)]
    clauses += [Clause((Literal(sits[p, h], False), Literal(sits[q, h], False)))
                for h in range(holes) for p, q in itertools.combinations(range(pigeons), 2)]
    return SmaspTheory(tuple(clauses))


def _count_assigns(monkeypatch):
    counts = {"assign": 0}
    assign = engine.PropagationIndex._assign

    def counted(index, x):
        counts["assign"] += 1
        return assign(index, x)

    monkeypatch.setattr(engine.PropagationIndex, "_assign", counted)
    return counts


def test_a_strict_pigeonhole_replay_assigns_a_fraction_of_its_steps(monkeypatch):
    theory = pigeonhole(5, 4)
    outcome = engine.run(theory, "dpll")
    assert outcome.verdict == engine.VERDICT_UNSAT
    steps = len(outcome.steps)
    counts = _count_assigns(monkeypatch)
    trace = trace_from_outcome(outcome, "dpll", theory)
    assert validate_trace(trace, theory, "dpll", strict_strategy=True).ok
    assert (steps, counts["assign"]) == (549, 131)  # an index following every edge: 548
    assert 3 * counts["assign"] < steps


def test_a_run_assigns_every_literal_but_the_one_that_breaks_consistency(monkeypatch):
    """``run`` queries before every step, so the index takes each literal
    of the trail once, except a conflicting one, which the conflict rule
    that follows undoes before any query."""
    theory = pigeonhole(5, 4)
    counts = _count_assigns(monkeypatch)
    outcome = engine.run(theory, "dpll")
    trail_steps = sum(s.transition.rule != engine.RULE_FAIL for s in outcome.steps)
    conflicts = outcome.stats[engine.RULE_BACKTRACK] + outcome.stats[engine.RULE_FAIL]
    assert counts["assign"] == trail_steps - conflicts

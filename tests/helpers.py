"""Construction shortcuts shared by the test modules."""

from smasp import engine
from smasp.model import Atom, Clause, Literal, Program, Rule, Trail, TrailEntry


def atom(name):
    return Atom(name)


def atoms(names):
    return tuple(Atom(n) for n in names.split())


def lit(token):
    if token.startswith("-"):
        return Literal(Atom(token[1:]), positive=False)
    return Literal(Atom(token))


def lits(tokens):
    return frozenset(lit(t) for t in tokens.split())


def cl(*tokens):
    return Clause(tuple(lit(t) for t in tokens))


def rule(head, pos="", neg="", negneg=""):
    return Rule(Atom(head) if head else None, atoms(pos), atoms(neg), atoms(negneg))


def prog(*rules):
    return Program(tuple(rules))


def trail(spec, reasons=None):
    """Build a trail from tokens like "a* b -c"; '*' marks a decision.

    ``reasons`` maps a token (without '*') to the reason clause of the
    corresponding entry.
    """
    reasons = reasons or {}
    entries = []
    for token in spec.split():
        decision = token.endswith("*")
        if decision:
            token = token[:-1]
        entries.append(TrailEntry(lit(token), decision, reasons.get(token)))
    return Trail(tuple(entries))


def reference_clausal(pi):
    """Clause reading of every rule, deduplicated in rule order by a
    scan of the clauses kept so far."""
    out = []
    for r in pi:
        c = r.clause
        if c not in out:
            out.append(c)
    return tuple(out)


# the running example: a :- b, not c.  b.
PI0 = prog(rule("a", pos="b", neg="c"), rule("b"))
# a :- a.
PI2 = prog(rule("a", pos="a"))
# a :- b.  b :- a.
PI3 = prog(rule("a", pos="b"), rule("b", pos="a"))
# a :- not not a.
PI4 = prog(rule("a", negneg="a"))

F0 = (cl("b", "-c"),)
F1 = (cl("x1", "x2"), cl("-x1", "x3"))  # renamed copy of {a|b, -a|c}


def reference_choice(state, theory, strategy):
    """The canonical transition out of ``state``, derived from the
    definitional :func:`engine.applicable`: the first candidate of the
    first applicable rule in priority order, or None when none applies."""
    for group in strategy.priority:
        for name in group:
            candidates = engine.applicable(state, theory, name)
            if candidates:
                return candidates[0]
    return None


def _applies(state, theory, name):
    try:
        return bool(engine.applicable(state, theory, name))
    except ValueError:  # Backjump applies, but resolution reached a Backtrack literal
        return True


def reference_strict_violation(state, theory, strategy, rule):
    """The strict-strategy verdict on taking ``rule`` in ``state``,
    derived from the definitional :func:`engine.applicable`: the rule
    must sit in the first priority group that has an applicable rule."""
    if rule == engine.RULE_LEARN and strategy.learning:
        return None  # the learning policy, not a priority slot
    allowed = {r for group in strategy.priority for r in group}
    if rule not in allowed:
        return f"rule {rule} is not part of mode {strategy.mode!r}"
    for group in strategy.priority:
        applicable = [r for r in group if _applies(state, theory, r)]
        if applicable:
            if rule not in group:
                return f"higher-priority rule {applicable[0]} was applicable"
            return None
    return f"no rule of mode {strategy.mode!r} is applicable"

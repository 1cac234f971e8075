"""Construction shortcuts and references shared by the test modules."""

import json

from smasp import engine
from smasp.model import Atom, Clause, Literal, Program, Rule, Trail, TrailEntry, __version__
from smasp.parsing import ParseError, parse_literal_token
from smasp.trace import Trace, TraceHeader, Validation, validate_trace


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
    derived from the definitional :func:`engine.applicable`: no priority
    group before the rule's may have an applicable rule, and whether the
    rule itself applies is :func:`engine.step`'s to say. Learn is a
    learning strategy's policy; under any other strategy it must sit in
    the first group that has an applicable rule."""
    if rule == engine.RULE_LEARN and strategy.learning:
        return None  # the learning policy, not a priority slot
    if not any(rule in group for group in strategy.priority):
        return f"rule {rule} is not part of mode {strategy.mode!r}"
    # the first group with an applicable rule, and that group's first such rule
    first, name = next(((i, r) for i, group in enumerate(strategy.priority)
                        for r in group if _applies(state, theory, r)), (None, None))
    if first is None:
        return f"no rule of mode {strategy.mode!r} is applicable"
    mine = next(i for i, group in enumerate(strategy.priority) if rule in group)
    if rule in strategy.priority[first] or (mine < first and rule != engine.RULE_LEARN):
        return None
    if mine < first:  # Learn, outside the learning policy
        return f"{rule} must sit in the group of {name}"
    return f"higher-priority rule {name} was applicable"


def reference_strict_replay(trace, theory, strategy):
    """Strict :func:`validate_trace` by definition: the lax replay, with
    :func:`reference_strict_violation` asked before every step, in the
    state that :func:`engine.step` reaches through the steps before it."""
    lax = validate_trace(trace, theory, strategy)
    if lax.step_index == 0:  # the header names another theory
        return lax
    state = engine.AugmentedState()
    for position, recorded in enumerate(trace.steps, start=1):
        if recorded.index != position:  # where the lax replay stops first
            return lax
        violation = reference_strict_violation(state, theory, strategy, recorded.transition.rule)
        if violation:
            return Validation(False, position, violation)
        if lax.step_index == position:
            return lax
        state = engine.step(state, recorded.transition, theory)
    return lax


def _reference_integer(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"not an integer: {value!r}")
    return value


def _reference_literals(tokens):
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(f"not an array of literal tokens: {tokens!r}")
    return tuple(parse_literal_token(t) for t in tokens)


def _reference_step(record):
    """One step record, every field checked and built from scratch."""
    rule = record.get("rule")
    if not isinstance(rule, str) or rule not in engine.ALL_RULES:
        raise ParseError(f"unknown trace rule: {rule!r}")
    index = _reference_integer(record["index"])
    prefix_length = record.get("prefix_length")  # null reads as absent
    if prefix_length is not None:
        _reference_integer(prefix_length)
    digest = record.get("trail", "")
    if not isinstance(digest, str):
        raise ParseError(f"trail digest is not a string: {digest!r}")
    literal = clause = witness = None
    if "literal" in record:
        literal = _reference_literals([record["literal"]])[0]
    if "clause" in record:
        clause = Clause(_reference_literals(record["clause"]))
    if "witness" in record:
        members = _reference_literals(record["witness"])
        if not all(l.positive for l in members):
            raise ParseError(f"witness entries are atom names: {record['witness']!r}")
        witness = tuple(l.atom for l in members)
    return engine.TraceStep(
        index, engine.Transition(rule, literal, clause, witness, prefix_length), digest)


def reference_load_trace(text):
    """:func:`smasp.trace.load_trace` by definition, without its memo:
    ``json.loads`` of every non-blank line, the first the header (which
    holds neither ``index`` nor ``rule``), each step record checked and
    built on its own."""
    lines = [l for l in text.split("\n") if l.strip()]
    if not lines:
        raise ParseError("empty trace file")
    try:
        records = [json.loads(l) for l in lines]
        if not all(isinstance(r, dict) for r in records):
            raise ParseError("a trace line is not a JSON object")
        first = records[0]
        if "index" in first or "rule" in first:
            raise ParseError(f"the trace has no header: its first record is a step: {first!r}")
        header = TraceHeader(first.get("mode", ""), first.get("theory", ""),
                             first.get("version", __version__))
        if not all(isinstance(v, str) for v in header) or header.version != __version__:
            raise ParseError(f"bad trace header: {first!r}")
        return Trace(header, tuple(_reference_step(r) for r in records[1:]))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed trace: {exc}") from None
    except RecursionError:
        raise ParseError("malformed trace: JSON nested too deeply") from None

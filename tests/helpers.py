"""Construction shortcuts and references shared by the test modules."""

import json

from smasp import engine
from smasp.model import Atom, Clause, Literal, Program, Rule, Trail, TrailEntry, __version__
from smasp.parsing import ParseError, parse_literal_token, quote
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


def _reference_literals(key, tokens):
    if type(tokens) is not list:
        raise ParseError(f"{key} is not a JSON array: {quote(tokens)}")
    for token in tokens:
        if type(token) is not str:
            raise ParseError(f"literal token is not a string: {quote(token)}")
    return tuple(parse_literal_token(t) for t in tokens)


def _reference_header(record):
    if "index" in record or "rule" in record:
        raise ParseError("the trace has no header: its first record is a step")
    header = TraceHeader(record.get("mode", ""), record.get("theory", ""),
                         record.get("version", __version__))
    for key, value in zip(("mode", "theory", "version"), header):
        if not isinstance(value, str):
            raise ParseError(f"trace header {key} is not a string: {quote(value)}")
    if header.version != __version__:
        raise ParseError(f"trace version {quote(header.version)} is not {__version__!r}")
    return header


def _reference_step(record):
    index, digest = record.get("index"), record.get("trail", "")
    if type(index) is not int:
        raise ParseError(f"index is not an integer: {quote(index)}")
    if type(digest) is not str:
        raise ParseError(f"trail digest is not a string: {quote(digest)}")
    rule = record.get("rule")
    if type(rule) is not str or rule not in engine.ALL_RULES:
        raise ParseError(f"unknown trace rule: {quote(rule)}")
    prefix_length = record.get("prefix_length")  # null reads as absent
    if prefix_length is not None and type(prefix_length) is not int:
        raise ParseError(f"prefix_length is not an integer: {quote(prefix_length)}")
    literal = clause = witness = None
    if "literal" in record:
        token = record["literal"]
        if type(token) is not str:
            raise ParseError(f"literal token is not a string: {quote(token)}")
        literal = parse_literal_token(token)
    if "clause" in record:
        clause = Clause(_reference_literals("clause", record["clause"]))
    if "witness" in record:
        members = _reference_literals("witness", record["witness"])
        if not all(l.positive for l in members):
            raise ParseError(f"witness entries are atom names: {quote(record['witness'])}")
        witness = tuple(l.atom for l in members)
    return engine.TraceStep(
        index, engine.Transition(rule, literal, clause, witness, prefix_length), digest)


def reference_load_trace(text):
    """:func:`smasp.trace.load_trace` by definition, as the plain per-line
    loop: every non-blank line through ``json.loads``, the first the
    header (which holds neither ``index`` nor ``rule``), each step record
    checked field by field in the same order and with the same messages,
    and each literal token parsed afresh."""
    header, steps = None, []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if type(record) is not dict:
                raise ParseError(f"not a JSON object: {quote(line.strip())}")
            if header is None:
                header = _reference_header(record)
            else:
                steps.append(_reference_step(record))
        except ParseError as exc:
            raise ParseError(f"trace line {number}: {exc}") from None
        except ValueError as exc:
            raise ParseError(f"trace line {number} is malformed: {exc}") from None
        except RecursionError:
            raise ParseError(f"trace line {number} is malformed: JSON nested too deeply") from None
    if header is None:
        raise ParseError("empty trace file")
    return Trace(header, tuple(steps))

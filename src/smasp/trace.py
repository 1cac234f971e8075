"""Trace records: serialization to JSON lines, and replay validation
of a trace against a theory (a trace is valid when each step is an
edge of the transition graph and every trail digest matches).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, NamedTuple, Optional, Union

from . import engine, oracles
from .model import Clause, Literal, SmaspTheory, __version__, satisfies
from .parsing import ParseError, format_clause, format_literal, format_program, parse_literal_token


class TraceHeader(NamedTuple):
    mode: str
    theory_digest: str
    version: str = __version__


class Trace(NamedTuple):
    header: TraceHeader
    steps: tuple[engine.TraceStep, ...]


class Validation(NamedTuple):
    ok: bool
    step_index: Optional[int] = None
    reason: Optional[str] = None


# each live theory's digest; an entry goes when its theory dies
_DIGESTS: weakref.WeakKeyDictionary[SmaspTheory, str] = weakref.WeakKeyDictionary()


def theory_digest(theory: SmaspTheory) -> str:
    digest = _DIGESTS.get(theory)
    if digest is None:
        text = "\n".join(format_clause(c) for c in theory.clauses)
        text += "\n#\n" + format_program(theory.program)
        digest = _DIGESTS[theory] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digest


def trace_from_outcome(outcome: engine.Outcome, mode: str, theory: SmaspTheory) -> Trace:
    return Trace(TraceHeader(mode, theory_digest(theory)), outcome.steps)


class _Memo(dict):
    """A cache local to one dump or load: ``text`` runs once per distinct
    key. Only results are kept, so a key that raises raises every time."""

    def __init__(self, text: Callable) -> None:
        self.text = text

    def __missing__(self, key):
        value = self[key] = self.text(key)
        return value


def _lines(trace: Trace) -> Iterator[str]:
    """The lines of the trace's text, each ending in a newline. A step's
    record is what ``json.dumps`` writes for it, keys in the order index,
    rule, literal, clause, witness, prefix_length, trail; each rule and
    literal is encoded once per call."""
    header = trace.header
    yield json.dumps({"mode": header.mode, "theory": header.theory_digest,
                      "version": header.version}) + "\n"
    encode = encode_basestring_ascii
    rules = _Memo(lambda rule: '"rule": ' + encode(rule))
    tokens = _Memo(lambda literal: encode(format_literal(literal)))
    for index, (rule, literal, clause, witness, prefix_length), digest in trace.steps:
        line = '{"index": %d, ' % index + rules[rule]
        if literal is not None:
            line += ', "literal": ' + tokens[literal]
        if clause is not None:
            line += ', "clause": [' + ", ".join([tokens[l] for l in clause]) + "]"
        if witness is not None:
            line += ', "witness": [' + ", ".join([encode(a.name) for a in witness]) + "]"
        if prefix_length is not None:
            line += ', "prefix_length": %d' % prefix_length
        yield line + ', "trail": ' + encode(digest) + "}\n"


def dump_trace(trace: Trace) -> str:
    return "".join(_lines(trace))


def write_trace(path: str, trace: Trace) -> None:
    with open(path, "w") as handle:
        handle.writelines(_lines(trace))


def _object(line: str) -> dict:
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ParseError(f"trace line is not a JSON object: {line.strip()[:40]}")
    return record


def _literal(token, literals: _Memo) -> Literal:
    if not isinstance(token, str):
        raise ParseError(f"literal token is not a string: {token!r}")
    return literals[token]


def _literals(key: str, value, literals: _Memo) -> tuple[Literal, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{key} is not a JSON array: {value!r}")
    return tuple(_literal(t, literals) for t in value)


def _integer(key: str, value) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{key} is not an integer: {value!r}")
    return value


def _step_from_json(record: dict, literals: _Memo) -> engine.TraceStep:
    rule = record.get("rule")
    if not isinstance(rule, str) or rule not in engine.ALL_RULES:
        raise ParseError(f"unknown trace rule: {rule!r}")
    index = _integer("index", record["index"])
    prefix_length = record.get("prefix_length")
    if prefix_length is not None:
        _integer("prefix_length", prefix_length)
    digest = record.get("trail", "")
    if not isinstance(digest, str):
        raise ParseError(f"trail digest is not a string: {digest!r}")
    literal = _literal(record["literal"], literals) if "literal" in record else None
    clause = None
    if "clause" in record:
        clause = Clause(_literals("clause", record["clause"], literals))
    witness = None
    if "witness" in record:
        members = _literals("witness", record["witness"], literals)
        if not all(l.positive for l in members):
            raise ParseError(f"witness entries are atom names: {record['witness']!r}")
        witness = tuple(l.atom for l in members)
    return engine.TraceStep(
        index, engine.Transition(rule, literal, clause, witness, prefix_length), digest)


def _header(record: dict) -> TraceHeader:
    """The header's mode, theory digest and version, each a string when
    present; a trace written by another version is refused."""
    header = TraceHeader(record.get("mode", ""), record.get("theory", ""),
                         record.get("version", __version__))
    for key, value in zip(("mode", "theory", "version"), header):
        if not isinstance(value, str):
            raise ParseError(f"trace header {key} is not a string: {value!r}")
    if header.version != __version__:
        raise ParseError(f"trace version {header.version!r} is not {__version__!r}")
    return header


def load_trace(text: str) -> Trace:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ParseError("empty trace file")
    try:
        header = _header(_object(lines[0]))
        literals = _Memo(parse_literal_token)
        steps = tuple(_step_from_json(_object(l), literals) for l in lines[1:])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed trace: {exc}") from None
    except RecursionError:
        raise ParseError("malformed trace: JSON nested too deeply") from None
    return Trace(header, steps)


def _strict_violation(walk: engine.Walk, strategy: engine.Strategy, rule: str) -> Optional[str]:
    """Under strict checking the step's rule must sit in the first
    priority group that has any applicable rule: the group of
    :meth:`engine.Walk.choose`'s choice. On an inconsistent trail that
    is the first group, and its rule is :func:`engine.conflict_rule`'s,
    so no conflict analysis is needed. A rule outside the mode is
    reported as such."""
    if rule == engine.RULE_LEARN and strategy.learning:
        return None  # the learning policy, not a priority slot
    trail = walk.state.trail
    if trail.is_consistent:  # so is the failed state's empty trail
        chosen = walk.choose()
        first = None if chosen is None else chosen.rule
    else:
        first = engine.conflict_rule(trail, strategy)
    if first is not None and rule in next(g for g in strategy.priority if first in g):
        return None
    if rule not in strategy.rules:
        return f"rule {rule} is not part of mode {strategy.mode!r}"
    if first is None:
        return f"no rule of mode {strategy.mode!r} is applicable"
    return f"higher-priority rule {first} was applicable"


def validate_trace(trace: Trace, theory: SmaspTheory,
                   strategy: Union[engine.Strategy, str, None] = None,
                   strict_strategy: bool = False) -> Validation:
    """Replay a trace from the empty state along an
    :class:`engine.Walk`. Each step must be an edge of its rule (payload
    included) and reproduce the recorded trail digest; entailment side
    conditions are oracle-checked at desk scale. Strategy priorities
    are only enforced under ``strict_strategy``: the walk then takes
    the strategy, which must pass :func:`engine.require_conflict_first`,
    and each step's rule must sit in the priority group of
    :meth:`engine.Walk.choose`'s choice (:func:`_strict_violation`).
    """
    if isinstance(strategy, str):
        strategy = engine.for_mode(strategy)
    if trace.header.theory_digest and trace.header.theory_digest != theory_digest(theory):
        return Validation(False, 0, "trace header does not match the theory digest")
    if strict_strategy and strategy is None:
        raise ValueError("strict validation needs a strategy")

    theory_models = None  # enumerated once, on the first semantic check

    def entailed(clause: Clause) -> bool:
        nonlocal theory_models
        if theory_models is None:
            theory_models = oracles.enumerate_smasp_models(theory)
        return all(satisfies(m, (clause,)) for m in theory_models)

    check_entailment = oracles.at_desk_scale(theory)
    walk = engine.Walk(theory, strategy if strict_strategy else None)
    for position, step in enumerate(trace.steps, start=1):
        tr = step.transition
        if step.index != position:
            return Validation(False, position, f"step index {step.index} out of order")
        if strict_strategy:
            violation = _strict_violation(walk, strategy, tr.rule)
            if violation:
                return Validation(False, position, violation)
        try:
            digest = walk.advance(tr)
        except ValueError as exc:
            return Validation(False, position, str(exc))
        if check_entailment and tr.rule == engine.RULE_BACKJUMP:
            # the new trail is the kept prefix plus the asserted literal
            kept = walk.state.trail.entries[:-1]
            if not entailed(Clause((tr.literal,) + tuple(e.literal.complement() for e in kept))):
                return Validation(False, position, "backjump literal is not entailed over the kept prefix")
        if check_entailment and tr.rule == engine.RULE_LEARN and not entailed(tr.clause):
            return Validation(False, position, "learned clause is not entailed")
        if step.trail_digest and digest != step.trail_digest:
            return Validation(False, position, "trail digest mismatch after step")
    return Validation(True)

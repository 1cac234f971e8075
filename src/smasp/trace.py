"""Trace records: serialization to JSON lines, and replay validation
of a trace against a theory (a trace is valid when each step is an
edge of the transition graph and every trail digest matches).
"""

from __future__ import annotations

import hashlib
import json
import weakref
from json.encoder import encode_basestring_ascii
from typing import Iterator, NamedTuple, Optional, Union

from . import engine, oracles
from .model import Clause, Literal, SmaspTheory, __version__, _make_record, satisfies
from .parsing import ParseError, _Memo, format_clause, format_program, parse_literal_token, quote


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
        text = "\n".join([format_clause(c) for c in theory.clauses])
        text += "\n#\n" + format_program(theory.program)
        digest = _DIGESTS[theory] = hashlib.sha256(text.encode()).hexdigest()[:16]
    return digest


def trace_from_outcome(outcome: engine.Outcome, mode: str, theory: SmaspTheory) -> Trace:
    return Trace(TraceHeader(mode, theory_digest(theory)), outcome.steps)


def _payload(transition: engine.Transition) -> str:
    """A transition's part of its record: the rule, then each payload
    field that is present, in field order."""
    encode = encode_basestring_ascii
    rule, literal, clause, witness, prefix_length = transition
    text = '"rule": ' + encode(rule)
    if literal is not None:
        text += ', "literal": ' + encode(literal.token)
    if clause is not None:
        text += ', "clause": [' + ", ".join([encode(l.token) for l in clause]) + "]"
    if witness is not None:
        text += ', "witness": [' + ", ".join([encode(a.name) for a in witness]) + "]"
    if prefix_length is not None:
        text += ', "prefix_length": %d' % prefix_length
    return text


def _lines(trace: Trace) -> Iterator[str]:
    """The lines of the trace's text, each ending in a newline. Each
    line is what ``json.dumps`` writes for its record: the header's keys
    are mode, theory, version, and a step's are index, rule, literal,
    clause, witness, prefix_length, trail. Each distinct transition is
    encoded once per call, through a payload memo."""
    encode, payloads = encode_basestring_ascii, _Memo(_payload)
    yield '{"mode": %s, "theory": %s, "version": %s}\n' % tuple(map(encode, trace.header))
    for index, transition, digest in trace.steps:
        yield '{"index": %d, %s, "trail": %s}\n' % (index, payloads[transition], encode(digest))


def dump_trace(trace: Trace) -> str:
    return "".join(_lines(trace))


def write_trace(path: str, trace: Trace) -> None:
    with open(path, "w") as handle:
        handle.writelines(_lines(trace))


def _literals(key: str, value, tokens: dict[str, Literal]) -> tuple[Literal, ...]:
    """A clause's or a witness's literals, every entry a string, each
    distinct token parsed once per load through ``tokens``."""
    if type(value) is not list:
        raise ParseError(f"{key} is not a JSON array: {quote(value)}")
    try:
        return tuple([tokens[t] for t in value])  # every key is a token that parsed
    except (KeyError, TypeError):  # a new token, or one that is not a string
        pass
    for token in value:
        if type(token) is not str:
            raise ParseError(f"literal token is not a string: {quote(token)}")
    for token in value:
        if token not in tokens:
            tokens[token] = parse_literal_token(token)
    return tuple([tokens[t] for t in value])


def _header(record: dict) -> TraceHeader:
    """The header's mode, theory digest and version, each a string when
    present; a trace written by another version, or whose first record
    is a step, is refused."""
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


# the C scanner behind ``json.loads``: a value and where it ends
_scan = json.JSONDecoder().scan_once


def load_trace(text: str) -> Trace:
    """A header line, then a step record per line, blank lines skipped;
    a first record with an ``index`` or a ``rule`` is a step, not a header.
    Lines end at ``"\\n"`` alone, so a string may hold any other line
    separator raw, and a ``"\\r"`` before it is JSON whitespace.

    Each line is decoded once by the scanner behind ``json.loads``. When
    the value it reads does not end the line (white space around it, a
    byte order mark, text after it, or no value at all), ``json.loads``
    decodes the line again, so every value and every error is the one it
    gives. A record's fields are then checked in one pass; literal tokens
    map through a dict local to the load, so each distinct one is parsed
    once. A malformed line's error names it, blank lines counted."""
    tokens: dict[str, Literal] = {}
    rules, make = engine.ALL_RULES, _make_record
    Transition, TraceStep = engine.Transition, engine.TraceStep
    header, steps = None, []
    for number, line in enumerate(text.split("\n"), start=1):
        try:
            try:
                record, end = _scan(line, 0)
            except (StopIteration, ValueError, RecursionError):
                end = -1
            if end != len(line):
                if not line.strip():
                    continue
                record = json.loads(line)
            if type(record) is not dict:
                raise ParseError(f"not a JSON object: {quote(line.strip())}")
            if header is None:
                header = _header(record)
                continue
            get = record.get
            index, digest, rule = get("index"), get("trail", ""), get("rule")
            if type(index) is not int:  # nor bool
                raise ParseError(f"index is not an integer: {quote(index)}")
            if type(digest) is not str:
                raise ParseError(f"trail digest is not a string: {quote(digest)}")
            if type(rule) is not str or rule not in rules:
                raise ParseError(f"unknown trace rule: {quote(rule)}")
            prefix_length = get("prefix_length")  # null reads as absent
            if prefix_length is not None and type(prefix_length) is not int:
                raise ParseError(f"prefix_length is not an integer: {quote(prefix_length)}")
            literal = clause = witness = None
            if "literal" in record:
                token = record["literal"]
                if type(token) is not str:
                    raise ParseError(f"literal token is not a string: {quote(token)}")
                literal = tokens.get(token)
                if literal is None:
                    literal = tokens[token] = parse_literal_token(token)
            if "clause" in record:
                clause = Clause(_literals("clause", record["clause"], tokens))
            if "witness" in record:
                members = _literals("witness", record["witness"], tokens)
                if not all(l.positive for l in members):
                    raise ParseError(f"witness entries are atom names: {quote(record['witness'])}")
                witness = tuple(l.atom for l in members)
            transition = make(Transition, (rule, literal, clause, witness, prefix_length))
            steps.append(make(TraceStep, (index, transition, digest)))
        except ParseError as exc:
            raise ParseError(f"trace line {number}: {exc}") from None
        except ValueError as exc:  # malformed JSON, or an empty clause
            raise ParseError(f"trace line {number} is malformed: {exc}") from None
        except RecursionError:
            raise ParseError(f"trace line {number} is malformed: JSON nested too deeply") from None
    if header is None:
        raise ParseError("empty trace file")
    return Trace(header, tuple(steps))


def _strict_violation(walk: engine.Walk, rule: str, rejected: bool = False) -> Optional[str]:
    """No priority group ranked above the rule's may offer a transition.
    On an inconsistent trail the conflict group offers one, named by
    :func:`engine.conflict_rule`; on a consistent trail
    :meth:`engine.Walk.choose` asks the groups above the rule's, and
    brings the index up to date only once it reaches one with an index
    query, so a step of the conflict group or of the first propagation
    group leaves the index behind the trail. Whether the rule applies is
    :func:`engine.step`'s to say; once it has ``rejected`` the step, every
    group is asked, so that a step where no rule applies is reported as
    such. Learn is a learning strategy's policy; under another it must
    sit in the group of the whole choice."""
    strategy, rank = walk.strategy, walk.rank.get(rule)
    learn = rule == engine.RULE_LEARN
    if learn and strategy.learning:
        return None
    if rank is None:
        return f"rule {rule} is not part of mode {strategy.mode!r}"
    trail = walk.state.trail
    if trail.is_consistent:  # so is the failed state's empty trail
        whole = learn or rejected
        chosen = walk.choose() if whole else walk.choose(rank)
        if chosen is None:
            return f"no rule of mode {strategy.mode!r} is applicable" if whole else None
        first = chosen.rule
    else:
        first = engine.conflict_rule(trail, strategy)
    if walk.rank[first] < rank:
        return f"higher-priority rule {first} was applicable"
    if learn and walk.rank[first] > rank:
        return f"{rule} must sit in the group of {first}"
    return None


def validate_trace(trace: Trace, theory: SmaspTheory,
                   strategy: Union[engine.Strategy, str, None] = None,
                   strict_strategy: bool = False) -> Validation:
    """Replay a trace from the empty state along an
    :class:`engine.Walk`. Each step must be an edge of its rule (payload
    included) and reproduce the recorded trail digest; entailment side
    conditions are oracle-checked at desk scale. Strategy priorities
    are only enforced under ``strict_strategy``: the walk then takes
    the strategy, which must pass :func:`engine.require_conflict_first`,
    and no priority group ranked above each step's rule's may offer a
    transition (:func:`_strict_violation`).
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
        violation = strict_strategy and _strict_violation(walk, tr.rule)
        if violation:
            return Validation(False, position, violation)
        try:
            digest = walk.advance(tr)
        except ValueError as exc:
            violation = strict_strategy and _strict_violation(walk, tr.rule, rejected=True)
            return Validation(False, position, violation or str(exc))
        if check_entailment and tr.rule == engine.RULE_BACKJUMP:
            # the new trail is the kept prefix plus the asserted literal
            kept = walk.state.trail.entries[:-1]
            if not entailed(Clause((tr.literal,) + tuple(e.literal.dual for e in kept))):
                return Validation(False, position, "backjump literal is not entailed over the kept prefix")
        if check_entailment and tr.rule == engine.RULE_LEARN and not entailed(tr.clause):
            return Validation(False, position, "learned clause is not entailed")
        if step.trail_digest and digest != step.trail_digest:
            return Validation(False, position, "trail digest mismatch after step")
    return Validation(True)

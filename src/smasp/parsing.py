"""Parsers for the three input formats (DIMACS CNF, logic programs,
two-section clausal/program theories), for literal tokens and for
goals, and the printers the CLI and the trace digests use:
``format_literal``, ``format_literals``, ``format_clause``,
``format_rule`` and ``format_program``.

Printing then re-parsing a literal, a clause or a program yields a
structurally equal one.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .model import (
    Atom,
    Clause,
    Literal,
    ORIGIN_FRESH,
    PcidTheory,
    Program,
    Rule,
    SmaspTheory,
)
from .translations import desugar_choice


class ParseError(Exception):
    pass


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def parse_literal_token(token: str) -> Literal:
    """Read a literal as printed by this package; body-alias names are
    recognized by their brace-wrapped shape."""
    token = token.strip()
    positive = True
    if token.startswith("-"):
        positive = False
        token = token[1:]
    if not token:
        raise ParseError("empty literal token")
    if token.startswith("f{") and token.endswith("}"):
        return Literal(Atom(token, origin=ORIGIN_FRESH), positive)
    if not _IDENT.match(token):
        raise ParseError(f"invalid atom name: {token!r}")
    return Literal(Atom(token), positive)


def format_literal(literal: Literal) -> str:
    return literal.token


def format_literals(literals: Iterable[Literal]) -> str:
    return " ".join(format_literal(l) for l in sorted(literals, key=lambda l: l.key))


def parse_clause_line(line: str) -> Clause:
    pieces = [p.strip() for p in line.split("|")]
    if any(not p for p in pieces):
        raise ParseError(f"malformed clause line: {line!r}")
    return Clause(tuple(parse_literal_token(p) for p in pieces))


def format_clause(clause: Clause) -> str:
    return " | ".join(format_literal(l) for l in clause)


# -- DIMACS CNF --------------------------------------------------------

def parse_dimacs(text: str) -> tuple[Clause, ...]:
    """Standard DIMACS CNF; atoms are named ``x<i>`` by variable index."""
    var_count: Optional[int] = None
    clauses: list[Clause] = []
    current: list[Literal] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if var_count is not None:
                raise ParseError("duplicate DIMACS header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"malformed DIMACS header: {line!r}")
            try:
                var_count = int(parts[2])
                clause_count = int(parts[3])
            except ValueError:
                raise ParseError(f"malformed DIMACS header: {line!r}") from None
            if var_count < 0 or clause_count < 0:
                raise ParseError(f"malformed DIMACS header: {line!r}")
            continue
        if var_count is None:
            raise ParseError("clause before the 'p cnf' header")
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"unexpected DIMACS token: {token!r}") from None
            if value == 0:
                if not current:
                    raise ParseError("zero-length clause in DIMACS input")
                clauses.append(Clause(tuple(current)))
                current = []
            else:
                index = abs(value)
                if index > var_count:
                    raise ParseError(f"literal {value} exceeds declared variable count {var_count}")
                current.append(Literal(Atom(f"x{index}"), value > 0))
    if var_count is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        clauses.append(Clause(tuple(current)))
    return tuple(clauses)


# -- logic programs ----------------------------------------------------

_TOKEN = re.compile(r"\s*(:-|[A-Za-z_][A-Za-z0-9_]*|[{};,.])")


def _tokenize_lp(text: str) -> list[str]:
    # strip % comments first
    stripped = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    tokens = []
    pos = 0
    while pos < len(stripped):
        m = _TOKEN.match(stripped, pos)
        if m is None:
            rest = stripped[pos:].strip()
            if not rest:
                break
            raise ParseError(f"unknown token near: {rest[:20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, token: str) -> None:
        tok = self.take()
        if tok != token:
            raise ParseError(f"expected {token!r}, found {tok!r}")


def _parse_atom(stream: _TokenStream) -> Atom:
    tok = stream.take()
    if tok == "not" or not _IDENT.match(tok):
        raise ParseError(f"expected an atom, found {tok!r}")
    return Atom(tok)


def _parse_body(stream: _TokenStream) -> tuple[list[Atom], list[Atom], list[Atom]]:
    pos: list[Atom] = []
    neg: list[Atom] = []
    negneg: list[Atom] = []
    while True:
        if stream.peek() == "not":
            stream.take()
            if stream.peek() == "not":
                stream.take()
                negneg.append(_parse_atom(stream))
            else:
                neg.append(_parse_atom(stream))
        else:
            pos.append(_parse_atom(stream))
        if stream.peek() == ",":
            stream.take()
            continue
        return pos, neg, negneg


def _parse_rule(stream: _TokenStream) -> Rule:
    choice_heads: Optional[list[Atom]] = None
    head: Optional[Atom] = None
    tok = stream.peek()
    if tok == "{":
        stream.take()
        choice_heads = [_parse_atom(stream)]
        while stream.peek() == ";":
            stream.take()
            choice_heads.append(_parse_atom(stream))
        stream.expect("}")
    elif tok not in (":-", "."):
        head = _parse_atom(stream)

    pos: list[Atom] = []
    neg: list[Atom] = []
    negneg: list[Atom] = []
    if stream.peek() == ":-":
        stream.take()
        if stream.peek() != ".":
            pos, neg, negneg = _parse_body(stream)
    stream.expect(".")

    try:
        if choice_heads is not None:
            return desugar_choice(choice_heads, pos, neg, negneg)
        if head is None and not (pos or neg or negneg):
            raise ValueError("a constraint must have a non-empty body")
        return Rule(head, tuple(pos), tuple(neg), tuple(negneg))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_lp(text: str) -> Program:
    """Rules ``head :- body.`` with ``not`` / ``not not`` body items,
    ``{a}`` choice heads, headless constraints, and ``%`` comments."""
    stream = _TokenStream(_tokenize_lp(text))
    rules = []
    while stream.peek() is not None:
        rules.append(_parse_rule(stream))
    return Program(tuple(rules))


def format_rule(rule: Rule) -> str:
    items = [a.name for a in rule.pos]
    items += [f"not {a.name}" for a in rule.neg]
    items += [f"not not {a.name}" for a in rule.negneg]
    body = ", ".join(items)
    if rule.head is None:
        return f":- {body}."
    if not body:
        return f"{rule.head.name}."
    return f"{rule.head.name} :- {body}."


def format_program(pi: Program) -> str:
    return "\n".join(format_rule(r) for r in pi)


# -- two-section clausal/program theories ------------------------------

def _split_sections(text: str) -> tuple[list[str], str]:
    lines = text.splitlines()
    try:
        t = next(i for i, l in enumerate(lines) if l.strip() == "#theory")
    except StopIteration:
        raise ParseError("missing '#theory' section marker") from None
    try:
        p = next(i for i, l in enumerate(lines) if l.strip() == "#program")
    except StopIteration:
        raise ParseError("missing '#program' section marker") from None
    if p < t:
        raise ParseError("'#program' section precedes '#theory'")
    clause_lines = [l for l in lines[t + 1:p] if l.strip()]
    return clause_lines, "\n".join(lines[p + 1:])


def parse_theory_sections(text: str) -> tuple[tuple[Clause, ...], Program]:
    clause_lines, program_text = _split_sections(text)
    clauses = tuple(parse_clause_line(l) for l in clause_lines)
    return clauses, parse_lp(program_text)


def parse_pcid(text: str) -> PcidTheory:
    clauses, program = parse_theory_sections(text)
    try:
        return PcidTheory(clauses, program)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_smasp(text: str) -> SmaspTheory:
    """Same two-section format, without the weak-normality requirement."""
    clauses, program = parse_theory_sections(text)
    return SmaspTheory(clauses, program)


def parse_goal(text: str) -> tuple[Clause, ...]:
    """Semicolon-separated clauses, each in ``lit | lit`` syntax."""
    parts = [p for p in (piece.strip() for piece in text.split(";")) if p]
    if not parts:
        raise ParseError("empty goal")
    return tuple(parse_clause_line(p) for p in parts)

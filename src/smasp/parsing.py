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
from typing import Callable, Iterable, Optional

from .model import (
    Atom,
    Clause,
    Literal,
    ORIGIN_FRESH,
    PcidTheory,
    Program,
    Rule,
    SmaspTheory,
    by_key,
)
from .translations import desugar_choice


class ParseError(Exception):
    pass


class _Memo(dict):
    """A cache local to one call: ``text`` runs once per distinct key.
    Only results are kept, so a key that raises raises every time."""

    def __init__(self, text: Callable) -> None:
        self.text = text

    def __missing__(self, key):
        value = self[key] = self.text(key)
        return value


def quote(value: object) -> str:
    """``repr(value)`` for an error message, cut to 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


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
        raise ParseError(f"invalid atom name: {quote(token)}")
    return Literal(Atom(token), positive)


def format_literal(literal: Literal) -> str:
    return literal.token


def format_literals(literals: Iterable[Literal]) -> str:
    return " ".join(format_literal(l) for l in sorted(literals, key=by_key))


def parse_clause_line(line: str) -> Clause:
    pieces = [p.strip() for p in line.split("|")]
    if any(not p for p in pieces):
        raise ParseError(f"malformed clause line: {quote(line)}")
    return Clause(tuple(parse_literal_token(p) for p in pieces))


def format_clause(clause: Clause) -> str:
    return " | ".join([l.token for l in clause])


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
                raise ParseError(f"malformed DIMACS header: {quote(line)}")
            try:
                var_count = int(parts[2])
                clause_count = int(parts[3])
            except ValueError:
                raise ParseError(f"malformed DIMACS header: {quote(line)}") from None
            if var_count < 0 or clause_count < 0:
                raise ParseError(f"malformed DIMACS header: {quote(line)}")
            continue
        if var_count is None:
            raise ParseError("clause before the 'p cnf' header")
        for token in line.split():
            try:
                value = int(token)
            except ValueError:
                raise ParseError(f"unexpected DIMACS token: {quote(token)}") from None
            if value == 0:
                if not current:
                    raise ParseError("zero-length clause in DIMACS input")
                clauses.append(Clause(tuple(current)))
                current = []
            else:
                index = abs(value)
                if index > var_count:
                    raise ParseError(f"literal {quote(value)} exceeds declared variable count {var_count}")
                current.append(Literal(Atom(f"x{index}"), value > 0))
    if var_count is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        clauses.append(Clause(tuple(current)))
    return tuple(clauses)


# -- logic programs ----------------------------------------------------

def _parse_atom(word: str) -> Atom:
    if word == "not" or not _IDENT.match(word):
        raise ParseError(f"expected an atom, found {quote(word)}")
    return Atom(word)


# the words before a body item's atom, by the body part it joins
_NOTS = ([], ["not"], ["not", "not"])


def _parse_rule(text: str, atoms: _Memo) -> Rule:
    """One rule; ``atoms`` reads each atom word once per program."""
    head, _, body = text.partition(":-")
    head = head.strip()
    parts: tuple[list[Atom], list[Atom], list[Atom]] = ([], [], [])  # pos, neg, negneg
    for item in body.split(",") if body.strip() else ():
        *nots, atom = item.split() or [""]
        if nots not in _NOTS:
            raise ParseError(f"expected a body item, found {quote(item.strip())}")
        parts[len(nots)].append(atoms[atom])
    try:
        if head.startswith("{") and head.endswith("}"):
            return desugar_choice([atoms[a.strip()] for a in head[1:-1].split(";")], *parts)
        return Rule(atoms[head] if head else None, *parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_lp(text: str) -> Program:
    """Rules ``head :- body.`` with ``not`` / ``not not`` body items,
    ``{a}`` choice heads, headless constraints, and ``%`` comments; a
    period ends each rule, and no atom holds one."""
    stripped = "\n".join(line.split("%", 1)[0] for line in text.splitlines())
    *rules, rest = stripped.split(".")
    if rest.strip():
        raise ParseError(f"expected a period after {quote(rest.strip())}")
    atoms = _Memo(_parse_atom)
    return Program(tuple([_parse_rule(r, atoms) for r in rules]))


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
    return "\n".join([format_rule(r) for r in pi])


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

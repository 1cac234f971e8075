"""Core value types: atoms, literals, trails, clauses, rules, programs,
and the two theory pairings.

Everything is an immutable value; derived views are cached per instance.
Atoms, literals, clauses, rule bodies and rules are interned: equal
arguments (after sorting and deduplicating a clause's literals or a
body's atom tuples) give the one live object, so they compare and hash
by identity and membership tests never compare values. Each literal
holds its dual and its printed token, each clause its sort key; a body
computes its sort key and its set of plain atoms when first asked. A
constructor looks its arguments up as given before normalising them,
and sorts nothing for a clause of one or two literals or a body part of
one atom. No value defines an order; sorting is by ``key`` (through
:data:`by_key`), a total order, so that candidate enumeration is
reproducible across runs (the trace-identity tests depend on it).
"""

from __future__ import annotations

import hashlib
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional

__version__ = "0.1.0"

ORIGIN_USER = "user"
ORIGIN_FRESH = "fresh-body"

# Fresh body-alias atoms sort before user atoms; the unit-propagation
# order on alias-extended completions depends on this.
_ORIGIN_RANK = {ORIGIN_FRESH: 0, ORIGIN_USER: 1}


class CapExceeded(Exception):
    """An enumeration or output budget would be exceeded."""


def _setters(cls) -> tuple:
    """The setters of ``cls``'s own slots in ``__slots__`` order; they
    write past the ``__setattr__`` that keeps an instance immutable."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


# Each constructor reads its interning table inline, ``ref = table.get(form)``
# then ``value = ref and ref()``: None when the form is absent or its value
# has died (a weak reference is always true).

def _enter(table: dict, key, value) -> None:
    """Intern ``value`` under ``key``; the entry goes when the value dies."""
    table[key] = weakref.ref(value, partial(_forget, table, key))


def _forget(table: dict, key, ref: weakref.ref) -> None:
    if table.get(key) is ref:  # not yet replaced by a newer value
        del table[key]


class _Interned:
    """Base of the interned value types: instances are made only by the
    class's ``__new__``, never change, and compare and hash by
    identity, which interning makes the same as comparing by value.
    Each class's ``_table`` maps a normal form to a weak reference to
    the one live value with that form."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Atom(_Interned):
    """A propositional atom.

    ``origin`` separates user atoms from the fresh body aliases
    introduced by the linear completion; alias names never collide with
    parseable user tokens. Atoms are interned: ``Atom(n, o)`` returns
    the one live atom with that name and origin.
    """

    __slots__ = ("name", "origin", "key")
    _table: dict[tuple[str, str], weakref.ref] = {}

    def __new__(cls, name: str, origin: str = ORIGIN_USER) -> "Atom":
        form = name, origin
        ref = cls._table.get(form)
        atom = ref and ref()
        if atom is not None:
            return atom
        if not name:
            raise ValueError("atom name must be a non-empty token")
        if origin not in _ORIGIN_RANK:
            raise ValueError(f"unknown atom origin: {origin!r}")
        atom = object.__new__(cls)
        _put_name(atom, name)
        _put_origin(atom, origin)
        _put_atom_key(atom, (_ORIGIN_RANK[origin], name))
        _enter(cls._table, form, atom)
        return atom

    def __reduce__(self):
        return (Atom, (self.name, self.origin))

    def __repr__(self) -> str:
        if self.origin == ORIGIN_USER:
            return f"Atom({self.name!r})"
        return f"Atom({self.name!r}, fresh)"


class Literal(_Interned):
    """An atom with a polarity; interned like atoms, and made in dual
    pairs: ``Literal(atom, p)`` makes both polarities at once, so each
    literal holds its ``dual`` and its printed ``token`` from the start."""

    __slots__ = ("atom", "positive", "key", "dual", "token")
    _table: dict[tuple[Atom, bool], weakref.ref] = {}

    def __new__(cls, atom: Atom, positive: bool = True) -> "Literal":
        ref = cls._table.get((atom, positive))
        literal = ref and ref()
        if literal is not None:
            return literal
        pair = object.__new__(cls), object.__new__(cls)
        for literal, polarity, token in ((pair[0], True, atom.name),
                                         (pair[1], False, "-" + atom.name)):
            _put_atom(literal, atom)
            _put_positive(literal, polarity)
            _put_literal_key(literal, (*atom.key, 0 if polarity else 1))
            _put_dual(literal, pair[polarity])
            _put_token(literal, token)
            _enter(cls._table, (atom, polarity), literal)
        return pair[not positive]

    def __reduce__(self):
        return (Literal, (self.atom, self.positive))

    def __repr__(self) -> str:
        return self.token


def duals(literals: Iterable[Literal]) -> frozenset[Literal]:
    return frozenset(l.dual for l in literals)


# the one sort key of every value
by_key = attrgetter("key")


def sorted_literals(literals: Iterable[Literal]) -> tuple[Literal, ...]:
    return tuple(sorted(set(literals), key=by_key))


def sorted_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return tuple(sorted(set(atoms), key=by_key))


class Clause(_Interned):
    """A non-empty disjunction of literals, kept in canonical order.

    Interned: ``Clause(literals)`` sorts and dedupes the literals, then
    returns the one live clause with that normal form.
    """

    __slots__ = ("literals", "key", "_atoms")
    _table: dict[tuple[Literal, ...], weakref.ref] = {}

    def __new__(cls, literals: Iterable[Literal]) -> "Clause":
        given = tuple(literals)
        table = cls._table
        ref = table.get(given)  # already in normal form
        clause = ref and ref()
        if clause is not None:
            return clause
        n = len(given)
        if n == 2:
            first, second = given
            if first is second:
                literals = given[:1]
            elif second.key < first.key:
                literals = second, first
            else:
                literals = given
        elif n == 1:
            literals = given
        elif n:
            literals = sorted_literals(given)
        else:
            raise ValueError("a clause is a non-empty disjunction")
        if literals != given:
            ref = table.get(literals)
            clause = ref and ref()
            if clause is not None:
                return clause
        clause = object.__new__(cls)
        _put_literals(clause, literals)
        _put_clause_key(clause, tuple([l.key for l in literals]))
        _put_atoms(clause, None)
        _enter(table, literals, clause)
        return clause

    def __reduce__(self):
        return (Clause, (self.literals,))

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __contains__(self, literal: Literal) -> bool:
        return literal in self.literals

    @property
    def atoms(self) -> tuple[Atom, ...]:
        atoms = self._atoms
        if atoms is None:
            # literals sort by atom first, so the atoms come out sorted
            atoms = tuple(dict.fromkeys(l.atom for l in self.literals))
            _put_atoms(self, atoms)
        return atoms

    def __repr__(self) -> str:
        return "Clause(" + " | ".join(map(repr, self.literals)) + ")"


def sorted_clauses(clauses: Iterable[Clause]) -> tuple[Clause, ...]:
    """Deduplicated in first-seen order, so that sorting an already
    sorted input takes linear time."""
    return tuple(sorted(dict.fromkeys(clauses), key=by_key))


class Body(_Interned):
    """A rule body split into its plain, negated, and doubly negated
    parts; interned on the sorted, deduplicated parts."""

    __slots__ = ("pos", "neg", "negneg", "s_literals", "_key", "_pos_set", "_s_duals")
    _table: dict[tuple, weakref.ref] = {}

    def __new__(cls, pos: Iterable[Atom] = (), neg: Iterable[Atom] = (),
                negneg: Iterable[Atom] = ()) -> "Body":
        given = pos, neg, negneg = tuple(pos), tuple(neg), tuple(negneg)
        table = cls._table
        ref = table.get(given)  # already in normal form
        body = ref and ref()
        if body is not None:
            return body
        if len(pos) > 1:
            pos = sorted_atoms(pos)
        if len(neg) > 1:
            neg = sorted_atoms(neg)
        if len(negneg) > 1:
            negneg = sorted_atoms(negneg)
        parts = pos, neg, negneg
        if parts != given:
            ref = table.get(parts)
            body = ref and ref()
            if body is not None:
                return body
        body = object.__new__(cls)
        _put_pos(body, pos)
        _put_neg(body, neg)
        _put_negneg(body, negneg)
        # the body read as literals: atoms and doubly negated atoms map
        # to positive literals, negated atoms to negative ones
        _put_s_literals(body, sorted_literals(
            [Literal(a) for a in pos + negneg] + [Literal(a, positive=False) for a in neg]))
        _put_body_key(body, None)
        _put_pos_set(body, None)
        _put_s_duals(body, None)
        _enter(table, parts, body)
        return body

    def __reduce__(self):
        return (Body, (self.pos, self.neg, self.negneg))

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg) + len(self.negneg)

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @property
    def key(self) -> tuple:
        key = self._key
        if key is None:
            key = tuple([tuple([a.key for a in part]) for part in (self.pos, self.neg, self.negneg)])
            _put_body_key(self, key)
        return key

    @property
    def pos_set(self) -> frozenset[Atom]:
        pos_set = self._pos_set
        if pos_set is None:
            pos_set = frozenset(self.pos)
            _put_pos_set(self, pos_set)
        return pos_set

    @property
    def s_duals(self) -> frozenset[Literal]:
        """``duals(s_literals)``: a literal set contradicts the body when
        it meets this set."""
        s_duals = self._s_duals
        if s_duals is None:
            s_duals = duals(self.s_literals)
            _put_s_duals(self, s_duals)
        return s_duals

    def __repr__(self) -> str:
        return f"Body(pos={self.pos!r}, neg={self.neg!r}, negneg={self.negneg!r})"


class Rule(_Interned):
    """A program rule; ``head`` is absent for constraints, which must
    have a non-empty body. Interned on the head and the interned body."""

    __slots__ = ("head", "pos", "neg", "negneg", "body", "_clause")
    _table: dict[tuple, weakref.ref] = {}

    def __new__(cls, head: Optional[Atom], pos: Iterable[Atom] = (),
                neg: Iterable[Atom] = (), negneg: Iterable[Atom] = ()) -> "Rule":
        body = Body(pos, neg, negneg)
        if head is None and body.is_empty:
            raise ValueError("a constraint must have a non-empty body")
        form = head, body
        ref = cls._table.get(form)
        rule = ref and ref()
        if rule is not None:
            return rule
        rule = object.__new__(cls)
        _put_head(rule, head)
        _put_rule_pos(rule, body.pos)
        _put_rule_neg(rule, body.neg)
        _put_rule_negneg(rule, body.negneg)
        _put_body(rule, body)
        _put_clause(rule, None)
        _enter(cls._table, form, rule)
        return rule

    def __reduce__(self):
        return (Rule, (self.head, self.pos, self.neg, self.negneg))

    @property
    def clause(self) -> Clause:
        """The rule read as a clause: head against the body literals."""
        clause = self._clause
        if clause is None:
            lits = [l.dual for l in self.body.s_literals]
            if self.head is not None:
                lits.append(Literal(self.head))
            clause = Clause(lits)
            _put_clause(self, clause)
        return clause

    def __repr__(self) -> str:
        return (f"Rule(head={self.head!r}, pos={self.pos!r}, neg={self.neg!r}, "
                f"negneg={self.negneg!r})")


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        found = set(self.heads)
        for r in self.rules:
            found.update(r.pos, r.neg, r.negneg)
        return sorted_atoms(found)

    @cached_property
    def heads(self) -> frozenset[Atom]:
        return frozenset(r.head for r in self.rules if r.head is not None)

    @cached_property
    def _bodies_by_head(self) -> dict[Atom, tuple[Body, ...]]:
        index: dict[Atom, dict[Body, None]] = {}
        for r in self.rules:
            if r.head is not None:
                index.setdefault(r.head, {})[r.body] = None
        return {a: tuple(bodies) for a, bodies in index.items()}

    def bodies(self, atom: Atom) -> tuple[Body, ...]:
        """Distinct bodies of the rules with head ``atom``, in rule order."""
        return self._bodies_by_head.get(atom, ())

    @property
    def is_weakly_normal(self) -> bool:
        return all(r.head is not None for r in self.rules)

    def is_fact_atom(self, atom: Atom) -> bool:
        """True when some rule for ``atom`` has an empty body."""
        return any(b.is_empty for b in self.bodies(atom))

    def extend(self, rules: Iterable[Rule]) -> "Program":
        return Program(self.rules + tuple(rules))

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)


# the constructors' and lazy views' slot setters, bound once the classes exist
_put_name, _put_origin, _put_atom_key = _setters(Atom)
_put_atom, _put_positive, _put_literal_key, _put_dual, _put_token = _setters(Literal)
_put_literals, _put_clause_key, _put_atoms = _setters(Clause)
(_put_pos, _put_neg, _put_negneg, _put_s_literals,
 _put_body_key, _put_pos_set, _put_s_duals) = _setters(Body)
(_put_head, _put_rule_pos, _put_rule_neg, _put_rule_negneg,
 _put_body, _put_clause) = _setters(Rule)


# what ``namedtuple._make`` calls: a record built from a tuple of its
# fields in order, without the generated keyword-taking ``__new__``
_make_record = tuple.__new__


class TrailEntry(NamedTuple):
    literal: Literal
    is_decision: bool = False
    reason: Optional[Clause] = None


def entry_token(entry: TrailEntry) -> str:
    """An entry as the trail digest hashes it: the literal's token, then
    ``@d`` after a decision."""
    token = entry.literal.token
    return token + "@d" if entry.is_decision else token


class Trail:
    """An ordered, duplicate-free record of literals, some marked as
    decisions; propagated entries carry their reason clause. An
    immutable value that compares and hashes by its entries.

    Every field is set when the trail is made. :meth:`append` and
    :meth:`truncate` derive ``literal_set``, ``first_conflict_index``
    and ``decision_indices`` from their parent's instead of rescanning.
    ``digest`` is ``engine.digest_trail`` of the trail: ``append``
    extends its parent's sha256 state by one token, and any other trail
    hashes its entries when it is made."""

    __slots__ = ("entries", "literal_set", "first_conflict_index", "decision_indices", "_sha256")
    __setattr__, __delattr__ = _Interned.__setattr__, _Interned.__delattr__

    def __init__(self, entries: tuple[TrailEntry, ...] = ()) -> None:
        literal_set = frozenset(e.literal for e in entries)
        if len(literal_set) < len(entries):
            raise ValueError("a literal occurs twice in trail")
        conflict, seen = None, set()
        for i, e in enumerate(entries):
            if e.literal.dual in seen:
                conflict = i
                break
            seen.add(e.literal)
        _fill(self, entries, literal_set, conflict,
              tuple(i for i, e in enumerate(entries) if e.is_decision))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Trail:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TrailEntry]:
        return iter(self.entries)

    def __contains__(self, literal: Literal) -> bool:
        return literal in self.literal_set

    def is_unassigned(self, literal: Literal) -> bool:
        return literal not in self.literal_set and literal.dual not in self.literal_set

    @property
    def is_consistent(self) -> bool:
        return self.first_conflict_index is None

    @property
    def digest(self) -> str:
        return self._sha256.hexdigest()[:16]

    def append(self, literal: Literal, decision: bool = False,
               reason: Optional[Clause] = None) -> "Trail":
        """The trail extended by one entry, whose :func:`entry_token`
        extends the parent's sha256 state."""
        literal_set = self.literal_set
        if literal in literal_set:
            raise ValueError(f"literal {literal!r} occurs twice in trail")
        entries = self.entries
        n = len(entries)
        conflict = self.first_conflict_index
        if conflict is None and literal.dual in literal_set:
            conflict = n
        token = literal.token + "@d" if decision else literal.token
        sha256 = self._sha256.copy()
        sha256.update((" " + token if n else token).encode())
        decisions = self.decision_indices
        trail = object.__new__(Trail)
        _put_entries(trail, entries + (_make_record(TrailEntry, (literal, decision, reason)),))
        _put_literal_set(trail, literal_set | {literal})
        _put_conflict(trail, conflict)
        _put_decisions(trail, decisions + (n,) if decision else decisions)
        _put_sha256(trail, sha256)
        return trail

    def truncate(self, length: Optional[int]) -> "Trail":
        """The first ``length`` entries, all of them when ``length`` is
        None, so ``truncate(first_conflict_index)`` is the longest
        consistent prefix. A prefix of a duplicate-free trail is
        duplicate-free, and its first conflict and decisions are this
        trail's below the cut."""
        entries = self.entries[:length]
        n = len(entries)
        conflict = self.first_conflict_index
        decisions = self.decision_indices
        return _fill(object.__new__(Trail), entries, frozenset(e.literal for e in entries),
                     None if conflict is None or conflict >= n else conflict,
                     decisions[:bisect_left(decisions, n)])

    def __reduce__(self):
        # a sha256 state does not pickle; the views are rebuilt
        return (Trail, (self.entries,))

    def __repr__(self) -> str:
        toks = [repr(e.literal) + ("^" if e.is_decision else "") for e in self.entries]
        return "Trail(" + " ".join(toks) + ")"


def _fill(trail: Trail, entries: tuple[TrailEntry, ...], literal_set: frozenset[Literal],
          conflict: Optional[int], decisions: tuple[int, ...]) -> Trail:
    """Set every field of ``trail``, hashing its entries for the digest."""
    _put_entries(trail, entries)
    _put_literal_set(trail, literal_set)
    _put_conflict(trail, conflict)
    _put_decisions(trail, decisions)
    _put_sha256(trail, hashlib.sha256(" ".join(map(entry_token, entries)).encode()))
    return trail


_put_entries, _put_literal_set, _put_conflict, _put_decisions, _put_sha256 = _setters(Trail)


# Set-view helpers used by the oracles and validators; literal sets are
# plain frozensets throughout.

def positive_part(literals: Iterable[Literal]) -> frozenset[Atom]:
    return frozenset(l.atom for l in literals if l.positive)


def restrict_literals(literals: Iterable[Literal], atoms: Iterable[Atom]) -> frozenset[Literal]:
    keep = set(atoms)
    return frozenset(l for l in literals if l.atom in keep)


def atoms_of_literals(literals: Iterable[Literal]) -> frozenset[Atom]:
    return frozenset(l.atom for l in literals)


def is_consistent_literals(literals: Iterable[Literal]) -> bool:
    ls = set(literals)
    return not any(l.dual in ls for l in ls)


def is_complete_over(literals: Iterable[Literal], atoms: Iterable[Atom]) -> bool:
    """Complete over ``atoms``: every atom occurs and no others do."""
    present = atoms_of_literals(literals)
    return present == frozenset(atoms)


def satisfies(literals: Iterable[Literal], clauses: Iterable[Clause]) -> bool:
    ls = set(literals)
    return all(any(l in ls for l in c) for c in clauses)


@dataclass(frozen=True)
class SmaspTheory:
    """A clause set paired with a program; models are models of the
    clauses whose positive part is an input answer set of the program."""

    clauses: tuple[Clause, ...]
    program: Program = Program()

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", sorted_clauses(self.clauses))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # theories are keys of engine._context's cache and trace.theory_digest's
        return hash((self.clauses, self.program))

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        clause_atoms = (l.atom for c in self.clauses for l in c.literals)
        return sorted_atoms(chain(self.program.atoms, clause_atoms))


@dataclass(frozen=True)
class PcidTheory:
    """A clause set paired with a weakly normal program evaluated under
    the well-founded semantics."""

    clauses: tuple[Clause, ...]
    program: Program = Program()

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", sorted_clauses(self.clauses))
        if not self.program.is_weakly_normal:
            raise ValueError("program of a PC(ID) theory must be weakly normal")

    @cached_property
    def atoms(self) -> tuple[Atom, ...]:
        clause_atoms = (l.atom for c in self.clauses for l in c.literals)
        return sorted_atoms(chain(self.program.atoms, clause_atoms))

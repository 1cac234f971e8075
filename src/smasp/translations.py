"""Syntactic reductions between the formalisms: clause readings,
completion in its quadratic and alias-extended linear forms, opened
programs, the constraint encoding of clause sets, and choice-rule
desugaring.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .model import (
    Atom,
    Body,
    CapExceeded,
    Clause,
    Literal,
    ORIGIN_FRESH,
    PcidTheory,
    Program,
    Rule,
    sorted_atoms,
    sorted_clauses,
)

DEFAULT_CLAUSE_BUDGET = 10 ** 6


def clausal(pi: Program) -> tuple[Clause, ...]:
    """Clause reading of every rule, deduplicated in rule order."""
    return tuple(dict.fromkeys(r.clause for r in pi))


def open_atoms(pi: Program, atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    return sorted_atoms(a for a in atoms if a not in pi.heads)


def open_program(pi: Program, atoms: Iterable[Atom]) -> Program:
    """Extend ``pi`` with a self-supporting rule for every atom of
    ``atoms`` that it cannot define."""
    extra = tuple(Rule(a, negneg=(a,)) for a in open_atoms(pi, atoms))
    return pi.extend(extra)


def _non_fact_atoms(pi: Program) -> tuple[Atom, ...]:
    return tuple(a for a in pi.atoms if not pi.is_fact_atom(a))


def completion(pi: Program) -> tuple[Clause, ...]:
    """Clausified completion: the clause reading plus, for every
    non-fact atom, the distributed form of "the atom implies one of its
    bodies". Can be exponential: refused once its distinct clauses, the
    clause reading's included, exceed :data:`DEFAULT_CLAUSE_BUDGET`, or
    before expanding an atom whose body picks alone exceed it."""
    out = set(clausal(pi))
    for a in _non_fact_atoms(pi):
        bodies = pi.bodies(a)
        picks = 1
        for b in bodies:
            picks *= max(len(b.s_literals), 1)
        if max(len(out), picks) > DEFAULT_CLAUSE_BUDGET:
            raise CapExceeded(f"completion would exceed the {DEFAULT_CLAUSE_BUDGET}-clause budget")
        head_lit = Literal(a, positive=False)
        for pick in itertools.product(*[b.s_literals for b in bodies]):
            out.add(Clause((head_lit,) + pick))
    if len(out) > DEFAULT_CLAUSE_BUDGET:
        raise CapExceeded(f"completion would exceed the {DEFAULT_CLAUSE_BUDGET}-clause budget")
    return sorted_clauses(out)


def _body_token(body: Body) -> str:
    parts = [a.name for a in body.pos]
    parts += [f"not {a.name}" for a in body.neg]
    parts += [f"not not {a.name}" for a in body.negneg]
    return ",".join(parts)


def fresh_body_atom(body: Body) -> Atom:
    """Deterministic alias atom for a body; the name embeds the
    canonical body serialization and is not a parseable user token."""
    return Atom("f{" + _body_token(body) + "}", origin=ORIGIN_FRESH)


def body_alias(body: Body) -> Literal:
    """The literal standing for a body in the linear completion: a
    fresh alias for multi-literal bodies, the literal itself for
    singletons."""
    lits = body.s_literals
    if not lits:
        raise ValueError("the empty body has no alias literal")
    if len(lits) == 1:
        return lits[0]
    return Literal(fresh_body_atom(body))


def ed_completion(pi: Program) -> tuple[Clause, ...]:
    """Linear-size completion using body aliases.

    For every non-fact atom: the clause reading, the support clause
    over body aliases, and the alias definitions for multi-literal
    bodies; atoms with no rules are forced false.
    """
    out = set(clausal(pi))
    defined: set[Body] = set()
    for a in _non_fact_atoms(pi):
        bodies = pi.bodies(a)
        if not bodies:
            out.add(Clause((Literal(a, positive=False),)))
            continue
        support = [Literal(a, positive=False)]
        support.extend(body_alias(b) for b in bodies)
        out.add(Clause(tuple(support)))
        for b in bodies:
            lits = b.s_literals
            if len(lits) <= 1 or b in defined:
                continue
            defined.add(b)
            alias = body_alias(b)
            for l in lits:
                out.add(Clause((alias.dual, l)))
            out.add(Clause((alias,) + tuple(l.dual for l in lits)))
    return sorted_clauses(out)


def clause_constraint(c: Clause) -> Rule:
    """The constraint rejecting exactly the assignments that falsify
    the clause."""
    pos = tuple(l.atom for l in c if not l.positive)
    neg = tuple(l.atom for l in c if l.positive)
    return Rule(None, pos=pos, neg=neg)


def pi_translation(theory: PcidTheory) -> Program:
    """Encode a clausal-definitional theory as one program: the opened
    program plus one constraint per clause."""
    opened = open_program(theory.program, theory.atoms)
    return opened.extend(clause_constraint(c) for c in theory.clauses)


def desugar_choice(heads: Sequence[Atom], pos: Iterable[Atom] = (),
                   neg: Iterable[Atom] = (), negneg: Iterable[Atom] = ()) -> Rule:
    """Rewrite a choice head into a plain rule by letting the head
    support itself: the head atom joins the doubly negated body part."""
    if len(heads) != 1:
        raise ValueError("choice heads with more than one atom are not supported")
    a = heads[0]
    return Rule(a, pos=tuple(pos), neg=tuple(neg), negneg=tuple(negneg) + (a,))

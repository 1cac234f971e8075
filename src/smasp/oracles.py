"""Ground-truth semantics by direct definition and exhaustive
enumeration: reducts, answer sets, unfounded sets, well-founded
fixpoints, the two model relations, and entailment.

This is the slow trusted side of every dual-route check; the transition
engine is validated against it. All functions are pure; enumerations
walk at most :data:`DEFAULT_ENUMERATION_CAP` atoms and raise
:class:`CapExceeded` instead of running away.
Enumerations over the models of a clause set walk the assignment tree
(:func:`clause_models`), skip every branch that falsifies a clause, and
apply the definitional model test to the assignments that remain.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from .model import (
    Atom,
    CapExceeded,
    Clause,
    Literal,
    PcidTheory,
    Program,
    Rule,
    SmaspTheory,
    atoms_of_literals,
    duals,
    is_complete_over,
    is_consistent_literals,
    positive_part,
    restrict_literals,
    satisfies,
    sorted_atoms,
)
from . import translations

# Desk scale: theories up to this many atoms get their verdicts (engine
# self-check, CLI cross-checks) and trace entailments checked by default.
DESK_CHECK_ATOM_LIMIT = 14
# Largest universe the enumerations walk before raising CapExceeded; a
# refusal bound, not the desk scale.
DEFAULT_ENUMERATION_CAP = 20


def at_desk_scale(theory: Union[SmaspTheory, PcidTheory]) -> bool:
    """The theory is small enough for its verdicts and trace entailments
    to be checked by enumeration by default."""
    return len(theory.atoms) <= DESK_CHECK_ATOM_LIMIT


class ThreeValuedModel(NamedTuple):
    """A consistent literal set over a universe; atoms it leaves
    unassigned are undefined."""

    literals: frozenset[Literal]
    universe: tuple[Atom, ...]

    @property
    def is_total(self) -> bool:
        return atoms_of_literals(self.literals) == frozenset(self.universe)


def _check_cap(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    atoms = sorted_atoms(atoms)
    if len(atoms) > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(
            f"enumeration over {len(atoms)} atoms exceeds cap {DEFAULT_ENUMERATION_CAP}")
    return atoms


def reduct(pi: Program, x: Iterable[Atom]) -> Program:
    """Eliminate negation from ``pi`` relative to ``x``: a rule survives
    iff no negated atom is in ``x`` and every doubly negated atom is;
    surviving rules keep only head and positive body.

    A surviving constraint whose positive body is empty cannot shed its
    body (constraints are non-empty by construction); it is kept
    verbatim and marks an unconditional violation.
    """
    xs = frozenset(x)
    kept = []
    for r in pi:
        if any(a in xs for a in r.neg):
            continue
        if not all(a in xs for a in r.negneg):
            continue
        if r.head is None and not r.pos:
            kept.append(r)
        else:
            kept.append(Rule(r.head, pos=r.pos))
    return Program(tuple(kept))


def _least_model(pi: Program) -> frozenset[Atom]:
    """Least model of the positive rules of a negation-free program."""
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for r in pi:
            if r.head is not None and r.head not in derived and set(r.pos) <= derived:
                derived.add(r.head)
                changed = True
    return frozenset(derived)


def is_answer_set(pi: Program, x: Iterable[Atom]) -> bool:
    xs = frozenset(x)
    reduced = reduct(pi, xs)
    if any(r.head is None and set(r.pos) <= xs for r in reduced):
        return False
    return _least_model(reduced) == xs


def enumerate_answer_sets(pi: Program) -> tuple[frozenset[Atom], ...]:
    """All answer sets of ``pi``, in canonical subset order of its atoms."""
    atoms = _check_cap(pi.atoms)
    out = []
    for size in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            if is_answer_set(pi, combo):
                out.append(frozenset(combo))
    return tuple(out)


def facts(atoms: Iterable[Atom]) -> tuple[Rule, ...]:
    return tuple(Rule(a) for a in sorted_atoms(atoms))


def is_input_answer_set(pi: Program, x: Iterable[Atom]) -> bool:
    """True iff ``x`` is an answer set of ``pi`` extended with the
    members of ``x`` that cannot be defined by ``pi``."""
    xs = frozenset(x)
    inputs = xs - pi.heads
    return is_answer_set(pi.extend(facts(inputs)), xs)


def is_unfounded(u: Iterable[Atom], m: Iterable[Literal], pi: Program) -> bool:
    """Every rule for a member of ``u`` has its body contradicted by
    ``m`` or positively dependent on ``u``."""
    ms = frozenset(m)
    if not is_consistent_literals(ms):
        raise ValueError("unfoundedness is defined on consistent literal sets only")
    us = frozenset(u)
    for a in us:
        for body in pi.bodies(a):
            if not (ms & body.s_duals) and not (us & body.pos_set):
                return False
    return True


def greatest_unfounded_set(m: Iterable[Literal], pi: Program) -> frozenset[Atom]:
    """Union of all sets unfounded on ``m``; computed as the complement
    of the founded-atom fixpoint."""
    ms = frozenset(m)
    if not is_consistent_literals(ms):
        raise ValueError("unfoundedness is defined on consistent literal sets only")
    founded: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for a in pi.atoms:
            if a in founded:
                continue
            for body in pi.bodies(a):
                if not (ms & body.s_duals) and body.pos_set <= founded:
                    founded.add(a)
                    changed = True
                    break
    return frozenset(pi.atoms) - founded


def w_step(pi: Program, m: Iterable[Literal]) -> frozenset[Literal]:
    """One application of the well-founded operator: derived heads plus
    negations of the greatest unfounded set; on an inconsistent input
    the result saturates to all literals."""
    if not pi.is_weakly_normal:
        raise ValueError("the well-founded operator is defined for weakly normal programs only")
    ms = frozenset(m)
    if not is_consistent_literals(ms):
        return frozenset(Literal(a, p) for a in pi.atoms for p in (True, False))
    derived = {Literal(r.head) for r in pi if set(r.body.s_literals) <= ms}
    negated = duals(Literal(a) for a in greatest_unfounded_set(ms, pi))
    return ms | derived | negated


def w_fix(pi: Program, m: Iterable[Literal]) -> frozenset[Literal]:
    """Iterate :func:`w_step` to its fixpoint (the operator is
    increasing on a finite lattice, so this terminates)."""
    current = frozenset(m)
    while True:
        nxt = w_step(pi, current)
        if nxt == current:
            return current
        current = nxt


def well_founded_model(pi: Program) -> ThreeValuedModel:
    fix = w_fix(pi, frozenset())
    assert is_consistent_literals(fix), "well-founded fixpoint must be consistent"
    return ThreeValuedModel(fix, pi.atoms)


def open_view(theory: Union[SmaspTheory, PcidTheory]) -> tuple[Program, tuple[Atom, ...]]:
    """The theory's program with its non-head atoms opened, plus the
    open atoms themselves."""
    opened = translations.open_program(theory.program, theory.atoms)
    open_atoms = translations.open_atoms(theory.program, theory.atoms)
    return opened, open_atoms


def is_pcid_model(theory: PcidTheory, m: Iterable[Literal]) -> bool:
    return _is_pcid_model(theory, m, open_view(theory))


def _is_pcid_model(theory: PcidTheory, m: Iterable[Literal],
                   view: tuple[Program, tuple[Atom, ...]]) -> bool:
    """:func:`is_pcid_model`, given the theory's :func:`open_view`."""
    ms = frozenset(m)
    if not is_consistent_literals(ms) or not is_complete_over(ms, theory.atoms):
        return False
    if not satisfies(ms, theory.clauses):
        return False
    opened, open_atoms = view
    return w_fix(opened, restrict_literals(ms, open_atoms)) == ms


def is_smasp_model(theory: SmaspTheory, m: Iterable[Literal]) -> bool:
    ms = frozenset(m)
    if not is_consistent_literals(ms) or not is_complete_over(ms, theory.atoms):
        return False
    if not satisfies(ms, theory.clauses):
        return False
    return is_input_answer_set(theory.program, positive_part(ms))


def enumerate_assignments(atoms: Iterable[Atom]) -> Iterator[frozenset[Literal]]:
    """All complete consistent literal sets over ``atoms``, positive
    polarity first per atom."""
    atoms = sorted_atoms(atoms)
    for signs in itertools.product((True, False), repeat=len(atoms)):
        yield frozenset(Literal(a, s) for a, s in zip(atoms, signs))


def clause_models(clauses: Iterable[Clause], atoms: Iterable[Atom]) -> Iterator[frozenset[Literal]]:
    """The assignments of :func:`enumerate_assignments` over ``atoms``
    that satisfy ``clauses``, in the same order.

    Walks the sorted atoms depth-first, positive polarity first, and
    drops a branch once a clause whose atoms are all assigned is
    falsified, since every extension falsifies it too. Literals over
    atoms outside the universe are false, as in :func:`satisfies`.
    """
    atoms = sorted_atoms(atoms)
    depth = {a: d for d, a in enumerate(atoms)}
    # closing[d]: every clause whose last atom is atoms[d], as its
    # literals over the universe paired with their atom's depth
    closing: list[list[tuple[tuple[int, Literal], ...]]] = [[] for _ in atoms]
    for c in clauses:
        lits = tuple((depth[l.atom], l) for l in c if l.atom in depth)
        if not lits:
            return
        closing[max(d for d, _ in lits)].append(lits)
    polarities = [(Literal(a), Literal(a, False)) for a in atoms]
    chosen: list[Optional[Literal]] = [None] * len(atoms)

    def walk(d: int) -> Iterator[frozenset[Literal]]:
        if d == len(atoms):
            yield frozenset(chosen)
            return
        for literal in polarities[d]:
            chosen[d] = literal
            if all(any(chosen[i] is l for i, l in c) for c in closing[d]):
                yield from walk(d + 1)

    yield from walk(0)


def enumerate_smasp_models(theory: SmaspTheory,
                           cap: Optional[int] = None) -> tuple[frozenset[Literal], ...]:
    """The theory's models. ``cap`` is unused: perfbench/harness.py
    passes it, after checking its own atom limit, and
    :data:`DEFAULT_ENUMERATION_CAP` is the cap enforced here."""
    atoms = _check_cap(theory.atoms)
    return tuple(m for m in clause_models(theory.clauses, atoms) if is_smasp_model(theory, m))


def enumerate_pcid_models(theory: PcidTheory) -> tuple[frozenset[Literal], ...]:
    atoms = _check_cap(theory.atoms)
    view = open_view(theory)
    return tuple(m for m in clause_models(theory.clauses, atoms)
                 if _is_pcid_model(theory, m, view))


def entails(theory: SmaspTheory, goal: Union[Clause, Iterable[Clause]]) -> bool:
    """True iff every model of the theory satisfies ``goal`` (a clause
    or a conjunction of clauses)."""
    goal_clauses = (goal,) if isinstance(goal, Clause) else tuple(goal)
    theory_atoms = frozenset(theory.atoms)
    for c in goal_clauses:
        if not set(c.atoms) <= theory_atoms:
            raise ValueError(f"goal clause {c!r} mentions atoms outside the theory")
    atoms = _check_cap(theory.atoms)
    for m in clause_models(theory.clauses, atoms):
        if is_smasp_model(theory, m) and not satisfies(m, goal_clauses):
            return False
    return True


def is_total_on(theory: PcidTheory, m: Iterable[Literal]) -> bool:
    """The well-founded evaluation started from ``m``'s open part
    assigns every atom of the theory."""
    return _is_total_on(theory, m, open_view(theory))


def _is_total_on(theory: PcidTheory, m: Iterable[Literal],
                 view: tuple[Program, tuple[Atom, ...]]) -> bool:
    """:func:`is_total_on`, given the theory's :func:`open_view`."""
    opened, open_atoms = view
    fix = w_fix(opened, restrict_literals(frozenset(m), open_atoms))
    return frozenset(theory.atoms) <= atoms_of_literals(fix)


def is_total(theory: PcidTheory) -> bool:
    """Total on every model of the clause part."""
    atoms = _check_cap(theory.atoms)
    view = open_view(theory)
    return all(_is_total_on(theory, m, view) for m in clause_models(theory.clauses, atoms))


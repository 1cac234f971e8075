"""The transition systems behind the solver: plain backtracking search
over a clause set, its unfounded-set extension for clause/program
theories, and the backjumping/learning variant, all driven by
per-strategy rule priorities with deterministic tie-breaking.

A run is a walk through the corresponding graph; every applied rule is
recorded as a trace step carrying its payload and a digest of the
resulting trail.
"""

from __future__ import annotations

import hashlib
import heapq
import sys
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union

from . import oracles, translations
from .model import (
    Atom,
    Clause,
    Literal,
    Program,
    SmaspTheory,
    Trail,
    _make_record,
    duals,
    entry_token,
    sorted_atoms,
)

RULE_UNIT_PROPAGATE = "UnitPropagate"
RULE_DECIDE = "Decide"
RULE_FAIL = "Fail"
RULE_BACKTRACK = "Backtrack"
RULE_UNFOUNDED = "Unfounded"
RULE_UNIT_PROPAGATE_LEARN = "UnitPropagateLearn"
RULE_BACKJUMP = "Backjump"
RULE_LEARN = "Learn"

# The fields of :class:`Transition` each rule carries; the others are None.
RULE_PAYLOADS: dict[str, tuple[str, ...]] = {
    RULE_UNIT_PROPAGATE: ("literal", "clause"),
    RULE_UNIT_PROPAGATE_LEARN: ("literal", "clause"),
    RULE_DECIDE: ("literal",),
    RULE_FAIL: (),
    RULE_BACKTRACK: ("literal",),
    RULE_UNFOUNDED: ("literal", "witness"),
    RULE_BACKJUMP: ("literal", "clause", "prefix_length"),
    RULE_LEARN: ("clause",),
}
ALL_RULES = frozenset(RULE_PAYLOADS)
# each payload as the is-not-None pattern of those four fields
_CARRIES = {rule: tuple(f in fields for f in ("literal", "clause", "witness", "prefix_length"))
            for rule, fields in RULE_PAYLOADS.items()}

VERDICT_MODEL = "model"
VERDICT_UNSAT = "unsatisfiable"
VERDICT_LIMIT = "limit-exceeded"

DEFAULT_MAX_STEPS = 100_000
DEFAULT_MAX_LEARNED = 10_000


class SelfCheckError(RuntimeError):
    """A verdict contradicted the semantic oracle."""


class Transition(NamedTuple):
    rule: str
    literal: Optional[Literal] = None
    clause: Optional[Clause] = None
    witness: Optional[tuple[Atom, ...]] = None
    prefix_length: Optional[int] = None


class AugmentedState(NamedTuple):
    """A trail paired with the learned-clause store; ``failed`` is the
    distinguished terminal state and carries no trail."""

    trail: Trail = Trail()
    learned: tuple[Clause, ...] = ()
    failed: bool = False


class Strategy(NamedTuple):
    mode: str
    priority: tuple[tuple[str, ...], ...]
    learning: bool

    @property
    def rules(self) -> frozenset[str]:
        return frozenset(rule for group in self.priority for rule in group)


_PRIORITIES: dict[str, tuple[tuple[str, ...], ...]] = {
    "dpll": (
        (RULE_FAIL, RULE_BACKTRACK),
        (RULE_UNIT_PROPAGATE,),
        (RULE_DECIDE,),
    ),
    "smodels": (
        (RULE_FAIL, RULE_BACKTRACK),
        (RULE_UNIT_PROPAGATE,),
        (RULE_UNFOUNDED,),
        (RULE_DECIDE,),
    ),
    "cmodels": (
        (RULE_BACKJUMP, RULE_FAIL),
        (RULE_UNIT_PROPAGATE_LEARN,),
        (RULE_DECIDE,),
        (RULE_UNFOUNDED,),
    ),
    "clasp": (
        (RULE_BACKJUMP, RULE_FAIL),
        (RULE_UNIT_PROPAGATE_LEARN,),
        (RULE_UNFOUNDED,),
        (RULE_DECIDE,),
    ),
}
_PRIORITIES["minisatid"] = _PRIORITIES["clasp"]

MODES = tuple(sorted(_PRIORITIES))
_LEARNING_MODES = frozenset({"cmodels", "clasp", "minisatid"})


def strategy_priority(mode: str) -> tuple[tuple[str, ...], ...]:
    try:
        return _PRIORITIES[mode]
    except KeyError:
        raise ValueError(f"unknown strategy mode: {mode!r}") from None


def for_mode(mode: str) -> Strategy:
    return Strategy(mode, strategy_priority(mode), mode in _LEARNING_MODES)


class _TheoryContext(NamedTuple):
    """What the engine reads of a theory, made once per theory; an
    Unfounded step is checked on ``program``, never the opened program."""

    atoms: tuple[Atom, ...]
    program: Program
    up_sources: tuple[Clause, ...]  # clause set first, program reading after
    atom_set: frozenset[Atom]
    source_set: frozenset[Clause]


@lru_cache(maxsize=512)
def _context(theory: SmaspTheory) -> _TheoryContext:
    sources = tuple(dict.fromkeys(theory.clauses + translations.clausal(theory.program)))
    return _TheoryContext(theory.atoms, theory.program, sources,
                          frozenset(theory.atoms), frozenset(sources))


def digest_trail(trail: Trail) -> str:
    """The first 16 hex digits of the sha256 of the space-joined entry
    tokens: the definition :attr:`Trail.digest` keeps step by step."""
    return hashlib.sha256(" ".join(map(entry_token, trail)).encode()).hexdigest()[:16]


def applicable_unit_propagate(state: AugmentedState, theory: SmaspTheory,
                              include_learned: bool = False) -> list[tuple[Literal, Clause]]:
    """All unit-propagation candidates ``(l, clause)``: the clause's
    other literals are falsified and ``l`` itself is not yet on the
    trail (its dual may be: that is how conflicts enter). Ordered by
    the clause set, then the program reading, then learned clauses."""
    if state.failed:
        return []
    sources = list(_context(theory).up_sources)
    if include_learned:
        seen = set(sources)
        for c in state.learned:
            if c not in seen:
                sources.append(c)
                seen.add(c)
    m = state.trail.literal_set
    out: list[tuple[Literal, Clause]] = []
    for c in sources:
        falsified = sum(1 for l in c if l.dual in m)
        if falsified < len(c) - 1:
            continue
        for l in c:
            if l in m:
                continue
            if all(o.dual in m for o in c if o != l):
                out.append((l, c))
    return out


def applicable_decide(state: AugmentedState, theory: SmaspTheory) -> list[Literal]:
    """Both polarities of every unassigned atom; only offered on
    consistent trails (every strategy ranks conflict handling above
    Decide, so this guard never changes reachable behavior)."""
    if state.failed or not state.trail.is_consistent:
        return []
    out = []
    for a in _context(theory).atoms:
        if state.trail.is_unassigned(Literal(a)):
            out.append(Literal(a))
            out.append(Literal(a, positive=False))
    return out


def applicable_unfounded(state: AugmentedState, theory: SmaspTheory) -> list[tuple[Literal, tuple[Atom, ...]]]:
    """Negations of the greatest unfounded set's members not already on
    the trail, each carrying the set as witness. Inapplicable on
    inconsistent trails (unfoundedness is undefined there)."""
    if state.failed or not state.trail.is_consistent:
        return []
    opened = translations.open_program(theory.program, theory.atoms)
    gus = oracles.greatest_unfounded_set(state.trail.literal_set, opened)
    witness = sorted_atoms(gus)
    out = []
    for a in witness:
        lit = Literal(a, positive=False)
        if lit not in state.trail:
            out.append((lit, witness))
    return out


def unfounded_reason(atom: Atom, u: Iterable[Atom], trail: Trail, pi: Program) -> Clause:
    """Reason clause for falsifying a member of an unfounded set: the
    member is false, or one of the set's external bodies has its
    already-falsified literal true. The bodies are those of the program
    opened over ``u``: a member no rule of ``pi`` defines is open, its
    one body ``not not a`` is falsified by ``-a``, and it adds ``a``."""
    ms = trail.literal_set
    us = frozenset(u)
    lits = {Literal(atom, positive=False)}
    bodies = {body for a in us for body in pi.bodies(a) if not (body.pos_set & us)}
    for body in sorted(bodies, key=lambda b: b.key):
        falsified = [l for l in body.s_literals if l.dual in ms]
        if not falsified:
            raise ValueError(f"body {body} of an allegedly unfounded set is not falsified")
        lits.add(falsified[0])
    for a in sorted_atoms(us - pi.heads):  # the error names the smallest
        if Literal(a, positive=False) not in ms:
            raise ValueError(f"open member {a} of an allegedly unfounded set is not false")
        lits.add(Literal(a))
    return Clause(tuple(lits))


def conflicting_clause(state: AugmentedState) -> Clause:
    """Reason of the first trail entry that broke consistency; it is
    falsified by the consistent prefix."""
    i = state.trail.first_conflict_index
    if i is None:
        raise ValueError("trail is consistent; no conflicting clause")
    reason = state.trail.entries[i].reason
    if reason is None:
        raise ValueError("conflicting entry has no reason attached")
    return reason


def analyze_conflict(state: AugmentedState, conflicting: Clause) -> tuple[Clause, Literal, int]:
    """Resolve the conflicting clause backwards along trail reasons until
    one literal is left at the conflict level, the deepest level in the
    clause, and return the learned clause, that asserting literal, and
    the length of the trail prefix the backjump keeps.

    The analysis counts instead of regrouping (Eén & Sörensson, MiniSat,
    SAT 2003). It computes the conflict level once and counts the
    clause's literals at that level. It walks the entries before the
    first conflict backwards and resolves on each non-decision entry at
    that level whose dual is in the clause: the dual leaves, and each
    new literal of the entry's reason is added once and counted if it
    sits at the conflict level. It stops when the count is one. A
    literal the prefix does not falsify, or a reason literal above the
    conflict level, raises ``ValueError``; no trail :func:`step` builds
    holds either."""
    trail = state.trail
    if trail.is_consistent or not trail.decision_indices:
        raise ValueError("conflict analysis requires an inconsistent trail with a decision")
    entries, decisions, scan = trail.entries, trail.decision_indices, trail.first_conflict_index
    position = {entries[i].literal: i for i in range(scan)}

    def level(lit: Literal) -> int:
        i = position.get(lit.dual)
        if i is None:
            raise ValueError(f"clause literal {lit!r} is not falsified by the trail prefix")
        return bisect_right(decisions, i)

    current = set(conflicting.literals)
    found = [level(lit) for lit in current]
    dec = max(found)
    count = found.count(dec)
    while count > 1:
        # the latest such entry: a resolvent adds only literals falsified
        # before its pivot, so the next pivot lies below this one; it is
        # at the conflict level, which follows every lower level and
        # holds a non-decision clause literal while the count is above one
        while True:
            if not scan:
                raise ValueError("no resolvable literal; reason bookkeeping is broken")
            scan -= 1
            e = entries[scan]
            if not e.is_decision and e.literal.dual in current:
                break
        pivot, reason = e.literal, e.reason
        if reason is None:
            raise ValueError("no resolvable literal; reason bookkeeping is broken")
        current.remove(pivot.dual)
        count -= 1
        for lit in reason.literals:
            if lit is not pivot and lit not in current:
                at = level(lit)
                if at > dec:
                    raise ValueError(f"reason literal {lit!r} lies above the conflict level")
                current.add(lit)
                count += at == dec
    asserting = next(lit for lit in current if level(lit) == dec)
    # level 0 jumps to the decision-free prefix
    return Clause(tuple(current)), asserting, decisions[max(dec, 1) - 1]


_CONFLICT_RULES = frozenset({RULE_FAIL, RULE_BACKTRACK, RULE_BACKJUMP})


def conflict_guard(trail: Trail, rule: str) -> bool:
    """The guard :func:`applicable` puts on the conflict rules: Fail
    applies to an inconsistent trail without a decision, Backtrack and
    Backjump to one with a decision. Telling them apart needs no
    conflict analysis."""
    return (rule in _CONFLICT_RULES and not trail.is_consistent
            and bool(trail.decision_indices) != (rule == RULE_FAIL))


def conflict_rule(trail: Trail, strategy: Strategy) -> str:
    """The rule that resolves the conflict on an inconsistent ``trail``:
    the first of ``strategy``'s first group to pass :func:`conflict_guard`."""
    return next(r for r in strategy.priority[0] if conflict_guard(trail, r))


def applicable(state: AugmentedState, theory: SmaspTheory, rule: str) -> list[Transition]:
    """Every candidate of ``rule`` in ``state``, in canonical order: the
    edges ``rule`` labels out of ``state``. The conflict rules apply
    under :func:`conflict_guard`; Backjump's one candidate is the clause
    :func:`analyze_conflict` learns. Learn has none: it is :func:`run`'s
    learning policy, not a priority slot."""
    trail = state.trail
    if state.failed or rule == RULE_LEARN:
        return []
    if rule in _CONFLICT_RULES:
        if not conflict_guard(trail, rule):
            return []
        if rule == RULE_FAIL:
            return [Transition(RULE_FAIL)]
        if rule == RULE_BACKTRACK:  # the new trail repeats no literal
            last = trail.decision_indices[-1]
            flipped = trail.entries[last].literal.dual
            if any(e.literal == flipped for e in trail.entries[:last]):
                return []
            return [Transition(RULE_BACKTRACK, literal=flipped)]
        learned, asserting, kept = analyze_conflict(state, conflicting_clause(state))
        return [Transition(RULE_BACKJUMP, literal=asserting, clause=learned, prefix_length=kept)]
    if rule == RULE_DECIDE:
        return [Transition(rule, literal=l) for l in applicable_decide(state, theory)]
    if rule == RULE_UNFOUNDED:
        return [Transition(rule, literal=l, witness=w) for l, w in applicable_unfounded(state, theory)]
    if rule in (RULE_UNIT_PROPAGATE, RULE_UNIT_PROPAGATE_LEARN):
        return [Transition(rule, literal=l, clause=c) for l, c in applicable_unit_propagate(
            state, theory, include_learned=(rule == RULE_UNIT_PROPAGATE_LEARN))]
    raise ValueError(f"unknown transition rule: {rule!r}")


def step(state: AugmentedState, transition: Transition, theory: SmaspTheory,
         ctx: Optional[_TheoryContext] = None) -> AugmentedState:
    """Apply a transition after checking that it carries its rule's
    payload (:data:`RULE_PAYLOADS`) and is applicable in ``state``.
    ``ctx`` is ``_context(theory)``, looked up here when not given.

    An Unfounded witness must be unfounded in the opened program, where
    a member no rule defines has only ``a :- not not a``: it is checked
    on the program, and :func:`unfounded_reason` wants such members false."""
    rule, lit, cl, witness, plen = transition
    carries = _CARRIES.get(rule)
    if carries is None:
        raise ValueError(f"unknown transition rule: {rule!r}")
    if carries != (lit is not None, cl is not None, witness is not None, plen is not None):
        raise ValueError(f"{rule} carries {', '.join(RULE_PAYLOADS[rule]) or 'no payload'}"
                         f" and nothing else: {transition}")
    trail, learned, failed = state
    if failed:
        raise ValueError("no transition applies to the failed state")
    if ctx is None:
        ctx = _context(theory)

    # UnitPropagate(Learn) and Decide accept exactly the candidates that
    # applicable_unit_propagate / applicable_decide list, checked locally
    if rule in (RULE_UNIT_PROPAGATE, RULE_UNIT_PROPAGATE_LEARN):
        m = trail.literal_set
        known = cl in ctx.source_set or (rule == RULE_UNIT_PROPAGATE_LEARN and cl in learned)
        if known and lit in cl.literals and lit not in m:
            for o in cl.literals:
                if o is not lit and o.dual not in m:
                    break
            else:
                return _make_record(AugmentedState, (trail.append(lit, False, cl), learned, False))
        raise ValueError(f"inapplicable {rule}: {transition}")

    if rule == RULE_DECIDE:
        if not (isinstance(lit, Literal) and trail.is_consistent
                and lit.atom in ctx.atom_set and trail.is_unassigned(lit)):
            raise ValueError(f"inapplicable Decide: {transition}")
        return _make_record(AugmentedState, (trail.append(lit, True), learned, False))

    if rule == RULE_FAIL:
        if transition not in applicable(state, theory, rule):
            raise ValueError("Fail requires an inconsistent, decision-free trail")
        return AugmentedState(Trail(), learned, True)

    if rule == RULE_BACKTRACK:
        if transition not in applicable(state, theory, rule):
            raise ValueError(f"inapplicable Backtrack: {transition}")
        last = trail.decision_indices[-1]
        return AugmentedState(trail.truncate(last).append(lit), learned, False)

    if rule == RULE_UNFOUNDED:
        if not trail.is_consistent:
            raise ValueError("Unfounded requires a consistent trail")
        if (lit.positive or lit.atom not in witness or lit in trail
                or len(frozenset(witness)) < len(witness) or not ctx.atom_set.issuperset(witness)):
            raise ValueError(f"inapplicable Unfounded: {transition}")
        if not oracles.is_unfounded(witness, trail.literal_set, ctx.program):
            raise ValueError(f"witness {witness} is not unfounded on the trail")
        reason = unfounded_reason(lit.atom, witness, trail, ctx.program)
        return AugmentedState(trail.append(lit, reason=reason), learned, False)

    if rule == RULE_BACKJUMP:
        if trail.is_consistent or not trail.decision_indices:
            raise ValueError("Backjump requires an inconsistent trail with a decision")
        if not (0 <= plen < len(trail)) or not trail.entries[plen].is_decision:
            raise ValueError("Backjump prefix must end right before a decision literal")
        kept = trail.truncate(plen)
        if lit not in cl or not duals(l for l in cl if l != lit) <= kept.literal_set:
            raise ValueError("Backjump clause must be asserting for the kept prefix")
        if lit.atom not in ctx.atom_set:
            raise ValueError(f"Backjump literal {lit!r} is outside the theory")
        return AugmentedState(kept.append(lit, reason=cl), learned, False)

    if rule == RULE_LEARN:
        if cl in learned:
            raise ValueError("clause is already in the learned store")
        if not ctx.atom_set.issuperset(cl.atoms):
            raise ValueError("learned clause mentions atoms outside the theory")
        return AugmentedState(trail, learned + (cl,), False)

    raise AssertionError(rule)


class PropagationIndex:
    """The trail of one run or strict replay, kept incrementally for the
    canonical choice.

    Literals are interned as codes (atom ``i`` of the theory is ``2i``,
    its negation ``2i + 1``); clauses are numbered in unit-propagation
    order, theory sources first, then learned clauses as they are
    learned. Each clause counts its true and its open (not falsified)
    literals, and a min-heap holds every clause that is unit or
    falsified (no true literal, at most one open) plus stale entries
    that are dropped when they surface. On a consistent trail those
    clauses are exactly the ones offering a unit-propagation candidate.
    """

    def __init__(self, ctx: _TheoryContext) -> None:
        self.literals: list[Literal] = []
        for a in ctx.atoms:
            positive = Literal(a)
            self.literals += (positive, positive.dual)
        self.code = {l: x for x, l in enumerate(self.literals)}
        self.true = [False] * len(self.literals)
        self.trail: list[int] = []
        self.decide_from = 0  # every atom below it is assigned
        # the sources in bulk: on the empty trail every literal is open and
        # the pending clauses are the unit ones, a sorted list is a heap
        self.clauses: list[Clause] = list(ctx.up_sources)
        self.codes: list[tuple[int, ...]] = [tuple(map(self.code.__getitem__, c.literals))
                                             for c in self.clauses]
        self.n_true: list[int] = [0] * len(self.clauses)
        self.n_open: list[int] = list(map(len, self.codes))
        self.occurs: list[list[int]] = [[] for _ in self.literals]
        for i, codes in enumerate(self.codes):
            for x in codes:
                self.occurs[x].append(i)
        self.pending: list[int] = [i for i, n in enumerate(self.n_open) if n <= 1]
        self.sources = ctx.source_set
        self.n_sources = len(self.clauses)
        self.program = ctx.program
        self.founding: Optional[UnfoundedIndex] = None  # made by the first Unfounded query

    def _add(self, c: Clause) -> None:
        i = len(self.clauses)
        codes = tuple(self.code[l] for l in c)
        self.clauses.append(c)
        self.codes.append(codes)
        true = sum(self.true[x] for x in codes)
        open_ = sum(not self.true[x ^ 1] for x in codes)
        self.n_true.append(true)
        self.n_open.append(open_)
        for x in codes:
            self.occurs[x].append(i)
        if not true and open_ <= 1:
            heapq.heappush(self.pending, i)

    def learn(self, c: Clause) -> None:
        if c not in self.sources:  # a source keeps its place in the order
            self._add(c)

    def follow(self, trail: Trail) -> None:
        """Catch up with ``trail``: a prefix of the indexed trail plus
        one literal, which is what every trail-changing rule yields. A
        cut below what the unfounded-set index has read lowers its
        ``done``."""
        keep, assigned = len(trail.entries) - 1, self.trail
        while len(assigned) > keep:
            self._unassign(assigned.pop())
        if self.founding is not None and keep < self.founding.done:
            self.founding.done = keep
        self._assign(self.code[trail.entries[keep].literal])

    def _assign(self, x: int) -> None:
        self.true[x] = True
        self.trail.append(x)
        n_true, n_open = self.n_true, self.n_open
        for i in self.occurs[x]:
            n_true[i] += 1
        for i in self.occurs[x ^ 1]:
            n_open[i] -= 1
            if not n_true[i] and n_open[i] == 1:
                heapq.heappush(self.pending, i)

    def _unassign(self, x: int) -> None:
        self.true[x] = False
        n_true, n_open = self.n_true, self.n_open
        for i in self.occurs[x ^ 1]:
            n_open[i] += 1
        for i in self.occurs[x]:
            n_true[i] -= 1
            if not n_true[i] and n_open[i] <= 1:
                heapq.heappush(self.pending, i)
        self.decide_from = min(self.decide_from, x >> 1)

    def first_unit(self, include_learned: bool) -> Optional[tuple[Literal, Clause]]:
        """``applicable_unit_propagate(...)[0]`` on a consistent trail:
        the smallest unit or falsified clause with its only unfalsified
        literal, or its first literal when all are falsified."""
        pending, n_true, n_open, codes = self.pending, self.n_true, self.n_open, self.codes
        while pending:
            i = pending[0]
            if not n_true[i] and n_open[i] <= 1:
                break
            heapq.heappop(pending)
        else:
            return None
        if i >= self.n_sources and not include_learned:
            return None
        x = codes[i][0]
        if n_open[i]:
            true = self.true
            for x in codes[i]:
                if not true[x ^ 1]:
                    break
        return self.literals[x], self.clauses[i]

    def first_unassigned(self) -> Optional[Literal]:
        """``applicable_decide(...)[0]`` on a consistent trail."""
        true, x = self.true, 2 * self.decide_from
        while x < len(true) and (true[x] or true[x + 1]):
            x += 2
        self.decide_from = x >> 1
        return self.literals[x] if x < len(true) else None

    def first_unfounded(self) -> Optional[tuple[Literal, tuple[Atom, ...]]]:
        """``applicable_unfounded(...)[0]`` on a consistent trail. Without
        rule heads every atom is open, so unfounded only when false, and
        nothing is offered."""
        if self.founding is None:
            if not self.program.heads:
                return None
            self.founding = UnfoundedIndex(self)
        return self.founding.first()


class UnfoundedIndex:
    """The greatest unfounded set of a :class:`PropagationIndex`'s trail,
    kept with source pointers (Simons, Niemelä & Soininen, smodels, AIJ
    2002; Gebser, Kaufmann & Schaub, clasp, AIJ 2012) for the canonical
    Unfounded choice.

    Atoms are numbered as the propagation index numbers them, and the
    rules of the opened program as they occur: the program's rules with
    a head, then ``a :- not not a`` for each atom ``a`` without a rule,
    whose body reads as the literal ``a``, so that only ``-a``
    contradicts it. An atom is founded while it has a source: a rule for
    it whose body is not contradicted and whose positive atoms were all
    founded before it, so sources form no cycle. The unfounded atoms are
    the complement of the founded fixpoint: the greatest unfounded set.
    ``missing`` counts each rule's unfounded positive atoms.

    A query reads the trail from ``done``, which
    :meth:`PropagationIndex.follow` lowers when it truncates below it.
    Each new literal takes away the sources it contradicts, and the loss
    spreads through positive occurrences; the atoms that lost their
    source then look for another. A truncation can found any unfounded
    atom again, so after one they all look.
    """

    def __init__(self, index: PropagationIndex) -> None:
        self.index = index
        number = {l.atom: i for i, l in enumerate(index.literals[::2])}
        code = index.code
        self.head: list[int] = []  # per rule
        self.duals: list[list[int]] = []  # per rule: the literals that contradict its body
        self.missing: list[int] = []  # per rule
        self.rules: list[list[int]] = [[] for _ in number]  # per atom: its rules
        self.uses: list[list[int]] = [[] for _ in number]  # per atom: the rules it is positive in
        self.contradicts: dict[int, list[int]] = {}  # per literal: the rules it contradicts
        head, duals, missing, rules, uses, contradicts = (
            self.head, self.duals, self.missing, self.rules, self.uses, self.contradicts)
        program = index.program
        opened = [(r.head, r.pos, r.body.s_literals) for r in program.rules if r.head is not None]
        opened += [(l.atom, (), (l,)) for l in index.literals[::2] if l.atom not in program.heads]
        for r, (a, pos, s_literals) in enumerate(opened):
            head.append(number[a])
            rules[number[a]].append(r)
            missing.append(len(pos))
            for b in pos:
                uses[number[b]].append(r)
            duals.append([code[l] ^ 1 for l in s_literals])
            for y in duals[r]:
                contradicts.setdefault(y, []).append(r)
        self.support: list[Optional[int]] = [None] * len(number)
        self.unfounded = set(range(len(number)))
        self.done = self.synced = len(index.trail)  # trail entries read, trail length then
        self._refound(range(len(number)))  # the founded fixpoint, in one worklist pass

    def _update(self) -> None:
        trail, support, head, missing = (
            self.index.trail, self.support, self.head, self.missing)
        truncated = self.done < self.synced
        work = []  # atoms whose source a new literal contradicts
        for x in trail[self.done:]:
            for r in self.contradicts.get(x, ()):
                if support[head[r]] == r:
                    support[head[r]] = None
                    work.append(head[r])
        self.done = self.synced = len(trail)
        lost = []
        while work:  # and the atoms whose source rests on them
            a = work.pop()
            lost.append(a)
            for r in self.uses[a]:
                missing[r] += 1
                if support[head[r]] == r:
                    support[head[r]] = None
                    work.append(head[r])
        self.unfounded.update(lost)
        self._refound(list(self.unfounded) if truncated else lost)

    def _refound(self, atoms: Iterable[int]) -> None:
        """Give each unfounded atom of ``atoms`` a ready source if it has
        one: a rule with an uncontradicted body and no unfounded positive
        atoms. Each atom founded counts out of ``missing``, and a rule it
        makes ready founds its head in turn if that is unfounded."""
        true, support, missing, head, duals, uses = (
            self.index.true, self.support, self.missing, self.head, self.duals, self.uses)
        work = []
        for a in atoms:
            if support[a] is not None:
                continue
            for r in self.rules[a]:
                if not missing[r] and not any(true[y] for y in duals[r]):
                    support[a] = r
                    work.append(a)
                    break
        self.unfounded.difference_update(work)
        while work:
            for r in uses[work.pop()]:
                missing[r] -= 1
                if missing[r] or support[head[r]] is not None:
                    continue
                for y in duals[r]:
                    if true[y]:
                        break
                else:
                    support[head[r]] = r
                    self.unfounded.discard(head[r])
                    work.append(head[r])

    def gus(self) -> tuple[Atom, ...]:
        """The greatest unfounded set, sorted: false atoms included."""
        self._update()
        literals = self.index.literals
        return tuple(literals[2 * a].atom for a in sorted(self.unfounded))

    def first(self) -> Optional[tuple[Literal, tuple[Atom, ...]]]:
        """The negation of the smallest unfounded atom that is not false,
        with the whole set as witness; None when there is none."""
        self._update()
        true = self.index.true
        offered = [a for a in self.unfounded if not true[2 * a + 1]]
        if not offered:
            return None
        return self.index.literals[2 * min(offered) + 1], self.gus()


def require_conflict_first(strategy: Strategy) -> None:
    """Reject a strategy that names an unknown rule or whose first
    priority group is not conflict handling alone (``Fail`` plus
    ``Backtrack`` or ``Backjump``): :meth:`Walk.choose` relies on both."""
    if not strategy.rules <= ALL_RULES:
        raise ValueError(f"unknown transition rules: {sorted(strategy.rules - ALL_RULES)}")
    first = frozenset(strategy.priority[0] if strategy.priority else ())
    if RULE_FAIL not in first or len(first) < 2 or not first <= _CONFLICT_RULES:
        raise ValueError("the first priority group must hold Fail and Backtrack or Backjump only")


def _offer(index: PropagationIndex, rule: str):
    """How :meth:`Walk.choose` asks ``index`` for ``rule``'s first
    candidate on a consistent trail: a call that returns its transition
    or None. None for a rule that has no candidate there."""
    if rule == RULE_DECIDE:
        return lambda: (lit := index.first_unassigned()) and _make_record(
            Transition, (rule, lit, None, None, None))
    if rule == RULE_UNFOUNDED:
        return lambda: (cand := index.first_unfounded()) and Transition(rule, cand[0], witness=cand[1])
    if rule in (RULE_UNIT_PROPAGATE, RULE_UNIT_PROPAGATE_LEARN):
        learned = rule == RULE_UNIT_PROPAGATE_LEARN
        return lambda: (cand := index.first_unit(learned)) and _make_record(
            Transition, (rule, cand[0], cand[1], None, None))
    return None


class Walk:
    """A path from the empty state, taken by :func:`run` and retraced by a
    replay. It binds the theory's context once; with a strategy it keeps
    the index that :meth:`choose` reads, each rule's rank (the number of
    its first priority group), and in priority order each rule's
    :func:`_offer` with its rank; conflict rules have none."""

    def __init__(self, theory: SmaspTheory, strategy: Optional[Strategy] = None) -> None:
        self.theory, self.strategy, self.state = theory, strategy, AugmentedState()
        self.ctx, self.index = _context(theory), None
        if strategy is not None:
            require_conflict_first(strategy)
            self.index, ranked = PropagationIndex(self.ctx), tuple(enumerate(strategy.priority))
            self.rank = {rule: rank for rank, group in reversed(ranked) for rule in group}
            self.offers = tuple((rank, offer) for rank, group in ranked for rule in group
                                if (offer := _offer(self.index, rule)))

    def choose(self, before: int = sys.maxsize) -> Optional[Transition]:
        """The first candidate of the highest-priority applicable rule:
        :func:`conflict_rule`'s on an inconsistent trail (a Backtrack has
        one on any trail :func:`step` built, as a decided literal had
        neither polarity before it), else the first the index offers,
        asking only the groups ranked before ``before`` (all by default)."""
        state = self.state
        if state.failed:
            return None
        if state.trail.first_conflict_index is not None:
            return applicable(state, self.theory, conflict_rule(state.trail, self.strategy))[0]
        for rank, offer in self.offers:
            if rank >= before:
                return None
            tr = offer()
            if tr is not None:
                return tr
        return None

    def advance(self, transition: Transition) -> str:
        """Take one edge through :func:`step`; the index follows the new
        trail, or learns a Learn's clause. Returns the digest of the new
        trail."""
        state = self.state = step(self.state, transition, self.theory, self.ctx)
        if self.index is not None:
            if transition.rule == RULE_LEARN:
                self.index.learn(transition.clause)
            elif not state.failed:
                self.index.follow(state.trail)
        return state.trail.digest


class TraceStep(NamedTuple):
    index: int
    transition: Transition
    trail_digest: str = ""


class Outcome(NamedTuple):
    verdict: str
    model: Optional[frozenset[Literal]]
    steps: tuple[TraceStep, ...]
    stats: dict[str, int]


def run(theory: SmaspTheory, strategy: Union[Strategy, str],
        max_steps: int = DEFAULT_MAX_STEPS, self_check: Optional[bool] = None) -> Outcome:
    """Walk the graph from the empty state, always taking the highest
    priority applicable rule (first candidate in canonical order), with
    one Learn step injected after each Backjump that does not reach a
    semi-terminal state. A run that needs more than ``max_steps`` steps,
    or a Learn beyond :data:`DEFAULT_MAX_LEARNED` clauses, stops before
    that step with the limit verdict.

    Halting without failure yields a model verdict, checked against the
    semantic oracle by default at desk scale (:func:`oracles.at_desk_scale`);
    pass ``self_check=False`` to run a strategy outside its sound pairing
    (e.g. the plain backtracking mode over a theory with a non-empty
    program).

    Each step is :meth:`Walk.choose`'s, so the strategy must pass
    :func:`require_conflict_first`, as every built-in mode does.
    """
    if isinstance(strategy, str):
        strategy = for_mode(strategy)
    walk = Walk(theory, strategy)
    if self_check is None:
        self_check = oracles.at_desk_scale(theory)

    steps: list[TraceStep] = []
    learn: Optional[Transition] = None  # owed by the last Backjump
    tr = walk.choose()
    while tr is not None:
        taken = learn or tr
        if len(steps) >= max_steps or (learn and len(walk.state.learned) >= DEFAULT_MAX_LEARNED):
            break
        steps.append(_make_record(TraceStep, (len(steps) + 1, taken, walk.advance(taken))))
        if learn:
            # Learning cannot change the choice ``tr``: the clause is the
            # reason of the literal just asserted, so it offers no candidate.
            learn = None
            continue
        if tr.rule == RULE_BACKJUMP and strategy.learning and tr.clause not in walk.state.learned:
            learn = Transition(RULE_LEARN, clause=tr.clause)
        tr = walk.choose()  # None after a Backjump is semi-terminal: no Learn

    state, stats = walk.state, dict(Counter(s.transition.rule for s in steps))
    if tr is not None:  # stopped by a cap before taking a step
        return Outcome(VERDICT_LIMIT, None, tuple(steps), stats)
    if state.failed:
        return Outcome(VERDICT_UNSAT, None, tuple(steps), stats)
    model = state.trail.literal_set
    if self_check and not oracles.is_smasp_model(theory, model):
        raise SelfCheckError(f"halting state is not a model of the theory: {sorted(model, key=lambda l: l.key)}")
    return Outcome(VERDICT_MODEL, model, tuple(steps), stats)

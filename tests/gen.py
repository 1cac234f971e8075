"""Seeded random instance generators for the property and acceptance
tests, and the definitions only tests use: the atoms of clauses,
program simplification, choice rules, singular Unfounded edges,
π-safety, and the DIMACS and PC(ID) printers."""

import random
from typing import Iterable

from smasp.model import (
    Atom, Clause, Literal, PcidTheory, Program, Rule, SmaspTheory, is_consistent_literals,
    positive_part, sorted_atoms,
)
from smasp.parsing import format_clause, format_program
from smasp.translations import completion, ed_completion, open_atoms

from smasp import engine, oracles

POOL = tuple(Atom(n) for n in "abcdef")
POOL8 = tuple(Atom(n) for n in "abcdefgh")
# names that need JSON escapes; an ED-completion's alias atoms hold them too
ESCAPED_POOL = tuple(Atom(n) for n in ("a", 'q"u', "b\\s", "t\tab", "\u00e9\u2028", "n\x00"))


def random_program(rng: random.Random, n_atoms=6, max_rules=10,
                   allow_negneg=True, allow_constraints=True,
                   normal=False, pool=POOL) -> Program:
    atoms = pool[:n_atoms]
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        if normal:
            head = rng.choice(atoms)
        elif allow_constraints and rng.random() < 0.15:
            head = None
        else:
            head = rng.choice(atoms)
        pos, neg, negneg = [], [], []
        for a in atoms:
            r = rng.random()
            if r < 0.18:
                pos.append(a)
            elif r < 0.36:
                neg.append(a)
            elif r < 0.45 and allow_negneg and not normal:
                negneg.append(a)
        if head is None and not (pos or neg or negneg):
            neg.append(rng.choice(atoms))
        rules.append(Rule(head, tuple(pos), tuple(neg), tuple(negneg)))
    return Program(tuple(rules))


def random_consistent_literals(rng: random.Random, atoms) -> frozenset[Literal]:
    out = set()
    for a in atoms:
        r = rng.random()
        if r < 0.33:
            out.add(Literal(a))
        elif r < 0.66:
            out.add(Literal(a, positive=False))
    return frozenset(out)


def random_clauses(rng: random.Random, atoms, max_clauses=4, max_len=3):
    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        size = rng.randint(1, max_len)
        picked = rng.sample(list(atoms), min(size, len(atoms)))
        clauses.append(Clause(tuple(Literal(a, rng.random() < 0.5) for a in picked)))
    return tuple(clauses)


def theories_per_mode(pi: Program):
    """``(mode, theory)`` for each mode, paired with the reading of
    ``pi`` it is sound for."""
    return (
        ("smodels", SmaspTheory(completion(pi), pi)),
        ("cmodels", SmaspTheory(ed_completion(pi), pi)),
        ("clasp", SmaspTheory(ed_completion(pi), pi)),
        ("minisatid", SmaspTheory(ed_completion(pi), pi)),
        ("dpll", SmaspTheory(completion(pi))),
    )


def escaped_theories(rng: random.Random) -> list:
    """Theories over :data:`ESCAPED_POOL`: one per mode of a random
    program, its ED-completion with random clauses added, and a
    PC(ID) theory of those clauses."""
    pi = random_program(rng, n_atoms=rng.randint(1, 6), pool=ESCAPED_POOL)
    weak = random_program(rng, n_atoms=rng.randint(1, 6), allow_constraints=False,
                          pool=ESCAPED_POOL)
    clauses = random_clauses(rng, ESCAPED_POOL)
    return ([theory for _, theory in theories_per_mode(pi)]
            + [SmaspTheory(clauses + ed_completion(pi), pi), PcidTheory(clauses, weak)])


def random_3sat(rng: random.Random, n: int) -> SmaspTheory:
    """Random 3-SAT over ``x1..xn`` at clause ratio 4.26, empty program."""
    atoms = [Atom(f"x{i}") for i in range(1, n + 1)]
    return SmaspTheory(tuple(
        Clause(tuple(Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, 3)))
        for _ in range(int(4.26 * n))))


def random_weakly_normal_program(rng: random.Random, n_atoms=4, max_rules=6) -> Program:
    return random_program(rng, n_atoms=n_atoms, max_rules=max_rules,
                          allow_constraints=False)


def random_total_pcid(rng: random.Random, n_atoms=4, max_rules=5,
                      attempts=500) -> PcidTheory:
    """Rejection-sample a clause/program pair whose well-founded
    evaluation is total on every model of the clause part."""
    for _ in range(attempts):
        program = random_weakly_normal_program(rng, n_atoms=n_atoms, max_rules=max_rules)
        atoms = POOL[:rng.randint(1, n_atoms)]
        universe = tuple(sorted(set(atoms) | set(program.atoms), key=lambda a: a.key))
        clauses = random_clauses(rng, universe)
        theory = PcidTheory(clauses, program)
        if oracles.is_total(theory):
            return theory
    raise AssertionError("could not sample a total theory")


def wieq_routes(pi: Program, n):
    """Pairs of per-index fixpoint iterations: the direct evaluation
    under assumed literals against the evaluation of the simplified
    program.

    Atoms simplified out of the program entirely are false by default
    on the simplified route from the first iteration on, which is
    exactly when unfoundedness catches them on the direct route.
    """
    n = frozenset(n)
    ch = choice_rules({l.atom for l in n})
    left_program = pi.extend(ch)
    right_program = simplify_by(pi, n)
    missing = (set(left_program.atoms) - set(right_program.atoms)
               - {l.atom for l in n})
    default_false = frozenset(Literal(a, positive=False) for a in missing)
    left, right = n, frozenset()
    yield left, right | n
    while True:
        nl = oracles.w_step(left_program, left)
        nr = oracles.w_step(right_program, right)
        if nl == left and nr == right:
            return
        left, right = nl, nr
        yield left, right | n | default_false


def simplify_by(pi: Program, n: Iterable[Literal]) -> Program:
    """Partially evaluate ``pi`` under the literals ``n``: drop rules
    with a contradicted body part, erase satisfied body parts.

    A constraint whose body is entirely satisfied by ``n`` is kept
    verbatim (its empty remainder is not representable); it marks an
    unconditional violation.
    """
    ns = frozenset(n)
    if not is_consistent_literals(ns):
        raise ValueError("simplification requires a consistent literal set")
    kept = []
    for r in pi:
        body = r.body.s_literals  # program literals, via their s() reading
        if any(l.dual in ns for l in body):
            continue
        pos = tuple(a for a in r.pos if Literal(a) not in ns)
        neg = tuple(a for a in r.neg if Literal(a, positive=False) not in ns)
        negneg = tuple(a for a in r.negneg if Literal(a) not in ns)
        if r.head is None and not (pos or neg or negneg):
            kept.append(r)
        else:
            kept.append(Rule(r.head, pos=pos, neg=neg, negneg=negneg))
    return Program(tuple(kept))


def choice_rules(atoms: Iterable[Atom]) -> tuple[Rule, ...]:
    """Self-supporting rules that exempt ``atoms`` from foundedness."""
    return tuple(Rule(a, negneg=(a,)) for a in sorted_atoms(atoms))


def is_singular_unfounded(state: engine.AugmentedState, theory: SmaspTheory) -> bool:
    """An unfounded-set edge is singular when some other non-decision
    edge leaves the same state; strategies emulating the eager
    unfounded-check solver must never traverse one."""
    return bool(engine.applicable(state, theory, engine.RULE_UNFOUNDED)) and any(
        engine.applicable(state, theory, r)
        for r in (engine.RULE_UNIT_PROPAGATE, engine.RULE_FAIL, engine.RULE_BACKTRACK))


def atoms_of_clauses(clauses: Iterable[Clause]) -> tuple[Atom, ...]:
    return sorted_atoms(l.atom for c in clauses for l in c.literals)


def enumerate_models(clauses: Iterable[Clause],
                     atoms: Iterable[Atom]) -> tuple[frozenset[Literal], ...]:
    """The models of ``clauses`` over ``atoms``, within the enumeration cap."""
    return tuple(oracles.clause_models(clauses, oracles._check_cap(atoms)))


def is_pi_safe(f: Iterable[Clause], pi: Program) -> bool:
    """The clause set forces every non-head atom false, and every
    answer set of the program is the head projection of one of its
    models."""
    f = tuple(f)
    models = enumerate_models(f, atoms_of_clauses(f) + pi.atoms)
    if any(Literal(a) in m for a in open_atoms(pi, pi.atoms) for m in models):
        return False
    projections = {positive_part(m) & pi.heads for m in models}
    return all(x in projections for x in oracles.enumerate_answer_sets(pi))


def format_clauses(clauses: Iterable[Clause]) -> str:
    return "\n".join(format_clause(c) for c in clauses)


def format_dimacs(clauses: Iterable[Clause]) -> str:
    clauses = tuple(clauses)
    index: dict[Atom, int] = {}
    for c in clauses:
        for a in c.atoms:
            index.setdefault(a, len(index) + 1)
    lines = [f"p cnf {len(index)} {len(clauses)}"]
    for c in clauses:
        nums = sorted((index[l.atom] if l.positive else -index[l.atom]) for l in c)
        lines.append(" ".join(str(n) for n in nums) + " 0")
    return "\n".join(lines)


def format_pcid(theory: PcidTheory) -> str:
    return "#theory\n" + format_clauses(theory.clauses) + "\n#program\n" + format_program(theory.program) + "\n"

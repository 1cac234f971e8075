"""Seeded workload generators. The solver only ever sees the generated
text; every instance also carries an answer worked out here, without
the solver, so a verdict can be checked on any seed.

Nothing in this module imports ``smasp``: instance generation is the
benchmark's own cost and stays outside every timed region.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1

# cnf-search: random 3-SAT at the phase-transition ratio plus pigeonhole.
# 15 variables is the smallest size above every oracle cap of the
# package (12 atoms for the run self-check, 14 for trace entailment),
# so the enumerative oracles stay out of this workload.
CNF_VARS = 15
CNF_RATIO = 4.26
CNF_SAT = 4
CNF_UNSAT = 4
CNF_PIGEONHOLE = 5   # pigeons; one hole fewer, so unsatisfiable
# Pigeonhole copies differ only in variable numbering, so their cost
# varies least from seed to seed (about 16% per formula, against 50-80%
# for random 3-SAT); they are most of the operations, which keeps the
# median and the tail inside their band.
CNF_PIGEONHOLE_COPIES = 10
CNF_MODES = ("dpll", "clasp")

# asp-reach: reachability over choice edges on a bidirectional ring of
# 6 nodes. Search effort on larger rings is heavy-tailed (an 8-node
# refutation cost the non-learning smodels mode anywhere from 0.3 s to
# 8 s), and a few hard graphs would then decide a seed's figures.
ASP_NODES = 6
ASP_CHORDS = 2
ASP_SAT = (18, 2)    # (graphs, forbidden pairs)
ASP_UNSAT = (8, 3)
ASP_ROUTES = (("lp", "smodels"), ("lp", "cmodels"), ("lp", "clasp"),
              ("pcid", "minisatid"), ("pcid", "clasp"))

# desk-corpus: the package's own test distribution of tiny programs.
DESK_ATOMS = "abcdef"
DESK_MAX_RULES = 10
DESK_MODES = ("smodels", "cmodels", "clasp", "minisatid")
# Programs per stratum (answer, atoms of the alias completion), 226 in
# all: 225 times each stratum's share among the 1,910 of 3,000 sampled
# programs whose alias completion has at most 10 atoms. The enumerative
# checks cost 2^atoms and run only on some operations: a solve cross-
# checks unsat verdicts, and a trace check enumerates only when the
# trace learned a clause. With larger completions a handful of programs
# that happen to learn (a third of a second per check at 12 atoms)
# would decide a seed's check time; fixed strata and the 10-atom limit
# keep every seed's mix the same.
DESK_STRATA = {
    (False, 6): 8, (False, 7): 5, (False, 8): 8, (False, 9): 12, (False, 10): 18,
    (True, 6): 58, (True, 7): 21, (True, 8): 28, (True, 9): 35, (True, 10): 33,
}


@dataclass(frozen=True)
class Instance:
    """One generated input, the (format, mode) pairs that solve it, and
    its answer as worked out here without the solver."""

    name: str
    fmt: str
    text: str
    routes: tuple[tuple[str, str], ...]
    sat: bool


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[Instance, ...]
    # The self-check policy of ``smasp solve --self-check``: force the
    # model self-check and cross-check unsat verdicts by enumeration.
    self_check: bool


# -- cnf-search ---------------------------------------------------------

def random_3sat(rng: random.Random, n: int, ratio: float = CNF_RATIO) -> list[list[int]]:
    clauses = []
    for _ in range(int(ratio * n)):
        clauses.append([v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1), 3)])
    return clauses


def pigeonhole(rng: random.Random, pigeons: int) -> list[list[int]]:
    """Pigeon i sits in one of ``pigeons - 1`` holes, no hole holds two.
    The seed only permutes variable numbers, which changes the atom
    order the solver decides in but not the answer."""
    holes = pigeons - 1
    numbers = list(range(1, pigeons * holes + 1))
    rng.shuffle(numbers)

    def var(i: int, j: int) -> int:
        return numbers[i * holes + j]

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, j), -var(b, j)])
    return clauses


def dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _variable_masks(n: int) -> dict[int, int]:
    """Bit ``a`` of mask ``v`` is the value of variable ``v`` in
    assignment number ``a``; masks of negative literals complement."""
    size = 1 << n
    full = (1 << size) - 1
    masks = {}
    for v in range(1, n + 1):
        half = 1 << (v - 1)
        pattern = ((1 << half) - 1) << half
        period = 2 * half
        while period < size:
            pattern |= pattern << period
            period *= 2
        masks[v] = pattern
        masks[-v] = full ^ pattern
    return masks


def cnf_satisfiable(n: int, clauses: list[list[int]], masks: Optional[dict[int, int]] = None) -> bool:
    """Exhaustive satisfiability over all 2^n assignments at once, one
    bit per assignment; independent of the solver under test."""
    masks = masks or _variable_masks(n)
    alive = (1 << (1 << n)) - 1
    for c in clauses:
        sat = 0
        for l in c:
            sat |= masks[l]
        alive &= sat
        if not alive:
            return False
    return True


def cnf_search(seed: int) -> Workload:
    """Random 3-SAT is sampled until it holds a fixed number of
    satisfiable and unsatisfiable formulas (by exhaustive check), so
    every seed carries the same mix; the hardness within each class
    still varies with the seed."""
    rng = random.Random(f"cnf-search/{seed}")
    masks = _variable_masks(CNF_VARS)
    want = {True: CNF_SAT, False: CNF_UNSAT}
    found: dict[bool, list[list[list[int]]]] = {True: [], False: []}
    while any(len(found[k]) < want[k] for k in want):
        clauses = random_3sat(rng, CNF_VARS)
        answer = cnf_satisfiable(CNF_VARS, clauses, masks)
        if len(found[answer]) < want[answer]:
            found[answer].append(clauses)
    routes = tuple(("cnf", m) for m in CNF_MODES)
    out = []
    for answer, label in ((True, "sat"), (False, "unsat")):
        for i, clauses in enumerate(found[answer]):
            out.append(Instance(f"3sat-{label}-{i:02d}", "cnf",
                                dimacs(CNF_VARS, clauses), routes, answer))
    holes = CNF_PIGEONHOLE - 1
    for i in range(CNF_PIGEONHOLE_COPIES):
        clauses = pigeonhole(rng, CNF_PIGEONHOLE)
        out.append(Instance(f"php{CNF_PIGEONHOLE}-{holes}-{i:02d}", "cnf",
                            dimacs(CNF_PIGEONHOLE * holes, clauses), routes, False))
    return Workload("cnf-search", tuple(out), self_check=False)


# -- asp-reach ------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    nodes: int
    edges: tuple[tuple[int, int], ...]
    required: int
    forbidden: tuple[tuple[int, int], ...]  # node pairs never both reached


def reach_graph(rng: random.Random, forbidden: int, nodes: int = ASP_NODES,
                chords: int = ASP_CHORDS) -> Graph:
    edges = []
    for u in range(nodes):
        v = (u + 1) % nodes
        edges += [(u, v), (v, u)]
    while len(edges) < 2 * nodes + chords:
        u, v = rng.sample(range(nodes), 2)
        if (u, v) not in edges and (v - u) % nodes not in (1, nodes - 1):
            edges.append((u, v))
    required = nodes // 2
    inner = [x for x in range(1, nodes) if x != required]
    pairs: list[tuple[int, int]] = []
    while len(pairs) < forbidden:
        a, b = sorted(rng.sample(inner, 2))
        if (a, b) not in pairs:
            pairs.append((a, b))
    return Graph(nodes, tuple(edges), required, tuple(pairs))


def reach_satisfiable(g: Graph) -> bool:
    """A model exists iff some simple path from node 0 to the required
    node visits no forbidden pair: choosing exactly its edges reaches
    exactly its nodes and has no 2-cycle, and the reached set of any
    model contains such a path."""
    succ: dict[int, list[int]] = {u: [] for u in range(g.nodes)}
    for u, v in g.edges:
        succ[u].append(v)
    bad = {frozenset(p) for p in g.forbidden}

    def ok(visited: set[int], v: int) -> bool:
        return all(frozenset((v, w)) not in bad for w in visited)

    def search(u: int, visited: set[int]) -> bool:
        if u == g.required:
            return True
        for v in succ[u]:
            if v not in visited and ok(visited, v):
                visited.add(v)
                if search(v, visited):
                    return True
                visited.remove(v)
        return False

    return search(0, {0})


def _edge(u: int, v: int) -> str:
    return f"e_{u}_{v}"


def _two_cycles(g: Graph) -> list[tuple[int, int]]:
    edges = set(g.edges)
    return [(u, v) for u, v in g.edges if u < v and (v, u) in edges]


def reach_lp(g: Graph) -> str:
    rules = ["r_0."]
    rules += [f"{{{_edge(u, v)}}}." for u, v in g.edges]
    rules += [f"r_{v} :- r_{u}, {_edge(u, v)}." for u, v in g.edges]
    rules.append(f":- not r_{g.required}.")
    rules += [f":- r_{a}, r_{b}." for a, b in g.forbidden]
    rules += [f":- {_edge(u, v)}, {_edge(v, u)}." for u, v in _two_cycles(g)]
    return "\n".join(rules) + "\n"


def reach_pcid(g: Graph) -> str:
    """Edges open, reachability as the inductive definition, every
    constraint as a clause."""
    clauses = [f"r_{g.required}"]
    clauses += [f"-r_{a} | -r_{b}" for a, b in g.forbidden]
    clauses += [f"-{_edge(u, v)} | -{_edge(v, u)}" for u, v in _two_cycles(g)]
    rules = ["r_0."] + [f"r_{v} :- r_{u}, {_edge(u, v)}." for u, v in g.edges]
    return "#theory\n" + "\n".join(clauses) + "\n#program\n" + "\n".join(rules) + "\n"


def asp_reach(seed: int) -> Workload:
    """Graphs are sampled until a fixed number of each answer is found
    (by the path search above), so every seed carries the same mix."""
    rng = random.Random(f"asp-reach/{seed}")
    lp_routes = tuple(r for r in ASP_ROUTES if r[0] == "lp")
    pcid_routes = tuple(r for r in ASP_ROUTES if r[0] == "pcid")
    out = []
    for sat, (count, forbidden) in ((True, ASP_SAT), (False, ASP_UNSAT)):
        found = 0
        while found < count:
            g = reach_graph(rng, forbidden)
            if reach_satisfiable(g) != sat:
                continue
            name = f"reach-{'sat' if sat else 'unsat'}-{found:02d}"
            out.append(Instance(name + ".lp", "lp", reach_lp(g), lp_routes, sat))
            out.append(Instance(name + ".pcid", "pcid", reach_pcid(g), pcid_routes, sat))
            found += 1
    return Workload("asp-reach", tuple(out), self_check=False)


# -- desk-corpus -------------------------------------------------------------

def random_program(rng: random.Random, atoms: str = DESK_ATOMS,
                   max_rules: int = DESK_MAX_RULES) -> list[tuple[Optional[str], list[str], list[str], list[str]]]:
    """Rules ``(head, pos, neg, negneg)`` in the distribution of the
    package's property tests, re-implemented here so that editing the
    tests never moves the benchmark."""
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        head = None if rng.random() < 0.15 else rng.choice(atoms)
        pos, neg, negneg = [], [], []
        for a in atoms:
            r = rng.random()
            if r < 0.18:
                pos.append(a)
            elif r < 0.36:
                neg.append(a)
            elif r < 0.45:
                negneg.append(a)
        if head is None and not (pos or neg or negneg):
            neg.append(rng.choice(atoms))
        rules.append((head, pos, neg, negneg))
    return rules


def program_text(rules) -> str:
    lines = []
    for head, pos, neg, negneg in rules:
        body = pos + [f"not {a}" for a in neg] + [f"not not {a}" for a in negneg]
        text = head or ""
        if body:
            text += (" :- " if head else ":- ") + ", ".join(body)
        lines.append(text + ".")
    return "\n".join(lines) + "\n"


def has_answer_set(rules) -> bool:
    """Exhaustive answer-set existence over the program's atoms: a set
    X is an answer set when no constraint fires under X and X is the
    least model of the reduct (rules with a negated atom in X, or a
    doubly negated atom outside X, dropped; the rest keep their head
    and plain body)."""
    atoms = sorted({a for h, pos, neg, nn in rules for a in ([h] if h else []) + pos + neg + nn})
    for size in range(len(atoms) + 1):
        for x in map(set, itertools.combinations(atoms, size)):
            kept = [(h, pos) for h, pos, neg, nn in rules
                    if not any(a in x for a in neg) and all(a in x for a in nn)]
            if any(h is None and set(pos) <= x for h, pos in kept):
                continue
            derived: set[str] = set()
            changed = True
            while changed:
                changed = False
                for h, pos in kept:
                    if h is not None and h not in derived and set(pos) <= derived:
                        derived.add(h)
                        changed = True
            if derived == x:
                return True
    return False


def completion_atoms(rules) -> int:
    """Atoms of the alias (linear) completion: the program's atoms plus
    one alias per distinct body of two or more literals among the rules
    of atoms that are not facts."""
    atoms = {a for h, pos, neg, nn in rules for a in ([h] if h else []) + pos + neg + nn}
    facts = {h for h, pos, neg, nn in rules if h and not (pos or neg or nn)}
    bodies = {(frozenset(pos), frozenset(neg), frozenset(nn)) for h, pos, neg, nn in rules
              if h is not None and h not in facts and len(pos) + len(neg) + len(nn) >= 2}
    return len(atoms) + len(bodies)


def desk_stratum(rules) -> tuple[bool, int]:
    return has_answer_set(rules), max(completion_atoms(rules), 6)


def desk_corpus(seed: int) -> Workload:
    rng = random.Random(f"desk-corpus/{seed}")
    routes = tuple(("lp", m) for m in DESK_MODES)
    left = dict(DESK_STRATA)
    out = []
    while any(left.values()):
        rules = random_program(rng)
        stratum = desk_stratum(rules)
        if left.get(stratum):
            left[stratum] -= 1
            out.append(Instance(f"prog-{len(out):03d}", "lp", program_text(rules), routes, stratum[0]))
    return Workload("desk-corpus", tuple(out), self_check=True)


WORKLOADS = {"cnf-search": cnf_search, "asp-reach": asp_reach, "desk-corpus": desk_corpus}

"""Acceptance suite: one test per release criterion, each printing its
own PASS line (run with ``pytest tests/test_acceptance.py -v``).

The heavy random cohorts are built once per module and shared; every
engine run they produce is also screened by the termination and
acyclicity criterion.
"""

import itertools
import random
import time

import pytest

import gen
from helpers import PI0, F0, atoms, cl, lit, lits
from smasp import engine, oracles
from smasp.cli import main
from smasp.engine import AugmentedState, run
from smasp.model import PcidTheory, SmaspTheory, satisfies
from smasp.trace import load_trace
from smasp.translations import (
    body_alias,
    completion,
    ed_completion,
    open_program,
    pi_translation,
)

SEED = 20260811


def _alias_extension(pi, assignment):
    """Complete an assignment over the program's atoms with the forced
    values of the linear completion's body aliases."""
    extra = []
    seen = set()
    for a in pi.atoms:
        if pi.is_fact_atom(a):
            continue
        for body in pi.bodies(a):
            body_lits = body.s_literals
            if len(body_lits) <= 1:
                continue
            alias = body_alias(body)
            if alias in seen:
                continue
            seen.add(alias)
            holds = all(l in assignment for l in body_lits)
            extra.append(alias if holds else alias.dual)
    return frozenset(assignment) | frozenset(extra)


def _models(theory, base_program, accept):
    """Exhaustive models of a theory under ``accept``; when the clause
    set extends a program's atoms with body aliases, only the forced
    alias extensions are materialized (the alias definitions falsify
    every other extension)."""
    if base_program is None or set(theory.atoms) == set(base_program.atoms):
        return [m for m in oracles.enumerate_assignments(theory.atoms)
                if accept(theory, m)]
    out = []
    for n in oracles.enumerate_assignments(base_program.atoms):
        m = _alias_extension(base_program, n)
        if accept(theory, m):
            out.append(m)
    return out


def _replay_states(theory, steps):
    state = AugmentedState()
    out = [state]
    for st in steps:
        state = engine.step(state, st.transition, theory)
        out.append(state)
    return out


def _passes(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


# ----------------------------------------------------------------------
# shared cohorts

@pytest.fixture(scope="module")
def corpus3():
    """500 random programs with double negation and constraints, each
    paired with both completion variants and run under all five modes
    against per-theory exhaustive oracles."""
    rng = random.Random(SEED)
    runs = []
    learning_runs = []
    eager_runs = []
    spot_checked = 0
    t0 = time.time()
    for i in range(500):
        pi = gen.random_program(rng, n_atoms=6, max_rules=10)
        comp_theory = SmaspTheory(completion(pi), pi)
        ed_theory = SmaspTheory(ed_completion(pi), pi)
        models = {
            comp_theory: _models(comp_theory, None, oracles.is_smasp_model),
            ed_theory: _models(ed_theory, pi, oracles.is_smasp_model),
        }
        assert bool(models[comp_theory]) == bool(models[ed_theory])
        if spot_checked < 30 and len(ed_theory.atoms) <= 11:
            direct = set(oracles.enumerate_smasp_models(ed_theory))
            assert direct == set(models[ed_theory])
            spot_checked += 1
        for mode in ("smodels", "cmodels", "clasp", "minisatid"):
            for theory in (comp_theory, ed_theory):
                out = run(theory, mode)
                runs.append(out)
                assert out.verdict != engine.VERDICT_LIMIT
                assert (out.verdict == engine.VERDICT_MODEL) == bool(models[theory])
                if out.model is not None:
                    assert oracles.is_smasp_model(theory, out.model)
                if mode == "smodels":
                    eager_runs.append((theory, out))
                elif mode in ("clasp", "minisatid", "cmodels"):
                    learning_runs.append((theory, models[theory], out))
        # the plain backtracking mode solves the clause sets alone
        for clause_set, base in ((comp_theory.clauses, None), (ed_theory.clauses, pi)):
            cnf_theory = SmaspTheory(clause_set)
            sat_models = _models(cnf_theory, base,
                                 lambda t, m: satisfies(m, t.clauses))
            out = run(cnf_theory, "dpll")
            runs.append(out)
            assert out.verdict != engine.VERDICT_LIMIT
            assert (out.verdict == engine.VERDICT_MODEL) == bool(sat_models)
            if out.model is not None:
                assert oracles.is_smasp_model(cnf_theory, out.model)
    return {"runs": runs, "learning": learning_runs, "eager": eager_runs,
            "instances": 500, "spot_checked": spot_checked,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def corpus6():
    """100 random total clause/program theories with the two solving
    routes: the definitional pipeline and the constraint-translation
    pipeline."""
    rng = random.Random(SEED + 6)
    entries = []
    t0 = time.time()
    for _ in range(100):
        theory = gen.random_total_pcid(rng, n_atoms=5, max_rules=6)
        opened = open_program(theory.program, theory.atoms)
        translated = pi_translation(theory)
        definitional = SmaspTheory(ed_completion(opened) + theory.clauses, opened)
        constraint_route = SmaspTheory(ed_completion(translated), translated)
        out_def = run(definitional, "minisatid", self_check=False)
        out_con = run(constraint_route, "clasp", self_check=False)
        entries.append((theory, opened, translated, out_def, out_con))
    return {"entries": entries, "elapsed": time.time() - t0}


# ----------------------------------------------------------------------
# criteria

def test_criterion_1_running_example_exactness():
    t0 = time.time()
    assert oracles.is_input_answer_set(PI0, set(atoms("b c")))
    assert oracles.is_input_answer_set(PI0, set(atoms("a b")))
    assert not oracles.is_input_answer_set(PI0, set(atoms("a b c")))

    expected_models = {lits("b -c a"), lits("b c -a")}
    assert set(oracles.enumerate_pcid_models(PcidTheory(F0, PI0))) == expected_models
    assert set(oracles.enumerate_smasp_models(SmaspTheory(F0, PI0))) == expected_models

    assert set(completion(PI0)) == {
        cl("a", "-b", "c"), cl("-a", "b"), cl("-a", "-c"), cl("b"), cl("-c")}

    alias = body_alias(PI0.rules[0].body)
    from smasp.model import Clause
    assert set(ed_completion(PI0)) == {
        cl("a", "-b", "c"),
        Clause((lit("-a"), alias)),
        Clause((alias, lit("-b"), lit("c"))),
        Clause((alias.dual, lit("b"))),
        Clause((alias.dual, lit("-c"))),
        cl("b"),
        cl("-c"),
    }
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _passes("criterion 1", f"running example exact in {elapsed:.2f}s")


@pytest.fixture(scope="module")
def criterion2_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("c2")
    cnf = path / "f1.cnf"
    cnf.write_text("p cnf 3 2\n1 2 0\n-1 3 0\n")
    trace_file = path / "f1.trace"
    t0 = time.time()
    code = main(["solve", "--mode", "dpll", "--format", "cnf",
                 "--trace", str(trace_file), str(cnf)])
    elapsed = time.time() - t0
    return code, load_trace(trace_file.read_text()), elapsed


def test_criterion_2_dpll_path(criterion2_trace, capsys):
    code, trace, elapsed = criterion2_trace
    assert code == 10
    assert [(s.transition.rule, s.transition.literal) for s in trace.steps] == [
        ("Decide", lit("x1")),
        ("UnitPropagate", lit("x3")),
        ("Decide", lit("x2")),
    ]
    assert trace.steps[1].transition.clause == cl("-x1", "x3")
    assert elapsed < 1.0
    _passes("criterion 2", f"exact trace in {elapsed:.2f}s")


def test_criterion_3_oracle_equivalence(corpus3):
    assert corpus3["instances"] == 500
    assert corpus3["spot_checked"] == 30
    assert corpus3["elapsed"] < 60.0
    _passes("criterion 3",
            f"500 instances, {len(corpus3['runs'])} runs, "
            f"100% oracle agreement in {corpus3['elapsed']:.1f}s")


def test_criterion_4_gus_exactness():
    rng = random.Random(SEED + 4)
    t0 = time.time()
    for _ in range(200):
        pi = gen.random_program(rng, n_atoms=rng.randint(1, 8), max_rules=10,
                                pool=gen.POOL8)
        m = gen.random_consistent_literals(rng, pi.atoms)
        union = set()
        for size in range(1, len(pi.atoms) + 1):
            for u in itertools.combinations(pi.atoms, size):
                if oracles.is_unfounded(u, m, pi):
                    union.update(u)
        assert oracles.greatest_unfounded_set(m, pi) == frozenset(union)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passes("criterion 4", f"200 instances exact in {elapsed:.1f}s")


def test_criterion_5_fixpoint_cross_check():
    rng = random.Random(SEED + 5)
    t0 = time.time()
    for _ in range(200):
        pi = gen.random_program(rng, n_atoms=5, max_rules=8, normal=True)
        open_pool = [a for a in gen.POOL8[:6] if a not in pi.heads]
        n = gen.random_consistent_literals(rng, open_pool)
        for left, right in gen.wieq_routes(pi, n):
            assert left == right
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _passes("criterion 5", f"200 instances agree per index in {elapsed:.1f}s")


def test_criterion_6_structural_and_trace_identity(corpus6):
    for theory, opened, translated, out_def, out_con in corpus6["entries"]:
        assert set(ed_completion(translated)) == \
            set(ed_completion(opened)) | set(theory.clauses)
        assert out_def.steps == out_con.steps
    assert corpus6["elapsed"] < 60.0
    _passes("criterion 6",
            f"100 total theories, identical clause sets and traces "
            f"in {corpus6['elapsed']:.1f}s")


def test_criterion_7_learning_soundness(corpus3):
    reasons_checked = 0
    learned_checked = 0
    for theory, models, out in corpus3["learning"]:
        if not any(s.transition.rule == "Backjump" for s in out.steps):
            continue
        checked_reasons = set()
        states = _replay_states(theory, out.steps)
        for state in states:
            boundary = len(state.trail.truncate(state.trail.first_conflict_index))
            for position, entry in enumerate(state.trail.entries):
                if entry.is_decision:
                    continue
                assert entry.reason is not None or position > boundary
                if entry.reason is None or entry.reason in checked_reasons:
                    continue
                checked_reasons.add(entry.reason)
                assert all(satisfies(m, (entry.reason,)) for m in models)
                reasons_checked += 1
        for c in states[-1].learned:
            assert all(satisfies(m, (c,)) for m in models)
            learned_checked += 1
    assert reasons_checked and learned_checked
    _passes("criterion 7",
            f"{reasons_checked} reasons and {learned_checked} learned "
            f"clauses all entailed")


def test_criterion_8_termination_and_acyclicity(corpus3, corpus6, criterion2_trace):
    outcomes = list(corpus3["runs"])
    outcomes.extend(e[3] for e in corpus6["entries"])
    outcomes.extend(e[4] for e in corpus6["entries"])
    step_lists = [o.steps for o in outcomes] + [criterion2_trace[1].steps]
    for o in outcomes:
        assert o.verdict != engine.VERDICT_LIMIT
    for steps in step_lists:
        learned = 0
        seen = set()
        for s in steps:
            if s.transition.rule == "Learn":
                learned += 1
            key = (s.trail_digest, learned)
            assert key not in seen
            seen.add(key)
    _passes("criterion 8", f"{len(step_lists)} runs halted, no state revisited")


def test_criterion_9_eager_mode_avoids_singular_edges(corpus3):
    checked = 0
    for theory, out in corpus3["eager"]:
        if not any(s.transition.rule == "Unfounded" for s in out.steps):
            continue
        states = _replay_states(theory, out.steps)
        for st, before in zip(out.steps, states):
            if st.transition.rule != "Unfounded":
                continue
            assert not gen.is_singular_unfounded(before, theory)
            checked += 1
    assert checked
    _passes("criterion 9", f"{checked} unfounded-set steps, none singular")

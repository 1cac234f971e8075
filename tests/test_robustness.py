"""Adversarial and determinism checks on top of the unit suites."""

import random

import pytest

import gen
from helpers import PI0, PI3, atoms, cl, lit, prog, rule
from smasp import engine, oracles
from smasp.cli import main
from smasp.engine import TraceStep, Transition, run
from smasp.model import SmaspTheory
from smasp.trace import Trace, TraceHeader, theory_digest, validate_trace
from smasp.translations import completion, ed_completion


def bare(index, rule_name, trail_digest="", **payload):
    return TraceStep(index, Transition(rule_name, **payload), trail_digest)


def make_trace(theory, steps, mode="smodels"):
    return Trace(TraceHeader(mode, theory_digest(theory)), tuple(steps))


class TestTamperedTraces:
    def test_flipped_propagated_literal(self):
        t = SmaspTheory((cl("a", "b"), cl("-a", "c")))
        steps = (
            bare(1, "Decide", literal=lit("a")),
            bare(2, "UnitPropagate", literal=lit("-c"), clause=cl("-a", "c")),
        )
        result = validate_trace(make_trace(t, steps, "dpll"), t, "dpll")
        assert not result.ok and result.step_index == 2

    def test_witness_that_is_not_unfounded(self):
        t = SmaspTheory(completion(PI0), PI0)
        steps = (bare(1, "Unfounded", literal=lit("-b"), witness=atoms("b")),)
        result = validate_trace(make_trace(t, steps), t, "smodels")
        assert not result.ok and "unfounded" in result.reason

    def test_backjump_prefix_not_at_a_decision(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        out = run(t, "cmodels")
        backjump = next(s for s in out.steps if s.transition.rule == "Backjump")
        tampered = []
        for s in out.steps[:backjump.index]:
            if s.transition.rule == "Backjump":
                s = s._replace(transition=s.transition._replace(prefix_length=1))
            tampered.append(s)
        result = validate_trace(make_trace(t, tampered, "cmodels"), t, "cmodels")
        assert not result.ok and result.step_index == backjump.index

    def test_smaller_unfounded_witness_is_still_a_legal_edge(self):
        # any unfounded set justifies the edge, not only the greatest one
        pi = prog(rule("a", pos="a"), rule("b", pos="b"))
        t = SmaspTheory(completion(pi), pi)
        steps = (bare(1, "Unfounded", literal=lit("-a"), witness=atoms("a")),)
        assert validate_trace(make_trace(t, steps), t, "smodels").ok

    def test_duplicate_unfounded_literal_is_rejected(self):
        t = SmaspTheory(completion(PI3), PI3)
        steps = (
            bare(1, "Unfounded", literal=lit("-a"), witness=atoms("a b")),
            bare(2, "Unfounded", literal=lit("-a"), witness=atoms("a b")),
        )
        result = validate_trace(make_trace(t, steps), t, "smodels")
        assert not result.ok and result.step_index == 2


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        rng = random.Random(211)
        for _ in range(10):
            pi = gen.random_program(rng, n_atoms=5, max_rules=8)
            theory = SmaspTheory(ed_completion(pi), pi)
            for mode in ("smodels", "cmodels", "clasp"):
                first = run(theory, mode, self_check=False)
                second = run(theory, mode, self_check=False)
                assert first.steps == second.steps
                assert first.stats == second.stats

    def test_stats_count_each_rule(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        out = run(t, "cmodels")
        assert out.stats == {"Decide": 1, "UnitPropagateLearn": 2,
                             "Unfounded": 1, "Backjump": 1, "Learn": 1}


class TestOverlappingBodyParts:
    def test_atom_may_occur_in_several_body_parts(self):
        from smasp.parsing import parse_lp
        pi = parse_lp("a :- b, not b.")
        r = pi.rules[0]
        assert r.pos == atoms("b") and r.neg == atoms("b")
        # the body is never satisfiable, so the atom stays unsupported
        from smasp.oracles import enumerate_answer_sets
        assert enumerate_answer_sets(pi) == (frozenset(),)

    def test_self_contradictory_clause_constraint(self):
        from smasp.translations import clause_constraint
        r = clause_constraint(cl("a", "-a"))
        assert r.pos == atoms("a") and r.neg == atoms("a")


def test_cli_trace_identity_of_the_two_pcid_routes(tmp_path, capsys):
    # the definitional pipeline and the constraint-translation pipeline
    # walk the same edges on the running example
    source = tmp_path / "t0.pcid"
    source.write_text("#theory\nb | -c\n#program\na :- b, not c.\nb.\n")
    t_mini = tmp_path / "mini.trace"
    t_clasp = tmp_path / "clasp.trace"
    assert main(["solve", "--mode", "minisatid", "--format", "pcid",
                 "--trace", str(t_mini), str(source)]) == 10
    assert main(["solve", "--mode", "clasp", "--format", "pcid",
                 "--trace", str(t_clasp), str(source)]) == 10
    capsys.readouterr()
    mini_steps = t_mini.read_text().splitlines()[1:]
    clasp_steps = t_clasp.read_text().splitlines()[1:]
    assert mini_steps == clasp_steps


def test_run_rejects_unsound_mode_theory_pairings():
    # plain backtracking over a non-empty program can halt at a
    # supported-but-unstable assignment; the self-check refuses it
    pi = prog(rule("a", pos="a"), rule(None, neg="a"))
    theory = SmaspTheory(completion(pi), pi)
    with pytest.raises(engine.SelfCheckError):
        run(theory, "dpll", self_check=True)
    out = run(theory, "dpll", self_check=False)
    assert out.verdict == engine.VERDICT_MODEL  # a model of the clauses only


@pytest.mark.parametrize("n_atoms, checked", [(14, True), (15, False)])
def test_default_self_check_covers_theories_up_to_the_desk_limit(n_atoms, checked, monkeypatch):
    theory = SmaspTheory(tuple(cl(f"x{i}") for i in range(1, n_atoms + 1)))
    monkeypatch.setattr(oracles, "is_smasp_model", lambda theory, model: False)
    if checked:
        with pytest.raises(engine.SelfCheckError):
            run(theory, "dpll")
    else:
        assert run(theory, "dpll").verdict == engine.VERDICT_MODEL


def _pigeonhole_clauses(pigeons, holes):
    """p_{i,j}: pigeon i sits in hole j; unsatisfiable when pigeons
    outnumber holes."""
    from smasp.model import Atom, Clause, Literal

    def var(i, j):
        return Literal(Atom(f"p{i}_{j}"))

    clauses = [Clause(tuple(var(i, j) for j in range(holes)))
               for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append(Clause((var(i1, j).dual,
                                       var(i2, j).dual)))
    return tuple(clauses)


def test_pigeonhole_is_refuted_in_every_mode():
    theory = SmaspTheory(_pigeonhole_clauses(4, 3))
    for mode in ("dpll", "smodels", "cmodels", "clasp", "minisatid"):
        out = run(theory, mode, self_check=False)
        assert out.verdict == engine.VERDICT_UNSAT, mode
    satisfiable = SmaspTheory(_pigeonhole_clauses(3, 3))
    out = run(satisfiable, "clasp", self_check=False)
    assert out.verdict == engine.VERDICT_MODEL

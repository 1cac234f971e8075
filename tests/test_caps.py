"""The caps a run stops at, and where the atom caps are defined.

``run`` checks ``max_steps`` and the learned-store cap at one point,
just before a step is taken: a run that needs exactly N steps returns
its verdict under ``max_steps=N``, and a capped run records a prefix of
the uncapped run. The desk-scale test and the enumeration cap live in
:mod:`smasp.oracles` alone.
"""

import random
import tokenize
from pathlib import Path

import pytest

import gen
import smasp
from smasp import engine
from smasp.engine import run
from smasp.model import SmaspTheory
from smasp.parsing import parse_dimacs

# pigeonhole 3 -> 2: clasp takes 16 steps; step 8 is a Backjump, step 9 its Learn
PHP = SmaspTheory(parse_dimacs(
    "p cnf 6 9\n1 2 0\n3 4 0\n5 6 0\n-1 -3 0\n-1 -5 0\n-3 -5 0\n-2 -4 0\n-2 -6 0\n-4 -6 0\n"))
SRC = Path(smasp.__file__).parent


def _gen_runs(seed, count=12):
    rng = random.Random(seed)
    for _ in range(count):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        yield from gen.theories_per_mode(pi)


def _assert_prefix(capped, full):
    assert capped.steps == full.steps[:len(capped.steps)]


@pytest.mark.parametrize("seed", [3, 11])
def test_a_run_that_needs_n_steps_ends_under_max_steps_n(seed):
    for mode, theory in _gen_runs(seed):
        full = run(theory, mode, self_check=False)
        n = len(full.steps)
        assert full.verdict != engine.VERDICT_LIMIT
        assert run(theory, mode, max_steps=n, self_check=False) == full
        if n:
            capped = run(theory, mode, max_steps=n - 1, self_check=False)
            assert capped.verdict == engine.VERDICT_LIMIT
            assert len(capped.steps) == n - 1
            _assert_prefix(capped, full)


def test_pigeonhole_records_at_most_max_steps_steps_under_every_cap():
    full = run(PHP, "clasp")
    assert (full.verdict, len(full.steps)) == (engine.VERDICT_UNSAT, 16)
    for cap in range(17):
        capped = run(PHP, "clasp", max_steps=cap)
        assert len(capped.steps) <= cap
        _assert_prefix(capped, full)
        assert (capped.verdict == engine.VERDICT_LIMIT) == (cap < 16)


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_no_learn_is_taken_past_the_learned_cap(cap, monkeypatch):
    theory = gen.random_3sat(random.Random(2), 8)  # unsatisfiable; clasp learns 5 clauses
    full = run(theory, "clasp")
    learns = [s.index for s in full.steps if s.transition.rule == engine.RULE_LEARN]
    assert len(learns) == 5
    monkeypatch.setattr(engine, "DEFAULT_MAX_LEARNED", cap)
    capped = run(theory, "clasp")
    assert capped.verdict == engine.VERDICT_LIMIT
    # every step before the Learn that would store clause cap + 1
    assert len(capped.steps) == learns[cap] - 1
    _assert_prefix(capped, full)


def test_choose_is_asked_once_per_step_that_is_not_a_learn(monkeypatch):
    calls = 0
    choose = engine.Walk.choose

    def counted(walk):
        nonlocal calls
        calls += 1
        return choose(walk)

    monkeypatch.setattr(engine.Walk, "choose", counted)
    runs = list(_gen_runs(5)) + [("clasp", PHP)]
    for mode, theory in runs:
        calls = 0
        out = run(theory, mode, self_check=False)
        assert out.verdict != engine.VERDICT_LIMIT
        assert calls == len(out.steps) - out.stats.get(engine.RULE_LEARN, 0) + 1


def _code_lines(names, files="*.py"):
    """``(file, line)`` for each line of the package whose code, not a
    comment or a string, uses one of ``names``."""
    found = set()
    for path in sorted(SRC.glob(files)):
        with path.open() as source:
            for tok in tokenize.generate_tokens(source.readline):
                if tok.type == tokenize.NAME and tok.string in names:
                    found.add((path.name, tok.line.strip()))
    return found


def test_the_desk_scale_is_compared_only_in_at_desk_scale():
    assert _code_lines({"DESK_CHECK_ATOM_LIMIT", "ORACLE_CHECK_ATOM_LIMIT"}) == {
        ("oracles.py", "DESK_CHECK_ATOM_LIMIT = 14"),
        ("oracles.py", "return len(theory.atoms) <= DESK_CHECK_ATOM_LIMIT"),
        ("cli.py", "from .oracles import DESK_CHECK_ATOM_LIMIT as ORACLE_CHECK_ATOM_LIMIT"),
    }


def test_the_enumeration_cap_is_named_only_in_oracles():
    assert {name for name, _ in _code_lines({"DEFAULT_ENUMERATION_CAP"})} == {"oracles.py"}


def test_translations_does_not_import_oracles():
    assert _code_lines({"oracles"}, "translations.py") == set()

"""The caps a run stops at, where the atom caps and the clause budget
are defined, how the package's modules import one another, and which
of their names the benchmark's tracer wraps.

``run`` checks ``max_steps`` and the learned-store cap at one point,
just before a step is taken: a run that needs exactly N steps returns
its verdict under ``max_steps=N``, and a capped run records a prefix of
the uncapped run. The desk-scale test and the enumeration cap live in
:mod:`smasp.oracles` alone. Each budget is one constant, read where it
is used and set by no caller; a test lowers it with ``monkeypatch``.
"""

import ast
import importlib.util
import random
from pathlib import Path

import pytest

import gen
import smasp
from helpers import F0, PI0, cl
from smasp import engine, oracles
from smasp.engine import run
from smasp.model import CapExceeded, PcidTheory, SmaspTheory
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


def _code_lines(names, files="*.py", root=SRC):
    """``(file, line)`` for each line of the package whose code, not a
    comment or a string, uses one of ``names``: as a name, an attribute
    or an imported name, inside an f-string too, on every Python."""
    found = set()
    for path in sorted(root.glob(files)):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.alias):
                used = {node.name, node.asname}
            else:
                continue
            if used & names:
                found.add((path.name, lines[node.lineno - 1].strip()))
    return found


def test_a_name_read_inside_an_f_string_is_found(tmp_path):
    (tmp_path / "probe.py").write_text(
        "from .oracles import DESK_CHECK_ATOM_LIMIT as LIMIT\n"
        "# DESK_CHECK_ATOM_LIMIT in a comment\n"
        "note = 'DESK_CHECK_ATOM_LIMIT in a string'\n"
        "bare = f'at most {DESK_CHECK_ATOM_LIMIT} atoms'\n"
        "dotted = f'at most {oracles.DESK_CHECK_ATOM_LIMIT + 1} atoms'\n")
    assert _code_lines({"DESK_CHECK_ATOM_LIMIT"}, root=tmp_path) == {
        ("probe.py", "from .oracles import DESK_CHECK_ATOM_LIMIT as LIMIT"),
        ("probe.py", "bare = f'at most {DESK_CHECK_ATOM_LIMIT} atoms'"),
        ("probe.py", "dotted = f'at most {oracles.DESK_CHECK_ATOM_LIMIT + 1} atoms'"),
    }


def test_the_desk_scale_is_compared_only_in_at_desk_scale():
    assert _code_lines({"DESK_CHECK_ATOM_LIMIT", "ORACLE_CHECK_ATOM_LIMIT"}) == {
        ("oracles.py", "DESK_CHECK_ATOM_LIMIT = 14"),
        ("oracles.py", "return len(theory.atoms) <= DESK_CHECK_ATOM_LIMIT"),
        ("cli.py", "from .oracles import DESK_CHECK_ATOM_LIMIT as ORACLE_CHECK_ATOM_LIMIT"),
        ("cli.py", "limit = oracles.DESK_CHECK_ATOM_LIMIT"),  # named when totality is not checked
    }


def _functions():
    """``(file, function, node)`` for every function the package defines,
    nested ones included."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name, node


def _reads(name):
    """``(file, function)`` for each innermost function whose body reads
    ``name``, bare or as an attribute; ``None`` for module level."""
    found = set()

    def visit(node, owner, file):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.add((file, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, file)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path.name)
    return found


def test_the_enumeration_cap_is_named_only_in_oracles():
    assert {name for name, _ in _code_lines({"DEFAULT_ENUMERATION_CAP"})} == {"oracles.py"}


def test_the_clause_budget_is_named_only_in_translations():
    assert {name for name, _ in _code_lines({"DEFAULT_CLAUSE_BUDGET"})} == {"translations.py"}


def test_each_budget_is_read_only_where_it_is_enforced():
    assert _reads("DEFAULT_ENUMERATION_CAP") == {("oracles.py", "_check_cap")}
    assert _reads("DEFAULT_CLAUSE_BUDGET") == {("translations.py", "completion")}


def test_no_caller_sets_a_cap_except_the_benchmark_harness():
    settable = {(file, function, arg.arg) for file, function, node in _functions()
                for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
                and arg.arg in ("cap", "budget", "universe")}
    assert settable == {("oracles.py", "enumerate_smasp_models", "cap")}


def test_definitions_only_tests_call_live_in_gen():
    test_only = {"is_singular_unfounded", "is_pi_safe", "enumerate_models",
                 "format_clauses", "format_dimacs", "format_pcid"}
    assert {function for _, function, _ in _functions()} & test_only == set()
    assert all(callable(getattr(gen, name)) for name in test_only)


THREE_ATOMS = SmaspTheory((cl("a", "b", "c"),))  # seven models
# each enumerates three atoms; the answer is the result's size when it is a tuple
CAPPED = [
    pytest.param(lambda: oracles.enumerate_answer_sets(PI0), 1, id="enumerate_answer_sets"),
    pytest.param(lambda: oracles.enumerate_smasp_models(THREE_ATOMS), 7,
                 id="enumerate_smasp_models"),
    pytest.param(lambda: oracles.enumerate_pcid_models(PcidTheory(F0, PI0)), 2,
                 id="enumerate_pcid_models"),
    pytest.param(lambda: oracles.entails(THREE_ATOMS, cl("a", "b", "c")), True, id="entails"),
    pytest.param(lambda: oracles.is_total(PcidTheory(F0, PI0)), True, id="is_total"),
]


@pytest.mark.parametrize("enumerate, answer", CAPPED)
def test_every_enumeration_stops_at_the_one_cap(enumerate, answer, monkeypatch):
    result = enumerate()
    assert (len(result) if isinstance(result, tuple) else result) == answer
    monkeypatch.setattr(oracles, "DEFAULT_ENUMERATION_CAP", 3)
    assert enumerate() == result
    monkeypatch.setattr(oracles, "DEFAULT_ENUMERATION_CAP", 2)
    with pytest.raises(CapExceeded, match="enumeration over 3 atoms exceeds cap 2"):
        enumerate()


# each module's imports within the package, as they stand: model imports
# none, translations only model, and oracles and parsing only those two
IMPORTS = {
    "model": set(),
    "translations": {"model"},
    "oracles": {"model", "translations"},
    "parsing": {"model", "translations"},
    "engine": {"model", "oracles", "translations"},
    "trace": {"engine", "model", "oracles", "parsing"},
    "cli": {"engine", "model", "oracles", "parsing", "trace", "translations"},
    "__init__": {"engine", "model", "parsing", "trace"},
}


def _imports(path):
    """The package modules a module imports relatively, and the top-level
    names of everything else it imports; the package imports itself only
    relatively, so the first set holds all its edges."""
    inside, outside = set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            inside |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            outside.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            outside |= {a.name.split(".")[0] for a in node.names}
    return inside, outside


def test_the_package_imports_follow_its_layers():
    graph = {path.stem: _imports(path) for path in SRC.glob("*.py")}
    assert {module: inside for module, (inside, _) in graph.items()} == IMPORTS
    test_modules = {path.stem for path in Path(__file__).parent.glob("*.py")} | {"tests"}
    assert all(not outside & (test_modules | {"smasp"}) for _, outside in graph.values())


def test_every_name_the_benchmark_tracer_wraps_is_on_the_package():
    """``perfbench/tracing.py`` swaps the functions its ``LAYERS`` name
    for span-recording wrappers, and fails on a name that is gone."""
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, owner, names in tracing.LAYERS:
        module, _, cls = owner.partition(".")
        owner = importlib.import_module("smasp." + module)
        owner = getattr(owner, cls) if cls else owner
        for name in names:
            assert callable(getattr(owner, name, None)), (owner, name)

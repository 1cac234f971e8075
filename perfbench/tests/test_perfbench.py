"""Tests of the benchmark itself (not of the package):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracing
import workloads
from workloads import Instance, Workload

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_exhaustive_cnf_check_matches_brute_force():
    import itertools
    import random

    rng = random.Random(3)
    for _ in range(20):
        clauses = workloads.random_3sat(rng, 6, ratio=5.0)
        brute = any(all(any((l > 0) == bits[abs(l) - 1] for l in c) for c in clauses)
                    for bits in itertools.product((False, True), repeat=6))
        assert workloads.cnf_satisfiable(6, clauses) == brute
    assert not workloads.cnf_satisfiable(6, workloads.pigeonhole(rng, 3))


def test_reach_answer_respects_forbidden_pairs():
    ring = workloads.Graph(4, ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)),
                           required=2, forbidden=())
    assert workloads.reach_satisfiable(ring)
    blocked = workloads.Graph(ring.nodes, ring.edges, 2, ((1, 3),))
    assert workloads.reach_satisfiable(blocked)  # one side of the ring suffices
    both = workloads.Graph(4, tuple(e for e in ring.edges if 2 not in e or 1 in e), 2, ((1, 3),))
    assert workloads.reach_satisfiable(both)
    cut = workloads.Graph(4, ((0, 1), (1, 0), (1, 2), (0, 3), (3, 0), (3, 2)), 2, ((1, 3),))
    assert workloads.reach_satisfiable(cut)
    assert not workloads.reach_satisfiable(
        workloads.Graph(4, ((0, 1), (1, 3), (3, 2)), 2, ((1, 3),)))


def test_desk_strata_match_the_package():
    import random

    mods, _ = harness.import_package()
    rng = random.Random(5)
    for _ in range(150):
        rules = workloads.random_program(rng)
        text = workloads.program_text(rules)
        program = mods["parsing"].parse_lp(text)
        assert workloads.has_answer_set(rules) == bool(
            mods["oracles"].enumerate_answer_sets(program))
        theory, _, _ = mods["cli"].build_theory("clasp", "lp", text)
        assert workloads.completion_atoms(rules) == len(theory.atoms)


def test_self_time_subtracts_the_union_of_children():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping) and a
    # grandchild [2, 3] under the first child
    parents = [-1, 0, 0, 1]
    starts = [0.0, 1.0, 3.0, 2.0]
    ends = [10.0, 4.0, 6.0, 3.0]
    assert tracing.self_times(parents, starts, ends) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    assert tracing.covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracing.covered([], 0.0, 1.0) == 0.0


def test_tail_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert harness.tail(values) == (90.0, 90.0)
    assert harness.tail([1.0, 2.0]) == (2.0, 100.0)


def _small_workload():
    desk = workloads.desk_corpus(workloads.DEFAULT_SEED)
    cnf = workloads.cnf_search(workloads.DEFAULT_SEED)
    asp = workloads.asp_reach(workloads.DEFAULT_SEED)
    picked = desk.instances[:6] + cnf.instances[:1] + asp.instances[:2]
    return Workload("mixed", picked, self_check=True)


def _traced_counts():
    workload = _small_workload()
    ops = harness.operations(workload)
    mods, _ = harness.import_package()
    checker = harness.Checker(mods, None)
    rec = tracing.Recorder()
    saved = tracing.install(rec, mods)
    try:
        results = harness.run_pass(mods, workload, ops, checker, rec=rec)
    finally:
        tracing.restore(saved)
    return mods, saved, rec, results


def test_traced_pass_restores_wrappers_and_repeats_counts():
    mods, saved, rec, results = _traced_counts()
    assert tracing.is_restored(saved)
    assert not hasattr(mods["engine"].run, "__wrapped__")
    assert "__wrapped__" not in vars(mods["model"].Trail.append)
    assert all(r.problem is None for r in results)
    first = {k: v for k, v in tracing.layer_report(rec).items() if not k.endswith("_s")}
    _, _, again, _ = _traced_counts()
    assert {k: v for k, v in tracing.layer_report(again).items() if not k.endswith("_s")} == first
    assert first["engine.propagate.calls"] > 0 and first["oracles.enumerate.calls"] > 0


def test_nested_calls_fold_into_the_outermost_span():
    _, _, rec, _ = _traced_counts()
    kinds = rec.kinds
    for sid, kind in enumerate(kinds):
        parent = rec.parents[sid]
        if kind == tracing.SELF_CHECK:
            assert kinds[parent] == tracing.RUN
        while parent >= 0:  # no layer nests inside itself
            assert kinds[parent] != kind
            parent = rec.parents[parent]
    # every span of an operation lies under that operation's root
    for sid, op in enumerate(rec.ops):
        root = sid
        while rec.parents[root] >= 0:
            root = rec.parents[root]
        assert rec.ops[root] == op
    layers, total = tracing.accounting(rec, "bench.solve")
    assert 0 < layers <= total


_DIGESTS = """
import hashlib, json, sys
sys.path.insert(0, {here!r})
import harness, workloads
mods, _ = harness.import_package()
out = {{}}
for make in workloads.WORKLOADS.values():
    w = make(workloads.DEFAULT_SEED)
    for op in harness.operations(w)[:4]:
        theory, _, _ = mods["cli"].build_theory(op.mode, op.fmt, op.instance.text)
        outcome = mods["engine"].run(theory, op.mode)
        text = mods["trace"].dump_trace(mods["trace"].trace_from_outcome(outcome, op.mode, theory))
        out[w.name + "/" + op.key] = [outcome.verdict, len(outcome.steps),
                                      hashlib.sha256(text.encode()).hexdigest()]
print(json.dumps(out, sort_keys=True))
"""


def test_digests_do_not_depend_on_the_hash_seed():
    script = _DIGESTS.format(here=str(HERE))
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=300, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    for key, signature in outputs[0].items():
        name, op = key.split("/", 1)
        committed = json.loads((HERE / "expected" / f"{name}.json").read_text())["ops"]
        assert committed[op] == signature


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)

"""End-to-end properties across the CLI pipelines and the validator."""

import random

import gen
from gen import format_pcid
from smasp import oracles
from smasp.cli import main
from smasp.engine import TraceStep, run
from smasp.model import SmaspTheory
from smasp.parsing import parse_literal_token
from smasp.trace import dump_trace, load_trace, trace_from_outcome, validate_trace
from smasp.translations import ed_completion


def _read_models(output):
    lines = output.splitlines()
    models = []
    for i, line in enumerate(lines):
        if line == "MODEL":
            models.append(frozenset(parse_literal_token(t)
                                    for t in lines[i + 1].split()))
    return models


def test_cli_enumeration_matches_the_definitional_oracle(tmp_path, capsys):
    rng = random.Random(303)
    for i in range(15):
        theory = gen.random_total_pcid(rng)
        path = tmp_path / f"t{i}.pcid"
        path.write_text(format_pcid(theory))
        expected = set(oracles.enumerate_pcid_models(theory))
        for mode in ("smodels", "cmodels", "clasp", "minisatid"):
            code = main(["solve", "--mode", mode, "--format", "pcid",
                         "--enumerate", "100", str(path)])
            found = _read_models(capsys.readouterr().out)
            assert code == (10 if expected else 20)
            assert len(found) == len(expected)
            assert set(found) == expected


def test_swapping_any_two_recorded_steps_invalidates_the_trace():
    # trails grow strictly along a run, so digests pin the step order
    rng = random.Random(307)
    swaps_checked = 0
    for _ in range(12):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        theory = SmaspTheory(ed_completion(pi), pi)
        out = run(theory, "clasp", self_check=False)
        if len(out.steps) < 2:
            continue
        trace = trace_from_outcome(out, "clasp", theory)
        assert validate_trace(trace, theory, "clasp").ok
        position = rng.randrange(len(out.steps) - 1)
        steps = list(trace.steps)
        a, b = steps[position], steps[position + 1]
        steps[position] = TraceStep(a.index, b.transition, b.trail_digest)
        steps[position + 1] = TraceStep(b.index, a.transition, a.trail_digest)
        tampered = trace.__class__(trace.header, tuple(steps))
        result = validate_trace(tampered, theory, "clasp")
        assert not result.ok
        assert result.step_index in (position + 1, position + 2)
        swaps_checked += 1
    assert swaps_checked >= 8


def test_flipping_any_recorded_literal_invalidates_the_trace():
    rng = random.Random(311)
    flips_checked = 0
    for _ in range(12):
        pi = gen.random_program(rng, n_atoms=4, max_rules=6)
        theory = SmaspTheory(ed_completion(pi), pi)
        out = run(theory, "clasp", self_check=False)
        candidates = [i for i, s in enumerate(out.steps) if s.transition.literal is not None]
        if not candidates:
            continue
        trace = load_trace(dump_trace(trace_from_outcome(out, "clasp", theory)))
        position = rng.choice(candidates)
        steps = list(trace.steps)
        s = steps[position]
        flipped = s.transition._replace(literal=s.transition.literal.dual)
        steps[position] = s._replace(transition=flipped)
        tampered = trace.__class__(trace.header, tuple(steps))
        result = validate_trace(tampered, theory, "clasp")
        assert not result.ok
        assert result.step_index == position + 1
        flips_checked += 1
    assert flips_checked >= 8

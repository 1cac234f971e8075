import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import PI0, PI3, cl, lit, prog, reference_load_trace, rule
from smasp import engine, oracles
from smasp.engine import Strategy, TraceStep, Transition, run
from smasp.model import ORIGIN_FRESH, Atom, Clause, Literal, SmaspTheory, Trail, __version__
from smasp.trace import (
    Trace,
    TraceHeader,
    Validation,
    _strict_violation,
    dump_trace,
    load_trace,
    theory_digest,
    trace_from_outcome,
    validate_trace,
    write_trace,
)
from smasp.parsing import ParseError, format_literal, format_rule, parse_dimacs, parse_literal_token
from smasp.translations import completion, ed_completion

F1 = SmaspTheory((cl("a", "b"), cl("-a", "c")))
HEADER = '{"mode": "dpll", "theory": "", "version": "0.1.0"}'


def make_trace(theory, steps, mode="dpll"):
    return Trace(TraceHeader(mode, theory_digest(theory)), tuple(steps))


def bare(index, rule, trail_digest="", **payload):
    return TraceStep(index, Transition(rule, **payload), trail_digest)


class TestValidate:
    def test_recorded_path_is_valid(self):
        steps = (
            bare(1, "Decide", literal=lit("a")),
            bare(2, "UnitPropagate", literal=lit("c"), clause=cl("-a", "c")),
            bare(3, "Decide", literal=lit("b")),
        )
        assert validate_trace(make_trace(F1, steps), F1, "dpll").ok
        assert validate_trace(make_trace(F1, steps), F1).ok  # a lax replay needs no strategy

    def test_swapped_steps_fail_at_the_first(self):
        steps = (
            bare(1, "UnitPropagate", literal=lit("c"), clause=cl("-a", "c")),
            bare(2, "Decide", literal=lit("a")),
        )
        result = validate_trace(make_trace(F1, steps), F1, "dpll")
        assert not result.ok
        assert result.step_index == 1

    def test_empty_trace_is_valid(self):
        assert validate_trace(make_trace(F1, ()), F1, "dpll").ok

    def test_header_digest_mismatch(self):
        other = SmaspTheory((cl("a"),))
        trace = Trace(TraceHeader("dpll", theory_digest(other)), ())
        result = validate_trace(trace, F1, "dpll")
        assert not result.ok and result.step_index == 0

    def test_digest_mismatch_is_reported(self):
        steps = (bare(1, "Decide", literal=lit("a"), trail_digest="0" * 16),)
        result = validate_trace(make_trace(F1, steps), F1, "dpll")
        assert not result.ok and "digest" in result.reason

    def test_unentailed_learn_is_rejected(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        steps = (bare(1, "Learn", clause=cl("a")),)
        result = validate_trace(make_trace(t, steps, mode="clasp"), t, "clasp")
        assert not result.ok and "entailed" in result.reason

    def test_unentailed_backjump_is_rejected(self):
        # every model has -a; after a* b -b the unit clause a is asserting
        # on the empty kept prefix, so step takes the Backjump, but a is
        # not entailed
        t = SmaspTheory((cl("-a", "b"), cl("-a", "-b")))
        steps = (
            bare(1, "Decide", literal=lit("a")),
            bare(2, "UnitPropagate", literal=lit("b"), clause=cl("-a", "b")),
            bare(3, "UnitPropagate", literal=lit("-b"), clause=cl("-a", "-b")),
            bare(4, "Backjump", literal=lit("a"), clause=cl("a"), prefix_length=0),
        )
        assert oracles.at_desk_scale(t)
        assert validate_trace(make_trace(t, steps[:3]), t).ok
        assert validate_trace(make_trace(t, steps), t) == Validation(
            False, 4, "backjump literal is not entailed over the kept prefix")

    def test_a_step_index_out_of_order_is_rejected(self):
        steps = (bare(1, "Decide", literal=lit("a")), bare(3, "Decide", literal=lit("b")))
        for strict in (False, True):
            assert validate_trace(make_trace(F1, steps), F1, "dpll", strict) == Validation(
                False, 2, "step index 3 out of order")

    def test_strict_strategy_rejects_low_priority_steps(self):
        t = SmaspTheory(completion(PI0), PI0)
        # deciding while unit propagation is available violates priorities
        steps = (bare(1, "Decide", literal=lit("a")),)
        lax = validate_trace(make_trace(t, steps, mode="smodels"), t, "smodels")
        strict = validate_trace(make_trace(t, steps, mode="smodels"), t, "smodels",
                                strict_strategy=True)
        assert lax.ok and not strict.ok

    def test_strict_strategy_must_rank_conflict_handling_first(self):
        late = Strategy("late", (("UnitPropagate",), ("Fail", "Backtrack"), ("Decide",)),
                        learning=False)
        with pytest.raises(ValueError):
            validate_trace(make_trace(F1, ()), F1, late, strict_strategy=True)
        assert validate_trace(make_trace(F1, ()), F1, late).ok

    def test_strict_strategy_must_resolve_conflicts_in_a_group_of_its_own(self):
        mixed = Strategy("mixed", (("Fail", "Backtrack", "UnitPropagate"), ("Decide",)),
                         learning=False)
        unknown = Strategy("unknown", (("Fail", "Backtrack"), ("Decides",)), learning=False)
        trace = trace_from_outcome(run(F1, "dpll"), "dpll", F1)
        for strategy, match in ((mixed, "first priority group"), (unknown, "unknown")):
            for refused in (lambda: run(F1, strategy), lambda: engine.Walk(F1, strategy),
                            lambda: validate_trace(trace, F1, strategy, strict_strategy=True)):
                with pytest.raises(ValueError, match=match):
                    refused()
            assert validate_trace(trace, F1, strategy).ok

    def test_strict_strategy_rejects_foreign_rules(self):
        steps = (bare(1, "UnitPropagateLearn", literal=lit("c"), clause=cl("-a", "c")),)
        result = validate_trace(make_trace(F1, steps), F1, "dpll", strict_strategy=True)
        assert not result.ok and "not part of mode" in result.reason

    @pytest.mark.parametrize("mode", engine.MODES)
    def test_strict_strategy_takes_learn_only_from_learning_modes(self, mode):
        t = SmaspTheory((cl("x1", "x2"), cl("-x1", "x3"), cl("-x2", "-x3")))
        learn = Transition("Learn", clause=cl("x1", "x2"))
        steps = [TraceStep(1, learn, engine.digest_trail(Trail()))]
        steps += [s._replace(index=s.index + 1) for s in run(t, mode).steps]
        trace = make_trace(t, steps, mode=mode)
        assert validate_trace(trace, t, mode).ok
        result = validate_trace(trace, t, mode, strict_strategy=True)
        if engine.for_mode(mode).learning:
            assert result.ok
        else:
            assert (result.ok, result.step_index, result.reason) == (
                False, 1, f"rule Learn is not part of mode {mode!r}")


THREE = SmaspTheory(parse_dimacs("p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n"))


def test_strict_strategy_leaves_a_rule_no_earlier_group_outranks_to_step():
    # on the empty trail only Decide applies, and it ranks below the step
    propagate = bare(1, "UnitPropagateLearn", literal=lit("x3"), clause=cl("-x1", "x3"))
    for strict in (False, True):
        result = validate_trace(make_trace(THREE, [propagate], mode="clasp"), THREE, "clasp",
                                strict_strategy=strict)
        assert result == Validation(
            False, 1, f"inapplicable UnitPropagateLearn: {propagate.transition}")
    # after -x1 the clause x1 | x2 propagates, which outranks deciding -x2
    decisions = make_trace(THREE, [bare(1, "Decide", literal=lit("-x1")),
                                   bare(2, "Decide", literal=lit("-x2"))], mode="clasp")
    assert validate_trace(decisions, THREE, "clasp").ok
    assert validate_trace(decisions, THREE, "clasp", strict_strategy=True) == Validation(
        False, 2, "higher-priority rule UnitPropagateLearn was applicable")


@pytest.mark.parametrize("mode, rule", [
    (mode, group[0]) for mode in engine.MODES for group in engine.for_mode(mode).priority])
def test_strict_strategy_reports_a_step_past_the_end_as_such(mode, rule):
    unsat = SmaspTheory(parse_dimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"))
    for theory in (THREE, unsat):
        payload = {"literal": lit("x1"), "clause": theory.clauses[0],
                   "witness": (Atom("x1"),), "prefix_length": 0}
        steps = run(theory, mode).steps
        extra = bare(len(steps) + 1, rule, **{f: payload[f] for f in engine.RULE_PAYLOADS[rule]})
        trace = make_trace(theory, steps + (extra,), mode=mode)
        assert validate_trace(trace, theory, mode, strict_strategy=True) == Validation(
            False, len(steps) + 1, f"no rule of mode {mode!r} is applicable")
        assert not validate_trace(trace, theory, mode).ok


def test_a_strategy_without_index_queries_leaves_the_strict_check_to_step():
    """With conflict rules alone no group has an index query: the strict
    check asks nothing above a rule, and reports a rejected step on a
    consistent trail as a step where no rule applies."""
    bare_strategy = Strategy("conflicts", ((engine.RULE_FAIL, engine.RULE_BACKTRACK),), False)
    walk = engine.Walk(THREE, bare_strategy)
    assert walk.queries == ()
    assert _strict_violation(walk, engine.RULE_BACKTRACK) is None
    assert _strict_violation(walk, engine.RULE_FAIL, rejected=True) == \
        "no rule of mode 'conflicts' is applicable"
    assert _strict_violation(walk, engine.RULE_DECIDE) == "rule Decide is not part of mode 'conflicts'"
    decide = make_trace(THREE, [bare(1, "Decide", literal=lit("x1"))], mode="conflicts")
    assert validate_trace(decide, THREE, bare_strategy, strict_strategy=True) == Validation(
        False, 1, "rule Decide is not part of mode 'conflicts'")
    fail = make_trace(THREE, [bare(1, "Fail")], mode="conflicts")
    assert validate_trace(fail, THREE, bare_strategy, strict_strategy=True) == Validation(
        False, 1, "no rule of mode 'conflicts' is applicable")


class TestSerialization:
    def test_dump_load_round_trip(self):
        t = SmaspTheory(ed_completion(PI3), PI3)
        out = run(t, "cmodels")
        trace = trace_from_outcome(out, "cmodels", t)
        loaded = load_trace(dump_trace(trace))
        assert loaded == trace

    def test_alias_atoms_survive_the_round_trip(self):
        t = SmaspTheory(ed_completion(PI0), PI0)
        trace = trace_from_outcome(run(t, "clasp"), "clasp", t)
        text = dump_trace(trace)
        assert '"f{' in text and text == reference_dump(trace)
        loaded = load_trace(text)
        assert loaded == trace
        assert loaded.steps[2].transition.literal.atom.origin == "fresh-body"

    def test_malformed_trace_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_trace("not json\n")

    @pytest.mark.parametrize("lines", [
        ['["dpll"]'],
        [HEADER, '[1, "Decide", "a"]'],
    ])
    def test_line_that_is_not_an_object_is_a_parse_error(self, lines):
        with pytest.raises(ParseError):
            load_trace("\n".join(lines) + "\n")

    def test_a_malformed_record_names_its_line_blank_lines_counted(self):
        good = '{"index": 1, "rule": "Decide", "literal": "a"}'
        bad = '{"index": 2, "rule": "Decide", "literal": 5}'
        with pytest.raises(ParseError, match="^trace line 4: literal token is not a string: 5$"):
            load_trace("\n".join([HEADER, good, "  ", bad, good]) + "\n")
        with pytest.raises(ParseError, match="^trace line 3 is malformed: Expecting"):
            load_trace("\n".join(["", HEADER, "{", good]))

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_only_a_newline_ends_a_line(self, separator):
        record = '{"index": 1, "rule": "Decide", "literal": "f{a%sb}"}' % separator
        bad = '{"index": 2, "rule": "Decide", "literal": 5}'
        with pytest.raises(ParseError, match="^trace line 3: literal token is not a string: 5$"):
            load_trace("\n".join([HEADER, record, bad]) + "\n")
        for newline in ("\n", "\r\n"):  # "\r" is JSON whitespace
            steps = load_trace(newline.join([HEADER, record, ""])).steps
            assert steps[0].transition.literal == Literal(Atom("f{a%sb}" % separator, ORIGIN_FRESH))
        with pytest.raises(ParseError, match="^trace line 3: literal token is not a string: 5$"):
            load_trace("\r\n".join([HEADER, record, bad]))

    def test_null_index_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_trace(HEADER + '\n{"index": null, "rule": "Decide", "literal": "a"}\n')

    @pytest.mark.parametrize("step", [
        '{"index": 1, "rule": "Decide", "literal": 5}',
        '{"index": 1, "rule": "Learn", "clause": ["a", null]}',
        '{"index": 1.7, "rule": "Decide", "literal": "a"}',
        '{"index": true, "rule": "Decide", "literal": "a"}',
        '{"index": "1", "rule": "Decide", "literal": "a"}',
        '{"index": 1, "rule": "Decide", "literal": "a", "trail": 5}',
        '{"index": 1, "rule": "Decide", "literal": "a", "trail": null}',
        '{"index": 1, "rule": "Decide", "literal": "a", "trail": ["0"]}',
        '{"index": 1, "rule": "Learn", "clause": "ab"}',
        '{"index": 1, "rule": "Learn", "clause": {"a": 1}}',
        '{"index": 1, "rule": "Unfounded", "literal": "-a", "witness": "ab"}',
    ])
    def test_malformed_step_field_is_a_parse_error(self, step):
        with pytest.raises(ParseError):
            load_trace(HEADER + "\n" + step + "\n")

    @pytest.mark.parametrize("clause", [{"a": 1, "b": 1}, "ab"], ids=["object", "string"])
    def test_a_clause_that_is_no_array_never_meets_an_earlier_array(self, clause):
        """``tuple`` of the object or the string equals ``("a", "b")``,
        the tokens of the first record's clause; it is refused all the
        same."""
        good = '{"index": 1, "rule": "Learn", "clause": ["a", "b"]}'
        bad = json.dumps({"index": 2, "rule": "Learn", "clause": clause})
        with pytest.raises(ParseError, match="^trace line 3: clause is not a JSON array: "):
            load_trace("\n".join([HEADER, good, bad]) + "\n")

    def test_a_long_line_that_is_not_an_object_is_quoted_short(self):
        line = json.dumps(["a"] * 200_000)
        assert len(line) >= 1_000_000
        with pytest.raises(ParseError, match="^trace line 2: not a JSON object: ") as raised:
            load_trace(HEADER + "\n" + line + "\n")
        message = str(raised.value)
        assert len(message) < 200 and message.endswith("...")

    @pytest.mark.parametrize("line", ["[" * 100_000, '{"index": ' + "[" * 100_000],
                             ids=["line", "field"])
    def test_deeply_nested_line_is_a_parse_error(self, line):
        with pytest.raises(ParseError, match="nested too deeply"):
            load_trace(HEADER + "\n" + line + "\n")

    def test_negated_witness_entry_is_a_parse_error(self):
        pi = prog(rule("a", pos="b"), rule("b", pos="a"))
        t = SmaspTheory(completion(pi), pi)
        text = dump_trace(trace_from_outcome(run(t, "smodels"), "smodels", t))
        assert '"witness": ["a", "b"]' in text
        with pytest.raises(ParseError, match="atom names"):
            load_trace(text.replace('"witness": ["a", "b"]', '"witness": ["-a", "-b"]'))

    def test_string_prefix_length_is_a_parse_error(self):
        step = ('{"index": 1, "rule": "Backjump", "literal": "-a", "clause": ["-a"], '
                '"prefix_length": "0"}')
        with pytest.raises(ParseError):
            load_trace(HEADER + "\n" + step + "\n")

    @pytest.mark.parametrize("header, match", [
        ('{"mode": "clasp", "version": []}', "version is not a string"),
        ('{"mode": "clasp", "version": "9.9"}', "trace version '9.9'"),
        ('{"mode": "clasp", "version": "0"}', "trace version '0'"),
        ('{"mode": "clasp", "theory": 5}', "theory is not a string"),
        ('{"mode": null}', "mode is not a string"),
        ('{"mode": ["clasp"], "theory": "", "version": "0.1.0"}', "mode is not a string"),
    ])
    def test_bad_header_field_is_a_parse_error(self, header, match):
        with pytest.raises(ParseError, match=match):
            load_trace(header + "\n")

    def test_absent_header_fields_take_their_defaults(self):
        assert load_trace('{"mode": "clasp"}\n').header == TraceHeader("clasp", "", __version__)
        assert load_trace("{}\n").header == TraceHeader("", "")

    @pytest.mark.parametrize("first", [
        '{"index": 1}',
        '{"rule": "Fail"}',
        '{"mode": "dpll", "rule": null}',
        '{"index": 2, "rule": "Decide", "literal": "b", "trail": "0123456789abcdef"}',
    ])
    def test_a_first_record_that_is_a_step_is_a_parse_error(self, first):
        for text in (first + "\n", "\n".join([first, HEADER]) + "\n"):
            for loader in (load_trace, reference_load_trace):
                with pytest.raises(ParseError, match="^trace line 1: the trace has no header"):
                    loader(text)

    def test_a_trace_without_its_header_line_is_refused_not_misread(self):
        text = dump_trace(trace_from_outcome(run(F1, "dpll"), "dpll", F1))
        headless = text.split("\n", 1)[1]
        assert headless.startswith('{"index": 1, ')
        with pytest.raises(ParseError, match="^trace line 1: "):
            load_trace(headless)
        with pytest.raises(ParseError, match="^trace line 2: "):
            load_trace("\n" + headless)


def test_every_emitted_trace_validates():
    rng = random.Random(149)
    for _ in range(20):
        pi = gen.random_program(rng, n_atoms=4, max_rules=5)
        for mode, theory in (
            ("smodels", SmaspTheory(completion(pi), pi)),
            ("cmodels", SmaspTheory(ed_completion(pi), pi)),
            ("clasp", SmaspTheory(ed_completion(pi), pi)),
            ("minisatid", SmaspTheory(ed_completion(pi), pi)),
            ("dpll", SmaspTheory(completion(pi))),
        ):
            out = run(theory, mode)
            trace = load_trace(dump_trace(trace_from_outcome(out, mode, theory)))
            result = validate_trace(trace, theory, mode, strict_strategy=True)
            assert result.ok, (mode, result)


def _altered(digest):
    return digest[:-1] + ("1" if digest[-1] == "0" else "0")


def _recorded_traces():
    """``(mode, theory, trace)`` of runs that, together, take every rule."""
    cases = [("clasp", SmaspTheory(ed_completion(PI3), PI3)),
             ("smodels", SmaspTheory(completion(PI0), PI0))]
    cases += [(mode, gen.random_3sat(random.Random(seed), 14))
              for seed in (2, 3) for mode in ("dpll", "clasp")]
    return [(mode, theory, trace_from_outcome(run(theory, mode), mode, theory))
            for mode, theory in cases]


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
def test_every_altered_digest_is_rejected_at_its_step(strict):
    rules = set()
    for mode, theory, trace in _recorded_traces():
        assert validate_trace(trace, theory, mode, strict_strategy=strict).ok
        for i, s in enumerate(trace.steps):
            rules.add(s.transition.rule)
            steps = list(trace.steps)
            steps[i] = s._replace(trail_digest=_altered(s.trail_digest))
            result = validate_trace(Trace(trace.header, tuple(steps)), theory, mode,
                                    strict_strategy=strict)
            assert result == Validation(False, i + 1, "trail digest mismatch after step")
    assert rules >= {"Backtrack", "Backjump", "Learn", "Fail", "Unfounded"}


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
def test_a_payload_field_the_rule_does_not_carry_is_rejected_at_its_step(strict):
    # the first recorded step of each rule gains each field it lacks
    rules = set()
    for mode, theory, trace in _recorded_traces():
        name = theory.atoms[0].name
        extra = {"literal": name, "clause": [name], "witness": [name], "prefix_length": 0}
        lines = dump_trace(trace).splitlines()
        for i, s in enumerate(trace.steps, start=1):
            rule_name = s.transition.rule
            if rule_name in rules:
                continue
            rules.add(rule_name)
            for field in sorted(set(extra) - set(engine.RULE_PAYLOADS[rule_name])):
                record = json.loads(lines[i])
                record[field] = extra[field]
                edited = lines[:i] + [json.dumps(record)] + lines[i + 1:]
                result = validate_trace(load_trace("\n".join(edited)), theory, mode,
                                        strict_strategy=strict)
                assert (result.ok, result.step_index) == (False, i), (mode, rule_name, field)
                assert "nothing else" in result.reason
    assert rules == engine.ALL_RULES


# a :- b.  b :- a.  c :- not d.  d :- not c.
LOOP_CHOICE = prog(rule("a", pos="b"), rule("b", pos="a"), rule("c", neg="d"), rule("d", neg="c"))


@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("witness", [["a", "b", "zz"], ["a", "a", "b"]], ids=["outside", "repeated"])
def test_an_unfounded_witness_outside_the_theory_or_repeating_an_atom_is_rejected(witness, strict):
    theory = SmaspTheory(ed_completion(LOOP_CHOICE), LOOP_CHOICE)
    lines = dump_trace(trace_from_outcome(run(theory, "clasp"), "clasp", theory)).splitlines()
    first = json.loads(lines[1])
    assert (first["rule"], first["literal"], first["witness"]) == ("Unfounded", "-a", ["a", "b"])
    assert validate_trace(load_trace("\n".join(lines)), theory, "clasp", strict_strategy=strict).ok
    first["witness"] = witness
    edited = "\n".join([lines[0], json.dumps(first)] + lines[2:])
    result = validate_trace(load_trace(edited), theory, "clasp", strict_strategy=strict)
    assert (result.ok, result.step_index) == (False, 1)
    assert result.reason.startswith("inapplicable Unfounded")


# -- load_trace on arbitrary input ends in a trace or a ParseError ------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_names = st.sampled_from(["a", "b", "x1", "f{a}", "f{x,y}", "-", "", " ", "1a", "a b",
                          "--a", "a-", "f{", "{a}", "-f{b}", "_c", "a.b"])
_tokens = _names | st.text(max_size=5) | _json_values
_rules = st.sampled_from(["Decide", "UnitPropagate", "Backjump", "Learn", "Unfounded",
                          "Fail", "decide", ""]) | _json_values
_records = st.fixed_dictionaries({}, optional={
    "index": st.integers(-2, 5) | _json_values,
    "rule": _rules,
    "literal": _tokens,
    "clause": st.lists(_tokens, max_size=4) | _tokens,
    "witness": st.lists(_tokens, max_size=3) | _tokens,
    "prefix_length": st.integers(-1, 4) | _json_values,
    "trail": st.text(max_size=4) | _json_values,
})
_lines = st.one_of(_records.map(json.dumps), _json_values.map(json.dumps), st.text(max_size=20))


@settings(max_examples=500, deadline=None)
@given(st.lists(_lines, max_size=6), st.booleans())
def test_random_trace_lines_load_or_raise_a_parse_error(lines, with_header):
    text = "\n".join(([HEADER] if with_header else []) + lines)
    try:
        first = load_trace(text)
    except ParseError:
        with pytest.raises(ParseError):
            load_trace(text)
    else:
        assert load_trace(text) == first


@settings(max_examples=300, deadline=None)
@given(_tokens, st.sampled_from(["literal", "clause", "witness"]))
def test_a_bad_literal_token_raises_on_every_load(token, field):
    try:
        parsed = parse_literal_token(token) if isinstance(token, str) else None
    except ParseError:
        parsed = None
    if field == "witness" and parsed is not None and not parsed.positive:
        parsed = None  # witness entries are atom names
    good = '{"index": 1, "rule": "Learn", "clause": ["a", "-b"]}'
    value = token if field == "literal" else ["a", token]
    rule = "Unfounded" if field == "witness" else "Learn"
    bad = json.dumps({"index": 2, "rule": rule, field: value})
    text = "\n".join([HEADER, good, bad, bad])
    for _ in range(3):
        if parsed is None:
            with pytest.raises(ParseError):
                load_trace(text)
        else:
            steps = load_trace(text).steps
            assert steps[1] == steps[2] and lit("a") in steps[0].transition.clause


# -- load_trace's payload memo against a decoder without one -----------------

_VALID_RECORDS = (
    {"index": 1, "rule": "Decide", "literal": "a", "trail": "0123456789abcdef"},
    {"index": 2, "rule": "UnitPropagate", "literal": "b", "clause": ["-a", "b"], "trail": ""},
    {"index": 3, "rule": "Backjump", "literal": "-a", "clause": ["-a", "f{b}"],
     "prefix_length": 1},
    {"index": 4, "rule": "Unfounded", "literal": "-a", "witness": ["a", "b"]},
    {"index": 5, "rule": "Learn", "clause": ["a", "b"]},
    {"index": 6, "rule": "Fail"},
)
_FIELDS = ("index", "rule", "literal", "clause", "witness", "prefix_length", "trail")
# each JSON type, with values that compare equal across int, float and
# bool, and the payloads of the records above
_TRICKY = (None, True, False, 0, 1, 0.0, 1.0, "a", "-b", "Decide", "1", "", [], ["a", "b"],
           ["-a", "b"], ["-a", "f{b}"], [1], [True], [1.0], [None], [[]], ["-", 1], {}, {"a": 1})
_odd_values = st.one_of(
    st.sampled_from(_TRICKY), st.integers(-3, 3), st.floats(allow_nan=False),
    st.lists(st.sampled_from(["a", "-b", "-", "", 1, 1.0, True, None, [], {}]), max_size=3),
    st.dictionaries(st.sampled_from(["a", "b"]), st.sampled_from([1, True, "a"]), max_size=2))
_mutations = st.lists(st.tuples(st.sampled_from(("set", "drop", "before", "after")),
                                st.sampled_from(_FIELDS), _odd_values), min_size=1, max_size=3)


def _record_line(record, mutations=()):
    """The record's JSON text after the mutations: a field set in place,
    dropped, or written again before or after the record's fields (the
    later of two values counts)."""
    pairs = list(record.items())
    for kind, field, value in mutations:
        if kind == "set":
            pairs = [(k, value if k == field else v) for k, v in pairs]
            if field not in record:
                pairs.append((field, value))
        elif kind == "drop":
            pairs = [(k, v) for k, v in pairs if k != field]
        else:
            pairs.insert(0 if kind == "before" else len(pairs), (field, value))
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def _assert_loads_as_the_reference(lines):
    """After every valid record once, so that the memo holds each, the
    lines load to the same trace, or fail with the same message, as
    through the reference loader."""
    text = "\n".join([HEADER] + [_record_line(r) for r in _VALID_RECORDS] + lines) + "\n"
    _assert_loads_as_json_loads(text)


def test_the_payload_memo_decodes_each_single_mutation_as_a_decoder_without_one():
    for record in _VALID_RECORDS:
        for field in _FIELDS:
            _assert_loads_as_the_reference([_record_line(record, [("drop", field, None)])] * 2)
            for kind in ("set", "before", "after"):
                for value in _TRICKY:
                    line = _record_line(record, [(kind, field, value)])
                    _assert_loads_as_the_reference([line, line])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_VALID_RECORDS), _mutations), min_size=1, max_size=3),
       st.lists(st.integers(0, 8), max_size=8), st.booleans())
def test_the_payload_memo_decodes_as_a_decoder_without_one(mutated, picks, blank):
    """Lines drawn with repeats from mutated and valid records, with or
    without a blank line among them."""
    lines = [_record_line(record, mutations) for record, mutations in mutated]
    lines += [_record_line(record) for record in _VALID_RECORDS]
    _assert_loads_as_the_reference([""] * blank + [lines[i % len(lines)] for i in picks])


# -- load_trace against the plain json.loads loop ------------------------------

def _load_outcome(loader, text):
    """What a loader makes of ``text``: the trace and its repr (which
    tells 1 from 1.0 and True), or the parse error's message."""
    try:
        got = loader(text)
    except ParseError as exc:
        return "error", str(exc)
    return got, repr(got)


def _assert_loads_as_json_loads(text):
    assert _load_outcome(load_trace, text) == _load_outcome(reference_load_trace, text)


def _perturbed(line, kind, pad):
    """``line`` spoilt as ``kind`` says, or padded with ``pad``."""
    return {
        "lead": pad + line,
        "trail": line + pad,
        "around": pad + line + pad,
        "cr": line + "\r",
        "bom": "\ufeff" + line,
        "text after": line + " x",
        "glued": line + line,
        "glued spaced": line + " " + line,
        "scalar": json.dumps(len(line)),
        "string": json.dumps(line[:8]),
        "array": "[" + line + "]",
        "literal": "nul",
        "deep": "[" * 100_000,
        "half": line[:len(line) // 2],
    }[kind]


_PERTURBATIONS = ("lead", "trail", "around", "cr", "bom", "text after", "glued",
                  "glued spaced", "scalar", "string", "array", "literal", "deep", "half")


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(0, 10 ** 6), st.sampled_from(_PERTURBATIONS),
                          st.text(" \t", min_size=1, max_size=3)), max_size=3))
def test_load_trace_decodes_as_json_loads_on_run_traces_and_perturbed_lines(rng, perturbations):
    """Dumped traces of random runs in all five modes load to equal
    traces; with lines spoilt or padded, both loaders give the same
    trace or the same error message."""
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 5), max_rules=8)
    for mode, theory in gen.theories_per_mode(pi):
        text = dump_trace(trace_from_outcome(run(theory, mode, self_check=False), mode, theory))
        assert load_trace(text) == reference_load_trace(text)
        _assert_loads_as_json_loads(text)
        lines = text.split("\n")
        for where, kind, pad in perturbations:
            at = where % len(lines)  # the empty line after the last newline included
            lines[at] = _perturbed(lines[at], kind, pad)
        _assert_loads_as_json_loads("\n".join(lines))


def test_load_trace_decodes_each_perturbation_of_each_line_as_json_loads():
    theory = SmaspTheory(completion(PI0), PI0)
    text = dump_trace(trace_from_outcome(run(theory, "dpll", self_check=False), "dpll", theory))
    lines = text.split("\n")
    assert len(lines) > 3
    for at in range(len(lines)):
        for kind in _PERTURBATIONS:
            for pad in (" ", "\t", " \t "):
                spoilt = lines[:at] + [_perturbed(lines[at], kind, pad)] + lines[at + 1:]
                _assert_loads_as_json_loads("\n".join(spoilt))
    with pytest.raises(ParseError, match="trace line 2 is malformed: Extra data"):
        load_trace("\n".join([lines[0], lines[1] + " x"]))
    with pytest.raises(ParseError, match="trace line 1 is malformed: Unexpected UTF-8 BOM"):
        load_trace("\ufeff" + text)
    with pytest.raises(ParseError, match="trace line 2 is malformed: JSON nested too deeply"):
        load_trace("\n".join([lines[0], "[" * 100_000]))
    assert load_trace(text.replace("\n", " \t\r\n")) == load_trace(text)


# -- dump_trace against the trace format's definition -------------------------

def _reference_record(step):
    tr = step.transition
    record = {"index": step.index, "rule": tr.rule}
    if tr.literal is not None:
        record["literal"] = format_literal(tr.literal)
    if tr.clause is not None:
        record["clause"] = [format_literal(l) for l in tr.clause]
    if tr.witness is not None:
        record["witness"] = [a.name for a in tr.witness]
    if tr.prefix_length is not None:
        record["prefix_length"] = tr.prefix_length
    record["trail"] = step.trail_digest
    return record


def reference_dump(trace):
    """The trace's text by definition: ``json.dumps`` of the header and
    of each step's record, one per line."""
    header = {"mode": trace.header.mode, "theory": trace.header.theory_digest,
              "version": trace.header.version}
    lines = [json.dumps(header)] + [json.dumps(_reference_record(s)) for s in trace.steps]
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dumped_run_traces_load_back_step_for_step(rng):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 6), max_rules=10)
    for mode, theory in gen.theories_per_mode(pi):
        trace = trace_from_outcome(run(theory, mode, self_check=False), mode, theory)
        text = dump_trace(trace)
        assert text == reference_dump(trace)
        loaded = load_trace(text)
        assert loaded.header == trace.header
        assert len(loaded.steps) == len(trace.steps)
        for mine, theirs in zip(loaded.steps, trace.steps):
            assert mine == theirs


# names that need JSON escapes; an alias name may hold any character
# between its braces
_ATOMS = (Atom("a"), Atom("x1"), Atom("f{a,-b}", ORIGIN_FRESH),
          Atom('f{"\\\x00\x1f é\u2028}', ORIGIN_FRESH))
_strange_text = st.text(st.sampled_from('"\\\x00\x07\n\x1f\x7fé\u2028\U0001f600a0 '), max_size=8)
_step_literals = st.builds(Literal, st.sampled_from(_ATOMS), st.booleans())
_step_clauses = st.lists(_step_literals, min_size=1, max_size=4).map(lambda ls: Clause(tuple(ls)))
_hand_built_steps = st.builds(
    TraceStep,
    st.integers(),
    st.builds(Transition, st.sampled_from(sorted(engine.ALL_RULES)),
              st.none() | _step_literals,
              st.none() | _step_clauses,
              st.none() | st.lists(st.sampled_from(_ATOMS), max_size=3).map(tuple),
              st.none() | st.integers()),
    _strange_text | st.text(max_size=8))


@settings(max_examples=300, deadline=None)
@given(st.builds(TraceHeader, _strange_text, _strange_text, _strange_text | st.just(__version__)),
       st.lists(_hand_built_steps, max_size=5))
def test_hand_built_traces_match_the_reference_and_load_back(header, steps):
    """Every trace dumps as its reference; it loads back when written by
    this version and is refused otherwise."""
    trace = Trace(header, tuple(steps))
    text = dump_trace(trace)
    assert text == reference_dump(trace)
    if header.version == __version__:
        assert load_trace(text) == trace
    else:
        with pytest.raises(ParseError, match="trace version"):
            load_trace(text)


def test_written_trace_file_holds_the_dumped_bytes(tmp_path):
    for i, (mode, _, trace) in enumerate(_recorded_traces()):
        path = tmp_path / f"{i}-{mode}.trace"
        write_trace(str(path), trace)
        assert path.read_bytes() == dump_trace(trace).encode()


def test_one_solve_and_one_strict_check_format_the_theory_once(monkeypatch):
    from smasp import trace as trace_module
    calls = []
    format_program = trace_module.format_program
    monkeypatch.setattr(trace_module, "format_program",
                        lambda pi: calls.append(pi) or format_program(pi))
    # atoms no other test uses, so no equal theory is alive
    theory = SmaspTheory(ed_completion(PI3) + (cl("digest_once", "-a"),), PI3)
    trace = trace_from_outcome(run(theory, "clasp"), "clasp", theory)
    assert validate_trace(trace, theory, "clasp", strict_strategy=True).ok
    assert calls == [PI3]


def _reference_theory_digest(theory):
    """The theory digest by definition: the sha256 prefix of the clauses
    printed one a line, a ``#`` line, then the program rule by rule."""
    text = "\n".join(" | ".join(format_literal(l) for l in c) for c in theory.clauses)
    text += "\n#\n" + "\n".join(format_rule(r) for r in theory.program)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_theory_digest_hashes_the_printed_theory(rng):
    for theory in gen.escaped_theories(rng):
        if isinstance(theory, SmaspTheory):
            assert theory_digest(theory) == _reference_theory_digest(theory)


# ROADMAP item 2: above oracles.DESK_CHECK_ATOM_LIMIT atoms a Learn or
# Backjump clause is not checked for entailment, so a short trace
# "proves" a satisfiable theory unsatisfiable.
FORGED_THEORY = gen.random_3sat(random.Random(3), 15)
FORGED_UNSAT = (
    bare(1, "Learn", clause=cl("-x1")),
    bare(2, "UnitPropagateLearn", literal=lit("-x1"), clause=cl("-x1")),
    bare(3, "Learn", clause=cl("x1")),
    bare(4, "UnitPropagateLearn", literal=lit("x1"), clause=cl("x1")),
    bare(5, "Fail"),
)
# 17 atoms: x3, x1 -> (x2 and -x2), and seven free pairs. The Backjump
# asserts -x3 onto the kept prefix [x3], whose complement it holds.
FORGED_BACKJUMP_THEORY = SmaspTheory(parse_dimacs(
    "p cnf 17 10\n3 0\n-1 2 0\n-1 -2 0\n"
    + "".join(f"{i} {i + 1} 0\n" for i in range(4, 17, 2))))
FORGED_BACKJUMP_UNSAT = (
    bare(1, "UnitPropagateLearn", literal=lit("x3"), clause=cl("x3")),
    bare(2, "Decide", literal=lit("x1")),
    bare(3, "UnitPropagateLearn", literal=lit("x2"), clause=cl("-x1", "x2")),
    bare(4, "UnitPropagateLearn", literal=lit("-x2"), clause=cl("-x1", "-x2")),
    bare(5, "Backjump", literal=lit("-x3"), clause=cl("-x3"), prefix_length=1),
    bare(6, "Fail"),
)
FORGERIES = {"learn": (FORGED_THEORY, FORGED_UNSAT),
             "backjump": (FORGED_BACKJUMP_THEORY, FORGED_BACKJUMP_UNSAT)}


def test_the_forged_unsat_trace_is_about_a_satisfiable_theory():
    for theory, _ in FORGERIES.values():
        assert len(theory.atoms) > oracles.DESK_CHECK_ATOM_LIMIT
        assert run(theory, "clasp").verdict == engine.VERDICT_MODEL


@pytest.mark.xfail(strict=True, reason="unchecked Learn and Backjump clauses above desk scale"
                                       " (ROADMAP item 2)")
@pytest.mark.parametrize("forgery, strict", [
    ("learn", False), ("learn", True), ("backjump", False), ("backjump", True)],
    ids=["lax", "strict", "backjump-lax", "backjump-strict"])
def test_a_forged_unsat_trace_above_desk_scale_is_rejected(forgery, strict):
    """A Backjump may assert a literal whose complement is on the kept
    prefix: cmodels' own runs do so after a level-0 conflict found below
    a Decide, so ``step`` allows it. Only a reverse-unit-propagation
    check of its clause (ROADMAP item 2) rejects this forgery."""
    theory, steps = FORGERIES[forgery]
    trace = make_trace(theory, steps, mode="clasp")
    assert not validate_trace(trace, theory, "clasp", strict_strategy=strict).ok

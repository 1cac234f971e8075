import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from gen import format_dimacs, format_pcid
from helpers import PI0, cl, prog, rule
from smasp.model import Program
from smasp.parsing import (
    ParseError,
    format_clause,
    format_program,
    parse_clause_line,
    parse_dimacs,
    parse_goal,
    parse_literal_token,
    parse_lp,
    parse_pcid,
    parse_smasp,
    quote,
)
from smasp.trace import load_trace


class TestDimacs:
    def test_two_clause_formula(self):
        out = parse_dimacs("p cnf 3 2\n1 2 0\n-1 3 0")
        assert out == (cl("x1", "x2"), cl("-x1", "x3"))

    def test_empty_formula(self):
        assert parse_dimacs("p cnf 1 0") == ()

    def test_clause_before_header_is_an_error(self):
        with pytest.raises(ParseError):
            parse_dimacs("1 0")

    def test_comments_are_ignored(self):
        out = parse_dimacs("c a comment\np cnf 2 1\nc another\n1 -2 0")
        assert out == (cl("x1", "-x2"),)

    def test_empty_clause_is_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n0")

    def test_out_of_range_literal_is_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 3 0")

    def test_malformed_header_is_rejected(self):
        with pytest.raises(ParseError):
            parse_dimacs("p dnf 2 1\n1 0")

    @pytest.mark.parametrize("header", ["p cnf -3 1", "p cnf 3 -1"])
    def test_negative_header_counts_are_rejected(self, header):
        with pytest.raises(ParseError, match="malformed DIMACS header"):
            parse_dimacs(header + "\n1 0")

    def test_clause_may_span_lines(self):
        assert parse_dimacs("p cnf 3 1\n1 2\n3 0") == (cl("x1", "x2", "x3"),)


class TestLp:
    def test_running_example(self):
        assert parse_lp("a :- b, not c.\nb.") == PI0

    def test_double_negation(self):
        assert parse_lp("c :- not not c.") == prog(rule("c", negneg="c"))

    def test_choice_shorthand(self):
        assert parse_lp("{a}.") == prog(rule("a", negneg="a"))

    def test_choice_with_body(self):
        assert parse_lp("{a} :- b.") == prog(rule("a", pos="b", negneg="a"))

    def test_constraints(self):
        assert parse_lp(":- c, not b.") == prog(rule(None, pos="c", neg="b"))

    def test_comments(self):
        assert parse_lp("% intro\nb. % fact\n") == prog(rule("b"))

    @pytest.mark.parametrize("text", [":- .", "."], ids=["colon-dash", "period"])
    def test_empty_constraint_is_rejected(self, text):
        with pytest.raises(ParseError, match="^a constraint must have a non-empty body$"):
            parse_lp(text)

    def test_unknown_token_is_rejected(self):
        with pytest.raises(ParseError):
            parse_lp("a :- b & c.")

    def test_missing_period_is_rejected(self):
        with pytest.raises(ParseError):
            parse_lp("a :- b")

    def test_multi_atom_choice_is_rejected(self):
        with pytest.raises(ParseError):
            parse_lp("{a; b}.")

    def test_not_is_reserved(self):
        with pytest.raises(ParseError):
            parse_lp("not.")

    @pytest.mark.parametrize("text", [
        "a :- b", "a :- b,, c.", "a :- not not not b.", "{}.", "{a;}.", "a b.", "a :- b :- c.",
        "not :- a.",
    ])
    def test_malformed_rule_is_rejected(self, text):
        with pytest.raises(ParseError):
            parse_lp(text)

    def test_an_empty_body_after_the_arrow_makes_a_fact(self):
        assert parse_lp("a :- .") == prog(rule("a"))

    def test_whitespace_and_line_breaks_separate_tokens(self):
        text = "a:-b,\tnot\r\nc.\x0bb  .\r\n{ c }.\n:-\nb ."
        assert parse_lp(text) == prog(rule("a", pos="b", neg="c"), rule("b"),
                                      rule("c", negneg="c"), rule(None, pos="b"))


class TestPcid:
    def test_running_example(self):
        t = parse_pcid("#theory\nb | -c\n#program\na :- b, not c.\nb.")
        assert t.clauses == (cl("b", "-c"),)
        assert t.program == PI0

    def test_empty_sections(self):
        t = parse_pcid("#theory\n#program\n")
        assert t.clauses == () and t.program == Program()

    def test_constraint_violates_weak_normality(self):
        with pytest.raises(ParseError):
            parse_pcid("#theory\nb\n#program\n:- b.")

    def test_missing_marker(self):
        with pytest.raises(ParseError):
            parse_pcid("b | -c\na :- b.")

    def test_clause_pair_parsing(self):
        assert parse_clause_line("b | -c") == cl("b", "-c")
        with pytest.raises(ParseError):
            parse_clause_line("b | ")

    def test_general_theory_accepts_constraints(self):
        t = parse_smasp("#theory\nb\n#program\n:- b.")
        assert t.program.rules[0].head is None


class TestRoundTrips:
    def test_program_print_parse(self):
        rng = random.Random(131)
        for _ in range(60):
            pi = gen.random_program(rng)
            assert parse_lp(format_program(pi)) == pi

    def test_choice_sugar_round_trips_through_its_expansion(self):
        pi = parse_lp("{a} :- not b.")
        assert parse_lp(format_program(pi)) == pi

    def test_clause_print_parse(self):
        rng = random.Random(137)
        for _ in range(40):
            clauses = gen.random_clauses(rng, gen.POOL)
            reparsed = tuple(parse_clause_line(format_clause(c)) for c in clauses)
            assert reparsed == clauses

    def test_pcid_print_parse(self):
        rng = random.Random(139)
        for _ in range(40):
            t = gen.random_total_pcid(rng, n_atoms=3, max_rules=4)
            assert parse_pcid(format_pcid(t)) == t

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_program_parses_back_from_any_concrete_syntax(self, data):
        pi = gen.random_program(random.Random(data.draw(st.integers(0, 2**32))))
        draw = lambda options: data.draw(st.sampled_from(options))
        space = lambda: draw(["", " ", "\t", "\n", "\r\n", " \t "])
        gap = lambda: draw([" ", "\t", "\n", "\r\n"])  # between `not` and what follows
        text = ""
        for r in pi:
            negneg = [a.name for a in r.negneg]
            if r.head is not None and r.head.name in negneg and draw([True, False]):
                negneg.remove(r.head.name)
                head = "{" + space() + r.head.name + space() + "}"
            else:
                head = r.head.name if r.head is not None else ""
            items = ([a.name for a in r.pos] + [f"not{gap()}{a.name}" for a in r.neg]
                     + [f"not{gap()}not{gap()}{a}" for a in negneg])
            body = "".join((space() + "," + space() if i else "") + item for i, item in enumerate(items))
            if body or head == "" or draw([True, False]):
                text += head + space() + ":-" + space() + body
            else:
                text += head
            text += space() + "."
            comment = draw(["", " % a note", "%:- a, not b. {c}", "%"])
            text += comment + (draw(["\n", "\r\n"]) if comment else draw(["", " ", "\n", "\r\n"]))
        assert parse_lp(text) == pi

    def test_dimacs_round_trip_by_content(self):
        text = "p cnf 3 2\n1 2 0\n-1 3 0"
        clauses = parse_dimacs(text)
        assert parse_dimacs(format_dimacs(clauses)) == clauses


# -- fuzzing: any text parses to a value or raises ParseError ----------------

PARSERS = (parse_dimacs, parse_lp, parse_pcid, parse_smasp, parse_goal, parse_literal_token)
# the formats' own tokens, so that random text reaches past the first check
_PIECES = ("p cnf 2 1", "p", "cnf", "c", "%", "0", "1", "-2", "9", "-", " ", "\n", "\t", "\r",
           "#theory", "#program", "a", "b", "x1", "f{a}", "|", ";", ":-", ".", ",", "{", "}",
           "not ", "not not ", "_", "\u2028", "\x00")
_texts = st.one_of(st.text(max_size=40), st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))


@pytest.mark.parametrize("parse", PARSERS, ids=[p.__name__ for p in PARSERS])
@settings(max_examples=300, deadline=None)
@given(_texts)
def test_a_parser_returns_a_value_or_raises_a_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


_LONG = "&" * 1_000_000
_LONG_INPUTS = {
    parse_dimacs: "p cnf 1 1\n" + _LONG,
    parse_lp: f"a :- {_LONG}.",
    parse_pcid: f"#theory\n{_LONG}\n#program\n",
    parse_smasp: f"#theory\n{_LONG}\n#program\n",
    parse_goal: _LONG,
    parse_literal_token: _LONG,
    load_trace: '{"mode": "clasp"}\n{"index": "%s", "rule": "Decide"}' % _LONG,
}


@pytest.mark.parametrize("parse", PARSERS + (load_trace,), ids=lambda p: p.__name__)
def test_an_error_message_quotes_at_most_a_prefix_of_a_long_token(parse):
    with pytest.raises(ParseError) as caught:
        parse(_LONG_INPUTS[parse])
    assert len(str(caught.value)) < 200


def test_an_error_message_quotes_a_short_token_whole():
    assert quote("b & c") == "'b & c'"
    with pytest.raises(ParseError, match=r"^invalid atom name: 'a&'$"):
        parse_literal_token("a&")

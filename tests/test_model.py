import copy
import gc
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from helpers import PI0, atom, atoms, cl, lit, lits, prog, rule, trail
from smasp import engine
from smasp.model import (
    Atom,
    Body,
    Clause,
    Literal,
    ORIGIN_FRESH,
    PcidTheory,
    Rule,
    SmaspTheory,
    Trail,
    _Interned,
    duals,
    sorted_atoms,
    sorted_clauses,
    sorted_literals,
)


def test_dual_flips_polarity():
    assert lit("a").dual == lit("-a")
    assert lit("-a").dual == lit("a")


def test_dual_is_an_involution():
    assert lit("b").dual.dual == lit("b")


def test_body_literals_of_running_example_rule():
    r = rule("a", pos="b", neg="c")
    assert set(r.body.s_literals) == lits("b -c")


def test_body_literals_empty_body():
    assert rule("b").body.s_literals == ()


def test_body_literals_double_negation_reads_positively():
    r = rule("c", negneg="c")
    assert set(r.body.s_literals) == lits("c")


def test_truncating_at_the_first_conflict_stops_at_the_first_clash():
    t = trail("a b c -b d")
    assert not t.is_consistent and t.first_conflict_index == 3
    prefix = t.truncate(t.first_conflict_index)
    assert tuple(e.literal for e in prefix) == (lit("a"), lit("b"), lit("c"))
    assert prefix.is_consistent


def test_truncating_a_consistent_trail_at_its_first_conflict_keeps_it_whole():
    for t in (Trail(), trail("a b* -c")):
        assert t.is_consistent
        assert t.truncate(t.first_conflict_index) == t


def test_decision_trail_can_be_inconsistent():
    t = trail("b* -b")
    assert not t.is_consistent
    prefix = t.truncate(t.first_conflict_index)
    assert tuple(e.literal for e in prefix) == (lit("b"),)
    assert prefix.entries[0].is_decision


def test_trail_rejects_duplicate_literal():
    with pytest.raises(ValueError):
        trail("a a")


def test_trail_allows_both_polarities_but_not_duplicates():
    t = trail("a -a")
    assert not t.is_consistent


def test_clause_must_be_non_empty():
    with pytest.raises(ValueError):
        Clause(())


def test_clause_is_a_set_of_literals():
    assert cl("a", "-b") == cl("-b", "a", "a")


def test_constraint_requires_non_empty_body():
    with pytest.raises(ValueError):
        Rule(None)


def test_fresh_atoms_sort_before_user_atoms():
    f = Atom("f{b,not c}", origin=ORIGIN_FRESH)
    assert f.key < atom("a").key
    assert sorted_atoms([atom("a"), f]) == (f, atom("a"))
    assert Literal(f).key < lit("a").key
    assert lit("a").key < lit("-a").key < lit("b").key


def test_program_derived_views():
    assert set(PI0.atoms) == set(atoms("a b c"))
    assert PI0.heads == frozenset(atoms("a b"))
    assert PI0.bodies(atom("c")) == ()
    assert len(PI0.bodies(atom("a"))) == 1


def test_theory_atom_sets_union_both_parts():
    t = SmaspTheory((cl("x", "-a"),), PI0)
    assert set(t.atoms) == set(atoms("a b c x"))


def test_pcid_theory_rejects_constraints():
    with pytest.raises(ValueError):
        PcidTheory((), prog(rule(None, pos="a")))


def _random_trail(rng):
    names = "abcde"
    entries = []
    used = set()
    t = Trail()
    for _ in range(rng.randint(0, 8)):
        token = rng.choice(names)
        literal = Literal(Atom(token), rng.random() < 0.5)
        if literal in used:
            continue
        used.add(literal)
        t = t.append(literal, decision=rng.random() < 0.3)
    return t


def test_prefix_is_consistent_and_next_entry_breaks_it():
    rng = random.Random(7)
    for _ in range(200):
        t = _random_trail(rng)
        prefix = t.truncate(t.first_conflict_index)
        assert prefix.is_consistent
        if len(prefix) < len(t):
            extended = Trail(t.entries[:len(prefix) + 1])
            assert not extended.is_consistent


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcdef"), st.booleans(), st.booleans(),
                          st.booleans()), max_size=14))
def test_appended_trail_views_match_a_trail_built_from_its_entries(moves):
    t = Trail()
    for name, positive, decision, with_reason in moves:
        literal = Literal(Atom(name), positive)
        if literal in t:
            with pytest.raises(ValueError):
                t.append(literal)
            continue
        t = t.append(literal, decision=decision,
                     reason=Clause((literal,)) if with_reason else None)
        derived = [t, t.truncate(t.first_conflict_index)] + [t.truncate(n) for n in range(len(t) + 1)]
        for view in derived:
            built = Trail(view.entries)
            assert view == built and hash(view) == hash(built)
            assert view.literal_set == built.literal_set
            assert view.first_conflict_index == built.first_conflict_index
            assert view.decision_indices == built.decision_indices
            for value in (view, built):
                _assert_a_trail_value(value)


def test_a_trail_sets_its_five_fields_when_it_is_made():
    assert Trail.__slots__ == ("entries", "literal_set", "first_conflict_index",
                               "decision_indices", "_sha256")
    t = trail("a b* -a")
    for made in (Trail(), t, t.truncate(1), t.truncate(None), t.append(lit("c"))):
        assert all(getattr(made, name) is not None
                   for name in Trail.__slots__ if name != "first_conflict_index")


def _assert_a_trail_value(t):
    """A trail is an immutable value: its digest is the definition's,
    and a copy or an unpickled trail equals it."""
    assert t.digest == engine.digest_trail(t)
    for other in (copy.copy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t) and other.digest == t.digest
    for field in ("entries", "literal_set", "first_conflict_index", "decision_indices", "digest"):
        with pytest.raises(AttributeError):
            setattr(t, field, getattr(t, field))
        with pytest.raises(AttributeError):
            delattr(t, field)


def test_equal_atoms_and_literals_are_one_object():
    assert Atom("a") is Atom("a", origin="user")
    assert Atom("f{a}", ORIGIN_FRESH) is Atom("f{a}", origin=ORIGIN_FRESH)
    assert Literal(atom("a")) is Literal(Atom("a"), positive=True)
    assert Literal(atom("a"), False) is lit("-a")


def test_dual_of_the_dual_is_the_literal_itself():
    for l in (lit("a"), lit("-b"), Literal(Atom("f{c}", ORIGIN_FRESH), False)):
        assert l.dual.dual is l
        assert l.dual is Literal(l.atom, not l.positive)


@pytest.mark.parametrize("first", [True, False], ids=["positive-first", "negative-first"])
def test_a_literal_is_made_with_its_dual(first):
    atom = Atom(f"pair-{first}")
    assert (atom, True) not in Literal._table and (atom, False) not in Literal._table
    made = Literal(atom, first)
    assert made.dual.dual is made and made.dual is not made
    assert made.dual is Literal(atom, not first)
    assert {made.positive, made.dual.positive} == {True, False}


def test_a_literal_token_is_its_printed_form():
    for atom in (Atom("a"), Atom("x12"), Atom("f{a,-b}", ORIGIN_FRESH)):
        for positive in (True, False):
            l = Literal(atom, positive)
            assert l.token == ("-" if not l.positive else "") + l.atom.name
            assert repr(l) == l.token


def test_copies_and_pickles_of_a_literal_keep_its_dual():
    fresh = Literal(Atom("f{d}", ORIGIN_FRESH), False)
    for l in (lit("a"), lit("-a"), fresh):
        for other in (copy.copy(l), copy.deepcopy(l), pickle.loads(pickle.dumps(l))):
            assert other is l and other.dual is l.dual
    # unpickled after its pair died: a new pair, made whole
    data = pickle.dumps(Literal(Atom("pickled-pair"), False))
    gc.collect()
    back = pickle.loads(data)
    assert back.token == "-pickled-pair" and back.dual.dual is back
    assert back.dual is Literal(Atom("pickled-pair"))


def test_a_dead_literal_pair_leaves_the_interning_table():
    atom = Atom("dropped-pair")
    made = Literal(atom, False)
    assert Literal._table[(atom, True)]() is made.dual
    del made
    gc.collect()
    assert (atom, True) not in Literal._table and (atom, False) not in Literal._table


def test_fresh_and_user_atoms_of_one_name_are_distinct():
    user, fresh = Atom("f{a}"), Atom("f{a}", ORIGIN_FRESH)
    assert user is not fresh and user != fresh
    assert Literal(user) != Literal(fresh)
    assert len({user, fresh, Atom("f{a}")}) == 2


@pytest.mark.parametrize("args", [("",), ("", ORIGIN_FRESH), ("a", "other")])
def test_bad_atom_raises_on_every_call(args):
    for _ in range(2):
        with pytest.raises(ValueError):
            Atom(*args)


@pytest.mark.parametrize("value, field", [
    (Atom("a"), "name"), (Atom("a"), "origin"), (Atom("a"), "key"),
    (lit("a"), "atom"), (lit("a"), "positive"), (lit("-a"), "key"),
])
def test_atoms_and_literals_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_copies_and_pickles_are_the_interned_objects():
    fresh = Literal(Atom("f{b}", ORIGIN_FRESH), False)
    for value in (Atom("a"), lit("-a"), fresh):
        assert copy.copy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value
    assert copy.deepcopy(PI0) == PI0


def test_repr_and_order_of_atoms_and_literals():
    fresh = Atom("f{b}", ORIGIN_FRESH)
    assert repr(Atom("a")) == "Atom('a')"
    assert repr(fresh) == "Atom('f{b}', fresh)"
    assert repr(lit("a")) == "a" and repr(lit("-a")) == "-a"
    assert Atom("a").key == (1, "a") and fresh.key == (0, "f{b}")
    assert lit("-a").key == (1, "a", 1)
    assert sorted_atoms([atom("b"), fresh, atom("a")]) == (fresh, atom("a"), atom("b"))
    assert sorted_literals([lit("b"), lit("-a"), Literal(fresh, False), lit("a")]) == \
        (Literal(fresh, False), lit("a"), lit("-a"), lit("b"))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_bodies_match_the_definitional_scan(rng, negneg):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 8), max_rules=12,
                            allow_negneg=negneg, pool=gen.POOL8)
    for a in gen.POOL8:
        scan: list = []
        for r in pi.rules:
            if r.head == a and r.body not in scan:
                scan.append(r.body)
        assert pi.bodies(a) == tuple(scan)
    assert pi.bodies(Atom("z")) == ()
    assert pi.bodies(Atom("a", ORIGIN_FRESH)) == ()


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_stored_body_duals_are_the_duals_of_the_body_literals(rng, negneg):
    pi = gen.random_program(rng, n_atoms=rng.randint(1, 8), max_rules=12,
                            allow_negneg=negneg, pool=gen.POOL8)
    for r in pi.rules:
        assert r.body.s_duals == duals(r.body.s_literals)
        assert r.body.s_duals is r.body.s_duals  # computed once, then stored


def test_equal_clauses_bodies_and_rules_are_one_object():
    a, b, c = atoms("a b c")
    assert Clause((lit("-b"), lit("a"), lit("-b"))) is cl("a", "-b")
    assert Clause([lit("a"), lit("-b")]) is Clause(literals=(lit("-b"), lit("a")))
    assert Body((c, b, b), (a,)) is Body(pos=(b, c), neg=(a,), negneg=())
    assert Rule(a, pos=(c, b), neg=(b, b)) is Rule(a, (b, c), (b,), ())
    assert Rule(a, pos=(c, b)).body is Body((b, c))
    assert rule(None, pos="a") is Rule(None, pos=(a,))
    assert Rule(a) is not Rule(b) and Rule(a).body is Rule(b).body
    assert Body(neg=(a,)) is not Body(negneg=(a,))


def test_repr_key_and_order_of_clauses_bodies_and_rules():
    a, b, c, d = atoms("a b c d")
    r = Rule(a, pos=(c, b, b), neg=(b,), negneg=(d,))
    assert repr(r) == ("Rule(head=Atom('a'), pos=(Atom('b'), Atom('c')), "
                       "neg=(Atom('b'),), negneg=(Atom('d'),))")
    assert repr(r.body) == ("Body(pos=(Atom('b'), Atom('c')), neg=(Atom('b'),), "
                            "negneg=(Atom('d'),))")
    assert r.body.key == (((1, "b"), (1, "c")), ((1, "b"),), ((1, "d"),))
    assert repr(Rule(None, neg=(a,))) == "Rule(head=None, pos=(), neg=(Atom('a'),), negneg=())"
    assert repr(Body()) == "Body(pos=(), neg=(), negneg=())" and Body().key == ((), (), ())
    assert Body().s_literals == () and r.body.s_literals == (lit("b"), lit("-b"), lit("c"), lit("d"))
    assert r.body.pos_set == frozenset((b, c))
    clause = Clause((lit("-b"), lit("a"), lit("-b")))
    assert repr(clause) == "Clause(a | -b)"
    assert clause.key == ((1, "a", 0), (1, "b", 1)) and clause.atoms == (a, b)
    assert cl("-a", "a", "b").atoms == (a, b)
    fresh = Literal(Atom("f{x,y}", ORIGIN_FRESH))
    assert repr(Clause((fresh, lit("-a")))) == "Clause(f{x,y} | -a)"
    assert sorted_clauses([cl("b"), cl("-a", "b"), cl("a", "c")]) == (cl("a", "c"), cl("-a", "b"), cl("b"))


@pytest.mark.parametrize("cls", [_Interned, Atom, Literal, Clause, Body, Rule])
def test_interned_values_define_no_comparison(cls):
    # any rich comparison makes CPython compare through Python code, so
    # `==` and `in` between distinct values would no longer be C-level
    # identity tests
    rich = {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"}
    assert rich.isdisjoint(vars(cls))


@pytest.mark.parametrize("values", [
    [atom("b"), atom("a")], [lit("b"), lit("-a")], [cl("b"), cl("a")],
    [Body(atoms("b")), Body(atoms("a"))], [rule("b"), rule("a")],
])
def test_interned_values_have_no_natural_order(values):
    with pytest.raises(TypeError):
        sorted(values)


def test_copies_and_pickles_of_clauses_bodies_and_rules_are_the_interned_objects():
    r = Rule(Atom("a"), pos=atoms("b c"), neg=atoms("d"), negneg=atoms("a"))
    for value in (cl("a", "-b"), Clause((Literal(Atom("f{b}", ORIGIN_FRESH)),)), r, r.body,
                  Body(), Rule(None, neg=atoms("a")), Rule(Atom("a"))):
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value


@pytest.mark.parametrize("value, field", [
    (cl("a", "-b"), "literals"), (cl("a", "-b"), "key"),
    (Body(atoms("a")), "pos"), (Body(atoms("a")), "key"), (Body(atoms("a")), "s_literals"),
    (Body(atoms("a")), "s_duals"),
    (rule("a", pos="b"), "head"), (rule("a", pos="b"), "body"), (rule("a", pos="b"), "neg"),
])
def test_clauses_bodies_and_rules_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("make", [lambda: Clause(()), lambda: Clause([]),
                                  lambda: Rule(None), lambda: Rule(None, (), (), ())])
def test_empty_clause_and_empty_constraint_raise_on_every_call(make):
    for _ in range(2):
        with pytest.raises(ValueError):
            make()


def test_interning_tables_let_go_of_dead_values():
    name = "only-in-this-test"
    first = Clause((Literal(Atom(name)),))
    key = first.literals
    assert Clause._table[key]() is first
    del first
    gc.collect()
    assert key not in Clause._table
    again = Clause(key)
    assert Clause._table[key]() is again

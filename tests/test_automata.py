from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from codesync import (
    Alphabet,
    Automaton,
    AutomatonContractError,
    EpsilonNotAllowed,
    FiniteLanguage,
    ParseError,
    Word,
    accepts,
    automaton_from_json,
    automaton_to_json,
    determinize_minimize,
    first_return_language,
    first_return_size,
    flower_automaton,
    is_code,
    is_complete_automaton,
    is_deterministic,
    is_prefix,
    is_transitive,
    is_unambiguous,
    kleene_membership,
    mask_from_states,
    reverse,
    states_from_mask,
)
from codesync.synchrony import cerny_family

from helpers import (
    BINARY,
    EXAMPLE_PREFIX,
    EXAMPLE_SET,
    exhaustive_corpus,
    flower_reference,
    lang,
    minimal_dfa_size_reference,
    random_language_sample,
    strongly_connected_reference,
    w,
)


def named_edges(automaton):
    return sorted(
        (automaton.labels[q], automaton.alphabet.symbols[a], automaton.labels[t])
        for q, a, t in automaton.edges()
    )


def test_flower_of_prefix_example_matches_known_shape():
    x = lang(EXAMPLE_PREFIX)
    a = flower_automaton(x)
    assert a.n_states == 4
    assert a.labels == ("1", "b", "ba", "baa")
    assert named_edges(a) == sorted(
        [
            ("1", "a", "1"),
            ("1", "b", "b"),
            ("b", "a", "ba"),
            ("b", "b", "1"),
            ("ba", "a", "baa"),
            ("ba", "b", "1"),
            ("baa", "a", "1"),
            ("baa", "b", "1"),
        ]
    )


def test_flower_trivial_singleton():
    a = flower_automaton(lang(["a"]))
    assert a.n_states == 1
    assert a.edges() == [(0, 0, 0)]


def test_flower_of_example_set():
    x = lang(EXAMPLE_SET)
    a = flower_automaton(x)
    assert a.n_states == 5
    assert a.labels == ("1", "a", "b", "ba", "bb")
    # sampling equivalence with the membership oracle
    for k in range(0, 9):
        for tup in itertools.product((0, 1), repeat=k):
            word = Word(BINARY, tup)
            assert accepts(a, word) == kleene_membership(x, word)


def test_flower_rejects_epsilon_and_empty():
    with pytest.raises(EpsilonNotAllowed):
        flower_automaton(FiniteLanguage(BINARY, (Word.epsilon(BINARY),)))
    with pytest.raises(Exception):
        flower_automaton(FiniteLanguage(BINARY, ()))


def test_flower_matches_reference_construction():
    from codesync import parse_language

    cases = [
        parse_language("alphabet: a a' bb\na\na'bb\nbb a a'\na'a'\nbbbb"),
        parse_language("alphabet: a a' bb\na'\nbb\na a'a\nbb a' a'"),
        parse_language("alphabet: e p s\neps\nse\npp"),
    ]
    cases += random_language_sample(2024, 50, 3, d=3)
    for x in cases:
        a = flower_automaton(x)
        got = (a.table, a.labels, a._letter_rows, a._rev_rows)
        assert got == flower_reference(x), x.word_strings()


@pytest.mark.parametrize(
    "table, reason",
    [(((1, -1),), "negative mask"), (((1, 2),), "target out of range"), (((1,),), "wrong arity")],
)
def test_automaton_contract_rejects_bad_rows(table, reason):
    with pytest.raises(AutomatonContractError):
        Automaton(n_states=1, alphabet=BINARY, table=table)


@pytest.mark.parametrize(
    "fields, reason",
    [
        ({"accepting": frozenset({5})}, "accepting state past the last state"),
        ({"accepting": frozenset({-1})}, "negative accepting state"),
        ({"labels": ("1",)}, "fewer labels than states"),
        ({"labels": ("1", "a", "b")}, "more labels than states"),
    ],
)
def test_automaton_contract_rejects_bad_accepting_and_labels(fields, reason):
    with pytest.raises(AutomatonContractError):
        Automaton(n_states=2, alphabet=BINARY, table=((2, 1), (1, 1)), **fields)


def test_automaton_from_json_rejects_bad_accepting_and_labels():
    edges = [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 0]]
    base = {"states": 2, "alphabet": ["a", "b"], "edges": edges}
    assert accepts(automaton_from_json(json.dumps(base)), Word.parse("ab", BINARY))
    for extra in ({"accepting": [5]}, {"accepting": [-1]}, {"labels": ["1"]}):
        with pytest.raises(AutomatonContractError):
            automaton_from_json(json.dumps({**base, **extra}))


@pytest.mark.parametrize("extra", [
    {"states": 2.9},
    {"states": True, "edges": [[0, 0, 0], [0, 1, 0]]},
    {"initial": 1.5},
    {"initial": False},
    {"alphabet": "ab"},
    {"edges": [[0, True, 1]]},
    {"accepting": [True]},
    {"labels": "12"},
])
def test_automaton_from_json_rejects_non_integer_and_non_list_fields(extra):
    # before, 2.9 states read as 2, and initial 1.5 stayed the accepting state
    edges = [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 0]]
    base = {"states": 2, "alphabet": ["a", "b"], "edges": edges}
    with pytest.raises(ParseError):
        automaton_from_json(json.dumps({**base, **extra}))


def test_step_forward_examples():
    x = lang(EXAMPLE_PREFIX)
    a = flower_automaton(x)
    image = a.step_word(a.full_mask, w("aa"))
    assert {a.labels[q] for q in states_from_mask(image)} == {"1", "baa"}
    assert a.step_word(0, w("ab")) == 0
    assert a.step_word(a.full_mask, Word.epsilon(BINARY)) == a.full_mask


def test_step_backward_examples():
    x = lang(EXAMPLE_PREFIX)
    a = flower_automaton(x)
    # states with a b-edge into state 1, derived by scanning the table
    expected = {
        a.labels[q]
        for q, letter, t in a.edges()
        if letter == a.alphabet.index("b") and t == 0
    }
    assert expected == {"b", "ba", "baa"}
    image = a.step_word(1, w("b"), back=True)
    assert {a.labels[q] for q in states_from_mask(image)} == expected

    single = flower_automaton(lang(["a"]))
    assert single.step_word(1, Word.parse("a", single.alphabet), back=True) == 1
    assert a.step_word(0, w("ab"), back=True) == 0


def test_step_adjointness_random():
    rng = random.Random(99)
    for x in random_language_sample(3, 30, 3):
        a = flower_automaton(x)
        for _ in range(5):
            word = Word(BINARY, tuple(rng.randrange(2) for _ in range(rng.randrange(4))))
            s = rng.randrange(1 << a.n_states)
            t = rng.randrange(1 << a.n_states)
            lhs = bool(a.step_word(s, word) & t)
            rhs = bool(s & a.step_word(t, word, back=True))
            assert lhs == rhs


def _preimage_by_definition(automaton, mask: int, a: int) -> int:
    """{q : δ(q, a) ∩ S ≠ ∅}, read off the table."""
    return mask_from_states(q for q, row in enumerate(automaton.table) if row[a] & mask)


@st.composite
def _automata_and_masks(draw):
    """A random total DFA, partial DFA or NFA with a state mask, its popcount
    ⌊n/2⌋ or ⌊n/2⌋ + 1 (where complement stepping starts) half of the time."""
    kind = draw(st.sampled_from(("total", "partial", "nfa")))
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    singles = st.integers(0, n - 1).map(lambda q: 1 << q)
    cell = {
        "total": singles,
        "partial": st.one_of(st.just(0), singles),
        "nfa": st.integers(0, (1 << n) - 1),
    }[kind]
    table = draw(st.lists(st.tuples(*[cell] * d), min_size=n, max_size=n))
    automaton = Automaton(n_states=n, alphabet=Alphabet.lowercase(d), table=tuple(table))
    size = draw(st.one_of(st.sampled_from((n // 2, n // 2 + 1)), st.integers(0, n)))
    states = draw(st.permutations(range(n)))[:size]
    return kind, automaton, mask_from_states(states)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_automata_and_masks())
def test_step_letter_back_is_the_preimage_by_definition(case):
    kind, automaton, mask = case
    assert all(automaton._total) or kind != "total"
    for a in range(len(automaton.alphabet)):
        assert automaton.step_letter_back(mask, a) == _preimage_by_definition(automaton, mask, a)


def _popcount_masks(n: int):
    """Every mask over n states with ⌊n/2⌋ or ⌊n/2⌋ + 1 states, plus ∅ and Q."""
    sizes = {0, n // 2, min(n // 2 + 1, n), n}
    return [mask_from_states(c) for k in sorted(sizes) for c in itertools.combinations(range(n), k)]


def test_step_letter_back_on_marked_and_one_state_automata():
    from codesync import build_aprime, cerny_canonical_pair

    aprimes = [
        build_aprime(flower_automaton(lang(EXAMPLE_PREFIX)), w("aaa")),  # 4 states
        build_aprime(flower_automaton(cerny_family(4)), cerny_canonical_pair(4).u),  # 11 states
    ]
    single = [
        Automaton(n_states=1, alphabet=BINARY, table=((1, 1),)),
        Automaton(n_states=1, alphabet=BINARY, table=((1, 0),)),
    ]
    for automaton in aprimes + single:
        for mask in _popcount_masks(automaton.n_states):
            for a in range(len(automaton.alphabet)):
                got = automaton.step_letter_back(mask, a)
                assert got == _preimage_by_definition(automaton, mask, a), (automaton.n_states, mask, a)
    # the marked letter of A′ adds or removes edges into state 1, so it is
    # not total, while the base letters of a prefix code's flower are
    assert [m._total for m in aprimes] == [(True, True, False)] * 2
    assert [m._total for m in single] == [(True, True), (True, False)]


class _CountingRow(tuple):
    reads = 0

    def __getitem__(self, q):
        _CountingRow.reads += 1
        return tuple.__getitem__(self, q)


@pytest.mark.parametrize("x", [cerny_family(4), lang(EXAMPLE_PREFIX)], ids=["X_4", "prefix"])
def test_step_letter_back_walks_the_smaller_side_of_a_total_letter(x):
    # on a total letter a mask with more than half the states walks its
    # complement; a letter with a missing edge always walks the mask itself
    table = flower_automaton(x).table
    total = Automaton(n_states=len(table), alphabet=BINARY, table=table)
    partial = Automaton(n_states=len(table), alphabet=BINARY, table=((0, table[0][1]),) + table[1:])
    rows = [(total, 0, True), (total, 1, True), (partial, 0, False), (partial, 1, True)]
    n = total.n_states
    for automaton, a, is_total in rows:
        assert automaton._total[a] == is_total
        counting = tuple(_CountingRow(row) for row in automaton._rev_rows)
        object.__setattr__(automaton, "_rev_rows", counting)
        for mask in _popcount_masks(n):
            _CountingRow.reads = 0
            got = automaton.step_letter_back(mask, a)
            size = mask.bit_count()
            walked = n - size if is_total and 2 * size > n else size
            assert _CountingRow.reads == walked, (n, size, is_total)
            assert got == _preimage_by_definition(automaton, mask, a)


def test_structural_predicates_on_examples():
    prefix = flower_automaton(lang(EXAMPLE_PREFIX))
    assert is_deterministic(prefix)
    assert is_complete_automaton(prefix)
    assert is_transitive(prefix)
    assert is_unambiguous(prefix)

    nondet = flower_automaton(lang(EXAMPLE_SET))
    assert not is_deterministic(nondet)  # b has two a-successors (1 and ba)
    assert not is_complete_automaton(nondet)
    assert is_transitive(nondet)

    single = flower_automaton(lang(["a"]))
    assert is_deterministic(single) and is_complete_automaton(single)
    assert is_transitive(single) and is_unambiguous(single)


def test_transitive_matches_the_warshall_reference():
    rng = random.Random(909)
    answers = []
    for _ in range(600):
        n, d = rng.randint(1, 6), rng.randint(1, 3)
        density = rng.choice((0.15, 0.3, 0.5))
        table = tuple(
            tuple(sum(1 << t for t in range(n) if rng.random() < density) for _ in range(d))
            for _ in range(n)
        )
        a = Automaton(
            n_states=n, alphabet=Alphabet.lowercase(d), table=table, initial=rng.randrange(n)
        )
        expected = strongly_connected_reference(table)
        assert is_transitive(a) == expected, (table, a.initial)
        answers.append(expected)
    assert answers.count(True) > 100 and answers.count(False) > 100


def test_unambiguous_product_pair_cases():
    def automaton(edges, d=2):
        table = [[0] * d for _ in range(3)]
        for q, a, t in edges:
            table[q][a] |= 1 << t
        return Automaton(n_states=3, alphabet=Alphabet.lowercase(d), table=tuple(map(tuple, table)))

    # (1, 2) is reached by a but dies: aa and ab each have one path
    assert is_unambiguous(automaton([(0, 0, 1), (0, 0, 2), (1, 1, 0), (2, 0, 0)]))
    # (1, 2) is reached by a and returns to (0, 0) by b: ab has two paths
    assert not is_unambiguous(automaton([(0, 0, 1), (0, 0, 2), (1, 1, 0), (2, 1, 0)]))
    # (1, 2) returns to (0, 0) by c but is never reached: ac and bc are one path each
    assert is_unambiguous(automaton([(0, 0, 1), (0, 1, 2), (1, 2, 0), (2, 2, 0)], d=3))


def test_unambiguous_iff_code_and_deterministic_iff_prefix_exhaustive():
    for x in exhaustive_corpus():
        a = flower_automaton(x)
        assert is_unambiguous(a) == is_code(x), x.word_strings()
        assert is_deterministic(a) == is_prefix(x), x.word_strings()


def test_unambiguous_iff_code_random():
    for x in random_language_sample(414, 500, 3):
        a = flower_automaton(x)
        assert is_unambiguous(a) == is_code(x), x.word_strings()
        assert is_deterministic(a) == is_prefix(x), x.word_strings()


def test_flower_language_equivalence_on_corpus_sample():
    for x in exhaustive_corpus()[::11]:
        a = flower_automaton(x)
        limit = 2 * x.size + 2
        for k in range(limit + 1):
            for tup in itertools.product((0, 1), repeat=k):
                word = Word(BINARY, tup)
                assert accepts(a, word) == kleene_membership(x, word)


def test_first_return_recovers_language():
    for x in exhaustive_corpus()[::7]:
        assert first_return_language(flower_automaton(x)) == x


def test_first_return_size_is_the_size_of_the_listed_language():
    checked = 0
    for x in exhaustive_corpus()[::3]:
        for a in (flower_automaton(x), reverse(flower_automaton(x))):
            assert first_return_size(a) == first_return_language(a).size, x
            checked += 1
    assert checked == 314
    nonreturning = Automaton(n_states=2, alphabet=BINARY, table=((1 << 1, 1 << 1), (1 << 1, 0)))
    assert first_return_size(nonreturning) == first_return_language(nonreturning).size == 0
    with pytest.raises(AutomatonContractError):
        first_return_size(Automaton(n_states=1, alphabet=BINARY, table=((1, 1),), accepting=frozenset()))


def test_first_return_rejects_one_avoiding_cycle():
    from codesync import Automaton

    # two states, the second loops on letter a: cycle avoiding state 0
    bad = Automaton(
        n_states=2,
        alphabet=BINARY,
        table=((1 << 1, 0), (1 << 1, 1 << 0)),
    )
    with pytest.raises(AutomatonContractError):
        first_return_language(bad)
    with pytest.raises(AutomatonContractError):
        first_return_size(bad)


def test_first_return_ignores_an_unreachable_cycle():
    # state 2 loops on a but cannot be reached from state 0, so Y = {ab} is finite
    a = Automaton(
        n_states=3,
        alphabet=BINARY,
        table=((1 << 1, 0), (0, 1 << 0), (1 << 2, 1 << 0)),
    )
    assert first_return_language(a).word_strings() == ["ab"]
    assert first_return_size(a) == 2


def test_first_return_ignores_a_cycle_that_cannot_return():
    # state 1 loops on a and has no way back to state 0, so Y = {b} is finite
    a = Automaton(
        n_states=2,
        alphabet=BINARY,
        table=((1 << 1, 1 << 0), (1 << 1, 0)),
    )
    assert first_return_language(a).word_strings() == ["b"]
    assert first_return_size(a) == 1


def test_reverse_accepts_mirror():
    x = lang(EXAMPLE_SET)
    a = flower_automaton(x)
    r = reverse(a)
    for k in range(7):
        for tup in itertools.product((0, 1), repeat=k):
            word = Word(BINARY, tup)
            assert accepts(r, word) == accepts(a, word.reversed())


def test_determinize_minimize_cerny3():
    m = determinize_minimize(flower_automaton(cerny_family(3)))
    assert m.n_states == 3
    assert is_deterministic(m)


def test_determinize_minimize_full_alphabet():
    m = determinize_minimize(flower_automaton(lang(["a", "b"])))
    assert m.n_states == 1


def test_determinize_minimize_on_nondeterministic_flowers():
    # the subset construction genuinely collapses choices for non-prefix sets
    checked = 0
    for x in random_language_sample(747, 60, 3):
        a = flower_automaton(x)
        if is_deterministic(a):
            continue
        checked += 1
        m = determinize_minimize(a)
        assert is_deterministic(m)
        for k in range(2 * x.size + 2):
            for tup in itertools.product((0, 1), repeat=k):
                word = Word(BINARY, tup)
                assert accepts(m, word) == kleene_membership(x, word)
    assert checked > 10


def test_determinize_minimize_preserves_language_and_is_idempotent():
    for x in exhaustive_corpus()[::13]:
        a = flower_automaton(x)
        m = determinize_minimize(a)
        assert is_deterministic(m)
        for k in range(2 * x.size + 2):
            for tup in itertools.product((0, 1), repeat=k):
                word = Word(BINARY, tup)
                assert accepts(m, word) == kleene_membership(x, word)
        again = determinize_minimize(m)
        assert again.n_states == m.n_states


def test_determinize_minimize_drops_subsets_that_cannot_accept():
    # a subset from which no accepting state is reachable acts as the sink:
    # {ε} and a* each need one state
    epsilon_only = Automaton(2, Alphabet.of("a"), ((0b10,), (0,)), accepting=frozenset({0}))
    a_star = automaton_from_json(
        '{"states": 3, "alphabet": ["a", "b"], "edges": [[0,0,0],[0,1,1],[1,0,2]], "accepting": [0]}'
    )
    for automaton, table in ((epsilon_only, ((0,),)), (a_star, ((1, 0),))):
        m = determinize_minimize(automaton)
        assert (m.n_states, m.table, m.accepting) == (1, table, frozenset({0}))


@st.composite
def _small_automata(draw):
    n, d = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    masks = st.integers(0, (1 << n) - 1)
    table = tuple(tuple(draw(masks) for _ in range(d)) for _ in range(n))
    initial, accepting = draw(st.integers(0, n - 1)), frozenset(states_from_mask(draw(masks)))
    return Automaton(n, Alphabet.of(*"abc"[:d]), table, initial=initial, accepting=accepting)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_small_automata())
def test_determinize_minimize_is_minimal_on_any_automaton(automaton):
    m = determinize_minimize(automaton)
    assert is_deterministic(m)
    assert m.n_states == minimal_dfa_size_reference(automaton)
    for k in range(4):
        for tup in itertools.product(range(len(automaton.alphabet)), repeat=k):
            word = Word(automaton.alphabet, tup)
            assert accepts(m, word) == accepts(automaton, word)


def test_automaton_json_roundtrip():
    a = flower_automaton(lang(EXAMPLE_SET))
    b = automaton_from_json(automaton_to_json(a))
    assert b.n_states == a.n_states
    assert b.edges() == a.edges()
    assert b.alphabet == a.alphabet
    assert automaton_to_json(b) == automaton_to_json(a)


def test_mask_helpers():
    assert mask_from_states([0, 2, 5]) == 0b100101
    assert states_from_mask(0b100101) == [0, 2, 5]


def test_step_rejects_foreign_words():
    from codesync import Alphabet

    a = flower_automaton(lang(EXAMPLE_SET))
    foreign = Word.parse("xy", Alphabet.of("x", "y"))
    with pytest.raises(ParseError):
        a.step_word(a.full_mask, foreign)
    with pytest.raises(ParseError):
        a.step_word(a.full_mask, foreign, back=True)

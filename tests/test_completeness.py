from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from codesync import (
    Alphabet,
    EpsilonNotAllowed,
    FiniteLanguage,
    SubsetCapExceeded,
    Word,
    brute_force_incompletable,
    find_completion,
    flower_automaton,
    is_code,
    is_complete_language,
    kleene_membership,
    left_star_completion,
    shortest_incompletable,
)
from codesync import completeness
from codesync.automata import _flower_states
from codesync.completeness import _incompletable_word, _return_word
from codesync.errors import DEFAULT_SUBSET_CAP

from helpers import (
    BINARY,
    EXAMPLE_PREFIX,
    EXAMPLE_SET,
    access_words_reference,
    coaccess_words_reference,
    exhaustive_corpus,
    has_completion_brute,
    lang,
    least_completion_brute,
    left_star_completion_reference,
    random_language_sample,
    small_class_languages,
    w,
)


def test_shortest_incompletable_running_example():
    x = lang(EXAMPLE_SET)
    word = shortest_incompletable(x)
    assert word is not None and len(word) == 7
    assert word.text == "abbabba"  # the lexicographically least witness
    assert not has_completion_brute(x, word)


def test_known_witness_is_incompletable():
    x = lang(EXAMPLE_SET)
    assert find_completion(x, w("abbabba")) is None


def test_all_length_six_words_completable():
    x = lang(EXAMPLE_SET)
    for tup in itertools.product((0, 1), repeat=6):
        assert find_completion(x, Word(BINARY, tup)) is not None


def test_complete_language_examples():
    assert is_complete_language(lang(["a", "b"]))
    assert is_complete_language(lang(EXAMPLE_PREFIX))
    assert not is_complete_language(lang(EXAMPLE_SET))
    assert is_complete_language(lang(["a"]))  # over the inferred alphabet {a}


def test_missing_letter_is_incompletable():
    x = lang(["aa"], BINARY)
    word = shortest_incompletable(x)
    assert word is not None and word.text == "b"
    assert brute_force_incompletable(x, 1).text == "b"


def test_find_completion_of_known_factor():
    x = lang(EXAMPLE_SET)
    witness = find_completion(x, w("bbabb"))
    assert witness is not None
    assert kleene_membership(x, witness.r + witness.word + witness.s)
    assert len(witness.r) <= 2 and len(witness.s) <= 2
    # the classic context (b, aa) works too
    assert kleene_membership(x, w("b") + w("bbabb") + w("aa"))


def test_find_completion_trivial_for_star_members():
    x = lang(EXAMPLE_SET)
    witness = find_completion(x, w("abba"))
    assert witness.r.text == "ε" and witness.s.text == "ε"
    assert witness.left_in_star


def test_find_completion_none_for_incompletable():
    assert find_completion(lang(["aa"], BINARY), w("b")) is None


def test_trim_bound_whenever_completion_exists():
    for x in exhaustive_corpus()[::9]:
        bound = max(x.size - 1, 0)
        for k in range(0, 4):
            for tup in itertools.product((0, 1), repeat=k):
                word = Word(BINARY, tup)
                witness = find_completion(x, word)
                if witness is not None:
                    assert len(witness.r) <= bound and len(witness.s) <= bound


def test_left_star_completion_examples():
    x = lang(["a", "ba", "bb"])
    one = left_star_completion(x, w("b"))
    assert one.left_in_star and one.r.text == "ε" and one.s.text == "a"
    two = left_star_completion(x, w("a"))
    assert two.r.text == "ε" and two.s.text == "ε"
    # incompletable words of incomplete languages have no completion at all
    assert left_star_completion(lang(EXAMPLE_SET), w("abbabba")) is None


def test_left_star_completion_succeeds_on_complete_corpus():
    complete = [x for x in exhaustive_corpus() if is_complete_language(x)]
    assert complete
    for x in complete:
        for k in range(0, 4):
            for tup in itertools.product((0, 1), repeat=k):
                word = Word(BINARY, tup)
                witness = left_star_completion(x, word)
                assert witness is not None, (x.word_strings(), word.text)
                assert kleene_membership(x, witness.r)
                assert kleene_membership(x, witness.r + word + witness.s)


def test_state_words_and_witnesses_match_the_references():
    """Access/co-access words, completion and left-star witnesses against the
    first-in-first-out and relaxation searches they replaced, on every word of
    length ≤ 4 of the exhaustive corpus and of two languages over a a' bb."""
    tokens = Alphabet(("a", "a'", "bb"))
    corpus = list(exhaustive_corpus()) + [
        lang(["a", "a'bb", "bb a", "bb bb"], tokens),
        lang(["a a'", "a' a", "bb", "a bb a"], tokens),
    ]
    found = nonempty_left = 0
    for x in corpus:
        a = flower_automaton(x)
        access, coaccess = access_words_reference(a), coaccess_words_reference(a)
        states = _flower_states(x)
        assert [Word(x.alphabet, p) for p in states] == access, x.word_strings()
        assert [_return_word(x, states, 1 << q) for q in range(a.n_states)] == coaccess, x.word_strings()
        by_access = sorted(range(a.n_states), key=lambda q: access[q].sort_key())
        for k in range(5):
            for tup in itertools.product(range(len(x.alphabet)), repeat=k):
                word = Word(x.alphabet, tup)
                expected = None
                for p in by_access:
                    image = a.step_word(1 << p, word)
                    if image:
                        s = min((coaccess[q] for q in range(a.n_states) if image >> q & 1),
                                key=Word.sort_key)
                        expected = (access[p], s)
                        break
                witness = find_completion(x, word)
                assert (witness and (witness.r, witness.s)) == expected, (x, word)
                left = left_star_completion(x, word)
                assert left == left_star_completion_reference(x, word), (x, word)
                found += witness is not None
                nonempty_left += left is not None and len(left.r) > 0
    assert found > 10000 and nonempty_left > 1000


def test_oracle_equivalence_exhaustive():
    for x in exhaustive_corpus():
        fast = shortest_incompletable(x)
        if fast is None:
            assert brute_force_incompletable(x, 4) is None, x.word_strings()
        else:
            slow = brute_force_incompletable(x, len(fast))
            assert slow is not None and len(slow) == len(fast), x.word_strings()
            assert slow == fast  # both take the lexicographically least witness


@st.composite
def _small_sets_and_cuts(draw):
    """An ε-free set of 1–4 words of length ≤ 3 over 1–3 letters, code or
    not, and the length M at which brute force stops: 6 on one or two
    letters, 5 on three."""
    d = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, d - 1), min_size=1, max_size=3).map(tuple)
    alphabet = Alphabet.lowercase(d)
    chosen = draw(st.lists(words, min_size=1, max_size=4, unique=True))
    return FiniteLanguage(alphabet, tuple(Word(alphabet, t) for t in chosen)), 6 if d <= 2 else 5


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_small_sets_and_cuts())
def test_incompletable_search_matches_brute_force(case):
    # the search's word cut at M, as ``codesync incompletable --max-len``
    # cuts it: both give no word within M, or the same word
    x, max_len = case
    word = shortest_incompletable(x)
    within = word if word is not None and len(word) <= max_len else None
    assert within == brute_force_incompletable(x, max_len), x.word_strings()


@st.composite
def _small_sets_and_words(draw):
    """A set as :func:`_small_sets_and_cuts` draws it and a word of length
    ≤ 4 over its alphabet."""
    x, _ = draw(_small_sets_and_cuts())
    letters = st.integers(0, len(x.alphabet) - 1)
    return x, Word(x.alphabet, tuple(draw(st.lists(letters, max_size=4))))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_small_sets_and_words())
def test_completion_is_the_least_by_definition(case):
    # the least r, then the least s, over all contexts of length ≤ ℓ(X) − 1,
    # membership decided by the DP oracle alone
    x, word = case
    witness = find_completion(x, word)
    got = None if witness is None else (witness.r, witness.s)
    assert got == least_completion_brute(x, word), (x.word_strings(), word.text)


def test_completion_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a completion ran a subset search")

    monkeypatch.setattr(completeness, "layered_search", no_search)
    monkeypatch.setattr(completeness, "subset_bfs", no_search)
    x = lang(EXAMPLE_SET)
    assert find_completion(x, w("abbabba")) is None
    witness = find_completion(x, w("bbabb"))
    assert witness is not None and kleene_membership(x, witness.r + w("bbabb") + witness.s)


def test_incompletability_is_factor_closed():
    for x in exhaustive_corpus()[::17]:
        word = shortest_incompletable(x)
        if word is None:
            continue
        a = flower_automaton(x)
        for left, right in (((0,), ()), ((), (1,)), ((1, 0), (0,))):
            extended = Word(BINARY, left + word.indices + right)
            assert a.step_word(a.full_mask, extended) == 0


def test_prefix_quadratic_bound_on_corpus():
    from codesync import is_prefix

    for x in exhaustive_corpus():
        if not is_prefix(x):
            continue
        word = shortest_incompletable(x)
        if word is not None:
            assert len(word) <= 2 * x.size * x.size


def test_automaton_and_language_completeness_agree():
    from codesync import is_complete_automaton

    for x in exhaustive_corpus()[::5]:
        assert is_complete_automaton(flower_automaton(x)) == is_complete_language(x)


def test_random_witnesses_verify_against_definitional_checker():
    for x in random_language_sample(271828, 120, 3):
        word = shortest_incompletable(x)
        if word is None:
            assert brute_force_incompletable(x, 3) is None
        else:
            assert not has_completion_brute(x, word)
            shorter = brute_force_incompletable(x, len(word) - 1) if len(word) > 1 else None
            assert shorter is None


def test_kraft_completeness_of_codes_matches_the_search():
    # a finite code is complete iff its Kraft sum is 1 (Schützenberger), so
    # codes never search: cap=1 would stop any search at its second subset
    codes = small_class_languages("codes")
    complete = 0
    for x in codes:
        searched = _incompletable_word(flower_automaton(x), DEFAULT_SUBSET_CAP) is None
        assert is_complete_language(x, cap=1) == searched, x.word_strings()
        complete += searched
    assert (len(codes), complete) == (2139, 95)
    assert not is_complete_language(FiniteLanguage(BINARY, ()))  # ∅ is an incomplete code


def test_non_codes_and_epsilon_languages_still_search():
    # {a, aa, ab} has Kraft sum 1 but is no code, and bb is incompletable
    kraft_one = lang(["a", "aa", "ab"])
    assert not is_code(kraft_one) and not is_complete_language(kraft_one)
    assert shortest_incompletable(kraft_one).text == "bb"
    complete_non_code = lang(["a", "b", "ab"])
    assert not is_code(complete_non_code) and is_complete_language(complete_non_code)
    for x in (kraft_one, complete_non_code):
        with pytest.raises(SubsetCapExceeded):
            is_complete_language(x, cap=1)
    with pytest.raises(EpsilonNotAllowed):
        is_complete_language(lang(["ε", "a", "b"]))


def test_completeness_is_memoized_but_a_cap_error_is_not(monkeypatch):
    from codesync import completeness

    calls = []
    real = completeness._incompletable_word
    monkeypatch.setattr(completeness, "_incompletable_word", lambda a, cap: calls.append(cap) or real(a, cap))
    x = lang(["a", "b", "ab"])  # a complete non-code
    with pytest.raises(SubsetCapExceeded):
        is_complete_language(x, cap=1)
    assert is_complete_language(x) and is_complete_language(x)
    assert calls == [1, DEFAULT_SUBSET_CAP]
    # a smaller cap than the memoized answer's searches again, and may fail
    with pytest.raises(SubsetCapExceeded):
        is_complete_language(x, cap=1)
    assert calls == [1, DEFAULT_SUBSET_CAP, 1]


@pytest.mark.parametrize("n, d", [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 5)])
def test_full_block_minus_one_word_needs_quadratic_witnesses(n, d):
    # over all w ∈ A^n, the longest shortest incompletable word of A^n ∖ {w}
    # has length n² + n − 1; the first w reaching it in lex order is a^{n−1}b,
    # with the witness a^{n−1}b (a^n b)^{n−1}.  (At n = 1 every w ties.)
    alphabet = Alphabet.lowercase(d)
    block = list(itertools.product(range(d), repeat=n))
    best = None  # (length, w, witness), the first maximizer in lex order
    for missing in block:
        x = FiniteLanguage(alphabet, tuple(Word(alphabet, t) for t in block if t != missing))
        witness = shortest_incompletable(x)
        if best is None or len(witness) > best[0]:
            best = (len(witness), missing, witness)
    length, missing, witness = best
    assert length == n * n + n - 1
    assert Word(alphabet, missing).text == "a" * (n - 1) + "b"
    assert witness.text == "a" * (n - 1) + "b" + ("a" * n + "b") * (n - 1)

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
    shortest_incompletable,
)
from codesync import completeness, errors
from codesync.automata import _flower_states
from codesync.completeness import _incompletable_word, _return_word

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


def test_state_words_and_witnesses_match_the_references():
    """Access/co-access words and completion witnesses against the
    first-in-first-out and relaxation searches they replaced, on every word of
    length ≤ 4 of the exhaustive corpus and of two languages over a a' bb."""
    tokens = Alphabet(("a", "a'", "bb"))
    corpus = list(exhaustive_corpus()) + [
        lang(["a", "a'bb", "bb a", "bb bb"], tokens),
        lang(["a a'", "a' a", "bb", "a bb a"], tokens),
    ]
    found = 0
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
                found += witness is not None
    assert found > 10000


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

    monkeypatch.setattr(completeness, "subset_bfs", no_search)  # its only subset search
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
    for x in exhaustive_corpus()[::5]:
        assert (shortest_incompletable(x) is None) == is_complete_language(x)


def test_random_witnesses_verify_against_definitional_checker():
    for x in random_language_sample(271828, 120, 3):
        word = shortest_incompletable(x)
        if word is None:
            assert brute_force_incompletable(x, 3) is None
        else:
            assert not has_completion_brute(x, word)
            shorter = brute_force_incompletable(x, len(word) - 1) if len(word) > 1 else None
            assert shorter is None


def test_kraft_completeness_of_codes_matches_the_search(monkeypatch):
    # a finite code is complete iff its Kraft sum is 1 (Schützenberger), so
    # codes never search: a cap of 1 would stop any search at its second subset
    codes = small_class_languages("codes")
    searched = [_incompletable_word(flower_automaton(x)) is None for x in codes]
    monkeypatch.setattr(errors, "SUBSET_CAP", 1)
    for x, complete in zip(codes, searched):
        assert is_complete_language(x) == complete, x.word_strings()
    assert (len(codes), sum(searched)) == (2139, 95)
    assert not is_complete_language(FiniteLanguage(BINARY, ()))  # ∅ is an incomplete code


def test_non_codes_and_epsilon_languages_still_search(monkeypatch):
    # {a, aa, ab} has Kraft sum 1 but is no code, and bb is incompletable
    kraft_one = lang(["a", "aa", "ab"])
    assert not is_code(kraft_one) and not is_complete_language(kraft_one)
    assert shortest_incompletable(kraft_one).text == "bb"
    complete_non_code = lang(["a", "b", "ab"])
    assert not is_code(complete_non_code) and is_complete_language(complete_non_code)
    monkeypatch.setattr(errors, "SUBSET_CAP", 1)
    for words in (["a", "aa", "ab"], ["a", "b", "ab"]):  # fresh languages, with no memoized answer
        with pytest.raises(SubsetCapExceeded):
            is_complete_language(lang(words))
    with pytest.raises(EpsilonNotAllowed):
        is_complete_language(lang(["ε", "a", "b"]))


def test_completeness_is_memoized_but_a_cap_error_is_not(monkeypatch):
    calls = []
    real, cap = completeness._incompletable_word, errors.SUBSET_CAP
    monkeypatch.setattr(completeness, "_incompletable_word", lambda a: calls.append(errors.SUBSET_CAP) or real(a))
    x = lang(["a", "b", "ab"])  # a complete non-code
    monkeypatch.setattr(errors, "SUBSET_CAP", 1)
    with pytest.raises(SubsetCapExceeded):
        is_complete_language(x)
    monkeypatch.setattr(errors, "SUBSET_CAP", cap)
    assert is_complete_language(x) and is_complete_language(x)
    assert calls == [1, cap]


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

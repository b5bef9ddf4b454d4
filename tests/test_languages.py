from __future__ import annotations

import random

import pytest

from codesync import (
    Alphabet,
    EpsilonNotAllowed,
    FiniteLanguage,
    ParseError,
    Word,
    is_code,
    is_prefix,
    kleene_membership,
    language_to_json,
    parse_language,
)

from helpers import (
    BINARY,
    EXAMPLE_SET,
    brute_is_code,
    exhaustive_corpus,
    factorization_count,
    lang,
    random_language_sample,
    shortest_ambiguous_word,
    w,
)


def test_parse_language_basic():
    x = parse_language("ab\nba\n")
    assert x.word_strings() == ["ab", "ba"]
    assert x.size == 2
    assert list(x.alphabet.symbols) == ["a", "b"]


def test_parse_language_example_set():
    x = parse_language("aa\nab\nba\nbaa\nbbb\n")
    assert len(x) == 5
    assert x.size == 3


def test_parse_language_header_and_comments():
    x = parse_language("# comment\nalphabet: a b c\n\nca  # trailing\ncb\n")
    assert list(x.alphabet.symbols) == ["a", "b", "c"]
    assert x.word_strings() == ["ca", "cb"]


def test_parse_language_empty_is_error():
    with pytest.raises(ParseError):
        parse_language("")
    with pytest.raises(ParseError):
        parse_language("# only a comment\n")


def test_parse_language_foreign_symbol():
    with pytest.raises(ParseError):
        parse_language("alphabet: a b\nabc\n")


def test_parse_language_json_roundtrip():
    x = parse_language("aa\nab\nbaa\n")
    again = parse_language(language_to_json(x))
    assert again == x


def test_parse_language_json_strings_and_indices():
    x = parse_language('{"alphabet": ["a", "b"], "words": ["ab", [1, 0]]}')
    assert x.word_strings() == ["ab", "ba"]


def test_epsilon_representable():
    x = parse_language('{"alphabet": ["a"], "words": [[], [0]]}')
    assert x.contains_epsilon
    assert x.size == 1


def test_canonical_order_and_dedup():
    x = lang(["bbb", "ab", "aa", "ab", "ba", "baa"], BINARY)
    assert x.word_strings() == ["aa", "ab", "ba", "baa", "bbb"]


def test_inferred_alphabet_uses_first_appearance_order():
    x = lang(["bbb", "ab"])
    assert x.alphabet.symbols == ("b", "a")


def test_word_parse_greedy_multichar_tokens():
    alpha = Alphabet.of("a", "b", "a'")
    word = Word.parse("ba'a", alpha)
    assert word.indices == (1, 2, 0)
    assert word.text == "ba'a"


def test_word_count_and_reverse():
    word = w("abbab")
    assert word.count("a") == 2 and word.count("b") == 3
    assert word.reversed().text == "babba"


def test_kleene_membership_worked_example():
    x = lang(EXAMPLE_SET)
    assert kleene_membership(x, w("bbbabbaa"))  # b·bbabb·aa with (b, aa) context


def test_kleene_membership_trivia():
    x = lang(EXAMPLE_SET)
    assert kleene_membership(x, Word.epsilon(BINARY))
    aa = lang(["aa"])
    assert not kleene_membership(aa, w("aaa", aa.alphabet))


def test_kleene_closed_under_concatenation():
    rng = random.Random(5)
    for x in random_language_sample(17, 40, 3):
        members = [u for u in x.words]
        u = rng.choice(members)
        v = rng.choice(members)
        assert kleene_membership(x, u + v)


def test_is_prefix_examples():
    assert not is_prefix(lang(EXAMPLE_SET))  # ba ≤ baa
    assert is_prefix(lang(["a", "baaa", "baab", "bab", "bb"]))
    only_epsilon = FiniteLanguage(BINARY, (Word.epsilon(BINARY),))
    assert is_prefix(only_epsilon)  # vacuous, degenerate


def test_is_code_examples():
    assert not is_code(lang(["a", "ab", "ba"]))  # aba = a·ba = ab·a
    assert is_code(lang(["b", "ba", "aa"]))


def test_example_set_is_not_a_code():
    # baabaa factors as ba·ab·aa and baa·baa, found by residual iteration and
    # confirmed by direct counting
    x = lang(EXAMPLE_SET)
    assert not is_code(x)
    assert factorization_count(x, w("baabaa")) == 2


def test_is_code_rejects_epsilon():
    x = parse_language('{"alphabet": ["a"], "words": [[], [0]]}')
    with pytest.raises(EpsilonNotAllowed):
        is_code(x)


def test_is_code_agrees_with_factorization_oracle_exhaustive():
    for x in exhaustive_corpus():
        claim = is_code(x)
        witness = shortest_ambiguous_word(x, 8)
        assert claim == (witness is None), x.word_strings()
        if witness is not None:
            assert factorization_count(x, witness) >= 2


def test_is_code_agrees_with_factorization_oracle_random():
    for x in random_language_sample(20240817, 500, 4):
        claim = is_code(x)
        witness = shortest_ambiguous_word(x, 12)
        assert claim == (witness is None), x.word_strings()
        if witness is not None:
            assert factorization_count(x, witness) >= 2


def test_prefix_implies_code():
    for x in exhaustive_corpus():
        if is_prefix(x):
            assert is_code(x), x.word_strings()


def test_brute_is_code_helper_consistency():
    assert brute_is_code(lang(["b", "ba", "aa"]), 8)
    assert not brute_is_code(lang(EXAMPLE_SET), 8)


def test_eps_is_a_word_when_the_alphabet_tokenizes_it():
    x = parse_language("alphabet: e p s\neps\ne\n")
    assert x.word_strings() == ["e", "eps"]
    assert Word.parse("eps", BINARY) == Word.epsilon(BINARY)

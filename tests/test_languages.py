from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("text", [
    '{"alphabet": 5, "words": ["a"]}',
    '{"alphabet": "ab", "words": ["ab"]}',
    '{"words": "ab"}',
    '{"alphabet": ["a", "b"], "words": "ab"}',
    '{"alphabet": ["a", "b"], "words": [["x"]]}',
    '{"alphabet": ["a", "b"], "words": [[true, 0]]}',
    '{"alphabet": ["a", "b"], "words": [[0, 1.7]]}',
    '{"alphabet": ["a", "b"], "words": [0]}',
])
def test_parse_language_json_rejects_malformed_fields(text):
    # the alphabet and the words are lists, and an index is a JSON integer;
    # before, "ab" was split into letters, true read as 1 and 1.7 as 1
    with pytest.raises(ParseError):
        parse_language(text)


def test_epsilon_representable():
    x = parse_language('{"alphabet": ["a"], "words": [[], [0]]}')
    assert x.contains_epsilon
    assert x.size == 1


def test_contains_epsilon_matches_a_scan_of_the_words():
    eps = Word.epsilon(BINARY)
    cases = [FiniteLanguage(BINARY, ()), FiniteLanguage(BINARY, (eps,))]
    for x in exhaustive_corpus()[::7]:
        cases += [x, FiniteLanguage(BINARY, x.words + (eps,))]
    for x in cases:
        assert x.contains_epsilon == any(len(u) == 0 for u in x.words), x.word_strings()
    assert sum(x.contains_epsilon for x in cases) == len(cases) // 2


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


@pytest.mark.parametrize("symbols", [("", "a"), ("a b", "a"), ("ε", "a"), (1, "a"), ("a#", "b")])
def test_alphabet_rejects_symbols_that_cannot_be_read_back(symbols):
    # an empty symbol made Word.parse loop forever, ε read as the empty word,
    # "a b" as two fields, and the text format reads "a#" as a and a comment
    with pytest.raises(ParseError):
        Alphabet(symbols)


@pytest.mark.parametrize(
    "symbols, indices, text",
    [
        (("a", "b", "ab"), (0, 1), "a b"),  # "ab" reads as the one-letter word ab
        (("a", "b", "ab"), (2, 1), "abb"),
        (("a", "ab", "bc"), (0, 2), "a bc"),  # greedy "abc" reads ab, then fails on c
        (("e", "p", "s"), (0, 1, 2), "eps"),
    ],
)
def test_word_text_joins_with_spaces_only_where_concatenation_is_ambiguous(symbols, indices, text):
    word = Word(Alphabet(symbols), indices)
    assert word.text == text
    assert Word.parse(text, word.alphabet) == word


_TOKENS = st.one_of(
    st.sampled_from("abc"),
    st.text("abe", min_size=2, max_size=3),
    st.builds(lambda c, k: c + "'" * k, st.sampled_from("ab"), st.integers(1, 2)),
    st.sampled_from("eps"),
)


@st.composite
def _alphabets_and_words(draw):
    symbols = draw(st.lists(_TOKENS, min_size=1, max_size=4, unique=True))
    indices = draw(st.lists(st.integers(0, len(symbols) - 1), max_size=8))
    return Word(Alphabet(tuple(symbols)), tuple(indices))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_alphabets_and_words())
def test_word_text_reads_back(word):
    assert Word.parse(word.text, word.alphabet) == word
    if all(len(s) == 1 for s in word.alphabet.symbols):
        assert " " not in word.text


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


def is_prefix_pairwise(x: FiniteLanguage) -> bool:
    return not any(
        len(u) < len(v) and v.indices[: len(u)] == u.indices for u in x.words for v in x.words
    )


def test_is_prefix_matches_the_pairwise_definition():
    cases = list(exhaustive_corpus()) + random_language_sample(515, 300, 4)
    cases += random_language_sample(516, 200, 3, d=3)
    answers = [is_prefix(x) for x in cases]
    assert answers == [is_prefix_pairwise(x) for x in cases]
    assert 100 < sum(answers) < len(cases) - 100


def test_is_prefix_compares_tokens_not_text():
    # "a" is a text prefix of "a'" but not a token prefix, so {a, a'} is a
    # prefix code; a token prefix still counts whichever token follows it
    alpha = Alphabet.of("a", "a'")
    assert is_prefix(FiniteLanguage(alpha, (Word.parse("a", alpha), Word.parse("a'", alpha))))
    assert not is_prefix(FiniteLanguage(alpha, (Word.parse("a'", alpha), Word.parse("a'a", alpha))))
    assert not is_prefix(FiniteLanguage(alpha, (Word.parse("a", alpha), Word.parse("aa'", alpha))))


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


def test_is_code_is_memoized_on_the_language(monkeypatch):
    from codesync import languages

    calls = []
    closure = languages._sardinas_patterson
    monkeypatch.setattr(languages, "_sardinas_patterson", lambda words: calls.append(words) or closure(words))
    x = lang(EXAMPLE_SET)
    assert not is_code(x) and not is_code(x)
    assert len(calls) == 1
    # the ε check runs before the memo, on every call
    eps = parse_language('{"alphabet": ["a"], "words": [[], [0]]}')
    for _ in range(2):
        with pytest.raises(EpsilonNotAllowed):
            is_code(eps)
    assert len(calls) == 1


def test_prefix_codes_skip_the_closure(monkeypatch):
    from codesync import cerny_family, languages

    calls = []
    closure = languages._sardinas_patterson
    monkeypatch.setattr(languages, "_sardinas_patterson", lambda words: calls.append(words) or closure(words))
    assert is_code(cerny_family(8)) and not calls
    # the mirror of X_8 is a suffix code and not a prefix code
    mirror = cerny_family(8).reversed()
    assert not is_prefix(mirror) and is_code(mirror) and not calls
    cases = list(exhaustive_corpus()) + random_language_sample(517, 300, 4)
    cases += random_language_sample(518, 200, 3, d=3)
    cases = [FiniteLanguage(x.alphabet, x.words) for x in cases]  # no memoized answers
    answers = [is_code(x) for x in cases]
    assert answers == [closure([u.indices for u in x.words]) for x in cases]
    one_sided = [is_prefix(x) or is_prefix(x.reversed()) for x in cases]
    assert len(calls) == one_sided.count(False) < sum(not is_prefix(x) for x in cases)


def test_is_code_agrees_with_factorization_oracle_exhaustive():
    for x in exhaustive_corpus():
        claim = is_code(x)
        witness = shortest_ambiguous_word(x, 8)
        assert claim == (witness is None), x.word_strings()
        if witness is not None:
            assert factorization_count(x, witness) >= 2


def test_is_code_agrees_with_factorization_oracle_random():
    ternary = random_language_sample(20240818, 300, 3, d=3)
    assert 30 < sum(map(is_code, ternary)) < 270
    for x in random_language_sample(20240817, 500, 4) + ternary:
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

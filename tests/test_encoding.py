from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from codesync import (
    Alphabet,
    Encoding,
    EpsilonNotAllowed,
    FiniteLanguage,
    InternalInvariantError,
    LengthProfile,
    NotComplete,
    NotSynchronizing,
    ParseError,
    SyncPair,
    Word,
    apply_encoding,
    flower_automaton,
    is_complete_language,
    is_prefix,
    is_sync_pair,
    is_synchronizing_code,
    kraft_canonical,
    length_profile_general,
    length_profile_power2,
    reduce_incompletable_to_binary,
    reduce_sync_to_binary,
    road_colored_sync_code,
    sync_word_shortest,
    uniform_sync_encoding,
)
from codesync import encoding

from helpers import BINARY, EXAMPLE_SET, lang, random_language_sample, w


def test_kraft_canonical_examples():
    assert kraft_canonical(LengthProfile(2, (1, 2, 2))).word_strings() == ["a", "ba", "bb"]
    assert is_complete_language(kraft_canonical(LengthProfile(2, (1, 2, 2))))
    incomplete = kraft_canonical(LengthProfile(2, (1, 2)))
    assert incomplete.word_strings() == ["a", "ba"]
    assert LengthProfile(2, (1, 2)).kraft_sum == Fraction(3, 4)
    assert not is_complete_language(incomplete)
    with pytest.raises(ParseError):
        kraft_canonical(LengthProfile(2, (1, 1, 1)))


def test_kraft_canonical_is_always_prefix_with_requested_lengths():
    rng = random.Random(8)
    for _ in range(50):
        lengths = tuple(sorted(rng.randint(1, 5) for _ in range(rng.randint(1, 6))))
        profile = LengthProfile(2, lengths)
        if profile.kraft_sum > 1:
            continue
        x = kraft_canonical(profile)
        assert is_prefix(x)
        assert sorted(len(u) for u in x.words) == sorted(lengths)
        assert is_complete_language(x) == (profile.kraft_sum == 1)


def test_length_profiles():
    assert length_profile_general(3).lengths == (1, 2, 2)
    assert length_profile_general(5).lengths == (2, 2, 2, 3, 3)
    assert length_profile_general(5).kraft_sum == 1
    assert length_profile_power2(4).lengths == (1, 3, 3, 2)
    assert length_profile_power2(4).gcd == 1
    with pytest.raises(ParseError):
        length_profile_general(1)
    with pytest.raises(ParseError):
        length_profile_power2(6)
    with pytest.raises(ParseError):
        length_profile_power2(2)


def test_road_colored_code_small():
    y = road_colored_sync_code(LengthProfile(2, (1, 2, 2)))
    assert sorted(len(u) for u in y.words) == [1, 2, 2]
    assert is_prefix(y) and is_complete_language(y)
    dfa = flower_automaton(y)
    assert sync_word_shortest(dfa) is not None


def test_road_colored_code_rejects_bad_profiles():
    with pytest.raises(NotSynchronizing):
        road_colored_sync_code(LengthProfile(2, (2, 2)))  # gcd 2
    with pytest.raises(NotComplete):
        road_colored_sync_code(LengthProfile(2, (1, 3)))  # sum < 1, gcd 1


def test_a_missing_road_coloring_is_an_internal_error(monkeypatch):
    # gcd 1 and Kraft sum 1 guarantee a synchronizing coloring (road-coloring
    # theorem); the 3-state profile takes the exhaustive branch
    monkeypatch.setattr(encoding, "is_synchronizing_dfa", lambda automaton: False)
    with pytest.raises(InternalInvariantError) as err:
        road_colored_sync_code(LengthProfile(2, (1, 2, 2)))
    assert err.value.details == {"d": 2, "lengths": [1, 2, 2]}


def test_road_colored_code_1332():
    y = road_colored_sync_code(LengthProfile(2, (1, 3, 3, 2)))
    assert sorted(len(u) for u in y.words) == [1, 2, 3, 3]
    assert is_synchronizing_code(y)


def test_road_colored_code_by_random_restarts():
    """A 16-state canonical automaton is past the exhaustive limit, so the
    seeded random-restart branch colours it; the code is pinned."""
    from codesync.encoding import _EXHAUSTIVE_COLORING_LIMIT

    profile = LengthProfile(2, (1,) + (5,) * 16)
    assert flower_automaton(kraft_canonical(profile)).n_states == 16 > _EXHAUSTIVE_COLORING_LIMIT
    y = road_colored_sync_code(profile)
    assert y.word_strings() == ["b"] + [
        "a" + "".join(t) for t in itertools.product("ab", repeat=4)
    ]
    assert is_prefix(y) and is_complete_language(y) and is_synchronizing_code(y)
    assert sorted(len(u) for u in y.words) == sorted(profile.lengths)


def test_road_coloring_preserves_out_multisets():
    # recoloring rips labels off and reassigns them, so the underlying
    # multigraph is unchanged; compare per-state target multisets up to the
    # state reordering the rebuilt flower may introduce
    from codesync.encoding import _out_multisets

    for lengths in ((1, 2, 3, 3), (1, 2, 3, 4, 5, 5), (2, 2, 2, 3, 3)):
        profile = LengthProfile(2, lengths)
        base = flower_automaton(kraft_canonical(profile))
        recolored = flower_automaton(road_colored_sync_code(profile))
        assert sorted(map(tuple, _out_multisets(base))) == sorted(
            map(tuple, _out_multisets(recolored))
        )
    # a flower that is not a DFA has no coloring to search
    with pytest.raises(InternalInvariantError) as err:
        _out_multisets(flower_automaton(lang(["a", "ab", "b"])))
    assert err.value.details == {"letters": [0]}


def test_derived_automata_keep_or_drop_the_base_fields(monkeypatch):
    """The reversal and A′ keep initial, accepting and labels; a coloring keeps
    initial and accepting but drops the labels, which name the base's prefixes."""
    from dataclasses import replace

    from codesync import build_aprime, reverse

    real_flower = encoding.flower_automaton
    profile = LengthProfile(2, (1, 2, 3, 3))  # a 3-state flower with 4 colorings
    base = replace(real_flower(kraft_canonical(profile)), initial=1, accepting=frozenset({1}))
    for derived in (reverse(base), build_aprime(base, w("ab"))):
        assert (derived.initial, derived.accepting, derived.labels) == (1, base.accepting, base.labels)

    def moved(code):
        return replace(real_flower(code), initial=1, accepting=frozenset({1, 2}))

    restarts = encoding._random_colorings(moved(kraft_canonical(profile)), random.Random(0))
    colorings = list(itertools.islice(restarts, 20))
    # the exhaustive branch offers every coloring when none synchronizes
    monkeypatch.setattr(encoding, "flower_automaton", moved)
    monkeypatch.setattr(encoding, "is_synchronizing_dfa", lambda a: colorings.append(a) and False)
    with pytest.raises(InternalInvariantError):
        road_colored_sync_code(profile)
    assert len(colorings) == 20 + 4  # the restarts, then the exhaustive branch
    for colored in colorings:
        assert (colored.initial, colored.accepting, colored.labels) == (1, frozenset({1, 2}), None)


def test_apply_encoding_examples():
    src = Alphabet.of("a", "b")
    h = Encoding(
        source=src,
        target=BINARY,
        images=(w("ba"), w("aab")),
    )
    x = FiniteLanguage.from_strings(["ab"], src)
    assert apply_encoding(h, x).word_strings() == ["baaab"]

    ident = Encoding(source=BINARY, target=BINARY, images=(w("a"), w("b")))
    y = lang(EXAMPLE_SET)
    assert apply_encoding(ident, y) == y


def test_encoding_requires_code_image():
    abc = Alphabet.of("x", "y", "z")
    with pytest.raises(ParseError):
        # {a, ab, ba} is not a code (aba has two factorizations)
        Encoding(source=abc, target=BINARY, images=(w("a"), w("ab"), w("ba")))
    with pytest.raises(ParseError):
        Encoding(source=BINARY, target=BINARY, images=(w("a"), w("a")))


def test_decode_prefix_reads_the_image_code_itself():
    # a directly constructed prefix encoding decodes greedily; a code that is
    # not prefix is refused
    ident = Encoding(source=BINARY, target=BINARY, images=(w("a"), w("b")))
    u, leftover = ident.decode_prefix(w("ab"))
    assert (u.text, leftover.text) == ("ab", "ε")
    suffix = Encoding(source=BINARY, target=BINARY, images=(w("b"), w("ba")))
    with pytest.raises(ParseError):
        suffix.decode_prefix(w("ba"))


def test_encoding_image_injectivity_on_random_inputs():
    src = Alphabet.of("a", "b")
    h = Encoding(source=src, target=BINARY, images=(w("b"), w("ba")))
    for x in random_language_sample(5150, 50, 3):
        out = apply_encoding(h, x)
        assert len(out) == len(x)


def test_reduce_incompletable_ternary_singleton():
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["aa"], abc)
    u, trace = reduce_incompletable_to_binary(x)
    assert trace.ledger["ok"]
    assert any(s in u.text for s in ("b", "c"))
    flower = flower_automaton(x)
    assert flower.step_word(flower.full_mask, u) == 0


def test_reduce_incompletable_rejects_complete():
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["a", "b", "c"], abc)
    with pytest.raises(ParseError):
        reduce_incompletable_to_binary(x)


def test_incompletable_reduction_failures_are_internal_errors(monkeypatch):
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["a", "b"], abc)
    # ε decodes to ε, which is completable in X
    monkeypatch.setattr(encoding, "shortest_incompletable", lambda hx, cap: Word.epsilon(BINARY))
    with pytest.raises(InternalInvariantError) as err:
        reduce_incompletable_to_binary(x)
    assert err.value.details["u"] == "ε"
    # an incomplete image code leaves a leftover that extends no image word
    monkeypatch.undo()
    monkeypatch.setattr(encoding, "kraft_canonical", lambda profile: lang(["aa", "ab", "ba"]))
    with pytest.raises(InternalInvariantError) as err:
        reduce_incompletable_to_binary(x)
    assert err.value.details == {"language": ["a", "b"], "image_code": ["aa", "ab", "ba"], "v": "bb"}


def test_reduce_incompletable_ledger_batch():
    rng = random.Random(1001)
    from codesync.experiments import random_language

    checked = 0
    while checked < 100:
        x = random_language(rng, 2, 3)
        if x.contains_epsilon or is_complete_language(x):
            continue
        u, trace = reduce_incompletable_to_binary(x)
        assert trace.ledger["ok"], x.word_strings()
        flower = flower_automaton(x)
        assert flower.step_word(flower.full_mask, u) == 0
        checked += 1


def test_reduce_sync_ternary():
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["a", "b", "ca", "cb", "cc"], abc)
    assert is_complete_language(x) and is_synchronizing_code(x)
    pair, trace = reduce_sync_to_binary(x)
    assert is_sync_pair(x, pair.u, pair.v)
    assert trace.ledger["ok"]
    assert trace.profile.lengths == (1, 2, 2)


def test_reduce_sync_power_of_two_profile():
    quad = Alphabet.of("a", "b", "c", "d")
    x = FiniteLanguage.from_strings(
        ["a", "b", "c", "da", "db", "dc", "dd"], quad
    )
    assert is_complete_language(x)
    pair, trace = reduce_sync_to_binary(x)
    assert trace.profile.lengths == (1, 3, 3, 2)
    assert is_sync_pair(x, pair.u, pair.v)
    assert trace.ledger["ok"]


def test_reduce_sync_transfer_checks():
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["a", "b", "ca", "cb", "cc"], abc)
    _, trace = reduce_sync_to_binary(x)
    assert is_complete_language(trace.encoded_language)
    assert is_synchronizing_code(trace.encoded_language)


def test_sync_reduction_failures_are_internal_errors(monkeypatch):
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings(["a", "b", "ca", "cb", "cc"], abc)
    y = road_colored_sync_code(length_profile_general(3))
    # a one-letter binary word outside the image code decodes with a leftover
    stray = next(s for s in ("a", "b") if s not in y.word_strings())

    def first_word_only(h, language):  # h(X) is then incomplete
        return apply_encoding(h, FiniteLanguage(language.alphabet, language.words[:1]))

    cases = [
        ("apply_encoding", first_word_only, "incomplete"),
        ("shortest_sync_pair", lambda hx, budget, cap: SyncPair(w(stray), Word.epsilon(BINARY)), "not an image"),
        ("is_sync_pair", lambda *args, **kwargs: False, "verification on X"),
    ]
    for name, fake, message in cases:
        with monkeypatch.context() as patch:
            patch.setattr(encoding, name, fake)
            with pytest.raises(InternalInvariantError, match=message) as err:
                reduce_sync_to_binary(x)
        assert err.value.details["language"] == x.word_strings()
        assert err.value.details["image_code"] == y.word_strings()


def test_a_failed_uniform_pair_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(encoding, "is_sync_pair", lambda *args, **kwargs: False)
    with pytest.raises(InternalInvariantError) as err:
        uniform_sync_encoding(lang(EXAMPLE_SET))
    assert err.value.details["language"] == lang(EXAMPLE_SET).word_strings()


def test_uniform_encoding_on_example_set():
    x = lang(EXAMPLE_SET)
    pair, trace = uniform_sync_encoding(x)
    assert pair is not None
    assert trace.ledger["exact_scaling"]
    assert trace.ledger["encoded_pair_length"] == 2 * trace.ledger["pair_length"]
    hx = trace.encoded_language
    assert is_sync_pair(hx, pair.u, pair.v)


def test_uniform_encoding_unary_fallback():
    x = FiniteLanguage.from_strings(["aa", "aaa"], BINARY)
    pair, trace = uniform_sync_encoding(x)
    assert pair is None
    assert trace.ledger["fallback"] == "unary"


def test_uniform_encoding_ledger_is_exact_on_batch():
    from helpers import exhaustive_corpus
    from codesync import shortest_sync_pair

    encoded = 0
    for x in exhaustive_corpus()[::19]:
        letters = {i for u in x.words for i in u.indices}
        if len(letters) < 2:
            continue
        if shortest_sync_pair(x, None) is None:
            continue  # X does not synchronize
        pair, trace = uniform_sync_encoding(x)
        if pair is None:
            continue
        assert trace.ledger["exact_scaling"], x.word_strings()
        encoded += 1
    assert encoded > 5


def test_a_complete_set_that_does_not_synchronize_raises_not_synchronizing():
    # A² on three letters is a complete code with no pair; both pair searches
    # run with no budget and end by exhaustion
    abc = Alphabet.of("a", "b", "c")
    x = FiniteLanguage.from_strings([a + b for a in "abc" for b in "abc"], abc)
    with pytest.raises(NotSynchronizing):
        reduce_sync_to_binary(x)
    with pytest.raises(NotSynchronizing):
        uniform_sync_encoding(x)


def test_uniform_encoding_refuses_epsilon():
    with pytest.raises(EpsilonNotAllowed, match="^synchronizing pairs require ε ∉ X$"):
        uniform_sync_encoding(FiniteLanguage.from_strings(["ε", "a", "ba"]))


def test_uniform_encoding_image_avoids_all_a_word():
    x = lang(EXAMPLE_SET)
    _, trace = uniform_sync_encoding(x)
    m = trace.ledger["m"]
    words = set(trace.image_code.word_strings())
    assert "a" * m not in words
    assert "b" + "a" * (m - 1) in words
    assert "a" * (m - 1) + "b" in words
    assert all(len(s) == m for s in words)

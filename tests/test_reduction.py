from __future__ import annotations

import json

import pytest

from codesync import (
    NotACode,
    NotComplete,
    NotSynchronizing,
    SyncPair,
    Word,
    build_aprime,
    extract_w,
    first_return_language,
    flower_automaton,
    half_reduction,
    is_complete_language,
    is_sync_pair,
    kleene_membership,
    shortest_incompletable_min_marked,
    shortest_sync_pair,
    step_backward,
    step_forward,
    synchronizing_pair_via_reduction,
)
from codesync.errors import ParseError
from codesync.experiments import random_complete_sync_codes
from codesync.synchrony import cerny_family

from helpers import BINARY, EXAMPLE_PREFIX, EXAMPLE_SET, lang, w

KNOWN_APRIME_EDGES = sorted(
    [
        ("1", "a", "1"),
        ("1", "b", "b"),
        ("b", "a", "ba"),
        ("b", "a'", "ba"),
        ("b", "b", "1"),
        ("b", "a'", "1"),
        ("ba", "a", "baa"),
        ("ba", "a'", "baa"),
        ("ba", "b", "1"),
        ("ba", "a'", "1"),
        ("baa", "a", "1"),
        ("baa", "b", "1"),
    ]
)

EXPECTED_Y = {
    "a", "ba'", "bb", "baa'", "bab", "ba'a'", "ba'b", "baaa", "baab",
    "baa'a", "baa'b", "ba'aa", "ba'ab", "ba'a'a", "ba'a'b",
}


def prefix_example_aprime():
    x = lang(EXAMPLE_PREFIX)
    return x, build_aprime(flower_automaton(x), w("aaa"))


def test_aprime_matches_known_edges():
    _, aprime = prefix_example_aprime()
    assert aprime.alphabet.symbols == ("a", "b", "a'")
    named = sorted(
        (aprime.labels[q], aprime.alphabet.symbols[a], aprime.labels[t])
        for q, a, t in aprime.edges()
    )
    assert named == KNOWN_APRIME_EDGES


def test_aprime_first_return_is_the_fifteen_word_set():
    x, aprime = prefix_example_aprime()
    y = first_return_language(aprime)
    assert len(y) == 15
    assert set(y.word_strings()) == EXPECTED_Y
    assert y.size == x.size == 4


def test_aprime_rejects_empty_v1_and_renames_colliding_mark():
    x = lang(EXAMPLE_PREFIX)
    a = flower_automaton(x)
    with pytest.raises(ParseError):
        build_aprime(a, Word.epsilon(BINARY))
    from codesync import Alphabet, FiniteLanguage

    primed = Alphabet.of("a", "a'")
    clash = FiniteLanguage.from_strings(["a a'", "a' a"], primed)
    # v1 ends with the base letter a, whose marked copy a' already exists
    aprime = build_aprime(flower_automaton(clash), Word.parse("a' a", primed))
    assert aprime.alphabet.symbols == ("a", "a'", "a''")


def test_min_marked_incompletable_word():
    _, aprime = prefix_example_aprime()
    v = shortest_incompletable_min_marked(aprime, "a'")
    assert v.text == "aaa'"
    assert len(v) == 3 and v.count("a'") == 1


def test_min_marked_single_letter_case():
    # marking the last letter of v1 = a on the one-state automaton {a}* gives
    # δ'(1, a') = ∅ directly, so the witness is the single marked letter
    x = lang(["a"])
    aprime = build_aprime(flower_automaton(x), Word.parse("a", x.alphabet))
    v = shortest_incompletable_min_marked(aprime, "a'")
    assert v.text == "a'"


def test_min_marked_empty_at_level_one():
    # v1 = a over {a,b}* marks state 1 itself (u = ε), so δ'(1, a') = ∅ and
    # the single marked letter is already incompletable
    from codesync.automata import Automaton

    looped = Automaton(n_states=1, alphabet=BINARY, table=((1, 1),))
    aprime = build_aprime(looped, Word(BINARY, (0,)))
    v = shortest_incompletable_min_marked(aprime, "a'")
    assert v.text == "a'"
    # boundary split: u1 = ε needs δ(Q, ε) = Q ⊆ δ(Q, u), which holds since
    # u = ε as well; the extracted word is the unmarked base letter
    w1, u1, u2 = extract_w(looped, Word(BINARY, (0,)), v, "a'")
    assert w1.text == "a" and u1.text == "ε" and u2.text == "ε"


def test_min_marked_agrees_with_brute_oracle_on_y():
    # the minimal incompletable length in A' equals what the independent
    # context-enumeration oracle finds on the first-return language Y
    from codesync.completeness import brute_force_incompletable

    _, aprime = prefix_example_aprime()
    v = shortest_incompletable_min_marked(aprime, "a'")
    y = first_return_language(aprime)
    brute = brute_force_incompletable(y, len(v))
    assert brute is not None and len(brute) == len(v)


def test_min_marked_raises_on_complete_automaton():
    from codesync import Alphabet
    from codesync.automata import Automaton

    complete = Automaton(
        n_states=1, alphabet=Alphabet.of("a", "a'"), table=((1, 1),)
    )
    with pytest.raises(NotSynchronizing):
        shortest_incompletable_min_marked(complete, "a'")


def test_extract_w_on_prefix_example():
    x, aprime = prefix_example_aprime()
    base = flower_automaton(x)
    v = shortest_incompletable_min_marked(aprime, "a'")
    w1, u1, u2 = extract_w(base, w("aaa"), v, "a'")
    assert w1.text == "aaa"
    assert u1.text == "aa" and u2.text == "ε"
    assert len(w1) <= len(v)


def test_half_reduction_left_inclusion():
    x = lang(EXAMPLE_PREFIX)
    w1, record = half_reduction(x, w("aaa"), "left")
    assert w1.text == "aaa"
    base = flower_automaton(x)
    full = base.full_mask
    assert step_forward(base, full, w1) & ~step_forward(base, full, w("aaa")) == 0
    assert record.incompletable.text == "aaa'"
    assert record.y_language is not None and record.y_language.size <= x.size


def test_half_reduction_trivial_epsilon():
    x = lang(EXAMPLE_PREFIX)
    word, record = half_reduction(x, Word.epsilon(BINARY), "right")
    assert word.text == "ε" and record.skipped


def test_half_reduction_right_side_on_suffix_code():
    # reversed complete prefix codes exercise the right-side machinery
    codes = [
        x for x in random_complete_sync_codes(12, seed=31, max_size=4)
    ]
    exercised = 0
    for x in codes:
        pair = shortest_sync_pair(x, 10)
        if pair is None or len(pair.v) == 0:
            continue
        word, record = half_reduction(x, pair.v, "right")
        exercised += 1
        base = flower_automaton(x)
        full = base.full_mask
        assert step_backward(base, full, word) & ~step_backward(base, full, pair.v) == 0
    assert exercised > 0


def test_pipeline_prefix_example():
    x = lang(EXAMPLE_PREFIX)
    pair = SyncPair(u=w("aaa"), v=Word.epsilon(BINARY))
    out, trace = synchronizing_pair_via_reduction(x, pair)
    assert (out.u.text, out.v.text) == ("aaa", "ε")
    assert trace.prefix_pair is not None
    assert trace.left.incompletable.text == "aaa'"
    assert trace.bound_value == 2 * 3 + 2 * 4 - 2 == 12
    assert 2 * max(trace.left.v_length, trace.right.v_length) == 6 <= 12
    assert trace.final_length <= trace.bound_value
    assert trace.bound_ok


def test_pipeline_trivial_full_alphabet():
    x = lang(["a", "b"])
    eps = Word.epsilon(BINARY)
    out, trace = synchronizing_pair_via_reduction(x, SyncPair(u=eps, v=eps))
    assert (out.u.text, out.v.text) == ("ε", "ε")
    assert trace.final_length == 0 and trace.bound_ok


def test_pipeline_cerny3_with_exact_pair():
    x = cerny_family(3)
    pair = shortest_sync_pair(x, 6)
    out, trace = synchronizing_pair_via_reduction(x, pair)
    assert is_sync_pair(x, out.u, out.v)
    assert trace.bound_ok


def test_pipeline_two_sided_code():
    # {aa, ab, bb, aab, abb} is a complete code that is neither prefix nor
    # suffix; its minimal synchronizing pair (ab, aa) has both components
    # nonempty, so both half reductions genuinely run
    x = lang(["aa", "ab", "bb", "aab", "abb"])
    assert is_complete_language(x) and not kleene_membership(x, w("b"))
    out, trace = synchronizing_pair_via_reduction(x)
    assert not trace.left.skipped and not trace.right.skipped
    assert trace.left.incompletable is not None
    assert trace.right.incompletable is not None
    assert trace.prefix_pair is None
    assert trace.bound_ok
    assert is_sync_pair(x, out.u, out.v, method="general")


def test_pipeline_verifies_preconditions():
    with pytest.raises(NotACode):
        synchronizing_pair_via_reduction(lang(EXAMPLE_SET))  # not a code
    with pytest.raises(NotComplete):
        synchronizing_pair_via_reduction(lang(["aa"], BINARY))  # incomplete code
    x = lang(EXAMPLE_PREFIX)
    with pytest.raises(NotSynchronizing):
        bad = SyncPair(u=w("a"), v=w("bb"))
        synchronizing_pair_via_reduction(x, bad)


def test_pipeline_searches_pair_when_missing():
    x = lang(EXAMPLE_PREFIX)
    out, trace = synchronizing_pair_via_reduction(x)
    assert is_sync_pair(x, out.u, out.v)
    assert trace.input_pair.total_length <= 4


def test_trace_json_shape():
    x = lang(EXAMPLE_PREFIX)
    _, trace = synchronizing_pair_via_reduction(x, SyncPair(u=w("aaa"), v=Word.epsilon(BINARY)))
    data = json.loads(trace.to_json())
    assert data["final_pair"] == ["aaa", "ε"]
    assert data["bound"]["value"] == 12
    assert data["left"]["incompletable"] == "aaa'"
    assert data["left"]["y_words"] is not None and len(data["left"]["y_words"]) == 15
    assert data["right"]["skipped"] is True


def test_pipeline_final_pairs_reverify_both_checkers():
    for x in random_complete_sync_codes(15, seed=77, max_size=4):
        out, trace = synchronizing_pair_via_reduction(x)
        assert is_sync_pair(x, out.u, out.v, method="code")
        assert is_sync_pair(
            x, trace.final_pair.u, trace.final_pair.v, method="general"
        )
        assert trace.bound_ok
        if not trace.left.skipped:
            assert kleene_membership(x, trace.input_pair.u)


def test_reduction_picks_a_fresh_mark_when_the_primed_token_exists():
    from codesync import Alphabet, FiniteLanguage, is_prefix, is_synchronizing_code

    primed = Alphabet.of("b", "b'")
    x = FiniteLanguage(primed, tuple(Word(primed, v.indices) for v in cerny_family(3).words))
    assert is_prefix(x) and is_complete_language(x) and is_synchronizing_code(x)
    pair, trace = synchronizing_pair_via_reduction(x)
    assert is_sync_pair(x, pair.u, pair.v, method="code")
    assert is_sync_pair(x, pair.u, pair.v, method="general")
    assert trace.left.marked_symbol not in primed

from __future__ import annotations

import json
from functools import lru_cache

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
    synchronizing_pair_via_reduction,
)
from codesync.errors import ParseError
from codesync.experiments import random_complete_sync_codes
from codesync.synchrony import cerny_family

from helpers import (
    BINARY,
    EXAMPLE_PREFIX,
    EXAMPLE_SET,
    count_steps,
    lang,
    min_marked_reference,
    small_class_languages,
    swap_letters,
    w,
)

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
    v = shortest_incompletable_min_marked(aprime)
    assert v.text == "aaa'"
    assert len(v) == 3 and v.count("a'") == 1


def test_min_marked_single_letter_case():
    # marking the last letter of v1 = a on the one-state automaton {a}* gives
    # δ'(1, a') = ∅ directly, so the witness is the single marked letter
    x = lang(["a"])
    aprime = build_aprime(flower_automaton(x), Word.parse("a", x.alphabet))
    v = shortest_incompletable_min_marked(aprime)
    assert v.text == "a'"


def test_min_marked_empty_at_level_one():
    # v1 = a over {a,b}* marks state 1 itself (u = ε), so δ'(1, a') = ∅ and
    # the single marked letter is already incompletable
    from codesync.automata import Automaton

    looped = Automaton(n_states=1, alphabet=BINARY, table=((1, 1),))
    aprime = build_aprime(looped, Word(BINARY, (0,)))
    v = shortest_incompletable_min_marked(aprime)
    assert v.text == "a'"
    # boundary split: u1 = ε needs δ(Q, ε) = Q ⊆ δ(Q, u), which holds since
    # u = ε as well; the extracted word is the unmarked base letter
    w1, u1, u2 = extract_w(looped, Word(BINARY, (0,)), v)
    assert w1.text == "a" and u1.text == "ε" and u2.text == "ε"


def test_min_marked_agrees_with_brute_oracle_on_y():
    # the minimal incompletable length in A' equals what the independent
    # context-enumeration oracle finds on the first-return language Y
    from codesync.completeness import brute_force_incompletable

    _, aprime = prefix_example_aprime()
    v = shortest_incompletable_min_marked(aprime)
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
        shortest_incompletable_min_marked(complete)


def _brute_min_marked(aprime, marked_symbol):
    """Least (marked count, word) over the shortest words v with δ′(Q, v) = ∅,
    by listing every word of each length in lex order with its image; images
    are taken state by state from the transition table."""
    from codesync.automata import mask_from_states, states_from_mask

    marked = aprime.alphabet.index(marked_symbol)
    letters = range(len(aprime.alphabet))
    images = {}

    def image(mask, a):
        if (mask, a) not in images:
            images[mask, a] = mask_from_states(
                t for q in states_from_mask(mask) for t in states_from_mask(aprime.table[q][a])
            )
        return images[mask, a]

    level = [((), aprime.full_mask)]
    while True:
        level = [(word + (a,), image(mask, a)) for word, mask in level for a in letters]
        dead = [(word.count(marked), word) for word, mask in level if not mask]
        if dead:
            return Word(aprime.alphabet, min(dead)[1])


def _min_marked_instances():
    from codesync import cerny_canonical_pair, reverse

    cases = []
    for n in (3, 4):
        u = cerny_canonical_pair(n).u
        cases.append((cerny_family(n), u, Word.epsilon(u.alphabet)))
        cases.append((cerny_family(n), Word.epsilon(u.alphabet), u))
    for x in random_complete_sync_codes(6, seed=3, max_size=4):
        pair = shortest_sync_pair(x, 12)
        cases.append((x, pair.u, pair.v))
    # complete codes where the lex-least shortest incompletable word carries
    # two marked letters and the witness only one
    for words, u, v in (
        (["c", "aa", "ab", "ac", "ba", "bb", "bc"], "aa", "ε"),
        (["ab", "ba", "bb", "aaa", "baa"], "abba", "ε"),
        (["c", "aa", "ba", "ca", "cb", "aab", "abb", "bab", "bbb", "cab", "cbb"], "ε", "aaaaabb"),
    ):
        x = lang(words)
        cases.append((x, Word.parse(u, x.alphabet), Word.parse(v, x.alphabet)))
    for x, u, v in cases:
        base = flower_automaton(x)
        if len(u):
            yield build_aprime(base, u)
        if len(v):
            yield build_aprime(reverse(base), v.reversed())


def test_min_marked_matches_brute_force_on_both_sides():
    witnesses = []
    for aprime in _min_marked_instances():
        v = shortest_incompletable_min_marked(aprime)
        assert v == _brute_min_marked(aprime, aprime.alphabet.symbols[-1]), v.text
        witnesses.append(v.text)
    assert len(witnesses) == 13
    assert witnesses[-3:] == ["caa'", "ba'baab", "caa'"]


@lru_cache(maxsize=1)
def _aprime_halves():
    """(name, A′) for every nonempty half of: the canonical pairs of X_3..X_8;
    the least pairs of the ledger corpus, plain and letter-swapped; the least
    pairs of every synchronizing complete code at n·d ≤ 6."""
    from codesync import cerny_canonical_pair, reverse

    cases = [(f"X_{n}", cerny_family(n), cerny_canonical_pair(n)) for n in range(3, 9)]
    for i, x in enumerate(random_complete_sync_codes(150, seed=0, max_size=6)):
        cases.append((f"ledger #{i}", x, shortest_sync_pair(x, 18)))
        cases.append((f"ledger #{i} swapped", swap_letters(x), shortest_sync_pair(swap_letters(x), 18)))
    for x in small_class_languages("complete-codes"):
        cases.append((" ".join(x.word_strings()), x, shortest_sync_pair(x, 36)))
    out = []
    for name, x, pair in cases:
        if pair is None:
            continue
        base = flower_automaton(x)
        if len(pair.u):
            out.append((name + " left", build_aprime(base, pair.u)))
        if len(pair.v):
            out.append((name + " right", build_aprime(reverse(base), pair.v.reversed())))
    return tuple(out)


def _has_total_base(aprime) -> bool:
    """Every letter but the marked one, which comes last, is total."""
    return all(m and not m & (m - 1) for row in aprime.table for m in row[:-1])


def test_min_marked_matches_the_image_side_reference():
    # the preimage side, taken when the base letters are total, must
    # give the image side's least (marks, word) on every half
    halves = _aprime_halves()
    for name, aprime in halves:
        v = shortest_incompletable_min_marked(aprime)
        assert v == min_marked_reference(aprime, aprime.alphabet.symbols[-1]), name
    sides = [_has_total_base(aprime) for _, aprime in halves]
    assert 100 < sides.count(True) and 100 < sides.count(False)


def test_min_marked_takes_the_preimage_side_on_deterministic_letters(monkeypatch):
    from codesync import cerny_canonical_pair

    x8 = cerny_family(8)
    aprime = build_aprime(flower_automaton(x8), cerny_canonical_pair(8).u)
    counts = count_steps(monkeypatch)
    v = shortest_incompletable_min_marked(aprime)
    assert len(v) == 49
    assert counts["step_letter"] == 0 and 0 < counts["step_letter_back"] <= 300


def test_min_marked_keeps_the_image_side_on_a_suffix_code_right_half(monkeypatch):
    from codesync import is_prefix, reverse

    x = cerny_family(4).reversed()
    pair = shortest_sync_pair(x, 9)
    assert not is_prefix(x) and len(pair.u) == 0 and len(pair.v) == 9
    aprime = build_aprime(reverse(flower_automaton(x)), pair.v.reversed())
    counts = count_steps(monkeypatch)
    shortest_incompletable_min_marked(aprime)
    assert counts["step_letter_back"] == 0 and counts["step_letter"] > 0


def test_first_return_size_matches_the_listed_language_on_aprimes():
    from codesync import first_return_size

    for name, aprime in _aprime_halves():
        assert first_return_size(aprime) == first_return_language(aprime).size, name


def test_extract_w_on_prefix_example():
    x, aprime = prefix_example_aprime()
    base = flower_automaton(x)
    v = shortest_incompletable_min_marked(aprime)
    w1, u1, u2 = extract_w(base, w("aaa"), v)
    assert w1.text == "aaa"
    assert u1.text == "aa" and u2.text == "ε"
    assert len(w1) <= len(v)


def test_half_reduction_left_inclusion():
    x = lang(EXAMPLE_PREFIX)
    record = half_reduction(x, w("aaa"), "left")
    w1 = record.w
    assert w1.text == "aaa"
    base = flower_automaton(x)
    full = base.full_mask
    assert base.step_word(full, w1) & ~base.step_word(full, w("aaa")) == 0
    assert record.incompletable.text == "aaa'"
    assert record.y_language is not None and record.y_language.size <= x.size


def test_half_reduction_trivial_epsilon():
    x = lang(EXAMPLE_PREFIX)
    record = half_reduction(x, Word.epsilon(BINARY), "right")
    assert record.w.text == "ε" and record.skipped


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
        word = half_reduction(x, pair.v, "right").w
        exercised += 1
        base = flower_automaton(x)
        full = base.full_mask
        assert base.step_word(full, word, back=True) & ~base.step_word(full, pair.v, back=True) == 0
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

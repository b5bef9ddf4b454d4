"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is exact and pinned; runtime ceilings come from the
criteria themselves.  Golden values marked as such were computed once by the
exhaustive sweeps below and frozen.
"""

from __future__ import annotations

import itertools
import math
import time

from codesync import (
    LengthProfile,
    SyncPair,
    Word,
    build_aprime,
    cerny_canonical_pair,
    cerny_family,
    determinize_minimize,
    find_completion,
    first_return_language,
    flower_automaton,
    is_code,
    is_complete_language,
    is_constant,
    is_deterministic,
    is_prefix,
    is_sync_pair,
    is_synchronizing_code,
    kraft_canonical,
    road_colored_sync_code,
    shortest_incompletable,
    shortest_sync_pair,
    sync_word_shortest,
    synchronizing_pair_via_reduction,
    verify_main_bound,
)
from codesync.completeness import brute_force_incompletable
from codesync.encoding import Encoding, apply_encoding
from codesync.errors import SubsetCapExceeded
from codesync.experiments import estimate_R, random_complete_sync_codes
from codesync.synchrony import _code_pair_check, _context_families, _general_pair_check

from helpers import (
    BINARY,
    EXAMPLE_PREFIX,
    EXAMPLE_SET,
    binary_image_profile,
    exhaustive_corpus,
    factorization_count,
    has_completion_brute,
    lang,
    random_complete_code,
    random_language_sample,
    shortest_ambiguous_word,
    star_words_eager,
    w,
)


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_example_reproduction():
    start = time.monotonic()
    x = lang(EXAMPLE_SET)

    witness = shortest_incompletable(x)
    assert witness is not None and len(witness) == 7
    known_witness = w("abbabba")
    assert find_completion(x, known_witness) is None
    assert not has_completion_brute(x, known_witness)

    for tup in itertools.product((0, 1), repeat=6):
        assert find_completion(x, Word(BINARY, tup)) is not None

    assert is_sync_pair(x, w("ab"), w("ba"))
    assert shortest_sync_pair(x, budget=3) is None  # exhaustive: nothing below 4
    best = shortest_sync_pair(x, budget=4)
    assert best is not None and best.total_length == 4

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(
        "1",
        f"shortest incompletable length 7 (abbabba), all 64 length-6 words "
        f"completable, (ab, ba) synchronizing, no pair below |uv| = 4 "
        f"[{elapsed:.2f}s < 5s]",
    )


def test_criterion_2_marked_automaton_reproduction():
    start = time.monotonic()
    x = lang(EXAMPLE_PREFIX)
    aprime = build_aprime(flower_automaton(x), w("aaa"))

    expected_edges = sorted(
        [
            ("1", "a", "1"), ("1", "b", "b"),
            ("b", "a", "ba"), ("b", "a'", "ba"), ("b", "b", "1"), ("b", "a'", "1"),
            ("ba", "a", "baa"), ("ba", "a'", "baa"), ("ba", "b", "1"), ("ba", "a'", "1"),
            ("baa", "a", "1"), ("baa", "b", "1"),
        ]
    )
    named = sorted(
        (aprime.labels[q], aprime.alphabet.symbols[a], aprime.labels[t])
        for q, a, t in aprime.edges()
    )
    assert named == expected_edges

    y = first_return_language(aprime)
    expected = {
        "a", "ba'", "bb", "baa'", "bab", "ba'a'", "ba'b", "baaa", "baab",
        "baa'a", "baa'b", "ba'aa", "ba'ab", "ba'a'a", "ba'a'b",
    }
    assert set(y.word_strings()) == expected
    assert y.size == 4 == x.size

    out, trace = synchronizing_pair_via_reduction(
        x, SyncPair(u=w("aaa"), v=Word.epsilon(BINARY))
    )
    assert (out.u.text, out.v.text) == ("aaa", "ε")
    assert trace.left.incompletable.text == "aaa'"
    assert trace.bound_value == 12
    assert 2 * max(trace.left.v_length, trace.right.v_length) == 6 <= trace.bound_value
    assert trace.final_length <= trace.bound_value and trace.bound_ok

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(
        "2",
        f"A' has exactly the 12 expected marked edges, |Y| = 15 with ℓ(Y) = 4, pipeline "
        f"returned (aaa, ε), ledger 6 ≤ 12 [{elapsed:.2f}s < 1s]",
    )


def test_criterion_3_cerny_family():
    start = time.monotonic()
    reset_lengths = {}
    for n in (3, 4, 5, 6):
        xn = cerny_family(n)
        minimal = determinize_minimize(flower_automaton(xn))
        word = sync_word_shortest(minimal)
        assert word is not None
        assert len(word) == n * n - 3 * n + 3
        reset_lengths[n] = len(word)

        pair = cerny_canonical_pair(n)
        assert pair.total_length == (n - 1) ** 2
        assert is_sync_pair(xn, pair.u, pair.v)
    assert [reset_lengths[n] for n in (3, 4, 5, 6)] == [3, 7, 13, 21]
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(
        "3",
        f"reset lengths {reset_lengths} = n²−3n+3 and canonical pairs of "
        f"length (n−1)² all certified [{elapsed:.2f}s < 60s]",
    )


def test_criterion_4_oracle_equivalence():
    corpus = exhaustive_corpus()
    random_codes_sample = random_language_sample(20240817, 500, 4)
    random_si_sample = random_language_sample(271828, 500, 3)

    # is_code against brute-force factorization counting
    checked_code = 0
    for x in itertools.chain(corpus, random_codes_sample):
        limit = 8 if x.size <= 3 else 12
        witness = shortest_ambiguous_word(x, limit)
        assert is_code(x) == (witness is None), x.word_strings()
        if witness is not None:
            assert factorization_count(x, witness) >= 2
        checked_code += 1

    # shortest_incompletable against the context-enumeration oracle
    checked_si = 0
    for x in itertools.chain(corpus, random_si_sample):
        fast = shortest_incompletable(x)
        if fast is None:
            assert brute_force_incompletable(x, 3) is None, x.word_strings()
        else:
            slow = brute_force_incompletable(x, len(fast))
            assert slow is not None and len(slow) == len(fast), x.word_strings()
        checked_si += 1

    # code-path vs general checker on codes, all pairs with |uv| ≤ 6
    pairs_checked = 0
    codes = [x for x in corpus if is_code(x)]
    codes += [x for x in random_codes_sample if is_code(x)]
    for x in codes:
        automaton, fwd, bwd = _context_families(x)
        star = star_words_eager(x, 6)
        for (lu, wu), (lv, wv) in itertools.product(star, star):
            if lu + lv > 6:
                continue
            u, v = Word(BINARY, wu), Word(BINARY, wv)
            assert _code_pair_check(automaton, u, v) == _general_pair_check(
                automaton, fwd, bwd, u, v
            ), (x.word_strings(), u.text, v.text)
            pairs_checked += 1

    report(
        "4",
        f"zero disagreements: is_code on {checked_code} languages, "
        f"incompletable-word oracles on {checked_si} languages, "
        f"pair checkers on {pairs_checked} pairs over {len(codes)} codes",
    )


def test_criterion_5_property_suites():
    corpus = exhaustive_corpus()

    # constant/pair duality, both directions, on corpus codes with small pairs
    forward = backward = 0
    for x in corpus[::3]:
        if not is_code(x):
            continue
        pair = shortest_sync_pair(x, budget=4)
        if pair is not None:
            assert is_constant(x, pair.u + pair.v), x.word_strings()
            forward += 1
        for k in (1, 2, 3):
            for tup in itertools.product((0, 1), repeat=k):
                c = Word(BINARY, tup)
                from codesync.languages import kleene_membership

                if kleene_membership(x, c) and is_constant(x, c):
                    assert is_sync_pair(x, c, c), (x.word_strings(), c.text)
                    backward += 1
    assert forward > 10 and backward > 10

    # flower determinism ⟺ prefix
    determinism_checked = 0
    for x in itertools.chain(corpus, random_language_sample(606, 500, 3)):
        assert is_deterministic(flower_automaton(x)) == is_prefix(x)
        determinism_checked += 1

    # marked-reduction invariants on pipeline runs: Y incomplete,
    # ℓ(Y) ≤ ℓ(X), and the extraction inclusion never raising
    runs = 0
    for x in random_complete_sync_codes(30, seed=505, max_size=4):
        _, trace = synchronizing_pair_via_reduction(x)
        for side in (trace.left, trace.right):
            if side.skipped:
                continue
            assert side.y_language is not None
            assert side.y_language.size <= x.size
            assert not is_complete_language(side.y_language)
        runs += 1
    assert runs == 30

    # completeness/synchronization transfer through encodings, both directions
    import random as _random

    rng = _random.Random(1234)
    checked = inconclusive = 0
    sync_true = sync_false = complete_true = complete_false = 0
    while checked < 200:
        d = rng.choice((2, 3))
        source = random_complete_code(rng, d, 3 if d == 2 else 2)
        image = kraft_canonical(LengthProfile(2, binary_image_profile(rng, d)))
        try:
            h = Encoding.from_code(source.alphabet, image)
            hx = apply_encoding(h, source)
            sync_x = is_synchronizing_code(source)
            sync_h = is_synchronizing_code(image)
            sync_hx = is_synchronizing_code(hx)
            complete_x = is_complete_language(source)
            complete_h = is_complete_language(image)
            complete_hx = is_complete_language(hx)
        except SubsetCapExceeded:
            inconclusive += 1
            continue
        assert complete_hx == (complete_x and complete_h)
        assert sync_hx == (sync_x and sync_h)
        checked += 1
        sync_true += sync_hx
        sync_false += not sync_hx
        complete_true += complete_hx
        complete_false += not complete_hx
    # also exercise the transfer with incomplete languages on the source side
    incomplete_checked = 0
    for x in random_language_sample(31337, 60, 2):
        if is_complete_language(x):
            continue
        image = kraft_canonical(LengthProfile(2, binary_image_profile(rng, 2)))
        h = Encoding.from_code(x.alphabet, image)
        assert not is_complete_language(apply_encoding(h, x))
        incomplete_checked += 1
    assert incomplete_checked > 20
    assert checked >= 200
    assert inconclusive / (checked + inconclusive) < 0.05
    assert sync_true and sync_false and complete_true

    report(
        "5",
        f"constant/pair duality ({forward} pairs / {backward} constants), "
        f"determinism⟺prefix on {determinism_checked} languages, marked-reduction "
        f"invariants on {runs} pipeline runs, encoding transfers on {checked} "
        f"instances ({inconclusive} inconclusive, {incomplete_checked} incomplete-side)",
    )


def all_small_complete_profiles(max_words: int = 8):
    """Every (d, lengths) with Kraft sum 1, gcd 1, at most max_words lengths."""
    out = []
    for d in range(2, max_words + 1):
        seen = set()
        frontier = {(1,) * d}  # root expanded once
        while frontier:
            new = set()
            for profile in frontier:
                if profile in seen:
                    continue
                seen.add(profile)
                if math.gcd(*profile) == 1:
                    out.append((d, profile))
                for i, k in enumerate(profile):
                    grown = tuple(
                        sorted(profile[:i] + profile[i + 1:] + (k + 1,) * d)
                    )
                    if len(grown) <= max_words:
                        new.add(grown)
            frontier = new - seen
    return sorted(set(out))


def test_criterion_6_road_colored_constructor():
    profiles = all_small_complete_profiles(8)
    assert profiles
    slowest = 0.0
    for d, lengths in profiles:
        profile = LengthProfile(d, lengths)
        assert profile.kraft_sum == 1 and profile.gcd == 1
        start = time.monotonic()
        y = road_colored_sync_code(profile)
        elapsed = time.monotonic() - start
        slowest = max(slowest, elapsed)
        assert elapsed < 30.0, (d, lengths)
        assert sorted(len(u) for u in y.words) == sorted(lengths)
        assert is_prefix(y)
        assert is_complete_language(y)
        assert is_synchronizing_code(y)
    report(
        "6",
        f"{len(profiles)} complete gcd-1 profiles with ≤ 8 codewords all "
        f"yielded verified synchronizing complete prefix codes "
        f"(slowest {slowest:.2f}s < 30s)",
    )


def test_criterion_7_main_bound_on_seeded_codes():
    codes = random_complete_sync_codes(100, seed=11, max_size=5)
    assert len(codes) == 100
    results = verify_main_bound(codes, budget=14)
    failures = [r for r in results if not r.ok]
    if failures:
        for r in failures:
            trace = "no trace" if r.trace is None else r.trace.to_json()
            print(f"BOUND FAILURE on {r.language.word_strings()}: {r.detail}\n{trace}")
    assert not failures
    prefix_instances = sum(1 for x in codes if is_prefix(x))
    assert prefix_instances > 0 and prefix_instances < 100
    report(
        "7",
        f"reduction bound ledger held on all 100 seeded complete synchronizing "
        f"codes (ℓ ≤ 5), prefix ledger on the {prefix_instances} prefix instances",
    )


def test_criterion_8_prefix_quadratic_sweep():
    # golden exact values, first computed by these sweeps: R_P = 5 at n = 2
    # (witness {aa, ab, bb}) and 11 at n = 3
    golden = {2: 5, 3: 11}
    values = {}
    for n in (2, 3):
        rep = estimate_R("prefix", n, 2)
        values[n] = rep.value
        assert rep.value <= 2 * n * n
        assert rep.value == golden[n]
        # the recorded witness re-verifies definitionally
        x = lang(list(rep.witness_language))
        witness = shortest_incompletable(x)
        assert len(witness) == rep.value
        assert not has_completion_brute(x, witness)
    report(
        "8",
        f"exhaustive incomplete-binary-prefix sweeps: max witness lengths "
        f"{values} within bounds {{2: 8, 3: 18}}",
    )

"""The shared subset-BFS kernel, its cap rule, and the per-language memo."""

from __future__ import annotations

import gc
import weakref

import pytest

from codesync import errors
from codesync import (
    SubsetCapExceeded,
    Word,
    brute_force_incompletable,
    build_aprime,
    cerny_canonical_pair,
    cerny_family,
    determinize_minimize,
    flower_automaton,
    is_sync_pair,
    is_synchronizing_code,
    reverse,
    shortest_incompletable,
    shortest_incompletable_min_marked,
    shortest_sync_pair,
    subset_bfs,
    sync_word_shortest,
)
from codesync.completeness import _incompletable_word
from codesync.experiments import enumerate_class_languages
from codesync.synchrony import _star_reps

from helpers import EXAMPLE_PREFIX, EXAMPLE_SET, lang, w


def test_kernel_finds_least_word_and_lists_subsets_in_bfs_order():
    a = flower_automaton(lang(EXAMPLE_SET))
    order, word = subset_bfs(a, a.full_mask, goal=lambda t: not t)
    assert word.text == "abbabba"
    assert order[0] == a.full_mask and 0 not in order
    assert len(set(order)) == len(order)
    everything, none = subset_bfs(a, a.full_mask)
    assert none is None and everything[: len(order)] == order


def test_kernel_tests_goal_on_start_and_before_cap(monkeypatch):
    a = flower_automaton(lang(EXAMPLE_SET))
    _, empty = subset_bfs(a, a.full_mask, goal=lambda t: t == a.full_mask)
    assert empty == Word.epsilon(a.alphabet)
    order, word = subset_bfs(a, a.full_mask, goal=lambda t: not t)
    # the cap counts distinct nonempty subsets, start included
    monkeypatch.setattr(errors, "SUBSET_CAP", len(order))
    assert subset_bfs(a, a.full_mask, goal=lambda t: not t)[1] == word
    monkeypatch.setattr(errors, "SUBSET_CAP", len(order) - 1)
    with pytest.raises(SubsetCapExceeded) as exc:
        subset_bfs(a, a.full_mask, goal=lambda t: not t, what="probe")
    assert exc.value.context == "probe"


def test_kernel_backward_steps_match_the_reversed_automaton():
    a = flower_automaton(cerny_family(4))
    init = 1 << a.initial
    assert subset_bfs(a, init, back=True) == subset_bfs(reverse(a), init)


INCOMPLETE_PREFIX = ("aa", "ab", "ba")


def _prefix_aprime():
    x = lang(EXAMPLE_PREFIX)
    return build_aprime(flower_automaton(x), w("aaa"))


@pytest.mark.parametrize(
    "call, context",
    [
        pytest.param(lambda: _incompletable_word(flower_automaton(cerny_family(4))),
                     "incompletable-word search",
                     id="_incompletable_word"),
        (lambda: shortest_incompletable(lang(EXAMPLE_SET)), "incompletable-word search"),
        # the DFA is built at collection, since its subset construction is capped too
        (lambda dfa=determinize_minimize(flower_automaton(cerny_family(4))): sync_word_shortest(dfa),
         "reset-word search"),
        (lambda: shortest_incompletable_min_marked(_prefix_aprime()),
         "marked incompletable search"),
        # an incomplete prefix code: complete prefix and suffix codes take the
        # reset-to-root search instead of the enumeration; the test of
        # synchronization is the pair search without a budget
        pytest.param(lambda: is_synchronizing_code(lang(INCOMPLETE_PREFIX)),
                     "sync-pair forward enumeration",
                     id="is_synchronizing_code-sync-pair forward enumeration"),
        (lambda: is_sync_pair(lang(EXAMPLE_SET), w("ab"), w("ba"), method="general"),
         "subset family closure"),
        (lambda: shortest_sync_pair(lang(INCOMPLETE_PREFIX), 9),
         "sync-pair forward enumeration"),
        (lambda: shortest_sync_pair(cerny_family(4), 9), "reset-to-root search"),
        # the pair search finishes each forward level first, so a cap small
        # enough to stop the backward side stops the forward side before it
        (lambda: list(_star_reps(f := flower_automaton(cerny_family(4)), (f, f.full_mask, None), True)),
         "sync-pair backward enumeration"),
    ],
)
def test_tiny_cap_raises_with_context(call, context, monkeypatch):
    monkeypatch.setattr(errors, "SUBSET_CAP", 1)
    with pytest.raises(SubsetCapExceeded) as exc:
        call()
    assert exc.value.cap == 1 and exc.value.context == context


def test_shortest_incompletable_words_match_brute_force():
    incomplete = 0
    for x in enumerate_class_languages("all", 2, 2):
        word = shortest_incompletable(x)
        if word is not None:
            incomplete += 1
            assert word == brute_force_incompletable(x, len(word)), x
    assert incomplete == 18


def test_language_memo_is_released_with_the_language():
    x = cerny_family(4)
    pair = cerny_canonical_pair(4)
    assert flower_automaton(x) is flower_automaton(x)
    assert is_sync_pair(x, pair.u, pair.v, method="general")
    ref = weakref.ref(x)
    del x
    gc.collect()
    assert ref() is None


def test_memo_races_only_recompute_the_same_values():
    import sys
    import threading

    x = lang(EXAMPLE_SET)
    results, errors = [], []

    def work():
        try:
            results.append((
                shortest_incompletable(x).text,
                is_sync_pair(x, w("ab"), w("ba"), method="general"),
                len(subset_bfs(flower_automaton(x), flower_automaton(x).full_mask)[0]),
            ))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == 8 and len(set(results)) == 1
    assert flower_automaton(x) is flower_automaton(x)

from __future__ import annotations

import hashlib
import inspect
import json

import pytest

from codesync import (
    SearchBudgetExceeded,
    estimate_C,
    estimate_R,
    is_code,
    is_complete_language,
    is_prefix,
    is_sync_pair,
    random_complete_sync_codes,
    shortest_incompletable,
    verify_main_bound,
)
from codesync import errors, experiments
from codesync.automata import flower_automaton, states_from_mask
from codesync.completeness import _incompletable_word
from codesync.errors import CodesyncError, InternalInvariantError, SubsetCapExceeded
from codesync.languages import _sardinas_patterson
from codesync.experiments import (
    CLASS_TAGS,
    CSV_HEADER,
    _PoolTrie,
    _PoolView,
    enumerate_class_languages,
    random_language,
    sample_class_languages,
)

from helpers import (
    class_masks_reference,
    enumerate_class_languages_reference,
    estimate_R_searching_every_member,
    estimate_reference,
    has_completion_brute,
    lang,
    w,
)


def test_estimate_R_single_letter():
    report = estimate_R("all", 1, 2)
    assert report.value == 1
    assert report.witness == ("b",)


def test_estimate_R_prefix_class_small():
    report = estimate_R("prefix", 2, 2)
    assert report.value == 5  # exhaustively computed golden value
    assert report.value <= 2 * 2 * 2
    # the recorded witness really is incompletable
    x = lang(list(report.witness_language))
    w = shortest_incompletable(x)
    assert w is not None and len(w) == report.value
    assert not has_completion_brute(x, w)


def test_estimate_R_includes_running_example():
    report = estimate_R("all", 3, 2)
    assert report.value >= 7  # the running example set is enumerated at n = 3


def test_estimate_R_monotone_in_n():
    values = [estimate_R("all", n, 2).value for n in (1, 2, 3)]
    assert values == sorted(values)


def test_estimate_R_matches_brute_force_maximum():
    # independent computation of the same exhaustive maximum via the
    # context-enumeration oracle
    from codesync.completeness import brute_force_incompletable
    from codesync.experiments import enumerate_class_languages

    for n in (1, 2):
        report = estimate_R("all", n, 2)
        brute_max = 0
        for x in enumerate_class_languages("all", n, 2):
            found = brute_force_incompletable(x, 6)
            if found is not None:
                brute_max = max(brute_max, len(found))
        assert report.value == brute_max


def test_estimate_R_cap_suggests_random_mode(monkeypatch):
    monkeypatch.setattr(errors, "INSTANCE_CAP", 100)
    with pytest.raises(SearchBudgetExceeded):
        estimate_R("all", 3, 2)


@pytest.mark.parametrize("call", [
    lambda: estimate_R("all", 40, 2),
    lambda: estimate_C("codes", 40, 2),
    lambda: next(enumerate_class_languages("all", 40, 2)),
])
def test_instance_cap_is_checked_before_the_pool_is_built(monkeypatch, call):
    # a pool of 2^41 − 2 words must be refused from its size alone
    def no_pool(alphabet, n):
        raise AssertionError("the word pool was built")

    monkeypatch.setattr(experiments, "_word_pool", no_pool)
    with pytest.raises(SearchBudgetExceeded):
        call()


@pytest.mark.parametrize("call", [
    lambda: estimate_R("bogus", 40, 2),
    lambda: estimate_C("bogus", 40, 2),
    lambda: next(enumerate_class_languages("bogus", 40, 2)),
])
def test_class_tag_is_checked_before_the_pool_is_built(monkeypatch, call):
    # an unknown tag is a usage error, not a resource cap, at any size
    def no_pool(alphabet, n):
        raise AssertionError("the word pool was built")

    monkeypatch.setattr(experiments, "_word_pool", no_pool)
    with pytest.raises(CodesyncError, match="unknown class tag") as caught:
        call()
    assert not isinstance(caught.value, SearchBudgetExceeded)


def test_instance_cap_compares_the_exponent_exactly(monkeypatch):
    # 2^6 candidates at (2, 2): a cap of 64 admits them, 63 does not
    monkeypatch.setattr(errors, "INSTANCE_CAP", 64)
    assert len(list(enumerate_class_languages("all", 2, 2, False))) == 63
    monkeypatch.setattr(errors, "INSTANCE_CAP", 63)
    with pytest.raises(SearchBudgetExceeded):
        next(enumerate_class_languages("all", 2, 2, False))


def test_estimate_C_complete_codes_size_one():
    report = estimate_C("complete-codes", 1, 2)
    assert report.value == 0
    assert report.witness_language == ("a", "b")
    assert report.witness == ("ε", "ε")
    assert report.instance_count == 1


def test_estimate_C_complete_prefix_three():
    report = estimate_C("complete-prefix", 3, 2)
    assert report.value == 7  # exhaustively computed golden value
    assert report.value >= 4  # the X_3 lower bound (n-1)^2
    assert report.inconclusive_count == 0
    # the recorded witness pair re-verifies through the definitional checker
    x = lang(list(report.witness_language))
    from codesync import Word

    u = Word.parse(report.witness[0], x.alphabet)
    v = Word.parse(report.witness[1], x.alphabet)
    assert is_sync_pair(x, u, v, method="general")


def test_random_reports_are_reproducible():
    a = estimate_R("all", 3, 2, mode="random", samples=40, seed=123)
    b = estimate_R("all", 3, 2, mode="random", samples=40, seed=123)
    assert a.to_dict()["value"] == b.to_dict()["value"]
    assert a.witness_language == b.witness_language
    assert a.witness == b.witness


def test_enumeration_class_filters():
    prefix = list(enumerate_class_languages("prefix", 2, 2))
    for x in prefix:
        assert is_prefix(x)
    codes = list(enumerate_class_languages("codes", 2, 2))
    for x in codes:
        assert is_code(x)
    assert len(codes) >= len(prefix)


def test_enumeration_canonicalization_halves_orbit():
    canon = list(enumerate_class_languages("all", 2, 2, canonicalize=True))
    full = list(enumerate_class_languages("all", 2, 2, canonicalize=False))
    assert len(full) == 2 ** 6 - 1
    assert len(canon) < len(full)


@pytest.mark.parametrize("canonicalize", [True, False])
@pytest.mark.parametrize("n,d", [
    (1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (3, 2),
    (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (1, 5), (1, 6),
])
def test_enumeration_matches_reference(n, d, canonicalize):
    # the member generator must yield exactly the languages, in exactly the
    # order, of building every candidate and testing it word by word
    tags = ("prefix", "complete-prefix") if (n, d) == (3, 2) else CLASS_TAGS
    for tag in tags:
        got = [x.word_strings() for x in enumerate_class_languages(tag, n, d, canonicalize)]
        want = [
            x.word_strings()
            for x in enumerate_class_languages_reference(tag, n, d, canonicalize)
        ]
        assert got == want, (tag, n, d, canonicalize)


def test_class_masks_match_the_table_free_reference():
    # every class at (3, 2), with and without canonicalization, against one
    # plain pass over all 2^14 pool masks
    trie = _PoolTrie(3, 2)
    want = class_masks_reference(3, 2)
    for (tag, canonicalize), masks in want.items():
        assert list(trie.masks(tag, canonicalize)) == masks, (tag, canonicalize)
    assert len(want["codes", False]) == 1033 and len(want["complete-codes", False]) == 49


def test_code_masks_grow_only_from_members(monkeypatch):
    # only a candidate S | 1<<i with S a code and a Kraft sum ≤ d^n reaches
    # the closure (the 2^p scan ran it 3,005 times); prefix classes never do
    calls = []

    def counted(words):
        calls.append(len(words))
        return _sardinas_patterson(words)

    monkeypatch.setattr(experiments, "_sardinas_patterson", counted)
    trie = _PoolTrie(3, 2)
    assert len(list(trie.masks("codes", False))) == 1033
    assert len(calls) <= 1725
    calls.clear()
    for tag in ("prefix", "complete-prefix"):
        for canonicalize in (True, False):
            list(trie.masks(tag, canonicalize))
    assert calls == []
    # a complete class drops, before the closure, every candidate whose sum
    # stays below d^n with all later pool words added (1,725 closures without)
    assert len(list(trie.masks("complete-codes", False))) == 49
    assert len(calls) <= 811


def test_enumeration_keeps_the_argument_names_the_benchmark_binds():
    # the benchmark tracer binds n and d by name to count the candidates of
    # each enumeration; renaming them would silently zero that counter
    import inspect

    params = inspect.signature(enumerate_class_languages).parameters
    assert list(params)[:3] == ["class_tag", "n", "d"]


@pytest.mark.parametrize("n,d,stride", [(4, 1, 1), (6, 1, 1), (2, 2, 1), (1, 3, 1), (2, 3, 1), (1, 4, 1), (3, 2, 7)])
def test_pool_view_steps_as_the_flower(n, d, stride):
    # every mask (every 7th canonical one at (3, 2)): with flower state k
    # relabelled to the k-th live trie node, the view and the flower agree on
    # every singleton subset and on the full state set, in both directions
    trie = _PoolTrie(n, d)
    if stride == 1:
        masks = range(1, 2 ** len(trie.pool))
    else:
        masks = list(trie.masks("all", True))[::stride]
    for bits in masks:
        view = _PoolView(trie, bits)
        flower = flower_automaton(trie.language(bits))
        nodes = states_from_mask(view.full_mask)
        assert ["1"] + [trie.pool[j - 1].text for j in nodes[1:]] == list(flower.labels)

        def relabel(mask):
            return sum(1 << j for k, j in enumerate(nodes) if mask >> k & 1)

        for subset in [1 << k for k in range(flower.n_states)] + [flower.full_mask]:
            for a in range(d):
                assert view.step_letter(relabel(subset), a) == relabel(flower.step_letter(subset, a))
                assert view.step_letter_back(relabel(subset), a) == relabel(flower.step_letter_back(subset, a))


@pytest.mark.parametrize("n,d,codes,complete", [
    (3, 2, 1033, 49), (2, 3, 938, 14), (2, 2, 28, 6), (1, 4, 15, 1),
])
def test_kraft_sums_bound_every_code_and_decide_completeness(n, d, codes, complete):
    # McMillan: a finite code has Kraft sum Σ d^(n−|x|) ≤ d^n; Schützenberger:
    # a finite code is complete iff the sum is exactly d^n.  Checked over every
    # pool mask against the closure and the completeness search on the view.
    trie = _PoolTrie(n, d)
    found = {"codes": 0, "complete": 0}
    for bits in range(1, 2 ** len(trie.words)):
        members = [u for i, u in enumerate(trie.words) if bits >> i & 1]
        if not _sardinas_patterson(members):
            continue
        total = sum(d ** (n - len(u)) for u in members)
        assert total <= d ** n, members
        is_complete = _incompletable_word(_PoolView(trie, bits)) is None
        assert is_complete == (total == d ** n), members
        found["codes"] += 1
        found["complete"] += is_complete
    assert found == {"codes": codes, "complete": complete}


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3), (1, 4)])
def test_exhaustive_reports_match_the_reference(n, d):
    # the view-based sweeps against the language-level searches on every
    # member of the reference enumeration
    for tag in CLASS_TAGS:
        got = []
        for estimate in (estimate_R, estimate_C):
            report = estimate(tag, n, d).to_dict()
            del report["elapsed_seconds"]
            got.append(report)
        assert tuple(got) == estimate_reference(tag, n, d), (tag, n, d)


def test_R_sweep_builds_no_automaton_per_candidate(monkeypatch):
    # a machine-independent guard on the sweep's work: a language and its
    # flower are built only when the running maximum grows, which happens at
    # most ``value`` times, against 8,255 canonical candidates
    from codesync.automata import Automaton
    from codesync.languages import FiniteLanguage

    builds = {Automaton: 0, FiniteLanguage: 0}
    for cls in builds:
        def counted(self, _init=cls.__post_init__, _cls=cls):
            builds[_cls] += 1
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    report = estimate_R("all", 3, 2)
    assert report.value == 13
    assert 1 <= builds[Automaton] <= report.value + 2
    assert 1 <= builds[FiniteLanguage] <= report.value + 2


def test_C_sweep_builds_no_automaton_per_candidate(monkeypatch):
    # the code-class C sweep tests and searches each member on its view, so a
    # language and its flower are built only when the maximum grows, against
    # 531 codes among the 8,255 canonical candidates
    from codesync.automata import Automaton
    from codesync.languages import FiniteLanguage

    builds = {Automaton: 0, FiniteLanguage: 0}
    for cls in builds:
        def counted(self, _init=cls.__post_init__, _cls=cls):
            builds[_cls] += 1
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    report = estimate_C("codes", 3, 2)
    assert report.value == 9
    assert 1 <= builds[Automaton] <= report.value + 2
    assert 1 <= builds[FiniteLanguage] <= report.value + 2


def test_C_all_sweep_builds_no_language_per_member(monkeypatch):
    # an ``all`` member, code or not, is searched on its view like the code
    # classes' members, so a language is built only when the maximum grows,
    # against 751 canonical candidates
    from codesync.languages import FiniteLanguage

    builds = 0

    def counted(self, _init=FiniteLanguage.__post_init__):
        nonlocal builds
        builds += 1
        _init(self)

    monkeypatch.setattr(FiniteLanguage, "__post_init__", counted)
    assert estimate_C("all", 2, 3).value == 4
    assert 1 <= builds <= 10


def test_C_all_sweep_excludes_non_synchronizing_members_exactly():
    # of the 751 canonical members at (2, 3), {aa}, A² on two letters and A²
    # on three are codes with no pair; every other member has one of length
    # at most 4
    report = estimate_C("all", 2, 3)
    assert (report.value, report.witness_language, report.witness) == (4, ("ab", "ba"), ("ε", "abba"))
    assert (report.instance_count, report.inconclusive_count) == (748, 0)


def test_C_sweep_rechecks_the_view_on_the_flower(monkeypatch):
    # with no forward steps the view only finds pairs (ε, v), and at (3, 2)
    # some code's shortest pair on its flower is shorter than any of them
    monkeypatch.setattr(_PoolView, "step_letter", lambda self, mask, a: 0)
    with pytest.raises(InternalInvariantError):
        estimate_C("codes", 3, 2)


def test_R_sweep_rechecks_the_view_on_the_flower(monkeypatch):
    # a view that finds every candidate incompletable by "a" disagrees with
    # the flower of {a}, whose least incompletable word is "b"
    monkeypatch.setattr(_PoolView, "step_letter", lambda self, mask, a: 0)
    with pytest.raises(InternalInvariantError):
        estimate_R("all", 2, 2)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_R_sweep_matches_a_search_on_every_member(n, d):
    # the sweep that reuses subsets' words against one that searches each
    # member: same value, first maximizer, witness and instance count
    for tag in CLASS_TAGS:
        report = estimate_R(tag, n, d).to_dict()
        del report["elapsed_seconds"]
        assert report == estimate_R_searching_every_member(tag, n, d), (tag, n, d)


def test_R_answers_read_off_subsets_are_the_searched_ones(monkeypatch):
    # each member that a subset decides gets the answer a fresh search gives,
    # and its word fails the definitional completability test
    searched = []

    def counted(view):
        searched.append(view.members)
        return _incompletable_word(view)

    monkeypatch.setattr(experiments, "_incompletable_word", counted)
    trie = _PoolTrie(2, 2)
    reused = 0
    for tag in CLASS_TAGS:
        evaluate = experiments._incompletable_from_subsets()
        for bits in trie.masks(tag, True):
            searched.clear()
            view = _PoolView(trie, bits)
            found = evaluate(view)
            word = _incompletable_word(view)
            assert found == (None if word is None else (len(word), (word,))), (tag, bits)
            if searched:
                continue
            reused += 1
            language = trie.language(bits)
            if word is None:
                assert is_complete_language(language)
            else:
                assert not has_completion_brute(language, word), (tag, bits)
    assert reused >= 18


def test_R_sweep_searches_only_members_no_subset_decides(monkeypatch):
    # a machine-independent guard on the work: a member with a complete
    # S ∖ {x}, or whose subsets' largest least word still sends its full
    # mask to ∅, runs no search (one search per member made 8,255)
    calls = []

    def counted(view):
        calls.append(view.members)
        return _incompletable_word(view)

    monkeypatch.setattr(experiments, "_incompletable_word", counted)
    report = estimate_R("all", 3, 2).to_dict()
    got = tuple(report[k] for k in ("value", "witness_language", "witness", "instances", "inconclusive"))
    assert got == SWEEP_REPORTS["R", "all"]
    assert len(calls) <= 500


def test_R_evaluator_stores_each_word_once(monkeypatch):
    # at (3, 2) the searches find 441 words but only 131 distinct ones, and
    # ``found`` keeps each of them once after its two entries without a word
    evaluators = []
    make = experiments._incompletable_from_subsets

    def kept():
        evaluators.append(make())
        return evaluators[-1]

    monkeypatch.setattr(experiments, "_incompletable_from_subsets", kept)
    report = estimate_R("all", 3, 2).to_dict()
    assert report["value"] == SWEEP_REPORTS["R", "all"][0]
    found = inspect.getclosurevars(evaluators[0]).nonlocals["found"]
    words = [word.indices for _, word in found[2:]]
    assert len(words) == len(set(words)) == 131


def test_a_small_subset_cap_still_fails_loudly(monkeypatch):
    # the fourth member searched, {ab}, stores 3 subsets; members decided from
    # a subset run no search, so only the searched ones can reach the cap
    monkeypatch.setattr(errors, "SUBSET_CAP", 2)
    with pytest.raises(SubsetCapExceeded):
        estimate_R("all", 3, 2)


@pytest.mark.parametrize("call", [
    lambda: estimate_R("all", 0, 2),
    lambda: estimate_R("all", -1, 2),
    lambda: estimate_C("codes", 0, 2),
    lambda: estimate_C("complete-codes", -1, 2),
    lambda: estimate_R("codes", 2, 2, mode="random", samples=0),
    lambda: estimate_C("codes", 2, 2, mode="random", samples=-3),
])
def test_estimates_reject_meaningless_sizes(call):
    with pytest.raises(CodesyncError):
        call()


SWEEP_REPORTS = {
    ("R", "prefix"): (11, ["aaa", "aab", "aba", "abb", "baa", "bab", "bbb"], ["bbaabbaabba"], 335, 0),
    ("R", "all"): (13, ["ba", "aaa", "aab", "aba", "abb", "bab", "bbb"], ["baaaabaaaabba"], 3339, 0),
    ("C", "complete-prefix"): (7, ["aa", "aba", "abb", "baa", "bab", "bba", "bbb"], ["aababaa", "ε"], 13, 0),
    ("C", "codes"): (9, ["aaa", "aba", "abb", "baa", "bab", "bbb"], ["ε", "aaaabbaaa"], 527, 0),
    ("C", "complete-codes"): (7, ["aa", "aab", "aba", "abb", "bab", "bba", "bbb"], ["ε", "aababaa"], 26, 0),
    ("C", "prefix"): (9, ["aaa", "aba", "abb", "baa", "bab", "bbb"], ["ε", "aaaabbaaa"], 346, 0),
    ("R", "codes"): (11, ["aaa", "aab", "aba", "abb", "baa", "bab", "bbb"], ["bbaabbaabba"], 503, 0),
    ("R", "complete-codes"): (None, None, None, 0, 0),
}


def test_random_complete_prefix_sweep_is_pinned():
    # (value, witness language, witness, instances, inconclusive) of a seeded
    # sample at (4, 2): every sampled code synchronizes and counts, and none
    # is inconclusive, since the pair search has no budget
    report = estimate_C("complete-prefix", 4, 2, mode="random", samples=40, seed=3).to_dict()
    got = tuple(report[k] for k in ("value", "witness_language", "witness", "instances", "inconclusive"))
    assert got == (
        9, ["aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbba", "bbbb"], ["abbbabbba", "ε"], 35, 0,
    )


@pytest.mark.parametrize("kind,tag", list(SWEEP_REPORTS))
def test_exhaustive_sweeps_at_three_are_pinned(kind, tag):
    # value, witness language, witness and counts of the n = 3 binary sweeps;
    # the witnesses depend on the enumeration order
    report = (estimate_R if kind == "R" else estimate_C)(tag, 3, 2).to_dict()
    got = tuple(report[k] for k in ("value", "witness_language", "witness", "instances", "inconclusive"))
    assert got == SWEEP_REPORTS[kind, tag]


@pytest.mark.slow
def test_C_all_at_three_is_fourteen():
    # the exact (3, 2) ``all`` maximum, with no member inconclusive (about 2 s)
    report = estimate_C("all", 3, 2).to_dict()
    got = tuple(report[k] for k in ("value", "witness_language", "witness", "instances", "inconclusive"))
    assert got == (
        14, ["aa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb"], ["aaabbaa", "aababaa"], 8251, 0,
    )
    u, v = (w(t) for t in report["witness"])
    assert is_sync_pair(lang(report["witness_language"]), u, v, method="general")


def test_random_language_distribution_shape():
    import random as _random

    rng = _random.Random(0)
    for _ in range(100):
        x = random_language(rng, 3, 2)
        assert 1 <= len(x) <= 6
        assert x.size <= 3


def test_sample_class_languages_seeded():
    out = list(sample_class_languages("codes", 3, 2, samples=10, seed=9))
    assert len(out) == 10
    for x in out:
        assert is_code(x)


def test_sample_complete_classes_uses_tree_generator():
    out = list(sample_class_languages("complete-prefix", 3, 2, samples=8, seed=3))
    assert len(out) == 8
    for x in out:
        assert is_prefix(x) and is_complete_language(x)
    mixed = list(sample_class_languages("complete-codes", 3, 2, samples=12, seed=3))
    assert any(not is_prefix(x) for x in mixed)  # reversed instances appear


@pytest.mark.parametrize("tag", ["complete-codes", "complete-prefix"])
def test_a_complete_class_draw_outside_its_class_raises(monkeypatch, tag):
    """A letter-permuted Kraft tree is a complete code by theorem: one that
    fails its class test raises with the draw instead of being redrawn."""
    calls = []
    real = experiments._in_class

    def first_fails(language, class_tag):
        calls.append(language)
        return len(calls) > 1 and real(language, class_tag)

    monkeypatch.setattr(experiments, "_in_class", first_fails)
    with pytest.raises(InternalInvariantError) as err:
        next(sample_class_languages(tag, 3, 2, samples=4, seed=3))
    assert err.value.details == {"words": calls[0].word_strings(), "class": tag, "index": 0}


def test_estimate_C_random_mode_complete_prefix():
    a = estimate_C("complete-prefix", 3, 2, mode="random", samples=25, seed=6)
    b = estimate_C("complete-prefix", 3, 2, mode="random", samples=25, seed=6)
    assert a.value == b.value and a.witness == b.witness
    assert a.value is not None and a.value <= 7  # the exhaustive maximum


RANDOM_REPORTS_DIGEST = "46a5b177bac871aa7856aed07d5153bd3ec7658e70cef656f30d02a514c01ec5"


def test_random_reports_are_pinned():
    """R and C in random mode for every class at (3, 2) and (2, 3), 40
    samples, seed 11: the digest of the reports without ``elapsed_seconds``
    pins the samplers' random streams and the sweep's fold."""
    reports = []
    for estimate in (estimate_R, estimate_C):
        for tag in CLASS_TAGS:
            for n, d in ((3, 2), (2, 3)):
                report = estimate(tag, n, d, mode="random", samples=40, seed=11).to_dict()
                del report["elapsed_seconds"]
                reports.append(report)
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == RANDOM_REPORTS_DIGEST


@pytest.mark.parametrize("tag", ["complete-codes", "complete-prefix"])
def test_random_complete_classes_on_one_letter(tag):
    # the complete codes on one letter are the words a^k: none is incomplete,
    # and only {a} synchronizes, with the pair (ε, ε)
    for x in sample_class_languages(tag, 3, 1, samples=20, seed=5):
        assert len(x) == 1 and set(x.words[0].text) == {"a"}
    assert estimate_R(tag, 3, 1, mode="random", samples=20, seed=5).value is None
    assert estimate_C(tag, 3, 1, mode="random", samples=20, seed=5).value in (None, 0)


def test_random_complete_sync_codes_properties():
    codes = random_complete_sync_codes(20, seed=4, max_size=4)
    assert len(codes) == 20
    n_prefix = sum(1 for x in codes if is_prefix(x))
    assert 0 < n_prefix < 20  # reversal really produces non-prefix instances
    for x in codes:
        assert is_code(x)
        assert is_complete_language(x)


def test_random_complete_sync_codes_are_pinned():
    """The seeded coloring draws fix the benchmark's ledger code set; the
    digest of its word lists was taken before the draws were shared with
    ``road_colored_sync_code``."""
    codes = random_complete_sync_codes(150, seed=0, max_size=6)
    digest = hashlib.sha256(json.dumps([x.word_strings() for x in codes]).encode()).hexdigest()
    assert digest == "23df4ec9ef03ef2bbe2257df4e9ac597064ccca2d62df873549e9c97b0add2f7"


def test_random_complete_sync_codes_raise_on_a_failed_recheck(monkeypatch):
    """A re-verification that fails is a broken theorem: it raises with the
    instance instead of dropping it and shifting the seeded corpus."""
    calls = []
    real = experiments.is_synchronizing_code

    def first_fails(language):
        calls.append(language)
        return len(calls) > 1 and real(language)

    monkeypatch.setattr(experiments, "is_synchronizing_code", first_fails)
    with pytest.raises(InternalInvariantError) as err:
        random_complete_sync_codes(3, seed=4, max_size=4)
    assert err.value.details["words"] == calls[0].word_strings()
    assert err.value.details["index"] == 0


def test_sync_complete_codes_have_kraft_one_and_coprime_lengths():
    # every finite synchronizing complete code must satisfy both conditions
    from fractions import Fraction
    from math import gcd

    for x in random_complete_sync_codes(30, seed=16, max_size=4):
        assert sum(Fraction(1, 2 ** len(u)) for u in x.words) == 1
        assert gcd(*(len(u) for u in x.words)) == 1


def test_verify_main_bound_smoke():
    codes = random_complete_sync_codes(10, seed=2, max_size=4)
    results = verify_main_bound(codes)
    assert all(r.ok for r in results)
    for r in results:
        assert r.trace is not None
        assert r.trace.final_length <= r.trace.bound_value


def test_verify_main_bound_named_instances():
    prefix_example = lang(["a", "baaa", "baab", "bab", "bb"])
    full = lang(["a", "b"])
    results = verify_main_bound([prefix_example, full])
    assert all(r.ok for r in results)
    assert results[0].trace.bound_value == 12  # 2·3 + 2·4 − 2
    assert results[0].trace.final_length <= 12
    assert results[1].trace.final_length == 0


def test_alphabet_sweep_probe():
    # sweeping d at fixed n probes how the worst case depends on the alphabet;
    # the reports themselves claim nothing beyond the enumerated instances
    values = {d: estimate_R("all", 2, d).value for d in (2, 3)}
    assert all(v is not None and v >= 1 for v in values.values())
    again = {d: estimate_R("all", 2, d).value for d in (2, 3)}
    assert values == again


def test_report_serialization():
    report = estimate_R("all", 1, 2)
    data = json.loads(report.to_json())
    assert data["kind"] == "R" and data["value"] == 1
    row = report.to_csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from codesync import (
    Alphabet,
    EpsilonNotAllowed,
    FiniteLanguage,
    NotInStar,
    ParseError,
    Word,
    cerny_canonical_pair,
    cerny_family,
    determinize_minimize,
    flower_automaton,
    is_code,
    is_complete_language,
    is_constant,
    is_prefix,
    is_sync_pair,
    is_synchronizing_code,
    is_synchronizing_dfa,
    shortest_sync_pair,
    sync_word_shortest,
)
from codesync.automata import Automaton
from codesync.errors import DEFAULT_SUBSET_CAP, AutomatonContractError, InternalInvariantError
from codesync import synchrony
from codesync.synchrony import _one_sided_flower, _one_sided_pair, _pair_search

from helpers import (
    BINARY,
    EXAMPLE_PREFIX,
    EXAMPLE_SET,
    count_steps,
    exhaustive_corpus,
    general_pair_reference,
    lang,
    one_sided_pair_reference,
    random_complete_code,
    random_language_sample,
    shortest_sync_pair_eager,
    small_class_languages,
    synchronizing_dfa_reference,
    swap_letters,
    synchronizes_reference,
    w,
)


def test_known_pairs_certify():
    x = lang(EXAMPLE_SET)
    assert is_sync_pair(x, w("ab"), w("ba"))
    y = lang(EXAMPLE_PREFIX)
    assert is_sync_pair(y, w("aaa"), Word.epsilon(BINARY))


def test_sync_pair_requires_star_membership():
    x = lang(EXAMPLE_SET)
    with pytest.raises(NotInStar):
        is_sync_pair(x, w("a"), w("ba"))


def test_shortest_pair_example_set():
    x = lang(EXAMPLE_SET)
    pair = shortest_sync_pair(x, budget=6)
    assert pair is not None and pair.total_length == 4
    assert (pair.u.text, pair.v.text) == ("ε", "abba")
    # no synchronizing pair with |uv| < 4 exists
    assert shortest_sync_pair(x, budget=3) is None


def test_shortest_pair_full_alphabet():
    pair = shortest_sync_pair(lang(["a", "b"]), budget=2)
    assert (pair.u.text, pair.v.text) == ("ε", "ε")


def test_shortest_pair_cerny3():
    pair = shortest_sync_pair(cerny_family(3), budget=6)
    assert pair.total_length == 4  # (n-1)^2
    # the canonical pair attains the same length
    canonical = cerny_canonical_pair(3)
    assert canonical.total_length == 4
    assert is_sync_pair(cerny_family(3), canonical.u, canonical.v)


def test_constant_examples():
    x = lang(EXAMPLE_SET)
    assert is_constant(x, w("abba"))  # uv for the pair (ab, ba)
    assert is_constant(lang(["a", "b"]), Word.epsilon(BINARY))
    assert is_constant(lang(["aa"], BINARY), w("b"))  # vacuously: no context fits


def test_constant_pair_duality_both_directions():
    x = lang(EXAMPLE_SET)
    pair = shortest_sync_pair(x, 6)
    assert is_constant(x, pair.u + pair.v)
    # converse: a constant c in X* makes (c, c) a synchronizing pair
    c = w("abba")
    assert is_constant(x, c)
    assert is_sync_pair(x, c, c)


def test_constant_word_outside_star_is_accepted():
    x = lang(EXAMPLE_SET)
    # ab·b is not in X*, the rectangle property is still well defined
    assert isinstance(is_constant(x, w("abb")), bool)


def brute_constant(x, c, ctx_len=4):
    # definitional oracle with bounded contexts: c is a constant iff the
    # relation {(r, s) : r·c·s ∈ X*} is a product set
    import itertools

    from codesync import kleene_membership
    from codesync.languages import Word

    ctxs = [
        Word(x.alphabet, t)
        for k in range(ctx_len + 1)
        for t in itertools.product(range(len(x.alphabet)), repeat=k)
    ]
    right_sets = set()
    for r in ctxs:
        rs = frozenset(
            i for i, s in enumerate(ctxs) if kleene_membership(x, r + c + s)
        )
        if rs:
            right_sets.add(rs)
    return len(right_sets) <= 1


def test_constant_agrees_with_bounded_definitional_oracle():
    import itertools

    from codesync.languages import Word

    for x in exhaustive_corpus()[::47]:
        for k in (0, 1, 2):
            for t in itertools.product((0, 1), repeat=k):
                c = Word(BINARY, t)
                assert is_constant(x, c) == brute_constant(x, c), (
                    x.word_strings(),
                    c.text,
                )


def test_reset_word_small_dfa():
    a = flower_automaton(lang(["a", "ba", "bb"]))
    word = sync_word_shortest(a)
    assert word.text == "a"
    assert is_synchronizing_dfa(a)


def test_reset_word_identity_automaton_has_none():
    two_state = Automaton(
        n_states=2,
        alphabet=BINARY,
        table=((1, 1), (2, 2)),
    )
    assert sync_word_shortest(two_state) is None
    assert not is_synchronizing_dfa(two_state)


def test_reset_word_consistency_on_corpus_dfas():
    seen = 0
    for x in exhaustive_corpus():
        if not is_prefix(x) or not is_complete_language(x):
            continue
        a = flower_automaton(x)
        seen += 1
        assert (sync_word_shortest(a) is not None) == is_synchronizing_dfa(a)
    assert seen > 0


def test_pair_merge_search_matches_the_fixpoint_reference():
    import random

    from codesync import Alphabet

    rng = random.Random(20261018)
    answers = []
    for _ in range(400):
        n, d = rng.randint(1, 8), rng.randint(1, 3)
        table = tuple(tuple(1 << rng.randrange(n) for _ in range(d)) for _ in range(n))
        a = Automaton(n_states=n, alphabet=Alphabet.lowercase(d), table=table)
        answer = is_synchronizing_dfa(a)
        assert answer == synchronizing_dfa_reference(a), table
        assert answer == (sync_word_shortest(a) is not None), table
        answers.append(answer)
    assert 100 < sum(answers) < 300


def test_reset_needs_deterministic_complete():
    from codesync import AutomatonContractError

    with pytest.raises(AutomatonContractError):
        sync_word_shortest(flower_automaton(lang(EXAMPLE_SET)))  # nondeterministic
    with pytest.raises(AutomatonContractError):
        sync_word_shortest(flower_automaton(lang(["aa"], BINARY)))  # incomplete


def test_cerny_family_shape():
    x3 = cerny_family(3)
    assert len(x3) == 6 and x3.size == 3
    assert is_prefix(x3) and is_code(x3)
    x4 = cerny_family(4)
    assert len(x4) == 12 and x4.size == 4
    with pytest.raises(ParseError):
        cerny_family(2)


def test_cerny_family_prefix_and_complete():
    for n in (3, 4, 5):
        xn = cerny_family(n)
        assert is_prefix(xn)
        assert is_complete_language(xn)


def test_cerny_reset_small():
    for n in (3, 4):
        m = determinize_minimize(flower_automaton(cerny_family(n)))
        assert m.n_states == n
        assert len(sync_word_shortest(m)) == n * n - 3 * n + 3


def test_exact_synchronization_decision():
    assert is_synchronizing_code(lang(EXAMPLE_PREFIX))
    assert is_synchronizing_code(lang(["a", "ba", "bb"]))
    # the uniform code has gcd 2 and cannot synchronize
    assert not is_synchronizing_code(lang(["aa", "ab", "ba", "bb"]))


def _random_codes():
    return [lang(["abab"])] + [
        x
        for n, d, seed in ((3, 2, 1), (2, 3, 2), (4, 2, 3))
        for x in random_language_sample(seed, 600, n, d)
        if is_code(x)
    ]


@pytest.mark.parametrize(
    "corpus, expected",
    [(lambda: small_class_languages("codes"), (2139, 12)), (_random_codes, (1089, 10))],
    ids=["small", "random"],
)
def test_synchronization_matches_the_two_family_reference(corpus, expected):
    # expected: the corpus size and how many of its codes are two-sided and
    # do not synchronize, the case the pair search must run to exhaustion
    codes = corpus()
    non_sync_two_sided = 0
    for x in codes:
        got = is_synchronizing_code(x)
        assert got == synchronizes_reference(x), x.word_strings()
        non_sync_two_sided += not got and _one_sided_flower(x) is None
    assert (len(codes), non_sync_two_sided) == expected


def test_exhausted_pair_search_stops_pairing(monkeypatch):
    # {abab} does not synchronize, and both representative searches end after
    # five levels; once every pairing of their levels is tried (totals 0..8,
    # 45 length pairings) the search stops, whatever the budget, instead of
    # pairing empty levels up to it.  The non-code {aa, aaaa} does not
    # synchronize either; its search on the context automata stops after
    # totals 0..5, 21 length pairings, where listing X* up to the budget never
    # stops early.
    pairings = 0

    def product(*sides):
        nonlocal pairings
        pairings += 1
        if pairings > 1000:
            raise AssertionError("more than 1,000 length pairings")
        return itertools.product(*sides)

    monkeypatch.setattr(synchrony, "itertools", SimpleNamespace(**{**vars(itertools), "product": product}))
    x = lang(["abab"])
    assert shortest_sync_pair(x, 3000) is None
    budgeted, pairings = pairings, 0
    assert not is_synchronizing_code(x)
    assert budgeted == pairings == 45
    pairings = 0
    assert shortest_sync_pair(lang(["aa", "aaaa"]), 200) is None
    assert pairings == 21


def test_shortest_sync_pair_refuses_epsilon():
    with pytest.raises(EpsilonNotAllowed):
        shortest_sync_pair(lang(["ε", "a", "b"]))


def test_complete_non_code_pair_beyond_the_default_budget():
    # the member of ``all`` at (3, 2) whose least pair, of length 14, lies
    # beyond the sweep's budget of 12: found at budget 14 and with no budget,
    # none at 13, and certified by the definition-level checker
    x = lang(["aa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb"])
    assert not is_code(x) and is_complete_language(x)
    assert shortest_sync_pair(x, 13) is None
    pair = shortest_sync_pair(x, 14)
    assert (pair.u.text, pair.v.text) == ("aaabbaa", "aababaa")
    assert shortest_sync_pair(x, None) == pair
    assert is_sync_pair(x, pair.u, pair.v, method="general")


def test_uniform_full_square_is_not_synchronizing():
    abc = lang(["aa", "ab", "ac", "ba", "bb", "bc", "ca", "cb", "cc"])
    assert is_complete_language(abc)
    assert not is_synchronizing_code(abc)
    assert shortest_sync_pair(abc, budget=6) is None


def test_shortest_pair_determinism():
    x = lang(EXAMPLE_SET)
    first = shortest_sync_pair(x, 6)
    second = shortest_sync_pair(x, 6)
    assert (first.u, first.v) == (second.u, second.v)


def test_compressed_and_plain_searches_agree_on_codes():
    # the search dedupes candidate words by their subset dynamics; the eager
    # reference, which lists X* up to the budget and tests every pair in
    # order, must give the same minimal pair under the same tie-break.  X_n
    # has a single backward representative, so the generated suffix codes,
    # letters swapped or not, are what compares candidate v's of equal length.
    from codesync.experiments import random_complete_sync_codes

    cases = [(x, 5) for x in exhaustive_corpus()[::15] if is_code(x)]
    for code in random_complete_sync_codes(30, seed=11, max_size=5):
        cases += [(code, 10), (swap_letters(code), 10)]
    count = nonempty_v = 0
    for x, budget in cases:
        fast = shortest_sync_pair(x, budget=budget)
        slow = shortest_sync_pair_eager(x, budget)
        if fast is None:
            assert slow is None, x.word_strings()
        else:
            assert (fast.u, fast.v, fast.checked_by) == slow, x.word_strings()
            count += 1
            nonempty_v += budget == 10 and len(fast.v) > 0
    assert count > 5 and nonempty_v >= 20


def _has_a_letter_change(u, v):
    uv = (u + v).indices
    return any(a != b for a, b in zip(uv, uv[1:]))


def test_plain_pair_search_matches_eager_reference():
    # the search builds its representatives one length at a time and stops at
    # its answer; the reference enumerates X* up to the budget first.  Both
    # test totals in increasing order, so a pair the reference finds at
    # budget 12 is also the answer at budget 14.  The pair of the uniform
    # encoding, the least one whose uv has two distinct adjacent letters, is
    # the reference's pair under that filter.
    from codesync.experiments import enumerate_class_languages, random_complete_sync_codes

    def pairs(x, budget):
        found = (
            shortest_sync_pair(x, budget),
            _pair_search(flower_automaton(x), is_code(x), budget, DEFAULT_SUBSET_CAP, letter_change=True),
        )
        return [None if p is None else (p.u, p.v, p.checked_by) for p in found]

    codes = random_complete_sync_codes(30, seed=11, max_size=5)
    filtered = 0  # languages whose least pair has no letter change
    for x in codes + [swap_letters(x) for x in codes]:
        want = [shortest_sync_pair_eager(x, 12), shortest_sync_pair_eager(x, 12, where=_has_a_letter_change)]
        assert None not in want, x.word_strings()
        for budget in (12, 14):
            assert pairs(x, budget) == want, (x.word_strings(), budget)
        filtered += want[0] != want[1]
    non_codes = [x for x in enumerate_class_languages("all", 2, 2) if not is_code(x)]
    assert len(non_codes) > 10
    found = 0
    for x in non_codes:
        want = [shortest_sync_pair_eager(x, 8), shortest_sync_pair_eager(x, 8, where=_has_a_letter_change)]
        assert pairs(x, 8) == want, x.word_strings()
        found += want[0] is not None
        filtered += want[0] != want[1]
    assert found > 0 and filtered == 36


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_cerny_pair_reset_and_reduction_beyond_six(n):
    from codesync import synchronizing_pair_via_reduction

    x = cerny_family(n)
    if n <= 8:  # from n = 9 on the pair search alone takes seconds
        pair = shortest_sync_pair(x, (n - 1) ** 2)
        assert pair.total_length == (n - 1) ** 2
        assert is_sync_pair(x, pair.u, pair.v, method="code")
        assert is_sync_pair(x, pair.u, pair.v, method="general")
        m = determinize_minimize(flower_automaton(x))
        assert m.n_states == n
        assert len(sync_word_shortest(m)) == n * n - 3 * n + 3
    # the canonical-pair reduction, pinned from the image-side search
    _, trace = synchronizing_pair_via_reduction(x, cerny_canonical_pair(n))
    v = "a" + ("b" + "a" * (n - 1)) * (n - 3) + "ba" + "b" * (n - 2)
    assert len(v) == (n - 1) ** 2
    assert trace.left.incompletable.text == v + "'"
    assert (trace.final_pair.u.text, trace.final_pair.v.text) == (v, "ε")
    assert trace.bound_value == 2 * (n - 1) ** 2 + 2 * n - 2
    assert trace.bound_ok


def test_checker_agreement_spot():
    from codesync.synchrony import _code_pair_check, _context_families, _general_pair_check

    x = lang(EXAMPLE_PREFIX)
    automaton, fwd, bwd = _context_families(x, 2 ** 20)
    for u_text, v_text in (("aaa", "ε"), ("a", "ε"), ("bb", "a"), ("ε", "ε")):
        u, v = w(u_text), w(v_text)
        assert _code_pair_check(automaton, u, v) == _general_pair_check(
            automaton, fwd, bwd, u, v
        )


@lru_cache(maxsize=1)
def _seeded_codes():
    """Random codes over 2 and 3 letters, mostly incomplete, and random
    complete prefix and suffix codes."""
    codes = [x for x in random_language_sample(16, 120, 3) if is_code(x)]
    codes += [x for x in random_language_sample(17, 60, 2, 3) if is_code(x)]
    rng = random.Random(16)
    codes += [random_complete_code(rng, 2, 4) for _ in range(20)]
    codes += [random_complete_code(rng, 3, 3) for _ in range(10)]
    return tuple(codes)


@lru_cache(maxsize=1)
def _seeded_sets():
    """The seeded codes and random non-codes over 2 and 3 letters."""
    non_codes = [x for x in random_language_sample(18, 240, 3) if not is_code(x)]
    non_codes += [x for x in random_language_sample(19, 120, 2, 3) if not is_code(x)]
    return _seeded_codes() + tuple(non_codes)


@st.composite
def _star_pairs(draw, corpus):
    """A language of ``corpus()`` with u and v, each a concatenation of 0–4
    of its words."""
    x = draw(st.sampled_from(corpus()))
    factors = st.lists(st.sampled_from(x.words), max_size=4)
    u, v = (sum(draw(factors), Word.epsilon(x.alphabet)) for _ in "uv")
    return x, u, v


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_star_pairs(_seeded_codes))
def test_code_and_general_checkers_agree_on_codes(case):
    x, u, v = case
    assert is_sync_pair(x, u, v, method="code") == is_sync_pair(x, u, v, method="general")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_star_pairs(_seeded_sets))
def test_general_checker_matches_the_definition(case):
    x, u, v = case
    assert is_sync_pair(x, u, v, method="general") == general_pair_reference(x, u, v)


@pytest.mark.parametrize("n, most", [(8, 1_000), (10, 3_000)])
def test_general_checker_steps_each_distinct_image_once(monkeypatch, n, most):
    # stepping each S ∈ F through uv on its own took 9,359 steps on X_8 and
    # 62,127 on X_10; the distinct images take 584 and 1,956
    x, pair = cerny_family(n), cerny_canonical_pair(n)
    synchrony._context_families(x, DEFAULT_SUBSET_CAP)
    counts = count_steps(monkeypatch)
    assert is_sync_pair(x, pair.u, pair.v, method="general")
    assert counts["step_letter"] <= most


@pytest.mark.parametrize("n, most", [(8, 1_000), (10, 3_000)])
def test_constant_test_steps_each_distinct_image_once(monkeypatch, n, most):
    # stepping each S ∈ F through c on its own took 9,359 steps on X_8 and
    # 62,127 on X_10; the distinct images take 584 and 1,956
    x, pair = cerny_family(n), cerny_canonical_pair(n)
    synchrony._context_families(x, DEFAULT_SUBSET_CAP)
    counts = count_steps(monkeypatch)
    assert is_constant(x, pair.u)
    assert counts["step_letter"] <= most


@st.composite
def _small_sets_and_budgets(draw):
    """An ε-free set of 1–4 words of length ≤ 3 over 1–3 letters, code or
    not, and a pair budget."""
    d = draw(st.integers(1, 3))
    words = st.lists(st.integers(0, d - 1), min_size=1, max_size=3).map(tuple)
    alphabet = Alphabet.lowercase(d)
    chosen = draw(st.lists(words, min_size=1, max_size=4, unique=True))
    x = FiniteLanguage(alphabet, tuple(Word(alphabet, t) for t in chosen))
    return x, draw(st.integers(0, 7 - d))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_small_sets_and_budgets())
def test_pair_search_matches_the_eager_reference(case):
    x, budget = case
    pair = shortest_sync_pair(x, budget)
    got = None if pair is None else (pair.u, pair.v, pair.checked_by)
    assert got == shortest_sync_pair_eager(x, budget)


def test_one_sided_pairs_match_the_code_path_search():
    # a complete prefix (suffix) code has the minimal pair (u, ε) ((ε, v)) of
    # one reset-to-root search; the two-sided representative search must give
    # the same pair at its length and none one below it.  X_8's two-sided
    # search below its length alone takes about 0.5 s, so X_8 skips that one.
    cap = DEFAULT_SUBSET_CAP
    cases = [(x, True) for x in small_class_languages("complete-codes") if _one_sided_flower(x)]
    small = len(cases)
    cases += [(cerny_family(n), n < 8) for n in range(3, 9)]
    cases += [(cerny_family(n).reversed(), True) for n in range(3, 8)]
    mirrored = silent = 0
    for x, below in cases:
        automaton, mirror = _one_sided_flower(x)
        pair = _one_sided_pair(automaton, mirror, None, cap)
        length = 12 if pair is None else pair.total_length
        for budget in (length - 1, length) if below else (length,):
            got = shortest_sync_pair(x, budget)
            code_search = _pair_search(flower_automaton(x), True, budget, cap)
            assert got == code_search, (x.word_strings(), budget)
            assert got == (pair if budget == length else None)
        mirrored += mirror
        silent += pair is None
    assert (small, mirrored, silent) == (93, 35, 19)


def test_one_sided_pair_matches_the_image_side_reference():
    # the reset-to-root search runs on preimages, from {1} to Q; the plain
    # image-side level loop, from Q to {1}, must give the same pair at every
    # budget, on the complete prefix and suffix codes at n·d ≤ 6, X_3..X_8,
    # mirrored X_3..X_7 and the ledger corpus, plain and letter-swapped
    from codesync.experiments import random_complete_sync_codes

    cap = DEFAULT_SUBSET_CAP
    cases = [x for x in small_class_languages("complete-codes") if _one_sided_flower(x)]
    cases += [cerny_family(n) for n in range(3, 9)] + [cerny_family(n).reversed() for n in range(3, 8)]
    for x in random_complete_sync_codes(150, seed=0, max_size=6):
        cases += [x, swap_letters(x)]
    found = mirrored = 0
    for x in cases:
        automaton, mirror = _one_sided_flower(x)
        for budget in (0, 6, 18, (x.size - 1) ** 2, None):
            pair = _one_sided_pair(automaton, mirror, budget, cap)
            assert pair == one_sided_pair_reference(automaton, mirror, budget), (x.word_strings(), budget)
            found += pair is not None
        mirrored += mirror
    assert (len(cases), mirrored, found) == (404, 185, 1348)


def test_one_sided_flower_requires_total_letters(monkeypatch):
    # the preimage search equals the image search only on a complete DFA, so
    # a flower with a letter that is not total is an internal error, raised
    # with the code's words
    x = lang(EXAMPLE_PREFIX)
    flower = flower_automaton(x)
    broken = Automaton(
        n_states=flower.n_states,
        alphabet=flower.alphabet,
        table=((0, flower.table[0][1]),) + flower.table[1:],
    )
    monkeypatch.setattr(synchrony, "flower_automaton", lambda language: broken)
    with pytest.raises(InternalInvariantError) as err:
        _one_sided_flower(x)
    assert err.value.details == {"words": x.word_strings(), "mirror": False}


def test_reset_words_and_pair_merge_name_the_missing_property():
    nondeterministic = flower_automaton(lang(EXAMPLE_SET))
    partial = Automaton(n_states=2, alphabet=BINARY, table=((0b10, 0b01), (0b01, 0)))
    both = Automaton(n_states=2, alphabet=BINARY, table=((0b11, 0b01), (0b01, 0)))
    for check, what in ((sync_word_shortest, "reset words need"), (is_synchronizing_dfa, "pair-merge check needs")):
        for automaton, kind in ((nondeterministic, "deterministic"), (partial, "complete"), (both, "deterministic")):
            with pytest.raises(AutomatonContractError) as err:
                check(automaton)
            assert str(err.value) == f"{what} a {kind} automaton"


def test_reset_to_root_search_on_x8_stays_on_preimages(monkeypatch):
    # the image side stores 13,526 subsets on X_8 and the preimage side 58
    stored = 0
    search = synchrony.layered_search

    def counted(*args, **kwargs):
        nonlocal stored
        for level in search(*args, **kwargs):
            stored += len(level)
            yield level

    x = cerny_family(8)
    monkeypatch.setattr(synchrony, "layered_search", counted)
    counts = count_steps(monkeypatch)
    pair = shortest_sync_pair(x, 49)
    assert (pair.u.text, pair.v.text) == ("a" + ("b" + "a" * 7) * 6, "ε")
    assert counts["step_letter"] == 0 and 0 < stored <= 100


# taken from the two-sided representative search, before the one-sided
# search existed; it is a·(b a⁸)⁷, and X_10's and X_11's pairs below have the
# same shape (X_11's checked once against the image-side reset-to-root search)
CERNY_9_PAIR = "abaaaaaaaabaaaaaaaabaaaaaaaabaaaaaaaabaaaaaaaabaaaaaaaabaaaaaaaa"


def test_cerny_nine_pair_is_pinned():
    x = cerny_family(9)
    pair = shortest_sync_pair(x, 64)
    assert (pair.u.text, pair.v.text, pair.checked_by) == (CERNY_9_PAIR, "ε", "code")
    assert is_sync_pair(x, pair.u, pair.v, method="code")


def test_cerny_ten_pair_is_pinned():
    x = cerny_family(10)
    pair = shortest_sync_pair(x, 81)
    assert (pair.u.text, pair.v.text) == ("a" + ("b" + "a" * 9) * 8, "ε")
    assert is_sync_pair(x, pair.u, pair.v, method="code")


def test_cerny_eleven_pair_is_pinned():
    x = cerny_family(11)
    pair = shortest_sync_pair(x, 100)
    assert (pair.u.text, pair.v.text) == ("a" + ("b" + "a" * 10) * 9, "ε")
    assert is_sync_pair(x, pair.u, pair.v, method="code")

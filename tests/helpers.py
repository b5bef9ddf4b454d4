"""Shared corpus builders and independent oracles for the test suite.

The oracles here deliberately avoid the package's automaton machinery: word
membership questions go through the positional dynamic program only, and
factorization counting is done by direct enumeration, so that agreement tests
actually compare two routes.  The automaton-side checks ``accepts`` and
``is_unambiguous`` live here too, as the routes those oracles are compared
with.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache, partial

from codesync import Alphabet, FiniteLanguage, LengthProfile, Word, kraft_canonical
from codesync.languages import kleene_membership

BINARY = Alphabet.binary()


def lang(strings, alphabet=None) -> FiniteLanguage:
    return FiniteLanguage.from_strings(list(strings), alphabet)


def w(text: str, alphabet: Alphabet = BINARY) -> Word:
    return Word.parse(text, alphabet)


def swap_letters(language: FiniteLanguage) -> FiniteLanguage:
    """The image of a binary language under the letter swap a ↔ b."""
    return FiniteLanguage(
        language.alphabet,
        tuple(Word(language.alphabet, tuple(1 - a for a in u.indices)) for u in language.words),
    )


EXAMPLE_SET = ("aa", "ab", "ba", "baa", "bbb")  # the running incomplete example
EXAMPLE_PREFIX = ("a", "baaa", "baab", "bab", "bb")  # the complete prefix example

# every (n, d) with n·d ≤ 6
SMALL_SIZES = tuple((n, d) for d in range(1, 7) for n in range(1, 6 // d + 1))


def small_class_languages(class_tag: str) -> list[FiniteLanguage]:
    """Every member of the class at the sizes :data:`SMALL_SIZES`, without
    canonicalization."""
    from codesync.experiments import enumerate_class_languages

    return [
        x for n, d in SMALL_SIZES for x in enumerate_class_languages(class_tag, n, d, canonicalize=False)
    ]


@lru_cache(maxsize=1)
def exhaustive_corpus() -> tuple[FiniteLanguage, ...]:
    """All 469 binary languages with at most 3 words of length at most 3."""
    pool = [
        Word(BINARY, t)
        for k in (1, 2, 3)
        for t in itertools.product((0, 1), repeat=k)
    ]
    out = []
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(len(pool)), r):
            out.append(FiniteLanguage(BINARY, tuple(pool[i] for i in combo)))
    return tuple(out)


def factorization_count(language: FiniteLanguage, word: Word) -> int:
    """Number of distinct factorizations of the word into language words."""
    n = len(word)
    counts = [0] * (n + 1)
    counts[0] = 1
    pieces = [x.indices for x in language.words if len(x) > 0]
    for i in range(n):
        if counts[i] == 0:
            continue
        for p in pieces:
            j = i + len(p)
            if j <= n and word.indices[i:j] == p:
                counts[j] += counts[i]
    return counts[n]


def shortest_ambiguous_word(language: FiniteLanguage, max_len: int):
    """Shortest word with at least two factorizations, by layered counting."""
    by_len = {0: {(): 1}}
    for t in range(1, max_len + 1):
        cur: dict[tuple[int, ...], int] = {}
        for x in language.words:
            lx = len(x)
            if lx == 0 or lx > t:
                continue
            prev = by_len.get(t - lx)
            if not prev:
                continue
            for word, c in prev.items():
                cw = word + x.indices
                cur[cw] = cur.get(cw, 0) + c
        for word, c in cur.items():
            if c > 1:
                return Word(language.alphabet, word)
        if cur:
            by_len[t] = cur
    return None


def brute_is_code(language: FiniteLanguage, max_len: int) -> bool:
    return shortest_ambiguous_word(language, max_len) is None


def has_completion_brute(language: FiniteLanguage, word: Word) -> bool:
    """Definitional completability: some context pair (r, s) with
    |r|, |s| ≤ ℓ(X) − 1 puts r·w·s into X* (membership by the DP oracle)."""
    return least_completion_brute(language, word) is not None


def least_completion_brute(language: FiniteLanguage, word: Word):
    """Definitional least completion: the least r, then the least s, over
    A^{≤ℓ(X)−1} in (length, lex) order with r·w·s ∈ X* (membership by the DP
    oracle), or None when there is none."""
    bound = max(language.size - 1, 0)
    d = len(language.alphabet)
    contexts = [()]
    level = [()]
    for _ in range(bound):
        level = [c + (a,) for c in level for a in range(d)]
        contexts.extend(level)
    for r in contexts:
        for s in contexts:
            if kleene_membership(language, Word(language.alphabet, r + word.indices + s)):
                return Word(language.alphabet, r), Word(language.alphabet, s)
    return None


def random_language_sample(seed: int, count: int, n: int, d: int = 2):
    """Seeded random languages, ε-free, mirroring the harness distribution."""
    from codesync.experiments import random_language

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = random_language(rng, n, d)
        if not x.contains_epsilon:
            out.append(x)
    return out


def random_dary_profile(rng: random.Random, d: int, max_depth: int) -> tuple[int, ...]:
    leaves = [1] * d
    for _ in range(rng.randint(0, 4)):
        expandable = [i for i, k in enumerate(leaves) if k < max_depth]
        if not expandable:
            break
        i = rng.choice(expandable)
        k = leaves.pop(i)
        leaves.extend([k + 1] * d)
    return tuple(sorted(leaves))


def random_complete_code(rng: random.Random, d: int, max_depth: int) -> FiniteLanguage:
    """A random complete code over d letters: a Kraft tree, letters shuffled,
    reversed into a suffix code half the time."""
    profile = random_dary_profile(rng, d, max_depth)
    x = kraft_canonical(LengthProfile(d, profile))
    perm = list(range(d))
    rng.shuffle(perm)
    words = tuple(Word(x.alphabet, tuple(perm[i] for i in u.indices)) for u in x.words)
    x = FiniteLanguage(x.alphabet, words)
    if rng.random() < 0.5:
        x = x.reversed()
    return x


def binary_image_profile(rng: random.Random, n_words: int, max_depth: int = 4) -> tuple[int, ...]:
    """Leaf depths of a random full binary tree with exactly n_words leaves."""
    while True:
        leaves = [1, 1]
        while len(leaves) < n_words:
            expandable = [i for i, k in enumerate(leaves) if k < max_depth]
            if not expandable:
                break
            i = rng.choice(expandable)
            k = leaves.pop(i)
            leaves.extend((k + 1, k + 1))
        if len(leaves) == n_words:
            return tuple(sorted(leaves))


def canonical_under_permutation(words: tuple[tuple[int, ...], ...], d: int) -> bool:
    """Reference orbit filter: keep a word set only when no letter permutation
    maps it to a lexicographically smaller sorted tuple."""
    me = tuple(sorted(words))
    for perm in itertools.permutations(range(d)):
        if perm == tuple(range(d)):
            continue
        image = tuple(sorted(tuple(perm[i] for i in w) for w in words))
        if image < me:
            return False
    return True


def enumerate_class_languages_reference(class_tag: str, n: int, d: int, canonicalize: bool = True):
    """Reference enumeration: builds every candidate subset of the word pool
    as words, then filters with :func:`canonical_under_permutation` and the
    language-level class test, in ascending pool-mask order."""
    from codesync.experiments import _in_class, _word_pool

    alphabet = Alphabet.lowercase(d)
    pool = _word_pool(alphabet, n)
    for bits in range(1, 2 ** len(pool)):
        chosen = tuple(pool[i] for i in range(len(pool)) if (bits >> i) & 1)
        if canonicalize and not canonical_under_permutation(tuple(u.indices for u in chosen), d):
            continue
        language = FiniteLanguage(alphabet, chosen)
        if _in_class(language, class_tag):
            yield language


def class_masks_reference(n: int, d: int) -> dict[tuple[str, bool], list[int]]:
    """Reference member masks of every class, with and without
    canonicalization, in one pass over every pool mask and with no lookup
    table: the pairwise prefix test, the Sardinas–Patterson closure,
    completeness by a search to ∅ on the view (not the Kraft sum) and
    :func:`canonical_under_permutation`."""
    from codesync.completeness import _incompletable_word
    from codesync.experiments import CLASS_TAGS, _PoolTrie, _PoolView
    from codesync.languages import _sardinas_patterson

    trie = _PoolTrie(n, d)
    out = {(tag, c): [] for tag in CLASS_TAGS for c in (True, False)}
    for bits in range(1, 2 ** len(trie.words)):
        words = [u for i, u in enumerate(trie.words) if bits >> i & 1]
        code = _sardinas_patterson(words)
        member = {
            "all": True,
            "codes": code,
            "prefix": not any(len(u) < len(v) and v[: len(u)] == u for u in words for v in words),
        }
        complete = code and _incompletable_word(_PoolView(trie, bits)) is None
        member["complete-codes"] = complete
        member["complete-prefix"] = complete and member["prefix"]
        canonical = canonical_under_permutation(tuple(words), d)
        for tag in CLASS_TAGS:
            if member[tag]:
                out[tag, False].append(bits)
                if canonical:
                    out[tag, True].append(bits)
    return out


def estimate_reference(class_tag: str, n: int, d: int) -> tuple[dict, dict]:
    """Reference exhaustive R and C reports, as ``ExperimentReport.to_dict()``
    without ``elapsed_seconds``: the language-level searches on every member
    of :func:`enumerate_class_languages_reference`, in its order.  A code that
    :func:`synchronizes_reference` rejects is no C instance, and neither is a
    non-code for which the pair search, run with no budget, finds no pair.  A
    code the reference accepts but the search finds no pair for counts as
    inconclusive, which the sweep never reports, so it shows as a mismatch."""
    from codesync import is_code, shortest_incompletable, shortest_sync_pair

    best = {"R": None, "C": None}  # (value, witness language, witness)
    counts = {"R": 0, "C": 0}
    inconclusive = 0
    for x in enumerate_class_languages_reference(class_tag, n, d):
        found = {}
        incompletable = shortest_incompletable(x)
        if incompletable is not None:
            found["R"] = (len(incompletable), [incompletable.text])
        if not is_code(x) or synchronizes_reference(x):
            pair = shortest_sync_pair(x, None)
            if pair is not None:
                found["C"] = (pair.total_length, [pair.u.text, pair.v.text])
            elif is_code(x):
                inconclusive += 1
        for kind, (value, witness) in found.items():
            counts[kind] += 1
            if best[kind] is None or value > best[kind][0]:
                best[kind] = (value, x.word_strings(), witness)

    def report(kind: str) -> dict:
        value, words, witness = best[kind] or (None, None, None)
        return {
            "kind": kind, "class": class_tag, "n": n, "d": d, "mode": "exhaustive",
            "value": value, "witness_language": words, "witness": witness,
            "instances": counts[kind], "inconclusive": inconclusive if kind == "C" else 0,
            "samples": None, "seed": None,
        }

    return report("R"), report("C")


def estimate_R_searching_every_member(class_tag: str, n: int, d: int) -> dict:
    """Reference exhaustive R report, as ``ExperimentReport.to_dict()``
    without ``elapsed_seconds``: a fresh ``_incompletable_word`` search on the
    ``_PoolView`` of every member, in mask order, with no result reused."""
    from codesync.completeness import _incompletable_word
    from codesync.experiments import _PoolTrie, _PoolView

    trie = _PoolTrie(n, d)
    best, count = (None, None, None), 0
    for bits in trie.masks(class_tag, True):
        word = _incompletable_word(_PoolView(trie, bits))
        if word is None:
            continue
        count += 1
        if best[0] is None or len(word) > best[0]:
            best = (len(word), trie.language(bits).word_strings(), [word.text])
    value, words, witness = best
    return {
        "kind": "R", "class": class_tag, "n": n, "d": d, "mode": "exhaustive",
        "value": value, "witness_language": words, "witness": witness,
        "instances": count, "inconclusive": 0, "samples": None, "seed": None,
    }


def star_words_eager(language: FiniteLanguage, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """Reference: every distinct word of X* up to the budget, sorted (length, lex)."""
    seen: set[tuple[int, ...]] = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for u in frontier:
            for x in language.words:
                c = u + x.indices
                if len(c) <= budget and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted((len(u), u) for u in seen)


def shortest_sync_pair_eager(language: FiniteLanguage, budget: int, where=None):
    """Reference pair search: enumerates X* up to the budget first, then tests
    pairs in (total, |u|, lex u, lex v) order with the checker the library
    picks (code path for codes, general path otherwise)."""
    from codesync import flower_automaton, is_code
    from codesync.synchrony import _code_pair_check, _context_families, _general_pair_check

    code = is_code(language)
    if code:
        automaton = flower_automaton(language)

        def checker(u, v):
            return _code_pair_check(automaton, u, v)
    else:
        families = _context_families(language)

        def checker(u, v):
            return _general_pair_check(*families, u, v)

    words = star_words_eager(language, budget)
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for lv, wv in words:
        by_len.setdefault(lv, []).append(wv)
    for total in range(budget + 1):
        for lu, wu in words:
            if lu > total:
                break
            for wv in by_len.get(total - lu, ()):
                u, v = Word(language.alphabet, wu), Word(language.alphabet, wv)
                if (where is None or where(u, v)) and checker(u, v):
                    return u, v, "code" if code else "general"
    return None


def flower_reference(language: FiniteLanguage):
    """Reference flower automaton as plain data: (table, labels, letter rows,
    reverse letter rows), states ordered 1 then proper prefixes by (length, lex)."""
    d = len(language.alphabet)
    prefixes = sorted(
        {u.indices[:k] for u in language.words for k in range(1, len(u))},
        key=lambda p: (len(p), p),
    )
    states = [()] + prefixes
    words = {u.indices for u in language.words}
    table = []
    for p in states:
        row = []
        for a in range(d):
            m = 0
            for q, r in enumerate(states):
                if (q > 0 and r == p + (a,)) or (q == 0 and p + (a,) in words):
                    m |= 1 << q
            row.append(m)
        table.append(tuple(row))
    labels = tuple(Word(language.alphabet, p).text if p else "1" for p in states)
    letter_rows = tuple(tuple(table[q][a] for q in range(len(states))) for a in range(d))
    rev_rows = tuple(
        tuple(
            sum(1 << q for q in range(len(states)) if table[q][a] >> t & 1)
            for t in range(len(states))
        )
        for a in range(d)
    )
    return tuple(table), labels, letter_rows, rev_rows


def synchronizes_reference(language: FiniteLanguage) -> bool:
    """Reference synchronization test for an ε-free code X, apart from the
    package's automata and searches: X synchronizes iff some words w₁, w₂
    over the alphabet give Qw₁ ∩ Qw₂⁻¹ = {1} on its flower, whose states are
    1 (bit 0) and the proper prefixes of X.  Both subset families are closed
    from Q."""
    d = len(language.alphabet)
    words = {x.indices for x in language.words}
    states = [()] + sorted({x[:k] for x in words for k in range(1, len(x))})
    index = {p: i for i, p in enumerate(states)}
    fwd = [[0] * d for _ in states]  # fwd[q][a]: successors of q under a
    bwd = [[0] * d for _ in states]  # bwd[q][a]: predecessors of q under a
    for p, q in index.items():
        for a in range(d):
            pa = p + (a,)
            for r in ([0] if pa in words else []) + ([index[pa]] if pa in index else []):
                fwd[q][a] |= 1 << r
                bwd[r][a] |= 1 << q

    def family(rows) -> set[int]:
        full = (1 << len(states)) - 1
        seen, todo = {full}, [full]
        while todo:
            s = todo.pop()
            for a in range(d):
                t = 0
                for q, row in enumerate(rows):
                    if s >> q & 1:
                        t |= row[a]
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    backward = family(bwd)
    return any(s & t == 1 for s in family(fwd) if s & 1 for t in backward)


def general_pair_reference(language: FiniteLanguage, u: Word, v: Word) -> bool:
    """Reference general pair test for any ε-free X, taken from the definition
    on :func:`flower_reference`: F = {δ(1, r)} and B = {T_s} = {1s⁻¹} are
    closed from {1} (bit 0), and for every S ∈ F and T ∈ B, δ(S, uv) ∩ T ≠ ∅
    must imply 1 ∈ δ(S, u) and δ(1, v) ∩ T ≠ ∅."""
    _, _, letter_rows, rev_rows = flower_reference(language)
    d = len(language.alphabet)

    def step(s, rows, a):
        t = 0
        for q, m in enumerate(rows[a]):
            if s >> q & 1:
                t |= m
        return t

    def family(rows) -> set[int]:
        seen, todo = {1}, [1]
        while todo:
            s = todo.pop()
            for a in range(d):
                t = step(s, rows, a)
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    def image(s, word):
        for a in word.indices:
            s = step(s, letter_rows, a)
        return s

    one_v, backward = image(1, v), family(rev_rows)
    for s in family(letter_rows):
        su = image(s, u)
        suv = image(su, v)
        for t in backward:
            if suv & t and not (su & 1 and one_v & t):
                return False
    return True


def strongly_connected_reference(table) -> bool:
    """Warshall closure of the transition graph read from a plain table
    (``table[q][a]`` a target bitmask): every state reaches every other."""
    n = len(table)
    reach = [[i == j or any(m >> j & 1 for m in table[i]) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return all(all(row) for row in reach)


def accepts(automaton, word: Word) -> bool:
    """Membership of a word in L(A): a path from the initial state into the
    accepting set."""
    from codesync import mask_from_states

    mask = automaton.step_word(1 << automaton.initial, word)
    return bool(mask & mask_from_states(automaton.accepting))


def is_unambiguous(automaton) -> bool:
    """At most one accepting path per accepted word.

    Checked on the product A×A: the automaton is unambiguous iff no pair
    (p, q) with p ≠ q is both reachable from (1, 1) and co-reachable to
    (1, 1).  The backward pass stays inside the forward set, which holds every
    pair on a path from a reachable pair.  Assumes trim input (flower automata
    are trim by construction).  A flower is unambiguous iff X is a code, so
    this checks ``is_code`` by another route.
    """
    from codesync import layered_search, states_from_mask

    init = (automaton.initial, automaton.initial)

    def expand(rows, within, pair, key):
        for row in rows:
            targets = states_from_mask(row[pair[1]])
            for p in states_from_mask(row[pair[0]]):
                for q in targets:
                    if within is None or (p, q) in within:
                        yield (p, q), key

    search = partial(layered_search, init, 0, what="product search")
    reachable = set().union(*search(partial(expand, automaton._letter_rows, None)))
    backward = search(partial(expand, automaton._rev_rows, reachable))
    return all(p == q for level in backward for p, q in level)


def minimal_dfa_size_reference(automaton) -> int:
    """Reference: the state count of the minimal partial DFA of the language
    an automaton accepts (one state for the empty language), by Brzozowski's
    construction: reverse and determinize twice, on frozensets of states,
    dropping ∅.  It never calls ``determinize_minimize``."""
    d = len(automaton.alphabet)

    def determinize(edges, starts, finals):
        # accessible subset construction: its edges, final states and size
        index = {frozenset(starts): 0}
        todo, out = list(index), []
        while todo:
            s = todo.pop()
            for a in range(d):
                t = frozenset(r for q, b, r in edges if q in s and b == a)
                if t:
                    if t not in index:
                        index[t] = len(index)
                        todo.append(t)
                    out.append((index[s], a, index[t]))
        return out, {i for s, i in index.items() if s & finals}, len(index)

    def reversed_edges(edges):
        return [(t, a, q) for q, a, t in edges]

    edges, finals, _ = determinize(reversed_edges(automaton.edges()), automaton.accepting, {automaton.initial})
    return determinize(reversed_edges(edges), finals, {0})[2]


def access_words_reference(automaton):
    """Reference: shortest (then lex-least) label of a path from state 1 to
    each state, by a first-in-first-out search over single states."""
    from codesync import states_from_mask

    d = len(automaton.alphabet)
    out = [None] * automaton.n_states
    out[automaton.initial] = Word.epsilon(automaton.alphabet)
    frontier = [automaton.initial]
    while frontier:
        nxt = []
        for q in frontier:
            for a in range(d):
                for t in states_from_mask(automaton.table[q][a]):
                    if out[t] is None:
                        out[t] = Word(automaton.alphabet, out[q].indices + (a,))
                        nxt.append(t)
        frontier = nxt
    return out


def coaccess_words_reference(automaton):
    """Reference: shortest (then lex-least) label of a path from each state to
    state 1, by relaxing on (length, word) until nothing changes."""
    from codesync import states_from_mask

    d = len(automaton.alphabet)
    out = [None] * automaton.n_states
    out[automaton.initial] = Word.epsilon(automaton.alphabet)
    changed = True
    while changed:
        changed = False
        for q in range(automaton.n_states):
            best = out[q]
            for a in range(d):
                for t in states_from_mask(automaton.table[q][a]):
                    if out[t] is None:
                        continue
                    cand = (a,) + out[t].indices
                    if best is None or (len(cand), cand) < (len(best), best.indices):
                        best = Word(automaton.alphabet, cand)
            if best is not None and (out[q] is None or best.indices != out[q].indices):
                if q != automaton.initial:
                    out[q] = best
                    changed = True
    return out


def min_marked_reference(aprime, marked_symbol: str):
    """The image-side minimal-marked search: levels of δ′(Q, v), v grown by
    appending letters, each subset kept with its least (marks, word) key,
    until a level reaches ∅.  None when ∅ is unreachable."""
    marked = aprime.alphabet.index(marked_symbol)
    letters = range(len(aprime.alphabet))
    level, seen = {aprime.full_mask: (0, ())}, {aprime.full_mask}
    while level:
        if 0 in level:
            return Word(aprime.alphabet, level[0][1])
        nxt: dict = {}
        for s, (marks, word) in level.items():
            for a in letters:
                t, key = aprime.step_letter(s, a), (marks + (a == marked), word + (a,))
                if t not in seen and (t not in nxt or key < nxt[t]):
                    nxt[t] = key
        seen.update(nxt)
        level = nxt
    return None


def one_sided_pair_reference(automaton, mirror: bool, budget):
    """The image-side reset-to-root search as a plain level loop: levels of
    δ(Q, u), stepped on ``automaton.table``, u grown by appending letters
    (prepending when ``mirror``), each subset kept with its least word, until
    a level holds {1}.  Gives (u, ε), or (ε, u) when ``mirror``; None when
    no such u has |u| ≤ ``budget`` (no bound when it is None)."""
    from codesync.synchrony import SyncPair

    letters = range(len(automaton.alphabet))
    init = 1 << automaton.initial

    def image(s: int, a: int) -> int:
        t = 0
        while s:
            low = s & -s
            t |= automaton.table[low.bit_length() - 1][a]
            s ^= low
        return t

    level, seen, length = {automaton.full_mask: ()}, {automaton.full_mask}, 0
    while level and (budget is None or length <= budget):
        if init in level:
            u, empty = Word(automaton.alphabet, level[init]), Word.epsilon(automaton.alphabet)
            return SyncPair(empty, u) if mirror else SyncPair(u, empty)
        nxt: dict = {}
        for s, word in level.items():
            for a in letters:
                t, key = image(s, a), ((a,) + word if mirror else word + (a,))
                if t not in seen and (t not in nxt or key < nxt[t]):
                    nxt[t] = key
        seen.update(nxt)
        level, length = nxt, length + 1
    return None


def count_steps(monkeypatch) -> dict[str, int]:
    """Count the calls of ``Automaton.step_letter`` and ``step_letter_back``
    made from now on in the test, by name."""
    from codesync.automata import Automaton

    counts = {"step_letter": 0, "step_letter_back": 0}
    for name in counts:
        step = getattr(Automaton, name)

        def counted(self, mask, a, step=step, name=name):
            counts[name] += 1
            return step(self, mask, a)

        monkeypatch.setattr(Automaton, name, counted)
    return counts


def synchronizing_dfa_reference(automaton) -> bool:
    """All-pairs merge fixpoint on a complete DFA: repeat passes over every
    pair of states, marking a pair once some letter maps it to a marked pair
    or to one state, until a pass marks nothing; synchronizing iff every
    pair is marked."""
    n, d = automaton.n_states, len(automaton.alphabet)

    def target(q: int, a: int) -> int:
        return automaton.table[q][a].bit_length() - 1

    mergeable = {(q, q) for q in range(n)}
    changed = True
    while changed:
        changed = False
        for p, q in itertools.combinations(range(n), 2):
            if (p, q) in mergeable:
                continue
            for a in range(d):
                tp, tq = target(p, a), target(q, a)
                if (min(tp, tq), max(tp, tq)) in mergeable:
                    mergeable.add((p, q))
                    changed = True
                    break
    return all(pair in mergeable for pair in itertools.combinations(range(n), 2))

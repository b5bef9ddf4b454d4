"""Synchronizing pairs, constants, reset words and the Černý witness family.

Two checkers certify a pair (u, v) ∈ X* × X*.  The code path tests
Qu ∩ Qv⁻¹ = {1} on the flower automaton, the exact criterion when X is a
code.  The general path quantifies over the context families, the subsets
S = δ(1, r) and T = {q : 1 ∈ δ(q, s)}, finite and memoized on the language,
and checks that every completion context splits: δ(S, uv) ∩ T ≠ ∅ implies
1 ∈ δ(S, u) and δ(1, v) ∩ T ≠ ∅.  It steps the distinct images δ(S, ·) once
each, since many S ∈ F share one, and decides each against two unions of the
T; it does not merge the S into the unions the pair search keys on, so it
stays an independent check of that search.

One least-pair search serves every ε-free X (:func:`_pair_search`): it pairs
X*-representatives, the least words of X* with a given key (what the pair
test reads of a word), and ends without a budget, on a flower automaton or a
sweep's pool view alike.  Complete prefix and suffix codes take one
reset-to-root search (:func:`_one_sided_pair`); :func:`shortest_sync_pair`
dispatches between the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .automata import (
    Automaton,
    flower_automaton,
    is_deterministic,
    layered_search,
    reverse,
    subset_bfs,
)
from .errors import (
    AutomatonContractError,
    EpsilonNotAllowed,
    InternalInvariantError,
    NotInStar,
    ParseError,
    SubsetCapExceeded,
    DEFAULT_SUBSET_CAP,
)
from .completeness import is_complete_language
from .languages import Alphabet, FiniteLanguage, Word, is_code, is_prefix, kleene_membership


@dataclass(frozen=True)
class SyncPair:
    """A synchronizing pair (u, v) with both components certified in X*."""

    u: Word
    v: Word
    checked_by: str = "code"

    @property
    def total_length(self) -> int:
        return len(self.u) + len(self.v)


def _context_families(language: FiniteLanguage, cap: int) -> tuple[Automaton, tuple[int, ...], tuple[int, ...]]:
    """Flower automaton plus the families {δ(1,r)} and {T_s} used by the
    general checker and the constant test: the nonempty subsets δ(1, w) and
    δ(1, w⁻¹) over all words w, memoized on the language."""
    automaton = flower_automaton(language)
    families = language._memo.get("families")
    if families is None:
        families = language._memo["families"] = _context_closure(automaton, cap)
    elif max(map(len, families)) > cap:
        raise SubsetCapExceeded(cap, "subset family closure")
    return (automaton, *families)


def _context_closure(automaton: Automaton, cap: int) -> tuple:
    """The families {δ(1, r)} and {T_s}, the subsets closed from state 1, of a
    flower automaton or of any object with its kernel interface."""
    start, what = 1 << automaton.initial, "subset family closure"
    return tuple(tuple(subset_bfs(automaton, start, back=b, cap=cap, what=what)[0]) for b in (False, True))


def _check_in_star(language: FiniteLanguage, w: Word, name: str) -> None:
    if not kleene_membership(language, w):
        raise NotInStar(f"{name} = {w.text!r} is not in X*")


def _code_pair_check(automaton: Automaton, u: Word, v: Word) -> bool:
    full = automaton.full_mask
    qu = automaton.step_word(full, u)
    qv_back = automaton.step_word(full, v, back=True)
    return qu & qv_back == 1 << automaton.initial


def _general_pair_check(
    automaton: Automaton, fwd: tuple[int, ...], bwd: tuple[int, ...], u: Word, v: Word
) -> bool:
    # For fixed v the T-quantifier collapses: some T meets a set S iff S meets
    # the union of those T, so two union masks decide every S at once.
    init = 1 << automaton.initial
    d1v = automaton.step_word(init, v)
    union_all = 0
    union_bad = 0  # states covered by contexts T with δ(1,v) ∩ T = ∅
    for t_mask in bwd:
        union_all |= t_mask
        if not d1v & t_mask:
            union_bad |= t_mask
    # The S side is not collapsed into the unions P(u) and R(u): _pair_search
    # keys on those, and this checker stays apart from it.
    images = _distinct_images(automaton, fwd, u)
    hold = {s for s in images if s & init}
    for group, blocked in ((hold, union_bad), (images - hold, union_all)):
        if any(s & blocked for s in _distinct_images(automaton, group, v)):
            return False
    return True


def _distinct_images(automaton: Automaton, family, w: Word) -> set[int]:
    """The distinct nonempty δ(S, w) for S in ``family``.  δ(S, w) depends on
    S only through its mask and many S share one, so each distinct image is
    stepped once per letter, and ∅, which meets nothing, is dropped."""
    step, images = automaton.step_letter, set(family)
    for a in w.indices:
        images = {t for s in images if (t := step(s, a))}
    return images


def is_sync_pair(
    language: FiniteLanguage,
    u: Word,
    v: Word,
    method: str = "auto",
    cap: int = DEFAULT_SUBSET_CAP,
) -> bool:
    """Decide whether (u, v) is a synchronizing pair of X.

    ``method`` selects the checker: ``"code"`` (flower-automaton criterion,
    exact for codes), ``"general"`` (definition-level subset check, exact for
    any finite X), or ``"auto"`` which picks the code path exactly when X is a
    code.  Raises :class:`NotInStar` when u or v is not in X*.
    """
    _check_in_star(language, u, "u")
    _check_in_star(language, v, "v")
    if method == "auto":
        method = "code" if (not language.contains_epsilon and is_code(language)) else "general"
    if method == "code":
        return _code_pair_check(flower_automaton(language), u, v)
    if method == "general":
        automaton, fwd, bwd = _context_families(language, cap)
        return _general_pair_check(automaton, fwd, bwd, u, v)
    raise ParseError(f"unknown sync-pair method {method!r}")


def is_synchronizing_code(language: FiniteLanguage, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """Exact synchronization test for codes: X synchronizes iff it has a
    pair, so :func:`shortest_sync_pair`, run without a budget, decides it."""
    if not is_code(language):
        raise ParseError("exact synchronization test requires a code")
    return shortest_sync_pair(language, None, cap) is not None


def is_constant(language: FiniteLanguage, c: Word, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """Context-exchange test: u₁cu₂, u₃cu₄ ∈ X* forces u₁cu₄, u₃cu₂ ∈ X*.

    Over the reachable context families, f(S, T) = [δ(S, c) ∩ T ≠ ∅] must be
    a combinatorial rectangle; it is decided on the distinct nonempty images,
    as f reads S only through δ(S, c) and ∅ meets no T.  The word c need not
    lie in X*; membership is the caller's concern (the constant/pair
    dualities need c ∈ X*).
    """
    automaton, fwd, bwd = _context_families(language, cap)
    if c.alphabet != automaton.alphabet:
        raise ParseError("word alphabet differs from automaton alphabet")
    images = _distinct_images(automaton, fwd, c)
    rows = [s for s in images if any(s & t for t in bwd)]
    cols = [t for t in bwd if any(s & t for s in images)]
    return all(s & t for s in rows for t in cols)


def _require_complete_dfa(automaton: Automaton, what: str) -> None:
    """Raise unless every letter is total, naming determinism first."""
    if not all(automaton._total):
        kind = "complete" if is_deterministic(automaton) else "deterministic"
        raise AutomatonContractError(f"{what} a {kind} automaton")


def sync_word_shortest(
    automaton: Automaton, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[Word]:
    """Shortest reset word of a deterministic complete automaton.

    Breadth-first search in the power automaton from the full state set down
    to any singleton; ties break lexicographically.  Returns None when the
    automaton is not synchronizing.
    """
    _require_complete_dfa(automaton, "reset words need")
    _, word = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: t.bit_count() == 1, cap=cap,
        what="reset-word search",
    )
    return word


def is_synchronizing_dfa(automaton: Automaton) -> bool:
    """Pair-merge check, independent of the reset-word search.

    A deterministic complete automaton is synchronizing iff every pair of
    states can be mapped to a single state by some word.  The mergeable pairs
    are found by one backward search over state pairs from the diagonal, on
    per-letter predecessor lists: each pair is expanded once, so the check
    costs O(n²·d).
    """
    _require_complete_dfa(automaton, "pair-merge check needs")
    n, d = automaton.n_states, len(automaton.alphabet)
    preds: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(d)]
    for q, row in enumerate(automaton.table):
        for a, m in enumerate(row):
            preds[a][m.bit_length() - 1].append(q)
    mergeable = {(q, q) for q in range(n)}
    todo = list(mergeable)
    while todo:
        s, t = todo.pop()
        for back in preds:
            for p in back[s]:
                for q in back[t]:
                    pair = (p, q) if p <= q else (q, p)
                    if pair not in mergeable:
                        mergeable.add(pair)
                        todo.append(pair)
    return len(mergeable) == n * (n + 1) // 2


def _star_reps(automaton: Automaton, side: tuple, cap: int, back: bool) -> Iterator[list[tuple]]:
    """Minimal X*-representatives of the keys of the words u ∈ X*, one length
    at a time, or of v ∈ X* when ``back``, growing v by prepending letters.

    Searches the states (δ(R, u), δ(1, u)), capped in number, letter by
    letter, for ``side`` = (family, R, key) with R a mask of the family (Rv⁻¹
    and 1v⁻¹ when ``back``); u ∈ X* iff 1 ∈ δ(1, u).  Level L lists, sorted
    by word, the keys ``key(δ(R, u))``, or δ(R, u) with no key, first reached
    by a word of X* of length L, each with its lex-least such word.
    """
    family, rest, key = side
    step = automaton.step_letter_back if back else automaton.step_letter
    step_rest = family.step_letter_back if back else family.step_letter
    init = 1 << automaton.initial
    letters = range(len(automaton.alphabet))

    def expand(state, word):
        mask, reach = state
        for a in letters:
            nxt = step(reach, a)
            if nxt:  # δ(1, ·) = ∅: no extension lies in X*
                yield (step_rest(mask, a), nxt), ((a,) + word if back else word + (a,))

    what = "sync-pair backward enumeration" if back else "sync-pair forward enumeration"
    done: set[int] = set()
    for level in layered_search((rest, init), (), expand, cap=cap, what=what):
        states = level.items()
        if key is not None:
            states = [((key(mask), reach), word) for (mask, reach), word in states if reach & init]
        reps: dict[int, tuple[int, ...]] = {}
        for (mask, reach), word in states:
            if reach & init and mask not in done and (mask not in reps or word < reps[mask]):
                reps[mask] = word
        done.update(reps)
        yield sorted(zip(reps.values(), reps))  # (word, key), by word


def shortest_sync_pair(
    language: FiniteLanguage, budget: Optional[int] = 12, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[SyncPair]:
    """The least synchronizing pair (u, v) ∈ X* × X* under (|uv|, |u|, lex u,
    lex v) with |uv| ≤ ``budget``, or None (X may synchronize with longer).
    With ``budget`` None the least pair of all, or None exactly when X does
    not synchronize: the search ends on its own (see :func:`_pair_search`).
    A complete prefix or suffix code takes :func:`_one_sided_pair`, any other
    ε-free X :func:`_pair_search` on its flower automaton."""
    if language.contains_epsilon:
        raise EpsilonNotAllowed("synchronizing pairs require ε ∉ X")
    code = is_code(language)
    one_sided = _one_sided_flower(language) if code else None
    if one_sided is None:
        return _pair_search(flower_automaton(language), code, budget, cap)
    return _one_sided_pair(*one_sided, budget, cap)


def _context_side(automaton: Automaton, members: tuple[int, ...], back: bool) -> tuple:
    """The search side (family, rest, key) of the context family F = {δ(1, r)},
    or of B = {T_s} when ``back``.  The family is the automaton S → δ(S, a) on
    the members of F (T → Ta⁻¹ on B, read by ``step_letter_back``), so its
    subset δ(F, u) is {δ(S, u) : S ∈ F} ∖ {∅}; rest is all of F; the key is
    {1} ∪ P | R << n (A | N << n on B), any bits above F moved to 2n."""
    n, init = automaton.full_mask.bit_length(), 1 << automaton.initial
    step = automaton.step_letter_back if back else automaton.step_letter
    index = {m: i for i, m in enumerate(members)}
    letters = range(len(automaton.alphabet))
    table = tuple(tuple(1 << index[t] if (t := step(m, a)) else 0 for a in letters) for m in members)
    family = Automaton(len(members), automaton.alphabet, table)

    def key(mask):
        miss_hold = [0, 0]
        for i, m in enumerate(members):
            if mask >> i & 1:
                miss_hold[m & init != 0] |= m
        miss, hold = miss_hold
        return (hold | miss | miss << n if back else init | miss | hold << n) | mask >> len(members) << 2 * n
    return reverse(family) if back else family, family.full_mask, key


def _pair_search(
    automaton: Automaton, code: bool, budget: Optional[int], cap: int, letter_change: bool = False
) -> Optional[SyncPair]:
    """The one least-pair search, on the flower automaton of X, or on any
    object with its kernel interface: :func:`_star_reps` of u and of v, each
    side on its ``(family, rest, key)``, paired by total length, then (|u|,
    lex u, lex v); (u, v) is taken iff key(u) ∩ key(v) = {1}, the pair test.
    For a ``code`` both sides are the automaton itself, keyed by δ(Q, u) and
    Qv⁻¹, and the test is Qu ∩ Qv⁻¹ = {1}.  Any other X is searched on the
    context automata of the families :func:`_context_closure` closes on the
    automaton (:func:`_context_side`).  On any ε-free X, δ(S, uv) meets T
    iff δ(S, u) meets Tv⁻¹, so (u, v) synchronizes iff P(u) ∩ A(v) = ∅ and
    R(u) ∩ N(v) = ∅: P(u) and R(u) are the unions of the δ(S, u), S ∈ F, that
    miss and that hold state 1, A(v) ∋ 1 that of the Tv⁻¹, T ∈ B, and N(v)
    that of those missing 1.  With ``letter_change`` each side also runs the
    letter-change automaton, ε and one state per letter a, with ε → a and
    a → a under a, from ε for u and from all of it for v: these parts of the
    keys meet iff δ(ε, uv) ≠ ∅, iff uv has no two distinct adjacent letters.

    Exact: the test depends on u only through its key, so the least pair has
    for u the least word of X* with its key, and v likewise.  Returns None
    when no pair has |uv| ≤ ``budget``, or with no budget when there is none:
    once both searches have ended after E_u and E_v levels, no pair is
    longer than E_u + E_v − 2.
    """
    if code:
        sides = [(automaton, automaton.full_mask, None)] * 2
    else:
        families = _context_closure(automaton, cap)
        sides = [_context_side(automaton, members, back) for back, members in enumerate(families)]
    checked_by = "code" if code else "general"
    init, d = 1 << automaton.initial, len(automaton.alphabet)
    if letter_change:  # the letter-change automaton goes on states n, …, n + d of each family
        for back, (family, rest, key) in enumerate(sides):
            n = family.n_states
            change = tuple(tuple(1 << n + a if b in (a, d) else 0 for a in range(d)) for b in range(d + 1))
            family = Automaton(n + d + 1, automaton.alphabet, family.table + change)
            sides[back] = family, rest | ((1 << d + 1) - 1 if back else 1 << d) << n, key
    searches = [_star_reps(automaton, sides[0], cap, False), _star_reps(automaton, sides[1], cap, True)]
    fwd, bwd = [], []  # representatives by length
    ends = [None, None]  # the level count of each search once it has ended
    for total in itertools.count() if budget is None else range(budget + 1):
        for side, reps in enumerate((fwd, bwd)):
            level = next(searches[side], None)
            if level is None and ends[side] is None:
                ends[side] = total
            reps.append(level or [])
        for lu in range(total + 1):
            for (wu, ku), (wv, kv) in itertools.product(fwd[lu], bwd[total - lu]):
                if ku & kv == init:
                    return SyncPair(Word(automaton.alphabet, wu), Word(automaton.alphabet, wv), checked_by)
        if None not in ends and total >= ends[0] + ends[1] - 2:
            return None
    return None


def _one_sided_flower(language: FiniteLanguage) -> Optional[tuple[Automaton, bool]]:
    """For a code X that is complete and prefix, its flower automaton and
    False; complete and suffix only, the flower of its mirror image and True;
    otherwise None.  X must be an ε-free code, so completeness is its Kraft sum.
    That flower is a complete deterministic automaton, on which alone the
    preimage search of :func:`_one_sided_pair` gives the image side's answer,
    so a letter of it that is not total raises :class:`InternalInvariantError`.
    """
    if not is_complete_language(language):
        return None
    mirror = not is_prefix(language)
    prefix_code = language.reversed() if mirror else language
    if mirror and not is_prefix(prefix_code):
        return None
    automaton = flower_automaton(prefix_code)
    if not all(automaton._total):
        raise InternalInvariantError(
            "the flower of a complete prefix code has a letter that is not total",
            {"words": language.word_strings(), "mirror": mirror},
        )
    return automaton, mirror


def _one_sided_pair(
    automaton: Automaton, mirror: bool, budget: Optional[int], cap: int
) -> Optional[SyncPair]:
    """The minimal pair (u, ε) of a complete prefix code, with u the (length,
    lex)-least word such that δ(Q, u) = {1}, on its flower automaton or on any
    object with the same kernel interface; None when no such u has |u| ≤
    ``budget``, or with no budget when X does not synchronize.

    The flower of a complete prefix code is a complete deterministic automaton,
    so Qv⁻¹ = Q for every v and (u, v) synchronizes iff Qu = {1}, which also
    puts u in X*: the least pair under (|uv|, |u|, lex u, lex v) has v = ε.
    (Biskup–Plandowski, "Shortest synchronizing strings for Huffman codes",
    TCS 2009, study the length of this u.)  With ``mirror`` the automaton is
    the flower of the mirror image of a complete suffix code X, and the answer
    is (ε, v): (u, v) synchronizes X iff (v̄, ū) synchronizes the mirror, so v
    is the (length, lex)-least mirror image of such a word.

    The search runs on preimages: on a complete deterministic automaton
    δ(Q, u) = {1} iff {1}u⁻¹ = Q, so it starts from {1}, steps with
    ``step_letter_back`` and stops at Q.  u grows by prepending letters, and
    v, the mirror image of the mirror's word, by appending them; either way
    the key order stays compatible with extension, so the layered search
    stays exact.  Its subsets are far fewer than the image side's on X_n
    (X_9 stores 74 instead of 54,358), and the complement stepping of
    ``step_letter_back`` keeps its near-full masks cheap.
    """
    full = automaton.full_mask
    step = automaton.step_letter_back
    letters = range(len(automaton.alphabet))

    def expand(mask, word):
        for a in letters:
            yield step(mask, a), (word + (a,) if mirror else (a,) + word)

    lengths = itertools.count() if budget is None else range(budget + 1)
    levels = layered_search(1 << automaton.initial, (), expand, cap=cap, what="reset-to-root search")
    for _, level in zip(lengths, levels):  # zip stops before a level beyond the budget
        if full in level:
            w, empty = Word(automaton.alphabet, level[full]), Word.epsilon(automaton.alphabet)
            return SyncPair(empty, w) if mirror else SyncPair(w, empty)
    return None


def cerny_family(n: int) -> FiniteLanguage:
    """The slowly synchronizing prefix code family X_n over {a, b}.

    X_n consists of all words a·A^{n-2} and b·A^{n-1}; it is a complete prefix
    code of size n with 2^{n-2} + 2^{n-1} words whose canonical synchronizing
    pair ((a b^{n-2})^{n-1}, ε) has total length (n-1)², while the minimal DFA
    of X_n* needs reset words of length n² - 3n + 3.
    """
    if n < 3:
        raise ParseError("the X_n family needs n ≥ 3")
    alphabet = Alphabet.binary()
    words = [(0,) + tail for tail in itertools.product((0, 1), repeat=n - 2)]
    words += [(1,) + tail for tail in itertools.product((0, 1), repeat=n - 1)]
    return FiniteLanguage(alphabet, tuple(Word(alphabet, w) for w in words))


def cerny_canonical_pair(n: int) -> SyncPair:
    """The pair ((a b^{n-2})^{n-1}, ε) of total length (n-1)²."""
    if n < 3:
        raise ParseError("the X_n family needs n ≥ 3")
    alphabet = Alphabet.binary()
    block = (0,) + (1,) * (n - 2)
    return SyncPair(
        u=Word(alphabet, block * (n - 1)),
        v=Word.epsilon(alphabet),
        checked_by="code",
    )

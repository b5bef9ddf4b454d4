"""Synchronizing pairs, constants, reset words and the Černý witness family.

Two checkers certify a pair (u, v) ∈ X* × X*:

* the code path tests Qu ∩ Qv⁻¹ = {1} on the flower automaton, which is the
  exact criterion when X is a code (and a sound sufficient condition always);
* the general path quantifies over all forward-reachable subsets S = δ(1, r)
  and backward-reachable subsets T = {q : 1 ∈ δ(q, s)} and checks that every
  completion context splits:  δ(S, uv) ∩ T ≠ ∅ implies 1 ∈ δ(S, u) and
  δ(1, v) ∩ T ≠ ∅.

Both subset families are finite, computed once per language and memoized on
it, since pair testing is the hot path of the exact search.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .automata import (
    Automaton,
    flower_automaton,
    is_deterministic,
    step_backward,
    step_forward,
    subset_bfs,
)
from .errors import (
    AutomatonContractError,
    EpsilonNotAllowed,
    NotInStar,
    ParseError,
    SubsetCapExceeded,
    DEFAULT_SUBSET_CAP,
)
from .languages import Alphabet, FiniteLanguage, Word, is_code, kleene_membership


@dataclass(frozen=True)
class SyncPair:
    """A synchronizing pair (u, v) with both components certified in X*."""

    u: Word
    v: Word
    checked_by: str = "code"

    @property
    def total_length(self) -> int:
        return len(self.u) + len(self.v)


def _family(language: FiniteLanguage, full: bool, back: bool, cap: int) -> tuple[int, ...]:
    """The nonempty subsets δ(S, w) (δ(S, w⁻¹) when ``back``) over all words w,
    from S = Q when ``full`` and S = {1} otherwise; memoized on the language."""
    key = ("family", full, back)
    family = language._memo.get(key)
    if family is None:
        automaton = flower_automaton(language)
        start = automaton.full_mask if full else 1 << automaton.initial
        order, _ = subset_bfs(automaton, start, back=back, cap=cap, what="subset family closure")
        family = language._memo[key] = tuple(order)
    elif len(family) > cap:
        raise SubsetCapExceeded(cap, "subset family closure")
    return family


def _context_families(language: FiniteLanguage, cap: int) -> tuple[Automaton, tuple[int, ...], tuple[int, ...]]:
    """Flower automaton plus the families {δ(1,r)} and {T_s} used by the
    general checker and the constant test."""
    return (
        flower_automaton(language),
        _family(language, False, False, cap),
        _family(language, False, True, cap),
    )


def _check_in_star(language: FiniteLanguage, w: Word, name: str) -> None:
    if not kleene_membership(language, w):
        raise NotInStar(f"{name} = {w.text!r} is not in X*")


def _code_pair_check(automaton: Automaton, u: Word, v: Word) -> bool:
    full = automaton.full_mask
    qu = step_forward(automaton, full, u)
    qv_back = step_backward(automaton, full, v)
    return qu & qv_back == 1 << automaton.initial


def _general_pair_check(
    automaton: Automaton, fwd: tuple[int, ...], bwd: tuple[int, ...], u: Word, v: Word
) -> bool:
    # For fixed v the T-quantifier collapses: some T meets a set S iff S meets
    # the union of those T, so two union masks decide every S at once.
    init = 1 << automaton.initial
    d1v = step_forward(automaton, init, v)
    union_all = 0
    union_bad = 0  # states covered by contexts T with δ(1,v) ∩ T = ∅
    for t_mask in bwd:
        union_all |= t_mask
        if not d1v & t_mask:
            union_bad |= t_mask
    for s_mask in fwd:
        su = step_forward(automaton, s_mask, u)
        suv = step_forward(automaton, su, v)
        blocked = union_bad if su & init else union_all
        if suv & blocked:
            return False
    return True


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
    """Exact synchronization test for codes.

    X is a synchronizing code iff some words w₁, w₂ over the alphabet satisfy
    Qw₁ ∩ Qw₂⁻¹ = {1} on its (unambiguous) flower automaton; both subset
    families are finite, so this is a complete decision procedure.
    """
    if not is_code(language):
        raise ParseError("exact synchronization test requires a code")
    init = 1 << flower_automaton(language).initial
    bwd_set = set(_family(language, True, True, cap))
    for s in _family(language, True, False, cap):
        if s & init and any(s & t == init for t in bwd_set):
            return True
    return False


def is_constant(language: FiniteLanguage, c: Word, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """Context-exchange test: u₁cu₂, u₃cu₄ ∈ X* forces u₁cu₄, u₃cu₂ ∈ X*.

    Over the reachable context families, f(S, T) = [δ(S, c) ∩ T ≠ ∅] must be
    a combinatorial rectangle.  The word c need not lie in X*; membership is
    the caller's concern (the constant/pair dualities need c ∈ X*).
    """
    automaton, fwd, bwd = _context_families(language, cap)
    images = {s: step_forward(automaton, s, c) for s in fwd}
    rows = [s for s in fwd if any(images[s] & t for t in bwd)]
    cols = [t for t in bwd if any(images[s] & t for s in fwd)]
    return all(images[s] & t for s in rows for t in cols)


def sync_word_shortest(
    automaton: Automaton, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[Word]:
    """Shortest reset word of a deterministic complete automaton.

    Breadth-first search in the power automaton from the full state set down
    to any singleton; ties break lexicographically.  Returns None when the
    automaton is not synchronizing.
    """
    if not is_deterministic(automaton):
        raise AutomatonContractError("reset words need a deterministic automaton")
    d = len(automaton.alphabet)
    for q in range(automaton.n_states):
        if any(automaton.table[q][a] == 0 for a in range(d)):
            raise AutomatonContractError("reset words need a complete automaton")
    _, word = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: t.bit_count() == 1, cap=cap,
        what="reset-word search",
    )
    return word


def is_synchronizing_dfa(automaton: Automaton) -> bool:
    """All-pairs merge check, independent of the reset-word search.

    A deterministic complete automaton is synchronizing iff every pair of
    states can be mapped to a single state by some word.
    """
    if not is_deterministic(automaton):
        raise AutomatonContractError("pair-merge check needs a deterministic automaton")
    n, d = automaton.n_states, len(automaton.alphabet)
    if any(automaton.table[q][a] == 0 for q in range(n) for a in range(d)):
        raise AutomatonContractError("pair-merge check needs a complete automaton")

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


def _star_reps(
    language: FiniteLanguage, automaton: Automaton, budget: int, cap: int, back: bool
) -> list[tuple[int, tuple[int, ...], int]]:
    """Minimal X*-representatives of the subsets δ(Q, u), u ∈ X*, |u| ≤ budget,
    or of δ(Q, v⁻¹) when ``back``, growing v by prepending codewords.

    Returns (length, indices, mask) sorted by (length, indices); each distinct
    mask keeps only its (length, lex)-least witness, which is enough for the
    code-path search because the pair test depends on u only through δ(Q, u).
    """
    step = step_backward if back else step_forward
    full = automaton.full_mask
    heap: list[tuple[int, tuple[int, ...], int]] = [(0, (), full)]
    best: dict[int, tuple[int, tuple[int, ...]]] = {}
    out = []
    while heap:
        length, word, mask = heapq.heappop(heap)
        if mask in best:
            continue
        best[mask] = (length, word)
        if len(best) > cap:
            what = "sync-pair backward enumeration" if back else "sync-pair forward enumeration"
            raise SubsetCapExceeded(cap, what)
        out.append((length, word, mask))
        for x in language.words:
            nl = length + len(x)
            if nl > budget:
                continue
            nm = step(automaton, mask, x)
            if nm not in best:
                heapq.heappush(heap, (nl, x.indices + word if back else word + x.indices, nm))
    return out


def _star_words(language: FiniteLanguage, budget: int) -> list[tuple[int, tuple[int, ...]]]:
    """All distinct words of X* up to the length budget, sorted (length, lex)."""
    seen: set[tuple[int, ...]] = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for x in language.words:
                c = w + x.indices
                if len(c) <= budget and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted((len(w), w) for w in seen)


def shortest_sync_pair(
    language: FiniteLanguage,
    budget: int = 12,
    cap: int = DEFAULT_SUBSET_CAP,
    where=None,
) -> Optional[SyncPair]:
    """Exact search for a synchronizing pair of minimal total length.

    Candidates u, v are enumerated as codeword concatenations (the definition
    requires u, v ∈ X*) in nondecreasing |uv|, with ties broken by
    (|u|, lex u, lex v).  Returns None when no pair with |uv| ≤ budget exists;
    X may still be synchronizing via longer pairs.

    ``where(u, v)`` optionally filters acceptable pairs.  A filter disables
    the subset-representative compression of the code path, because distinct
    words with equal subset dynamics are interchangeable for the pair test
    but not for an arbitrary predicate.
    """
    if language.contains_epsilon:
        raise EpsilonNotAllowed("synchronizing pairs require ε ∉ X")
    code = is_code(language)
    automaton = flower_automaton(language)
    if code and where is None:
        fwd = _star_reps(language, automaton, budget, cap, back=False)
        bwd = _star_reps(language, automaton, budget, cap, back=True)
        init = 1 << automaton.initial
        by_len: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for length, word, mask in bwd:
            by_len.setdefault(length, []).append((word, mask))
        for total in range(budget + 1):
            for lu, wu, mu in fwd:
                if lu > total:
                    break
                for wv, mv in by_len.get(total - lu, ()):  # lex-sorted already
                    if mu & mv == init:
                        return SyncPair(
                            u=Word(language.alphabet, wu),
                            v=Word(language.alphabet, wv),
                            checked_by="code",
                        )
        return None
    words = _star_words(language, budget)
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for lv, wv in words:
        by_len.setdefault(lv, []).append(wv)
    checker = (
        partial(_code_pair_check, automaton)
        if code
        else partial(_general_pair_check, *_context_families(language, cap))
    )
    for total in range(budget + 1):
        for lu, wu in words:
            if lu > total:
                break
            for wv in by_len.get(total - lu, ()):
                u = Word(language.alphabet, wu)
                v = Word(language.alphabet, wv)
                if where is not None and not where(u, v):
                    continue
                if checker(u, v):
                    return SyncPair(u=u, v=v, checked_by="code" if code else "general")
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
    words = []
    for tail in itertools.product((0, 1), repeat=n - 2):
        words.append(Word(alphabet, (0,) + tail))
    for tail in itertools.product((0, 1), repeat=n - 1):
        words.append(Word(alphabet, (1,) + tail))
    return FiniteLanguage(alphabet, tuple(words))


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

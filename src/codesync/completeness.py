"""Completeness decisions, shortest incompletable words, completion witnesses.

A word w is completable in X when some pair (r, s) has r·w·s ∈ X*; on the trim
flower automaton this is exactly δ(Q, w) ≠ ∅, so incompletable words are found
by a breadth-first search over subsets δ(Q, ·) looking for ∅.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import Automaton, flower_automaton, states_from_mask, step_forward, subset_bfs
from .errors import InternalInvariantError, SubsetCapExceeded, DEFAULT_SUBSET_CAP
from .languages import FiniteLanguage, Word, kleene_membership


@dataclass(frozen=True)
class CompletionWitness:
    """A verified completion r·w·s ∈ X* of the target word w."""

    r: Word
    s: Word
    word: Word
    left_in_star: bool


def shortest_incompletable(
    language: FiniteLanguage, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[Word]:
    """A shortest incompletable word of X, or None when X is complete.

    Ties among shortest witnesses are broken lexicographically in alphabet
    order, so the output is reproducible.
    """
    automaton = flower_automaton(language)
    _, word = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: not t, cap=cap,
        what="incompletable-word search",
    )
    return word


def is_complete_language(language: FiniteLanguage, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    return shortest_incompletable(language, cap) is None


def _access_words(automaton: Automaton) -> list[Optional[Word]]:
    """Shortest (then lex-least) label of a path from state 1 to each state."""
    d = len(automaton.alphabet)
    out: list[Optional[Word]] = [None] * automaton.n_states
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


def _coaccess_words(automaton: Automaton) -> list[Optional[Word]]:
    """Shortest (then lex-least) label of a path from each state to state 1."""
    d = len(automaton.alphabet)
    out: list[Optional[Word]] = [None] * automaton.n_states
    out[automaton.initial] = Word.epsilon(automaton.alphabet)
    # Dijkstra-flavoured relaxation on (length, word); the graph is tiny and
    # rescanning until fixpoint keeps the tie-break exact.
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


def find_completion(
    language: FiniteLanguage, w: Word, trim: bool = True
) -> Optional[CompletionWitness]:
    """A completion witness (r, s) with r·w·s ∈ X*, or None if w is incompletable.

    The witness is found as a path search in the flower automaton; because
    flower states are proper prefixes of codewords, the shortest connecting
    labels satisfy |r|, |s| ≤ ℓ(X) − 1, which is checked when ``trim`` is
    set.  When w ∈ X* the trivial witness (ε, ε) is returned.
    """
    automaton = flower_automaton(language)
    access = _access_words(automaton)
    coaccess = _coaccess_words(automaton)
    candidates = sorted(
        range(automaton.n_states), key=lambda q: (len(access[q]), access[q].indices)
    )
    for p in candidates:
        image = step_forward(automaton, 1 << p, w)
        if not image:
            continue
        q = min(
            states_from_mask(image),
            key=lambda t: (len(coaccess[t]), coaccess[t].indices),
        )
        r, s = access[p], coaccess[q]
        details = {"r": r.text, "w": w.text, "s": s.text}
        if not kleene_membership(language, r + w + s):
            raise InternalInvariantError("completion r·w·s is not in X*", details)
        if trim and max(len(r), len(s)) > max(language.size - 1, 0):
            raise InternalInvariantError("completion exceeds the trim bound ℓ(X) − 1", details)
        return CompletionWitness(
            r=r, s=s, word=w, left_in_star=kleene_membership(language, r)
        )
    return None


def left_star_completion(
    language: FiniteLanguage, w: Word, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[CompletionWitness]:
    """A completion (y, s) of w with the left context y ∈ X*.

    Searches breadth-first over the subsets δ(1, y) where y ranges over
    codeword concatenations; succeeds as soon as δ(S, w) ≠ ∅ and closes with
    the shortest suffix to state 1.  For complete X this always succeeds; a
    None result signals that no left-star completion exists (in particular
    that X is incomplete).
    """
    automaton = flower_automaton(language)
    coaccess = _coaccess_words(automaton)
    codewords = list(language.words)

    def apply_word(mask: int, x: Word) -> int:
        for a in x.indices:
            mask = automaton.step_letter(mask, a)
        return mask

    start = 1 << automaton.initial
    parent: dict[int, tuple[int, int]] = {}
    seen = {start}
    queue = [start]
    head = 0
    while head < len(queue):
        s_mask = queue[head]
        head += 1
        image = step_forward(automaton, s_mask, w)
        if image:
            q = min(
                states_from_mask(image),
                key=lambda t: (len(coaccess[t]), coaccess[t].indices),
            )
            pieces = []
            cur = s_mask
            while cur != start:
                prev, idx = parent[cur]
                pieces.append(codewords[idx])
                cur = prev
            pieces.reverse()
            y = Word.epsilon(language.alphabet)
            for piece in pieces:
                y = y + piece
            s = coaccess[q]
            if not (kleene_membership(language, y) and kleene_membership(language, y + w + s)):
                details = {"y": y.text, "w": w.text, "s": s.text}
                raise InternalInvariantError("left-star completion y·w·s is not in X*", details)
            return CompletionWitness(r=y, s=s, word=w, left_in_star=True)
        for idx, x in enumerate(codewords):
            t = apply_word(s_mask, x)
            if t and t not in seen:
                seen.add(t)
                if len(seen) > cap:
                    raise SubsetCapExceeded(cap, "left-star completion search")
                parent[t] = (s_mask, idx)
                queue.append(t)
    return None


def brute_force_incompletable(
    language: FiniteLanguage, max_len: int
) -> Optional[Word]:
    """Independent oracle: the shortest incompletable word of length ≤ max_len.

    Tests every candidate w for factor-of-X* membership by trying all context
    pairs (r, s) with |r|, |s| ≤ ℓ(X) − 1 against the dynamic-programming
    membership oracle; no automaton is involved.  Returns None when every word
    up to max_len is completable.
    """
    alphabet = language.alphabet
    d = len(alphabet)
    bound = max(language.size - 1, 0)
    contexts: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(bound):
        frontier = [c + (a,) for c in frontier for a in range(d)]
        contexts.extend(frontier)

    def completable(w: tuple[int, ...]) -> bool:
        for r in contexts:
            for s in contexts:
                if kleene_membership(language, Word(alphabet, r + w + s)):
                    return True
        return False

    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in range(d)]
        for w in level:
            if not completable(w):
                return Word(alphabet, w)
    return None

"""Completeness decisions, shortest incompletable words, completion witnesses.

A word w is completable in X when some pair (r, s) has r·w·s ∈ X*; on the trim
flower automaton this is exactly δ(Q, w) ≠ ∅, so incompletable words are found
by a breadth-first search over subsets δ(Q, ·) looking for ∅.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    Automaton,
    flower_automaton,
    layered_search,
    states_from_mask,
    subset_bfs,
)
from .errors import InternalInvariantError, DEFAULT_SUBSET_CAP
from .languages import FiniteLanguage, Word, is_code, kleene_membership


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
    return _incompletable_word(flower_automaton(language), cap)


def _incompletable_word(automaton: Automaton, cap: int) -> Optional[Word]:
    """The least word w with δ(Q, w) = ∅ on any object that steps subsets as an
    :class:`Automaton` does, such as a view of the flower automaton."""
    _, word = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: not t, cap=cap,
        what="incompletable-word search",
    )
    return word


def is_complete_automaton(automaton: Automaton, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """True iff δ(Q, u) is nonempty for every word u."""
    return _incompletable_word(automaton, cap) is None


def is_complete_language(language: FiniteLanguage, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """True iff every word is completable in X.

    An ε-free code is decided by Schützenberger's theorem (Berstel–Perrin–
    Reutenauer, *Codes and Automata*): a finite code is complete iff its Kraft
    sum Σ d^−|x| is 1, tested in integers as Σ d^(ℓ−|x|) = d^ℓ, with no search
    and no cap.  Any other set is decided by the search for an incompletable
    word, which its Kraft sum does not replace.
    """
    if not language.contains_epsilon and is_code(language):
        d, top = len(language.alphabet), language.size
        return sum(d ** (top - len(x)) for x in language.words) == d ** top
    return shortest_incompletable(language, cap) is None


def _state_words(automaton: Automaton, back: bool) -> list[Optional[Word]]:
    """Shortest, then lex-least, label of a path from state 1 to each state, or
    from each state to state 1 when ``back`` (grown by prepending letters)."""
    rows = automaton._rev_rows if back else automaton._letter_rows
    letters = range(len(automaton.alphabet))

    def expand(q, word):
        for a in letters:
            for t in states_from_mask(rows[a][q]):
                yield t, ((a,) + word if back else word + (a,))

    out: list[Optional[Word]] = [None] * automaton.n_states
    levels = layered_search(
        automaton.initial, (), expand, cap=automaton.n_states, what="state-word search"
    )
    for level in levels:
        for q, word in level.items():
            out[q] = Word(automaton.alphabet, word)
    return out


def find_completion(language: FiniteLanguage, w: Word) -> Optional[CompletionWitness]:
    """A completion witness (r, s) with r·w·s ∈ X*, or None if w is incompletable.

    The witness is found as a path search in the flower automaton; because
    flower states are proper prefixes of codewords, the shortest connecting
    labels satisfy |r|, |s| ≤ ℓ(X) − 1, which is always checked.  When
    w ∈ X* the trivial witness (ε, ε) is returned.
    """
    automaton = flower_automaton(language)
    access = _state_words(automaton, back=False)
    coaccess = _state_words(automaton, back=True)
    for p in sorted(range(automaton.n_states), key=lambda q: access[q].sort_key()):
        image = automaton.step_word(1 << p, w)
        if not image:
            continue
        r = access[p]
        s = min((coaccess[q] for q in states_from_mask(image)), key=Word.sort_key)
        details = {"r": r.text, "w": w.text, "s": s.text}
        if not kleene_membership(language, r + w + s):
            raise InternalInvariantError("completion r·w·s is not in X*", details)
        if max(len(r), len(s)) > max(language.size - 1, 0):
            raise InternalInvariantError("completion exceeds the trim bound ℓ(X) − 1", details)
        return CompletionWitness(
            r=r, s=s, word=w, left_in_star=kleene_membership(language, r)
        )
    return None


def left_star_completion(
    language: FiniteLanguage, w: Word, cap: int = DEFAULT_SUBSET_CAP
) -> Optional[CompletionWitness]:
    """A completion (y, s) of w with the left context y ∈ X*.

    Searches the subsets δ(1, y) level by level, y ranging over codeword
    concatenations keyed by their codeword-index sequence; the hit is the least
    key in the first level with δ(S, w) ≠ ∅, closed with the shortest suffix
    back to state 1.  For complete X this always succeeds; a None result
    signals that no left-star completion exists (in particular that X is
    incomplete).  The cap on distinct subsets is checked once per level.
    """
    automaton = flower_automaton(language)
    coaccess = _state_words(automaton, back=True)
    codewords = language.words

    def expand(mask, key):
        for idx, x in enumerate(codewords):
            t = automaton.step_word(mask, x)
            if t:
                yield t, key + (idx,)

    levels = layered_search(
        1 << automaton.initial, (), expand, cap=cap, what="left-star completion search"
    )
    for level in levels:
        for mask, key in sorted(level.items(), key=lambda item: item[1]):
            image = automaton.step_word(mask, w)
            if not image:
                continue
            y = Word(language.alphabet, tuple(a for i in key for a in codewords[i].indices))
            s = min((coaccess[q] for q in states_from_mask(image)), key=Word.sort_key)
            if not (kleene_membership(language, y) and kleene_membership(language, y + w + s)):
                details = {"y": y.text, "w": w.text, "s": s.text}
                raise InternalInvariantError("left-star completion y·w·s is not in X*", details)
            return CompletionWitness(r=y, s=s, word=w, left_in_star=True)
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

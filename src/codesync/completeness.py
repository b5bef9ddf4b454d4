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
    _flower_states,
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

    The answer is memoized on the language with the cap it was found under (0
    for a Kraft sum); a smaller cap searches again, so a cap error is raised
    exactly when it would be without the memo, and is never memoized.
    """
    memo = language._memo.get("complete")
    if memo is not None and memo[1] <= cap:
        return memo[0]
    if not language.contains_epsilon and is_code(language):
        d, top = len(language.alphabet), language.size
        complete, cap = sum(d ** (top - len(x)) for x in language.words) == d ** top, 0
    else:
        complete = shortest_incompletable(language, cap) is None
    language._memo["complete"] = complete, cap
    return complete


def _return_word(language: FiniteLanguage, states: list, image: int) -> Word:
    """The least word leading a state of ``image`` back to state 1: ε if the
    image holds state 1, else the least t ≠ ε with q·t ∈ X, q a state's prefix."""
    heads = {states[q] for q in states_from_mask(image)}
    tails = (x[k:] for x in (w.indices for w in language.words) for k in range(1, len(x)) if x[:k] in heads)
    return Word(language.alphabet, () if image & 1 else min(tails, key=lambda t: (len(t), t)))


def find_completion(language: FiniteLanguage, w: Word) -> Optional[CompletionWitness]:
    """A completion witness (r, s) with r·w·s ∈ X*, or None if w is incompletable.

    No search runs: r is the prefix of the first flower state p, in index
    order, with δ(p, w) ≠ ∅, and s the least word from δ(p, w) back to state 1.
    Both are least in (length, lex) order.  Every path from 1 to p ends by
    reading p from state 1, so p is its only path of length |p|, and index
    order is access-word order; a path from p first returns to 1 when it
    completes a word of X, so the least path back is a first return.  Hence
    |r|, |s| ≤ ℓ(X) − 1; that bound and r·w·s ∈ X* are always checked.  When
    w ∈ X* the trivial witness (ε, ε) is returned.
    """
    automaton = flower_automaton(language)
    states = _flower_states(language)
    for p, prefix in enumerate(states):
        image = automaton.step_word(1 << p, w)
        if not image:
            continue
        r, s = Word(language.alphabet, prefix), _return_word(language, states, image)
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
    key in the first level with δ(S, w) ≠ ∅, closed with the least word from
    δ(S, w) back to state 1, read as in :func:`find_completion`.  For complete
    X this always succeeds; a None result signals that no left-star completion
    exists (in particular that X is incomplete).  The cap on distinct subsets
    is checked once per level.
    """
    automaton = flower_automaton(language)
    states = _flower_states(language)
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
            s = _return_word(language, states, image)
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

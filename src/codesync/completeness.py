"""Completeness decisions, shortest incompletable words, completion witnesses.

A word w is completable in X when some pair (r, s) has r·w·s ∈ X*; on the trim
flower automaton this is exactly δ(Q, w) ≠ ∅, so incompletable words are found
by a breadth-first search over subsets δ(Q, ·) looking for ∅, and a completable
word's least (r, s) is read off the flower's prefixes with no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (
    Automaton,
    _flower_states,
    flower_automaton,
    states_from_mask,
    subset_bfs,
)
from .errors import InternalInvariantError
from .languages import FiniteLanguage, Word, is_code, kleene_membership


@dataclass(frozen=True)
class CompletionWitness:
    """A verified completion r·w·s ∈ X* of the target word w."""

    r: Word
    s: Word
    word: Word


def shortest_incompletable(language: FiniteLanguage) -> Optional[Word]:
    """A shortest incompletable word of X, or None when X is complete.

    Ties among shortest witnesses are broken lexicographically in alphabet
    order, so the output is reproducible.
    """
    return _incompletable_word(flower_automaton(language))


def _incompletable_word(automaton: Automaton) -> Optional[Word]:
    """The least word w with δ(Q, w) = ∅ on any object that steps subsets as an
    :class:`Automaton` does, such as a view of the flower automaton."""
    _, word = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: not t, what="incompletable-word search"
    )
    return word


def is_complete_language(language: FiniteLanguage) -> bool:
    """True iff every word is completable in X.

    An ε-free code is decided by Schützenberger's theorem (Berstel–Perrin–
    Reutenauer, *Codes and Automata*): a finite code is complete iff its Kraft
    sum Σ d^−|x| is 1, tested in integers as Σ d^(ℓ−|x|) = d^ℓ, with no search
    and no cap.  Any other set is decided by the search for an incompletable
    word, which its Kraft sum does not replace.

    The answer is memoized on the language; a cap error propagates before
    anything is stored, so it is never memoized.
    """
    complete = language._memo.get("complete")
    if complete is not None:
        return complete
    if not language.contains_epsilon and is_code(language):
        d, top = len(language.alphabet), language.size
        complete = sum(d ** (top - len(x)) for x in language.words) == d ** top
    else:
        complete = shortest_incompletable(language) is None
    language._memo["complete"] = complete
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
    |r|, |s| ≤ ℓ(X) − 1; that bound and r·w·s ∈ X* are always checked (r
    itself need not lie in X*).  When w ∈ X* the witness is (ε, ε).
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
        return CompletionWitness(r=r, s=s, word=w)
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

"""The constructive pipeline bounding synchronizing-pair length by
incompletable-word length.

Given a complete code X with a synchronizing pair (v₁, v₂), each side is
reduced independently: writing v₁ = u·a, a marked copy a′ of the letter a is
added whose transitions are

    δ′(q, a′) = δ(q, a) ∪ {1}   if q ∉ δ(Q, u),
    δ′(q, a′) = δ(q, a) \\ {1}   otherwise,

which makes the first-return language Y of the modified automaton incomplete
without increasing its size.  A minimal incompletable word v of Y with as few
marked letters as possible splits as v = u₁·a′·u₂, and w₁ = u₁·a then
satisfies Qw₁ ⊆ Qv₁ with |w₁| ≤ |v|.  The right side runs the same machinery
on the edge-reversed automaton.  A trimmed completion (r, s) of w₁w₂ finally
yields the synchronizing pair (r·w₁, w₂·s), whose total length is at most
2·max(|v_left|, |v_right|) + 2ℓ(X) − 2; for prefix codes with v₂ = ε the pair
(w₁, ε) is returned as well.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

from .automata import (
    Automaton,
    automaton_to_json,
    first_return_language,
    first_return_size,
    flower_automaton,
    is_transitive,
    layered_search,
    reverse,
    states_from_mask,
)
from .completeness import find_completion, is_complete_language
from .errors import (
    InternalInvariantError,
    NotACode,
    NotComplete,
    NotSynchronizing,
    ParseError,
)
from .languages import FiniteLanguage, Word, is_code, is_prefix, kleene_membership
from .synchrony import SyncPair, is_sync_pair, shortest_sync_pair


@dataclass(frozen=True)
class HalfReduction:
    """Record of one side of the pipeline (right side in reversed coordinates)."""

    side: str
    v_side: Word
    skipped: bool
    w: Word
    marked_symbol: Optional[str] = None
    aprime: Optional[Automaton] = None
    incompletable: Optional[Word] = None
    marked_count: int = 0
    split_u1: Optional[Word] = None
    split_u2: Optional[Word] = None

    @property
    def v_length(self) -> int:
        return 0 if self.incompletable is None else len(self.incompletable)

    @cached_property
    def y_language(self) -> Optional[FiniteLanguage]:
        """The first-return language Y of A′, listed when first read."""
        return None if self.aprime is None else first_return_language(self.aprime)


@dataclass(frozen=True)
class ReductionTrace:
    """Full record of a pipeline run; every fact is re-verifiable."""

    language: FiniteLanguage
    n: int
    d: int
    input_pair: SyncPair
    left: HalfReduction
    right: HalfReduction
    completion_r: Word
    completion_s: Word
    final_pair: SyncPair
    prefix_pair: Optional[SyncPair]
    bound_value: int
    final_length: int
    bound_ok: bool

    def to_json(self) -> str:
        def side(h: HalfReduction) -> dict:
            return {
                "side": h.side,
                "v_side": h.v_side.text,
                "skipped": h.skipped,
                "w": h.w.text,
                "marked_symbol": h.marked_symbol,
                "aprime": None if h.aprime is None else json.loads(automaton_to_json(h.aprime)),
                "y_words": None if h.y_language is None else h.y_language.word_strings(),
                "y_size": None if h.y_language is None else h.y_language.size,
                "incompletable": None if h.incompletable is None else h.incompletable.text,
                "marked_count": h.marked_count,
                "split_u1": None if h.split_u1 is None else h.split_u1.text,
                "split_u2": None if h.split_u2 is None else h.split_u2.text,
            }

        return json.dumps(
            {
                "language": self.language.word_strings(),
                "n": self.n,
                "d": self.d,
                "input_pair": [self.input_pair.u.text, self.input_pair.v.text],
                "left": side(self.left),
                "right": side(self.right),
                "completion": [self.completion_r.text, self.completion_s.text],
                "final_pair": [self.final_pair.u.text, self.final_pair.v.text],
                "prefix_pair": None
                if self.prefix_pair is None
                else [self.prefix_pair.u.text, self.prefix_pair.v.text],
                "bound": {
                    "v_len_left": self.left.v_length,
                    "v_len_right": self.right.v_length,
                    "value": self.bound_value,
                    "final_length": self.final_length,
                    "ok": self.bound_ok,
                },
            },
            indent=2,
        )


def build_aprime(automaton: Automaton, v1: Word) -> Automaton:
    """Extend the automaton with the marked letter a′ for v₁ = u·a.

    The new letter is the base token suffixed with the fewest primes that make
    it a fresh symbol, ordered last; its transitions follow the displayed rule.
    All original transitions are kept, so the result stays transitive.
    """
    if len(v1) == 0:
        raise ParseError("the marked construction needs v₁ ≠ ε")
    if automaton.accepting != frozenset({automaton.initial}):
        raise ParseError("the marked construction needs I = F = {1}")
    u, a = v1[:-1], v1.indices[-1]
    base_token = automaton.alphabet.symbols[a]
    marked_token = base_token + "'"
    while marked_token in automaton.alphabet:
        marked_token += "'"
    extended = automaton.alphabet.extended(marked_token)

    mark_set = automaton.step_word(automaton.full_mask, u)
    init_bit = 1 << automaton.initial
    table = []
    for q in range(automaton.n_states):
        row = list(automaton.table[q])
        image = automaton.table[q][a]
        if (mark_set >> q) & 1:
            row.append(image & ~init_bit)
        else:
            row.append(image | init_bit)
        table.append(tuple(row))
    aprime = replace(automaton, alphabet=extended, table=tuple(table))
    if not is_transitive(aprime):
        raise InternalInvariantError("the marked automaton is not transitive", {"v1": v1.text})
    return aprime


def shortest_incompletable_min_marked(aprime: Automaton) -> Word:
    """Minimal-length incompletable word with fewest marked letters a′ (A′'s last letter).

    One level-by-level search from Q keeps, per subset first reached at each
    length, the least (marked count, word) key and stops at the first level
    that reaches ∅.  This is exact because a prefix of a shortest word v with
    δ′(Q, v) = ∅ reaches its subset at that subset's distance, and the cost of
    a completion does not depend on how its start subset was reached.  Raises
    :class:`NotSynchronizing` when the automaton is complete, which signals
    that the input pair was not synchronizing.

    Since δ′(Q, v) = ∅ iff Qv⁻¹ = ∅, the search may equally run on preimages,
    growing v by prepending letters: the key order stays compatible with
    extension, so both sides give the same least (marks, word).  It takes the
    preimage side iff every base (non-marked) letter of A′ is total (one
    target per state), as on the left half of a complete prefix code, where
    ``step_letter_back`` can walk the complement of a near-full subset, and
    the image side otherwise.
    Subsets stored, image → preimage side: X_8 13,527 → 64 and X_10
    217,943 → 100 (canonical pairs); the 74 total halves of
    ``random_complete_sync_codes(150, seed=0, max_size=6)`` 6,664 → 2,558,
    while its 75 other halves would grow 3,195 → 8,853, so they keep the
    image side.
    """
    marked = len(aprime.alphabet) - 1
    letters = range(len(aprime.alphabet))
    back = all(total for a, total in enumerate(aprime._total) if a != marked)
    step = aprime.step_letter_back if back else aprime.step_letter

    def expand(s, key):
        marks, word = key
        for a in letters:
            yield step(s, a), (marks + (a == marked), (a,) + word if back else word + (a,))

    for level in layered_search(aprime.full_mask, (0, ()), expand, what="marked incompletable search"):
        if 0 in level:
            marks, word = level[0]
            v = Word(aprime.alphabet, word)
            if marks < 1:
                raise InternalInvariantError(
                    "minimal incompletable word has no marked letter",
                    {"v": v.text, "marked": aprime.alphabet.symbols[marked]},
                )
            return v
    raise NotSynchronizing(
        "the marked automaton is complete; the input pair cannot have been synchronizing"
    )


def extract_w(automaton: Automaton, v1: Word, v: Word) -> tuple[Word, Word, Word]:
    """Split v = u₁·a′·u₂ at its first a′, A′'s last letter, and return (w₁, u₁, u₂).

    Verifies the inclusion δ(Q, u₁) ⊆ δ(Q, u); by the minimality of v this
    cannot fail, so a failure is reported as an internal error with enough
    context to reconstruct the run.
    """
    marked = len(v.alphabet) - 1
    if marked not in v.indices:
        raise InternalInvariantError(
            "incompletable word contains no marked letter",
            {"v": v.text, "marked": v.alphabet.symbols[marked]},
        )
    pos = v.indices.index(marked)
    u1 = Word(automaton.alphabet, v.indices[:pos])  # before the first a′: pure base letters
    u2 = Word(v.alphabet, v.indices[pos + 1:])
    u, a = v1[:-1], v1.indices[-1]

    full = automaton.full_mask
    q_u1 = automaton.step_word(full, u1)
    q_u = automaton.step_word(full, u)
    if q_u1 & ~q_u:
        raise InternalInvariantError(
            "minimality inclusion δ(Q,u₁) ⊆ δ(Q,u) failed; v was not minimal",
            {
                "v": v.text,
                "v1": v1.text,
                "u1": u1.text,
                "u": u.text,
                "Qu1": states_from_mask(q_u1),
                "Qu": states_from_mask(q_u),
            },
        )
    w1 = u1 + Word(automaton.alphabet, (a,))
    q_w1 = automaton.step_word(full, w1)
    q_v1 = automaton.step_word(full, v1)
    if q_w1 & ~q_v1:
        raise InternalInvariantError(
            "inclusion Qw₁ ⊆ Qv₁ failed after the split",
            {"w1": w1.text, "v1": v1.text},
        )
    if len(w1) > len(v):
        raise InternalInvariantError("|w₁| ≤ |v| failed", {"w1": w1.text, "v": v.text})
    return w1, u1, u2


def half_reduction(language: FiniteLanguage, v_side: Word, side: str) -> HalfReduction:
    """One side of the pipeline: Qw ⊆ Qv₁ (left) or Qw⁻¹ ⊆ Qv₂⁻¹ (right).

    The right side runs the identical construction on the edge-reversed flower
    automaton with v reversed, then reverses the output back, so there is a
    single audited code path.  An empty v yields w = ε immediately.
    """
    if side not in ("left", "right"):
        raise ParseError(f"unknown side {side!r}")
    if not kleene_membership(language, v_side):
        raise NotSynchronizing(f"{v_side.text!r} is not in X*")
    if len(v_side) == 0:
        return HalfReduction(
            side=side, v_side=v_side, skipped=True, w=Word.epsilon(language.alphabet)
        )
    base = flower_automaton(language)
    work = reverse(base) if side == "right" else base
    v_work = v_side.reversed() if side == "right" else v_side

    aprime = build_aprime(work, v_work)
    v = shortest_incompletable_min_marked(aprime)
    w_work, u1, u2 = extract_w(work, v_work, v)
    w = w_work.reversed() if side == "right" else w_work

    # extract_w checked Qw ⊆ Qv₁; only the right side crosses the reversal
    full = base.full_mask
    if side == "right" and base.step_word(full, w, back=True) & ~base.step_word(full, v_side, back=True):
        raise InternalInvariantError(
            "half reduction output failed its inclusion check",
            {"side": side, "w": w.text, "v_side": v_side.text},
        )

    y_size = first_return_size(aprime)
    if y_size > language.size:
        raise InternalInvariantError(
            "ℓ(Y) exceeded ℓ(X)", {"y_size": y_size, "x_size": language.size}
        )
    marked_symbol = aprime.alphabet.symbols[-1]
    return HalfReduction(
        side=side,
        v_side=v_side,
        skipped=False,
        w=w,
        marked_symbol=marked_symbol,
        aprime=aprime,
        incompletable=v,
        marked_count=v.count(marked_symbol),
        split_u1=u1,
        split_u2=u2,
    )


def synchronizing_pair_via_reduction(
    language: FiniteLanguage,
    pair: Optional[SyncPair] = None,
    budget: int = 12,
) -> tuple[SyncPair, ReductionTrace]:
    """Run the full pipeline and return the bounded pair with its trace.

    X must be a complete code and the input pair synchronizing (when no pair
    is supplied, a shortest one is searched within the budget first).  The
    returned pair is (r·w₁, w₂·s), re-verified by both checkers; for prefix X
    with v₂ = ε the trace additionally carries the direct prefix-case pair
    (w₁, ε), which is then the returned pair.
    """
    if not is_code(language):
        raise NotACode("the reduction pipeline requires a code")
    if not is_complete_language(language):
        raise NotComplete("the reduction pipeline requires a complete code")
    if pair is None:
        pair = shortest_sync_pair(language, budget)
        if pair is None:
            raise NotSynchronizing(
                f"no synchronizing pair with |uv| ≤ {budget} found"
            )
    if not is_sync_pair(language, pair.u, pair.v, method="code"):
        raise NotSynchronizing("the supplied pair failed verification")

    left = half_reduction(language, pair.u, "left")
    right = half_reduction(language, pair.v, "right")
    w1, w2 = left.w, right.w

    witness = find_completion(language, w1 + w2)
    if witness is None:
        raise InternalInvariantError(
            "w₁w₂ has no completion although X is complete",
            {"w1": w1.text, "w2": w2.text},
        )
    r, s = witness.r, witness.s
    final = SyncPair(u=r + w1, v=w2 + s, checked_by="code")
    if not is_sync_pair(language, final.u, final.v, method="code"):
        raise InternalInvariantError(
            "final pair failed the code-path check", {"final": (final.u.text, final.v.text)}
        )
    if not is_sync_pair(language, final.u, final.v, method="general"):
        raise InternalInvariantError(
            "final pair failed the independent general check",
            {"final": (final.u.text, final.v.text)},
        )

    prefix_pair = None
    if is_prefix(language) and len(pair.v) == 0:
        base = flower_automaton(language)
        if base.step_word(base.full_mask, w1) == 1 << base.initial:
            if not kleene_membership(language, w1):
                raise InternalInvariantError(
                    "Qw₁ = {1} but w₁ ∉ X*", {"w1": w1.text}
                )
            prefix_pair = SyncPair(u=w1, v=Word.epsilon(language.alphabet), checked_by="code")
            if len(w1) > left.v_length and not left.skipped:
                raise InternalInvariantError(
                    "prefix-case ledger |w₁| ≤ |v| failed",
                    {"w1_len": len(w1), "v_len": left.v_length},
                )

    n = language.size
    bound_value = 2 * max(left.v_length, right.v_length) + 2 * n - 2
    final_length = final.total_length
    trace = ReductionTrace(
        language=language,
        n=n,
        d=len(language.alphabet),
        input_pair=pair,
        left=left,
        right=right,
        completion_r=r,
        completion_s=s,
        final_pair=final,
        prefix_pair=prefix_pair,
        bound_value=bound_value,
        final_length=final_length,
        bound_ok=final_length <= bound_value,
    )
    return (prefix_pair or final), trace

"""Kraft–McMillan constructors, road-colored synchronizing codes, and the
reductions of completeness/synchronization questions to the binary case.

Kraft sums are exact rationals throughout; a profile is complete exactly when
its sum is 1, and by the road-coloring theorem a complete profile with
coprime lengths always carries a synchronizing complete prefix code with the
same lengths, which is found here by searching edge colorings of the
canonical code's transition graph.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automata import (
    Automaton,
    first_return_language,
    flower_automaton,
    step_forward,
)
from .completeness import is_complete_language, shortest_incompletable
from .errors import (
    InternalInvariantError,
    NotComplete,
    NotSynchronizing,
    ParseError,
    SearchBudgetExceeded,
    DEFAULT_COLORING_SEED,
    DEFAULT_SUBSET_CAP,
)
from .languages import Alphabet, FiniteLanguage, Word, is_code, is_prefix
from .synchrony import SyncPair, is_sync_pair, is_synchronizing_dfa, shortest_sync_pair


@dataclass(frozen=True)
class LengthProfile:
    """Requested codeword lengths over a d-letter target alphabet."""

    d: int
    lengths: tuple[int, ...]

    def __post_init__(self):
        if self.d < 2:
            raise ParseError("length profiles need an alphabet of at least 2 letters")
        if not self.lengths or any(k < 1 for k in self.lengths):
            raise ParseError("codeword lengths must be positive")

    @property
    def kraft_sum(self) -> Fraction:
        return sum((Fraction(1, self.d ** k) for k in self.lengths), Fraction(0))

    @property
    def gcd(self) -> int:
        return math.gcd(*self.lengths)

    @property
    def is_complete(self) -> bool:
        return self.kraft_sum == 1


def length_profile_general(d: int) -> LengthProfile:
    """Binary lengths for a d-word complete prefix code: with m = ⌊log₂ d⌋ and
    γ = 2^{m+1} − d, the first γ lengths are m and the rest m + 1.

    The floor is forced by the Kraft identity: the sum γ·2^{-m} + (d−γ)·2^{-m-1}
    equals 1 only for this choice of m.
    """
    if d < 2:
        raise ParseError("the general profile needs d ≥ 2")
    m = d.bit_length() - 1
    gamma = 2 ** (m + 1) - d
    lengths = tuple([m] * gamma + [m + 1] * (d - gamma))
    profile = LengthProfile(2, lengths)
    if not profile.is_complete:
        raise InternalInvariantError("general profile is incomplete", {"d": d, "lengths": lengths})
    return profile


def length_profile_power2(d: int) -> LengthProfile:
    """Binary lengths (m−1, m+1, m+1, m, …, m) for d = 2^m, m ≥ 2.

    The uniform profile for a power of two has gcd m, so one word is shortened
    and two lengthened to make the lengths coprime while keeping Kraft sum 1.
    """
    m = d.bit_length() - 1
    if d != 2 ** m or m < 2:
        raise ParseError("the power-of-two profile needs d = 2^m with m ≥ 2")
    lengths = (m - 1, m + 1, m + 1) + (m,) * (d - 3)
    profile = LengthProfile(2, lengths)
    if not (profile.is_complete and profile.gcd == 1):
        raise InternalInvariantError("power-of-two profile is not complete and coprime", {"d": d})
    return profile


def kraft_canonical(profile: LengthProfile) -> FiniteLanguage:
    """The canonical prefix code with the requested lengths.

    Lengths are sorted ascending and codewords assigned as consecutive d-ary
    numerals, extending left to right.  The result is prefix by construction
    and complete exactly when the Kraft sum is 1.
    """
    if profile.kraft_sum > 1:
        raise ParseError(
            f"Kraft sum {profile.kraft_sum} exceeds 1; no prefix code exists"
        )
    alphabet = Alphabet.lowercase(profile.d)
    words = []
    value = 0
    prev_len = None
    for k in sorted(profile.lengths):
        if prev_len is not None:
            value = (value + 1) * (profile.d ** (k - prev_len))
        digits = []
        v = value
        for _ in range(k):
            digits.append(v % profile.d)
            v //= profile.d
        if v:
            raise InternalInvariantError(
                "canonical allocation overflowed; Kraft sum check is broken",
                {"d": profile.d, "lengths": profile.lengths},
            )
        words.append(Word(alphabet, tuple(reversed(digits))))
        prev_len = k
    return FiniteLanguage(alphabet, tuple(words))


def _out_multisets(automaton: Automaton) -> list[list[int]]:
    """Per-state sorted multiset of transition targets (labels ripped off)."""
    out = []
    for q in range(automaton.n_states):
        targets = []
        for a in range(len(automaton.alphabet)):
            m = automaton.table[q][a]
            if m.bit_count() != 1:
                raise InternalInvariantError("canonical automaton is not a DFA", {"state": q})
            targets.append(m.bit_length() - 1)
        out.append(sorted(targets))
    return out


def _colored_automaton(base: Automaton, assignment: list[tuple[int, ...]]) -> Automaton:
    d = len(base.alphabet)
    table = tuple(
        tuple(1 << assignment[q][a] for a in range(d)) for q in range(base.n_states)
    )
    return Automaton(
        n_states=base.n_states,
        alphabet=base.alphabet,
        table=table,
        initial=base.initial,
        accepting=base.accepting,
    )


def road_colored_sync_code(
    profile: LengthProfile,
    seed: int = DEFAULT_COLORING_SEED,
    exhaustive_limit: int = 12,
    max_restarts: int = 200_000,
) -> FiniteLanguage:
    """A synchronizing complete prefix code with exactly the requested lengths.

    Requires Kraft sum 1 and gcd of lengths 1, which makes the underlying
    out-degree-d multigraph of the canonical code's automaton an AGW graph;
    a synchronizing coloring then exists.  Colorings are searched exhaustively
    in lexicographic order for automata of at most ``exhaustive_limit`` states
    and by seeded random restarts beyond that; exhaustion of the restart
    budget is reported, never silently looped.
    """
    if profile.gcd != 1:
        raise NotSynchronizing(
            f"gcd of lengths is {profile.gcd}; a synchronizing code needs gcd 1"
        )
    if not profile.is_complete:
        raise NotComplete(f"Kraft sum {profile.kraft_sum} ≠ 1")
    base_code = kraft_canonical(profile)
    base = flower_automaton(base_code)
    multisets = _out_multisets(base)
    requested = sorted(profile.lengths)

    def finish(colored: Automaton) -> Optional[FiniteLanguage]:
        if not is_synchronizing_dfa(colored):
            return None
        y = first_return_language(colored)
        details = {"words": y.word_strings()}
        if not is_prefix(y) or sorted(len(w) for w in y.words) != requested:
            raise InternalInvariantError("colored code lost the prefix profile", details)
        if not is_complete_language(y):
            raise InternalInvariantError("colored code is incomplete", details)
        return y

    if base.n_states <= exhaustive_limit:
        per_state = [
            sorted(set(itertools.permutations(ms))) for ms in multisets
        ]
        for assignment in itertools.product(*per_state):
            y = finish(_colored_automaton(base, list(assignment)))
            if y is not None:
                return y
        raise NotSynchronizing(
            "no synchronizing coloring exists; the AGW precondition must have failed"
        )
    rng = random.Random(seed)
    for _ in range(max_restarts):
        assignment = []
        for ms in multisets:
            perm = list(ms)
            rng.shuffle(perm)
            assignment.append(tuple(perm))
        y = finish(_colored_automaton(base, assignment))
        if y is not None:
            return y
    raise SearchBudgetExceeded(
        f"no synchronizing coloring found in {max_restarts} seeded restarts"
    )


@dataclass(frozen=True)
class Encoding:
    """A monomorphism h: A* → B* given by its images on the source letters.

    The image set is required to be a code, so h is injective on words; flags
    record what has been verified of the image.
    """

    source: Alphabet
    target: Alphabet
    images: tuple[Word, ...]
    image_is_prefix: bool = False
    image_is_complete: bool = False
    image_is_synchronizing: Optional[bool] = None

    def __post_init__(self):
        if len(self.images) != len(self.source):
            raise ParseError("need exactly one image per source letter")
        if len(set(self.images)) != len(self.images):
            raise ParseError("images must be pairwise distinct")
        for w in self.images:
            if w.alphabet != self.target or len(w) == 0:
                raise ParseError("images must be nonempty words over the target alphabet")
        if not is_code(self.image_language()):
            raise ParseError("the image set is not a code; h would not be injective")

    @classmethod
    def from_code(
        cls,
        source: Alphabet,
        code: FiniteLanguage,
        image_is_synchronizing: Optional[bool] = None,
    ) -> "Encoding":
        """Map the i-th source letter to the i-th codeword in canonical order."""
        if len(code) != len(source):
            raise ParseError(
                f"code has {len(code)} words but the source alphabet has {len(source)} letters"
            )
        return cls(
            source=source,
            target=code.alphabet,
            images=tuple(code.words),
            image_is_prefix=is_prefix(code),
            image_is_complete=is_complete_language(code),
            image_is_synchronizing=image_is_synchronizing,
        )

    def image_language(self) -> FiniteLanguage:
        return FiniteLanguage(self.target, self.images)

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.source:
            raise ParseError("word is not over the source alphabet")
        out: tuple[int, ...] = ()
        for i in w.indices:
            out += self.images[i].indices
        return Word(self.target, out)

    def decode_prefix(self, w: Word) -> tuple[Word, Word]:
        """Greedy parse of w by the (prefix) image code.

        Returns (u, leftover) with h(u)·leftover = w and leftover a proper
        prefix of some image (possibly ε).
        """
        if not self.image_is_prefix:
            raise ParseError("greedy decoding needs a prefix image code")
        pos = 0
        letters: list[int] = []
        while pos < len(w.indices):
            for i, img in enumerate(self.images):
                k = len(img)
                if w.indices[pos: pos + k] == img.indices:
                    letters.append(i)
                    pos += k
                    break
            else:
                break
        leftover = Word(self.target, w.indices[pos:])
        return Word(self.source, tuple(letters)), leftover


def apply_encoding(encoding: Encoding, language: FiniteLanguage) -> FiniteLanguage:
    """h(X); injectivity of h makes |h(X)| = |X| (asserted)."""
    out = FiniteLanguage(
        encoding.target, tuple(encoding.apply(w) for w in language.words)
    )
    if len(out) != len(language):
        raise InternalInvariantError("h is not injective on X", {"words": language.word_strings()})
    return out


@dataclass(frozen=True)
class BinaryReductionTrace:
    """Record of one binary-reduction run."""

    kind: str
    profile: Optional[LengthProfile]
    image_code: Optional[FiniteLanguage]
    encoded_language: Optional[FiniteLanguage]
    binary_witness: Optional[object]
    decoded: Optional[object]
    ledger: dict

    def to_json(self) -> str:
        def render(x):
            if x is None:
                return None
            if isinstance(x, Word):
                return x.text
            if isinstance(x, SyncPair):
                return [x.u.text, x.v.text]
            if isinstance(x, FiniteLanguage):
                return x.word_strings()
            if isinstance(x, LengthProfile):
                return {"d": x.d, "lengths": list(x.lengths)}
            return x

        return json.dumps(
            {
                "kind": self.kind,
                "profile": render(self.profile),
                "image_code": render(self.image_code),
                "encoded_language": render(self.encoded_language),
                "binary_witness": render(self.binary_witness),
                "decoded": render(self.decoded),
                "ledger": self.ledger,
            },
            indent=2,
        )


def reduce_incompletable_to_binary(
    language: FiniteLanguage, cap: int = DEFAULT_SUBSET_CAP
) -> tuple[Word, BinaryReductionTrace]:
    """Derive a short incompletable word of X from one of its binary encoding.

    Encodes the d-letter alphabet on the canonical complete binary prefix code
    of the general profile, takes a shortest incompletable word v of h(X),
    decodes the shortest u whose image has v as a prefix, and verifies u
    incompletable in X with the ledger |u| ≤ ⌈|v| / ⌊log₂ d⌋⌉.
    """
    d = len(language.alphabet)
    if d < 3:
        raise ParseError("the binary reduction needs d ≥ 3")
    profile = length_profile_general(d)
    y = kraft_canonical(profile)
    h = Encoding.from_code(language.alphabet, y)
    hx = apply_encoding(h, language)
    v = shortest_incompletable(hx, cap)
    if v is None:
        raise ParseError("X is complete; the incompletable reduction needs an incomplete language")
    u_prefixpart, leftover = h.decode_prefix(v)
    if len(leftover) == 0:
        u = u_prefixpart
    else:
        extension = min(
            (i for i, img in enumerate(h.images) if img.startswith(leftover)),
            default=None,
        )
        if extension is None:
            raise ParseError("decode failure: leftover extends no image word")
        u = u_prefixpart + Word(language.alphabet, (extension,))
    flower = flower_automaton(language)
    if step_forward(flower, flower.full_mask, u) != 0:
        raise ParseError(
            f"decoded word {u.text!r} is completable; the reduction argument failed"
        )
    m = d.bit_length() - 1  # ⌊log₂ d⌋
    bound = -(-len(v) // m)
    ledger = {
        "v_length": len(v),
        "u_length": len(u),
        "bound": bound,
        "ok": len(u) <= bound,
    }
    trace = BinaryReductionTrace(
        kind="incompletable",
        profile=profile,
        image_code=y,
        encoded_language=hx,
        binary_witness=v,
        decoded=u,
        ledger=ledger,
    )
    return u, trace


def reduce_sync_to_binary(
    language: FiniteLanguage,
    budget: int = 16,
    seed: int = DEFAULT_COLORING_SEED,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[SyncPair, BinaryReductionTrace]:
    """Derive a synchronizing pair of X from one of its binary encoding.

    X must be complete and synchronizing.  The alphabet is encoded on a
    road-colored synchronizing complete binary prefix code (general profile,
    or the power-of-two profile when d = 2^m); completeness and
    synchronization transfer to h(X), whose exact shortest pair is decoded
    back and re-verified on X.
    """
    d = len(language.alphabet)
    if d < 3:
        raise ParseError("the binary reduction needs d ≥ 3")
    if not is_complete_language(language, cap):
        raise NotComplete("the synchronization reduction needs a complete language")
    m = d.bit_length() - 1
    if d == 1 << m:
        profile = length_profile_power2(d)
    else:
        profile = length_profile_general(d)
    y = road_colored_sync_code(profile, seed=seed)
    h = Encoding.from_code(language.alphabet, y, image_is_synchronizing=True)
    hx = apply_encoding(h, language)
    if not is_complete_language(hx, cap):
        raise NotComplete("h(X) is incomplete although X and h(A) are complete")
    pair_b = shortest_sync_pair(hx, budget, cap)
    if pair_b is None:
        raise SearchBudgetExceeded(
            f"no synchronizing pair of h(X) with |uv| ≤ {budget} found"
        )
    u, ru = h.decode_prefix(pair_b.u)
    v, rv = h.decode_prefix(pair_b.v)
    if len(ru) or len(rv):
        raise ParseError("decoded pair is not an image of X* words")
    if not is_sync_pair(language, u, v, cap=cap):
        raise NotSynchronizing("decoded pair failed verification on X")
    min_len = min(len(img) for img in h.images)
    floor_log = (d - 1).bit_length() - 1  # ⌊log₂(d−1)⌋
    if min_len < floor_log:
        raise InternalInvariantError("image word below ⌊log₂(d−1)⌋", {"d": d, "min_len": min_len})
    bound = -(-pair_b.total_length // floor_log)
    ledger = {
        "encoded_pair_length": pair_b.total_length,
        "decoded_pair_length": len(u) + len(v),
        "bound": bound,
        "ok": len(u) + len(v) <= bound,
    }
    trace = BinaryReductionTrace(
        kind="synchronizing",
        profile=profile,
        image_code=y,
        encoded_language=hx,
        binary_witness=pair_b,
        decoded=SyncPair(u=u, v=v, checked_by="decoded"),
        ledger=ledger,
    )
    return SyncPair(u=u, v=v, checked_by="decoded"), trace


def uniform_sync_encoding(
    language: FiniteLanguage,
    budget: int = 12,
    cap: int = DEFAULT_SUBSET_CAP,
) -> tuple[Optional[SyncPair], BinaryReductionTrace]:
    """Transport a synchronizing pair through a uniform binary encoding.

    Completeness is not required.  With m = ⌈log₂(d+1)⌉ the source letters map
    into B^m \\ {a^m}; the two distinct adjacent letters α, β witnessed inside
    some synchronizing pair (y₁, y₂) of X receive the special images
    h(α) = b·a^{m-1} and h(β) = a^{m-1}·b, and (h(y₁), h(y₂)) then
    synchronizes h(X).  When X lies in a single letter's star the unary
    fallback applies and no encoding is produced; when no suitable pair is
    found within the budget, that unhandled case is reported explicitly.
    """
    d = len(language.alphabet)
    letters_used = {i for w in language.words for i in w.indices}
    if len(letters_used) <= 1:
        trace = BinaryReductionTrace(
            kind="uniform",
            profile=None,
            image_code=None,
            encoded_language=None,
            binary_witness=None,
            decoded=None,
            ledger={"fallback": "unary", "ok": True},
        )
        return None, trace

    def first_distinct_adjacent(u: Word, v: Word) -> Optional[tuple[int, int]]:
        concat = (u + v).indices
        for i in range(len(concat) - 1):
            if concat[i] != concat[i + 1]:
                return concat[i], concat[i + 1]
        return None

    pair = shortest_sync_pair(
        language,
        budget,
        cap,
        where=lambda u, v: first_distinct_adjacent(u, v) is not None,
    )
    if pair is None:
        raise SearchBudgetExceeded(
            "no synchronizing pair with two distinct adjacent letters found within budget"
        )
    adjacent = first_distinct_adjacent(pair.u, pair.v)

    m = d.bit_length()  # ⌈log₂(d+1)⌉
    alpha, beta = adjacent
    target = Alphabet.binary()
    special_alpha = Word(target, (1,) + (0,) * (m - 1))  # b a^{m-1}
    special_beta = Word(target, (0,) * (m - 1) + (1,))  # a^{m-1} b
    forbidden = {(0,) * m, special_alpha.indices, special_beta.indices}
    pool = [
        Word(target, tup)
        for tup in itertools.product((0, 1), repeat=m)
        if tup not in forbidden
    ]
    if len(pool) < d - 2:
        raise ParseError("uniform pool too small; m computation is broken")
    images: list[Optional[Word]] = [None] * d
    images[alpha] = special_alpha
    images[beta] = special_beta
    it = iter(pool)
    for i in range(d):
        if images[i] is None:
            images[i] = next(it)
    h = Encoding(
        source=language.alphabet,
        target=target,
        images=tuple(images),
        image_is_prefix=True,
        image_is_complete=False,
        image_is_synchronizing=True,
    )
    hx = apply_encoding(h, language)
    hu, hv = h.apply(pair.u), h.apply(pair.v)
    if not is_sync_pair(hx, hu, hv, cap=cap):
        raise NotSynchronizing("encoded pair failed verification on h(X)")
    ledger = {
        "m": m,
        "pair_length": pair.total_length,
        "encoded_pair_length": len(hu) + len(hv),
        "exact_scaling": len(hu) + len(hv) == m * pair.total_length,
        "ok": len(hu) + len(hv) == m * pair.total_length,
    }
    trace = BinaryReductionTrace(
        kind="uniform",
        profile=LengthProfile(2, (m,) * d),
        image_code=h.image_language(),
        encoded_language=hx,
        binary_witness=SyncPair(u=hu, v=hv, checked_by="encoded"),
        decoded=pair,
        ledger=ledger,
    )
    return SyncPair(u=hu, v=hv, checked_by="encoded"), trace

"""Desk-scale experiments estimating the worst-case witness lengths R and C.

R(class, n, d) is the largest minimal incompletable-word length over the
incomplete class members of size ≤ n on d letters; C(class, n, d) the largest
minimal synchronizing-pair total length over the synchronizing members.
Exhaustive mode enumerates every class instance (canonicalized under letter
permutations, since both parameters are permutation-invariant); random mode
samples from a fixed seeded distribution and yields lower bounds only.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional

from . import errors
from .automata import flower_automaton
from .completeness import _incompletable_word, is_complete_language, shortest_incompletable
from .errors import CodesyncError, InternalInvariantError, SearchBudgetExceeded
from .encoding import LengthProfile, _first_sync_code, _random_colorings, kraft_canonical
from .languages import Alphabet, FiniteLanguage, Word, _sardinas_patterson, is_code, is_prefix
from .reduction import ReductionTrace, synchronizing_pair_via_reduction
from .synchrony import (
    _one_sided_pair,
    _pair_search,
    is_synchronizing_code,
    shortest_sync_pair,
)

CLASS_TAGS = ("all", "codes", "prefix", "complete-codes", "complete-prefix")

CSV_HEADER = (
    "kind,class,n,d,mode,value,witness_language,witness,"
    "instances,inconclusive,samples,seed,elapsed_seconds"
)


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    class_tag: str
    n: int
    d: int
    mode: str
    value: Optional[int]
    witness_language: Optional[tuple[str, ...]]
    witness: Optional[tuple[str, ...]]
    instance_count: int
    inconclusive_count: int
    samples: Optional[int]
    seed: Optional[int]
    elapsed_seconds: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "class": self.class_tag,
            "n": self.n,
            "d": self.d,
            "mode": self.mode,
            "value": self.value,
            "witness_language": None
            if self.witness_language is None
            else list(self.witness_language),
            "witness": None if self.witness is None else list(self.witness),
            "instances": self.instance_count,
            "inconclusive": self.inconclusive_count,
            "samples": self.samples,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv_row(self) -> str:
        d = self.to_dict()
        cells = [
            d["kind"], d["class"], d["n"], d["d"], d["mode"], d["value"],
            " ".join(d["witness_language"] or []),
            " ".join(d["witness"] or []),
            d["instances"], d["inconclusive"], d["samples"], d["seed"],
            f"{d['elapsed_seconds']:.3f}",
        ]
        return ",".join("" if c is None else str(c) for c in cells)


def _pool_size(n: int, d: int) -> int:
    """|A^{≤n}| without ε, the number of words :func:`_word_pool` builds."""
    return sum(d ** k for k in range(1, n + 1))


def _word_pool(alphabet: Alphabet, n: int) -> list[Word]:
    pool = []
    for k in range(1, n + 1):
        for tup in itertools.product(range(len(alphabet)), repeat=k):
            pool.append(Word(alphabet, tup))
    return pool


def _or_tables(values: list[int], half: int) -> tuple[list[int], list[int]]:
    """Lookup tables for the OR of ``values[i]`` over the set bits i of a pool
    or node mask: the low ``half`` bits index the first, the rest the second."""

    def table(vs: list[int]) -> list[int]:
        t = [0]
        for v in vs:
            t += [m | v for m in t]
        return t

    return table(values[:half]), table(values[half:])


def _or_lookup(tables: tuple[list[int], list[int]], mask: int, half: int) -> int:
    """The OR that a pair of :func:`_or_tables` gives for ``mask``."""
    low, high = tables
    return low[mask & ((1 << half) - 1)] | high[mask >> half]


def _rank_tables(pool: list[Word], d: int, half: int) -> list[tuple[list[int], list[int]]]:
    """Per letter permutation, identity first: OR tables of the bit that each
    pool word's image has in the plain lexicographic order of index tuples,
    so that a rank mask encodes a word set sorted as a Python tuple."""
    rank = {u: r for r, u in enumerate(sorted(w.indices for w in pool))}
    return [
        _or_tables([1 << rank[tuple(perm[a] for a in w.indices)] for w in pool], half)
        for perm in itertools.permutations(range(d))
    ]


def _is_canonical(lo: int, hi: int, ranks: list[tuple[list[int], list[int]]]) -> bool:
    """Keep only the lexicographically least representative of each orbit.

    Two sorted word lists of equal size first differ at the least word in
    their symmetric difference, the lowest set bit of the XOR of their rank
    masks; the list holding that word is the smaller.
    """
    me = ranks[0][0][lo] | ranks[0][1][hi]
    for low, high in ranks[1:]:
        diff = (low[lo] | high[hi]) ^ me
        if diff & -diff & ~me:
            return False
    return True


def _in_class(language: FiniteLanguage, class_tag: str) -> bool:
    if class_tag == "all":
        return True
    if class_tag == "codes":
        return is_code(language)
    if class_tag == "prefix":
        return is_prefix(language)
    if class_tag == "complete-codes":
        return is_code(language) and is_complete_language(language)
    if class_tag == "complete-prefix":
        return is_prefix(language) and is_complete_language(language)
    raise CodesyncError(f"unknown class tag {class_tag!r}")


class _PoolTrie:
    """The prefix trie of the word pool A^{≤n}, built once per enumeration.

    One index space serves nodes and words: bit 0 is the root and bit i + 1
    is pool word i.  The pool is in (length, lex) order, so the trie nodes,
    the root and the words of A^{<n}, are the low bits.  The flower automaton
    of a pool subset X is the trie cut down to the root and the proper
    prefixes of X, with its states in the same order, so every candidate X is
    stepped by a :class:`_PoolView` on the shared tables below.  Each table
    is split into a low and a high half, as :func:`_or_tables` does, so it
    stays small for any pool size.
    """

    def __init__(self, n: int, d: int):
        size, cap = _pool_size(n, d), errors.INSTANCE_CAP
        if size >= cap.bit_length():  # 2^size > cap
            raise SearchBudgetExceeded(
                f"exhaustive enumeration needs 2^{size} candidates; "
                f"cap is {cap} — use random mode"
            )
        self.n = n
        self.alphabet = Alphabet.lowercase(d)
        self.pool = _word_pool(self.alphabet, n)
        words = [w.indices for w in self.pool]
        nodes = [()] + [u for u in words if len(u) < n]
        bit = {u: 2 << i for i, u in enumerate(words)}
        bit[()] = 1
        self.words = words
        self.half = len(words) // 2
        self.node_half = len(nodes) // 2
        self.node_low = (1 << self.node_half) - 1
        letters = range(d)
        self.proper = [sum(bit[u[:k]] for k in range(1, len(u))) >> 1 for u in words]
        # over pool masks: the root and the proper prefixes of each member
        # word, and the parent node of each word ending in a
        self.live = _or_tables([1 | p << 1 for p in self.proper], self.half)
        self.up = [_or_tables([bit[u[:-1]] if u[-1] == a else 0 for u in words], self.half) for a in letters]
        # over node masks: p·a, a node when shorter than n, and a word either way
        self.forward = [_or_tables([bit[p + (a,)] for p in nodes], self.node_half) for a in letters]

    def language(self, bits: int) -> FiniteLanguage:
        return FiniteLanguage(
            self.alphabet, tuple(w for i, w in enumerate(self.pool) if bits >> i & 1)
        )

    def masks(self, class_tag: str, canonicalize: bool) -> Iterator[int]:
        """The pool masks of the class members, ascending; ``class_tag`` is
        one of :data:`CLASS_TAGS`, checked by the caller.

        ``all`` scans every mask.  Subsets of codes (prefix codes) are codes
        (prefix codes), so the other classes grow members from members: each
        S | 1<<i, for pool word i and member S so far (∅ first), lies in
        [2^i, 2^(i+1)) and grows with S, so the list stays ascending.  It is
        dropped if its Kraft sum Σ d^(n−|x|) tops d^n (McMillan); in the
        prefix classes, if S holds a proper prefix of word i (all of S
        precedes it); in the code classes, if the Sardinas–Patterson closure
        reaches ε.  The sum d^n of the complete classes (Schützenberger) and
        the canonical test are not hereditary: they only pick what is yielded.
        A complete class also drops a candidate whose sum stays below d^n with
        every later pool word added, since all it grows into does too; this
        test runs before the closure.
        """
        words, half, d = self.words, self.half, len(self.alphabet)
        ranks = _rank_tables(self.pool, d, half) if canonicalize else None
        low = (1 << half) - 1

        def canonical(bits: int) -> bool:
            return ranks is None or _is_canonical(bits & low, bits >> half, ranks)

        if class_tag == "all":
            yield from filter(canonical, range(1, 2 ** len(words)))
            return
        full = d ** self.n
        prefix = class_tag in ("prefix", "complete-prefix")
        complete = class_tag in ("complete-codes", "complete-prefix")
        weights = [d ** (self.n - len(u)) for u in words]
        later = sum(weights)  # the weight of the pool words after word i
        members, sums = [0], [0]
        for i, (weight, proper) in enumerate(zip(weights, self.proper)):
            bit = 1 << i
            later -= weight
            for j in range(len(members)):
                bits, total = members[j] | bit, sums[j] + weight
                if total > full or complete and total + later < full or prefix and bits & proper:
                    continue
                if not prefix and not _sardinas_patterson([w for k, w in enumerate(words) if bits >> k & 1]):
                    continue
                members.append(bits)
                sums.append(total)
                if (total == full or not complete) and canonical(bits):
                    yield bits


class _PoolView:
    """The flower automaton of the pool subset ``members``, as the search
    kernels read it, with no :class:`~codesync.automata.Automaton` built.

    Flower state k is the k-th set bit of ``full_mask``, the live trie nodes,
    and ``step_letter``/``step_letter_back`` are the flower's transitions under
    that relabelling, so :func:`~codesync.automata.subset_bfs` returns the
    flower's own (length, lex) words.
    """

    __slots__ = ("trie", "alphabet", "members", "full_mask", "_word_bits")
    initial = 0

    def __init__(self, trie: _PoolTrie, members: int):
        self.trie = trie
        self.alphabet = trie.alphabet
        self.members = members
        self.full_mask = _or_lookup(trie.live, members, trie.half)
        self._word_bits = members << 1

    def step_letter(self, mask: int, a: int) -> int:
        trie = self.trie
        low, high = trie.forward[a]
        t = low[mask & trie.node_low] | high[mask >> trie.node_half]
        return (t & self.full_mask) | (1 if t & self._word_bits else 0)

    def step_letter_back(self, mask: int, a: int) -> int:
        # S's non-root nodes as pool words, and every member if S holds the root
        words = mask >> 1 | (self.members if mask & 1 else 0)
        return _or_lookup(self.trie.up[a], words, self.trie.half)


def _class_pool(class_tag: str, n: int, d: int) -> _PoolTrie:
    """The pool trie of an exhaustive enumeration, built only once the class
    tag and the candidate count have been checked."""
    if class_tag not in CLASS_TAGS:
        raise CodesyncError(f"unknown class tag {class_tag!r}")
    return _PoolTrie(n, d)


def enumerate_class_languages(
    class_tag: str, n: int, d: int, canonicalize: bool = True
) -> Iterator[FiniteLanguage]:
    """All nonempty languages of size ≤ n on d letters in the class.

    Enumerates the member subsets of the word pool A^{≤n} (ε excluded) as
    pool-index bitmasks in ascending order; the candidate count 2^|pool| must
    stay under :data:`~codesync.errors.INSTANCE_CAP`, otherwise random mode is
    the way out.  A language is built only for each mask that
    :meth:`_PoolTrie.masks` yields.
    """
    trie = _class_pool(class_tag, n, d)
    for bits in trie.masks(class_tag, canonicalize):
        yield trie.language(bits)


def random_language(rng: random.Random, n: int, d: int) -> FiniteLanguage:
    """Word count uniform in [2, 2n], each word uniform in A^{≤n}."""
    alphabet = Alphabet.lowercase(d)
    pool_size = _pool_size(n, d)

    def pick() -> Word:
        idx = rng.randrange(pool_size)
        k = 1
        while idx >= d ** k:
            idx -= d ** k
            k += 1
        digits = []
        for _ in range(k):
            digits.append(idx % d)
            idx //= d
        return Word(alphabet, tuple(reversed(digits)))

    count = rng.randint(2, 2 * n)
    return FiniteLanguage(alphabet, tuple(pick() for _ in range(count)))


def _random_tree(rng: random.Random, d: int, height: int, splits: int) -> list[int]:
    """Leaf depths of a full d-ary tree of height ≤ ``height``, grown from the
    d leaves of the root by up to ``splits`` splits of a random leaf."""
    leaves = [1] * d
    for _ in range(splits):
        expandable = [i for i, k in enumerate(leaves) if k < height]
        if not expandable:
            break
        i = rng.choice(expandable)
        k = leaves.pop(i)
        leaves.extend([k + 1] * d)
    return leaves


def _random_complete_instance(
    rng: random.Random, n: int, d: int, allow_reverse: bool
) -> FiniteLanguage:
    """A random complete code of size ≤ n: a Kraft tree with shuffled letters,
    reversed into a suffix code half the time when allowed.  On one letter the
    complete codes are the single words a^k."""
    leaves = _random_tree(rng, d, n, rng.randint(0, 2 ** max(n - 1, 1)))
    if d == 1:
        alphabet = Alphabet.lowercase(1)
        return FiniteLanguage(alphabet, (Word(alphabet, (0,) * leaves[0]),))
    x = kraft_canonical(LengthProfile(d, tuple(sorted(leaves))))
    perm = list(range(d))
    rng.shuffle(perm)
    words = tuple(Word(x.alphabet, tuple(perm[i] for i in w.indices)) for w in x.words)
    x = FiniteLanguage(x.alphabet, words)
    if allow_reverse and rng.random() < 0.5:
        x = x.reversed()
    return x


_MAX_DRAWS_PER_SAMPLE = 5000


def sample_class_languages(
    class_tag: str,
    n: int,
    d: int,
    samples: int,
    seed: int,
) -> Iterator[FiniteLanguage]:
    """Seeded in-class random instances.

    Uniform random languages are essentially never complete, so the complete
    classes sample Kraft trees instead of rejection-filtering the uniform
    distribution.  Such a draw is a complete code by theorem, so one outside
    its class raises :class:`InternalInvariantError`.
    """
    rng = random.Random(seed)
    complete_class = class_tag in ("complete-codes", "complete-prefix")
    for index in range(samples):
        if complete_class:
            language = _random_complete_instance(
                rng, n, d, allow_reverse=class_tag == "complete-codes"
            )
            if not _in_class(language, class_tag):
                raise InternalInvariantError(
                    f"a letter-permuted Kraft tree is not in {class_tag}",
                    {"words": language.word_strings(), "class": class_tag, "index": index},
                )
            yield language
            continue
        for _ in range(_MAX_DRAWS_PER_SAMPLE):
            language = random_language(rng, n, d)
            if _in_class(language, class_tag):
                yield language
                break
        else:
            raise SearchBudgetExceeded(
                f"rejection sampling found no {class_tag} instance in "
                f"{_MAX_DRAWS_PER_SAMPLE} draws"
            )


def _sweep(
    kind: str,
    class_tag: str,
    n: int,
    d: int,
    mode: str,
    samples: int,
    seed: int,
    evaluate,
    recheck,
) -> ExperimentReport:
    """The sweep under :func:`estimate_R` and :func:`estimate_C`.

    An instance is an automaton-like object, a :class:`_PoolView` of each
    class member in exhaustive mode and the flower of each sample in random
    mode, with a thunk that builds its language.  ``evaluate(automaton)``
    answers None for a non-instance or (length, witness words).  The language
    is built only when the maximum grows, and ``recheck(language)``, a
    language-level search, must then give the same answer.  Every evaluator
    decides each instance exactly, so the report's ``inconclusive_count``,
    kept in its schema, is 0.
    """
    if n < 1:
        raise CodesyncError(f"the word length n must be at least 1, got {n}")
    if mode == "random" and samples < 1:
        raise CodesyncError(f"random mode needs at least 1 sample, got {samples}")
    start = time.monotonic()
    if mode == "exhaustive":
        trie = _class_pool(class_tag, n, d)
        instances = (
            (_PoolView(trie, bits), partial(trie.language, bits))
            for bits in trie.masks(class_tag, True)
        )
    elif mode == "random":
        instances = (
            (flower_automaton(x), lambda x=x: x)
            for x in sample_class_languages(class_tag, n, d, samples, seed)
        )
    else:
        raise CodesyncError(f"unknown mode {mode!r}")
    value = witness_language = witness = None
    count = 0
    for automaton, build in instances:
        found = evaluate(automaton)
        if found is None:
            continue
        count += 1
        if value is None or found[0] > value:
            language = build()
            if recheck(language) != found:
                raise InternalInvariantError(
                    "pool-trie view and flower automaton disagree",
                    {"language": language.word_strings(), "view_witness": [w.text for w in found[1]]},
                )
            value, witness = found[0], tuple(w.text for w in found[1])
            witness_language = tuple(language.word_strings())
    return ExperimentReport(
        kind=kind,
        class_tag=class_tag,
        n=n,
        d=d,
        mode=mode,
        value=value,
        witness_language=witness_language,
        witness=witness,
        instance_count=count,
        inconclusive_count=0,
        samples=samples if mode == "random" else None,
        seed=seed if mode == "random" else None,
        elapsed_seconds=time.monotonic() - start,
    )


def _incompletable_from_subsets():
    """The exhaustive R evaluator: ``evaluate(view)`` gives the least
    incompletable word of each member, read off its subsets where they decide
    it, in the ``(length, (word,))`` form of :func:`_sweep`.

    Members come in ascending mask order, so every member S ∖ {x} has been
    evaluated before S.  ``table`` keeps one entry per pool mask: 0 for a mask
    not seen, 1 for a complete member, or the index k ≥ 2 in ``found`` of the
    ``(sort key, word)`` pair of the member's least incompletable word.  If one
    S ∖ {x} is complete, so is S.  Otherwise S's least word is at least each
    stored word, so only the largest of them can be incompletable for S, and
    it is S's least word, under the same entry, when it walks ``full_mask`` to
    ∅.  Only a member that no subset decides is searched, and its word is
    added to ``found`` unless ``index`` already holds it.
    """
    table = None
    found: list = [(None, None)] * 2  # entries 0 and 1 hold no word
    index: dict = {}  # a word's indices → its entry in found

    def evaluate(view: _PoolView):
        nonlocal table
        if table is None:  # 2^p zeros of 4 bytes; the trie has checked 2^p against the cap
            table = memoryview(bytearray(4 << len(view.trie.words))).cast("I")
        s = rest = view.members
        best = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            k = table[s ^ bit]
            if k == 1:
                table[s] = 1
                return None
            if k and (not best or found[k][0] > found[best][0]):
                best = k
        w = found[best][1]
        if w is not None:
            t = view.full_mask
            for a in w.indices:
                t = view.step_letter(t, a)
        if w is None or t:
            w = _incompletable_word(view)
            if w is None:
                table[s] = 1
                return None
            if w.indices not in index:
                index[w.indices] = len(found)
                found.append((w.sort_key(), w))
            best = index[w.indices]
        table[s] = best
        return len(w), (w,)

    return evaluate


def estimate_R(
    class_tag: str,
    n: int,
    d: int,
    mode: str = "exhaustive",
    samples: int = 500,
    seed: int = 0,
) -> ExperimentReport:
    """Max over enumerated incomplete class instances of the minimal
    incompletable-word length; exact in exhaustive mode, a lower bound of the
    true parameter in random mode.

    Exhaustive mode evaluates each candidate on a view of the pool trie and
    builds a language only when the maximum grows, checking the word again on
    its flower automaton.  Two facts about inclusion (Berstel–Perrin–
    Reutenauer, *Codes and Automata*) let it read most answers off smaller
    candidates: if T ⊆ S then T* ⊆ S*, so T complete makes S complete, and
    every incompletable word of S is incompletable for T (see
    :func:`_incompletable_from_subsets`).  A candidate decided that way runs
    no search, so it cannot reach the subset cap.
    """

    def incompletable(search, target):
        w = search(target)
        return None if w is None else (len(w), (w,))

    if mode == "exhaustive":
        evaluate = _incompletable_from_subsets()
    else:
        evaluate = partial(incompletable, _incompletable_word)
    return _sweep(
        "R", class_tag, n, d, mode, samples, seed, evaluate, partial(incompletable, shortest_incompletable)
    )


def estimate_C(
    class_tag: str,
    n: int,
    d: int,
    mode: str = "exhaustive",
    samples: int = 500,
    seed: int = 0,
) -> ExperimentReport:
    """Max over synchronizing class instances of the minimal pair length.

    Every instance runs one least-pair search with no budget, which decides
    whether it synchronizes and gives its pair, so an instance with no pair
    is excluded exactly, in every class.  The search ends on its own: once
    its two sides have ended after E_u and E_v levels, no pair is longer
    than E_u + E_v − 2 (see :func:`~codesync.synchrony._pair_search`).

    Exhaustive mode searches each member on a view of the pool trie and
    builds a language only when the maximum grows, checking the pair again
    with the language-level :func:`~codesync.synchrony.shortest_sync_pair`.
    A complete prefix code takes the reset-to-root search
    (:func:`~codesync.synchrony._one_sided_pair`), a member of another code
    class the code search of :func:`~codesync.synchrony._pair_search`, and an
    ``all`` member, which need not be a code, its context search, exact on
    any ε-free X.
    """

    def found(pair):
        return None if pair is None else (pair.total_length, (pair.u, pair.v))

    def evaluate(automaton):
        if class_tag == "complete-prefix":
            return found(_one_sided_pair(automaton, False, None))
        return found(_pair_search(automaton, class_tag != "all", None))

    return _sweep(
        "C", class_tag, n, d, mode, samples, seed,
        evaluate, lambda language: found(shortest_sync_pair(language, None)),
    )


def random_tree_profile(rng: random.Random, max_depth: int) -> tuple[int, ...]:
    """Leaf-depth multiset of a random full binary tree with coprime depths."""
    while True:
        leaves = _random_tree(rng, 2, max_depth, rng.randint(0, 2 ** (max_depth - 1)))
        if math.gcd(*leaves) == 1:
            return tuple(sorted(leaves))


def random_complete_sync_codes(count: int, seed: int = 0, max_size: int = 5) -> list[FiniteLanguage]:
    """Seeded complete synchronizing binary codes of size ≤ max_size.

    Instances are random Kraft trees with coprime leaf depths, randomly
    recolored; half of them are reversed into suffix codes so that the sample
    is not purely prefix.  Every instance is re-verified (code, complete,
    synchronizing) before being returned; a failed check is a broken theorem
    and raises :class:`InternalInvariantError`.
    """
    rng = random.Random(seed)
    out: list[FiniteLanguage] = []
    while len(out) < count:
        profile = LengthProfile(2, random_tree_profile(rng, max_size))
        base = flower_automaton(kraft_canonical(profile))
        language = _first_sync_code(itertools.islice(_random_colorings(base, rng), 64))
        if language is None:
            continue
        if len(out) % 2 == 1:
            language = language.reversed()
        for failure, holds in (
            ("is not a code", lambda: is_code(language)),
            ("is incomplete", lambda: is_complete_language(language)),
            ("does not synchronize", lambda: is_synchronizing_code(language)),
        ):
            if not holds():
                raise InternalInvariantError(
                    f"a recolored Kraft tree {failure}",
                    {"words": language.word_strings(), "lengths": list(profile.lengths), "index": len(out)},
                )
        out.append(language)
    return out


@dataclass(frozen=True)
class BoundCheck:
    """Per-instance outcome of the reduction-bound ledger verification."""

    language: FiniteLanguage
    ok: bool
    detail: str
    trace: Optional[ReductionTrace]


def verify_main_bound(instances: list[FiniteLanguage], budget: int = 14) -> list[BoundCheck]:
    """Run the reduction pipeline on each instance and check its ledger.

    A ledger violation (or any internal failure) is recorded as a finding with
    the full trace rather than raised, so a batch always reports completely.
    The pipeline itself checks the tighter prefix ledger |w₁| ≤ |v|, which
    the detail reports on prefix instances.
    """
    results = []
    for language in instances:
        try:
            pair, trace = synchronizing_pair_via_reduction(language, None, budget)
        except CodesyncError as e:
            results.append(
                BoundCheck(language, False, f"{type(e).__name__}: {e}", None)
            )
            continue
        detail = (
            f"|final| = {trace.final_length} ≤ {trace.bound_value} = "
            f"2·max(|v|) + 2n − 2"
        )
        if trace.prefix_pair is not None:
            detail += (
                f"; prefix ledger |w₁| = {len(trace.prefix_pair.u)} ≤ "
                f"{trace.left.v_length} = |v|"
            )
        results.append(BoundCheck(language, trace.bound_ok, detail, trace))
    return results

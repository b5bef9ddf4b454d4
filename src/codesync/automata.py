"""Flower automata, subset dynamics and structural predicates.

State sets are plain Python ints used as bitmasks (bit q set = state q in the
set), which keeps the subset-space searches cheap and the set algebra exact.
State 1 of the theory is always index 0; an automaton accepts the words
labelling paths from state 0 back into its accepting set, which by default is
{0} so that L(A) = X* for the minimal generating set X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from . import errors
from .errors import AutomatonContractError, EpsilonNotAllowed, ParseError, SubsetCapExceeded
from .languages import Alphabet, FiniteLanguage, Word


def mask_from_states(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


def states_from_mask(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask  # lowest bit first, so the cost follows the set size, not the width
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Automaton:
    """Nondeterministic automaton ⟨Q, A, δ, 1⟩ with state 1 at index 0.

    ``table[q][a]`` is the bitmask of targets of state ``q`` under letter
    ``a``; incompleteness shows up as an empty (zero) image.  ``labels`` may
    carry the proper prefix each state represents in a flower automaton.
    """

    n_states: int
    alphabet: Alphabet
    table: tuple[tuple[int, ...], ...]
    initial: int = 0
    accepting: frozenset[int] = None  # defaults to {initial}
    labels: Optional[tuple[str, ...]] = None
    _letter_rows: tuple = field(init=False, repr=False, compare=False, hash=False)
    _rev_rows: tuple = field(init=False, repr=False, compare=False, hash=False)
    _total: tuple = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.accepting is None:
            object.__setattr__(self, "accepting", frozenset({self.initial}))
        if not 0 <= self.initial < self.n_states:
            raise AutomatonContractError("initial state out of range")
        n = self.n_states
        if any(not 0 <= q < n for q in self.accepting):
            raise AutomatonContractError("accepting state out of range")
        if self.labels is not None and len(self.labels) != n:
            raise AutomatonContractError("labels do not match the number of states")
        if len(self.table) != n:
            raise AutomatonContractError("transition table has wrong number of rows")
        for row in self.table:
            if len(row) != len(self.alphabet):
                raise AutomatonContractError("transition row has wrong arity")
            for m in row:
                if m < 0 or m >> n:
                    raise AutomatonContractError("transition target out of range")
        # per-letter views: rows[a][q] and their reverses, for the hot loops,
        # and whether each letter is total (exactly one target per state)
        rows = tuple(zip(*self.table))
        rev = []
        total = []
        for row in rows:
            total.append(all(m and not m & (m - 1) for m in row))
            back = [0] * n
            for q, m in enumerate(row):
                while m:
                    t = (m & -m).bit_length() - 1
                    back[t] |= 1 << q
                    m &= m - 1
            rev.append(tuple(back))
        object.__setattr__(self, "_letter_rows", rows)
        object.__setattr__(self, "_rev_rows", tuple(rev))
        object.__setattr__(self, "_total", tuple(total))

    @property
    def full_mask(self) -> int:
        return (1 << self.n_states) - 1

    def step_letter(self, mask: int, a: int) -> int:
        row = self._letter_rows[a]
        out = 0
        while mask:
            q = (mask & -mask).bit_length() - 1
            out |= row[q]
            mask &= mask - 1
        return out

    def step_letter_back(self, mask: int, a: int) -> int:
        """States q with δ(q,a) ∩ mask ≠ ∅.

        On a total letter S·a⁻¹ = Q ∖ (Q ∖ S)·a⁻¹, so a mask holding more than
        half the states walks its complement instead.
        """
        row = self._rev_rows[a]
        flip = 0
        if self._total[a] and 2 * mask.bit_count() > self.n_states:
            flip = (1 << self.n_states) - 1
            mask ^= flip
        out = 0
        while mask:
            q = (mask & -mask).bit_length() - 1
            out |= row[q]
            mask &= mask - 1
        return out ^ flip

    def step_word(self, mask: int, w: Word, back: bool = False) -> int:
        """δ(S, w), or δ(S, w⁻¹) = {q : δ(q, w) ∩ S ≠ ∅} when ``back``; both
        fix S at w = ε."""
        if w.alphabet != self.alphabet:
            raise ParseError("word alphabet differs from automaton alphabet")
        step = self.step_letter_back if back else self.step_letter
        for a in reversed(w.indices) if back else w.indices:
            mask = step(mask, a)
            if not mask:
                return 0
        return mask

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (from, letter, to) triples."""
        out = []
        for q in range(self.n_states):
            for a in range(len(self.alphabet)):
                for t in states_from_mask(self.table[q][a]):
                    out.append((q, a, t))
        return sorted(out)


def reverse(automaton: Automaton) -> Automaton:
    """Edge-reversed automaton; accepts the mirror language."""
    return replace(automaton, table=tuple(zip(*automaton._rev_rows)))


def _flower_states(language: FiniteLanguage) -> list[tuple[int, ...]]:
    """The flower's states in index order: () for state 1, then the proper
    nonempty prefixes of X in (length, lex) order."""
    prefixes = {w.indices[:k] for w in language.words for k in range(1, len(w))}
    return [()] + sorted(prefixes, key=lambda p: (len(p), p))


def flower_automaton(language: FiniteLanguage) -> Automaton:
    """The literal (flower) automaton of X*.

    States are state 1 plus the proper nonempty prefixes of X in (length, lex)
    order (:func:`_flower_states`); the first-return words at state 1 are X,
    every state is accessible and co-accessible, and every cycle passes
    through state 1.  The result is memoized on the (immutable) language.
    """
    cached = language._memo.get("flower")
    if cached is not None:
        return cached
    if len(language) == 0:
        raise ParseError("cannot build the flower automaton of an empty language")
    if language.contains_epsilon:
        raise EpsilonNotAllowed("flower automaton requires ε ∉ X")
    ordered = _flower_states(language)
    index = {p: i for i, p in enumerate(ordered)}
    word_set = {w.indices for w in language.words}
    d = len(language.alphabet)
    table = [[0] * d for _ in ordered]
    for p, i in index.items():
        for a in range(d):
            t = p + (a,)
            m = 0
            if t in index:
                m |= 1 << index[t]
            if t in word_set:
                m |= 1
            table[i][a] = m
    symbols = language.alphabet.symbols
    labels = ("1",) + tuple("".join(symbols[a] for a in p) for p in ordered[1:])
    automaton = Automaton(
        n_states=len(ordered),
        alphabet=language.alphabet,
        table=tuple(tuple(row) for row in table),
        labels=labels,
    )
    language._memo["flower"] = automaton
    return automaton


def is_deterministic(automaton: Automaton) -> bool:
    """Card(qa) ≤ 1 for every state and letter."""
    return all(
        m.bit_count() <= 1 for row in automaton.table for m in row
    )


def subset_bfs(
    automaton: Automaton,
    start: int,
    *,
    back: bool = False,
    goal: Optional[Callable[[int], bool]] = None,
    what: str = "subset search",
) -> tuple[list[int], Optional[Word]]:
    """Breadth-first search in the subset automaton from ``start``.

    Steps with ``step_letter`` (``step_letter_back`` when ``back``), trying
    letters in alphabet order and expanding subsets first-in-first-out, so the
    first word reaching a subset is its (length, lex) minimum.  Returns the
    discovered nonempty subsets in discovery order, start first, and the least
    word whose subset satisfies ``goal`` (None when no subset does).  ∅ is
    tested against ``goal`` but never expanded; the goal is tested before the
    cap :data:`errors.SUBSET_CAP` on distinct nonempty subsets, so a hit returns
    before the cap can fire.
    """
    cap = errors.SUBSET_CAP
    step = automaton.step_letter_back if back else automaton.step_letter
    letters = range(len(automaton.alphabet))
    parent: dict[int, Optional[tuple[int, int]]] = {start: None}
    order = [start]
    hit = start if goal is not None and goal(start) else None
    head = 0
    while hit is None and head < len(order):
        s = order[head]
        head += 1
        for a in letters:
            t = step(s, a)
            if t in parent:
                continue
            parent[t] = (s, a)
            if goal is not None and goal(t):
                hit = t
                break
            if t:
                order.append(t)
                if len(order) > cap:
                    raise SubsetCapExceeded(cap, what)
    if hit is None:
        return order, None
    word = []
    while parent[hit] is not None:
        hit, a = parent[hit]
        word.append(a)
    return order, Word(automaton.alphabet, tuple(reversed(word)))


def layered_search(start: Hashable, key: Any, expand: Callable, *, what: str) -> Iterator[dict]:
    """Yield, length by length, the states first reached at that length, each
    with the least key that ``expand(state, key)`` gives it from the previous
    level.  Exact for keys ordered compatibly with extension: every prefix of a
    least-key shortest witness reaches its state at that state's distance.
    The cap :data:`errors.SUBSET_CAP` on distinct states is checked once the
    caller has seen a level.
    """
    level, seen = {start: key}, {start}
    while level:
        yield level
        if len(seen) > errors.SUBSET_CAP:
            raise SubsetCapExceeded(errors.SUBSET_CAP, what)
        nxt: dict = {}
        for s, k in level.items():
            for t, kt in expand(s, k):
                if t not in seen and (t not in nxt or kt < nxt[t]):
                    nxt[t] = kt
        seen.update(nxt)
        level = nxt


def _reach(automaton: Automaton, start: int, back: bool) -> int:
    """Mask of the states reachable from ``start`` (co-reachable when ``back``)."""
    step = automaton.step_letter_back if back else automaton.step_letter
    letters = range(len(automaton.alphabet))
    seen = frontier = 1 << start
    while frontier:
        new = 0
        for a in letters:
            new |= step(frontier, a)
        frontier = new & ~seen
        seen |= new
    return seen


def is_transitive(automaton: Automaton) -> bool:
    """True iff the underlying graph is strongly connected."""
    full = automaton.full_mask
    return all(_reach(automaton, automaton.initial, back) == full for back in (False, True))


_INFINITE_RETURNS = "a cycle avoids state 1; the first-return set is infinite"


def first_return_language(automaton: Automaton) -> FiniteLanguage:
    """Labels of all paths 1 → 1 with no intermediate visit to 1.

    This is the minimal generating set Y of L(A), with Y ∩ Y²Y* = ∅.  The walk
    keeps to states co-reachable to 1, and raises on a cycle there avoiding 1
    that it reaches, since Y would then be infinite.  It keeps its own stack,
    so a word of Y may be longer than Python's recursion limit.
    """
    if automaton.accepting != frozenset({automaton.initial}):
        raise AutomatonContractError("first-return extraction needs I = F = {1}")
    init = automaton.initial
    back = _reach(automaton, init, back=True)
    out_edges: list[list] = [[] for _ in range(automaton.n_states)]
    for q, a, t in automaton.edges():
        if back >> t & 1:
            out_edges[q].append((a, t))
    words: list[Word] = []
    path = 0  # the states on the current path, below state 1
    stack = [(init, (), iter(out_edges[init]))]
    while stack:
        state, acc, todo = stack[-1]
        for a, t in todo:
            if t == init:
                words.append(Word(automaton.alphabet, acc + (a,)))
            elif path >> t & 1:
                raise AutomatonContractError(_INFINITE_RETURNS)
            else:
                path |= 1 << t
                stack.append((t, acc + (a,), iter(out_edges[t])))
                break
        else:
            stack.pop()
            path &= ~(1 << state)
    return FiniteLanguage(automaton.alphabet, tuple(words))


def first_return_size(automaton: Automaton) -> int:
    """ℓ(Y) for Y = :func:`first_return_language` (A), without listing Y.

    One memoized longest-path pass over the states co-reachable to 1, avoiding
    1: the longest path 1 → 1 with no intermediate visit to 1.  Same contract
    as :func:`first_return_language`: I = F = {1}, and a reached cycle avoiding
    1 raises.  The depth-first pass keeps its own stack, so a path may be
    longer than Python's recursion limit; a state is unvisited, on the path
    (``path``) or finished (in ``depth``), and a step onto the path is a cycle.
    """
    if automaton.accepting != frozenset({automaton.initial}):
        raise AutomatonContractError("first-return extraction needs I = F = {1}")
    init = automaton.initial
    inner = _reach(automaton, init, back=True) & ~(1 << init)
    targets = [0] * automaton.n_states
    for q, row in enumerate(automaton.table):
        for m in row:
            targets[q] |= m
    depth: dict[int, int] = {}  # longest path q → 1 avoiding 1, per finished q
    path = 0
    kids = states_from_mask(targets[init] & inner)
    stack = [(init, kids, iter(kids))]
    while stack:
        state, kids, todo = stack[-1]
        for t in todo:
            if path >> t & 1:
                raise AutomatonContractError(_INFINITE_RETURNS)
            if t not in depth:
                path |= 1 << t
                nxt = states_from_mask(targets[t] & inner)
                stack.append((t, nxt, iter(nxt)))
                break
        else:
            stack.pop()
            path &= ~(1 << state)
            depth[state] = max([targets[state] >> init & 1] + [1 + depth[t] for t in kids])
    return depth[init]


def determinize_minimize(automaton: Automaton) -> Automaton:
    """Accessible subset construction followed by partition refinement.

    The result is the minimal (complete or partial) deterministic automaton
    for the same language, accepting at subsets that meet the accepting
    states.  Every target is masked by ``live``, the states from which an
    accepting state can be reached (δ(S, a) ∩ live = δ(S ∩ live, a) ∩ live, as
    dead states reach only dead states), so no dead subset is explored and a
    step to ∅ is undefined; the empty language gives one state and no steps.
    """
    d = len(automaton.alphabet)
    live = 0
    for q in automaton.accepting:
        live |= _reach(automaton, q, back=True)
    automaton = replace(automaton, table=tuple(tuple(m & live for m in row) for row in automaton.table))
    start = (1 << automaton.initial) & live
    order = subset_bfs(automaton, start, what="subset construction")[0] if start else []
    index = {s: i for i, s in enumerate(order)}
    trans = [[index.get(automaton.step_letter(s, a)) for a in range(d)] for s in order]
    accept_bit = mask_from_states(automaton.accepting)
    accepting = [bool(s & accept_bit) for s in order]

    # Moore refinement over the partial DFA; None acts as a private sink class.
    # Classes are numbered by first appearance, so the start subset's is 0.
    n = len(order)
    cls = [1 if accepting[q] else 0 for q in range(n)]
    while True:
        signature = {}
        new_cls = [0] * n
        for q in range(n):
            sig = (cls[q],) + tuple(
                -1 if trans[q][a] is None else cls[trans[q][a]] for a in range(d)
            )
            if sig not in signature:
                signature[sig] = len(signature)
            new_cls[q] = signature[sig]
        if new_cls == cls:
            break
        cls = new_cls

    n_min = max(cls, default=0) + 1
    table = [[0] * d for _ in range(n_min)]
    for q in range(n):
        for a in range(d):
            if trans[q][a] is not None:
                table[cls[q]][a] = 1 << cls[trans[q][a]]
    return Automaton(
        n_states=n_min,
        alphabet=automaton.alphabet,
        table=tuple(tuple(row) for row in table),
        initial=0,
        accepting=frozenset(cls[q] for q in range(n) if accepting[q]),
    )


def automaton_to_json(automaton: Automaton) -> str:
    data = {
        "states": automaton.n_states,
        "initial": automaton.initial,
        "alphabet": list(automaton.alphabet.symbols),
        "edges": [list(e) for e in automaton.edges()],
    }
    if automaton.accepting != frozenset({automaton.initial}):
        data["accepting"] = sorted(automaton.accepting)
    if automaton.labels is not None:
        data["labels"] = list(automaton.labels)
    return json.dumps(data)

"""Flower automata, subset dynamics and structural predicates.

State sets are plain Python ints used as bitmasks (bit q set = state q in the
set), which keeps the subset-space searches cheap and the set algebra exact.
State 1 of the theory is always index 0; an automaton accepts the words
labelling paths from state 0 back into its accepting set, which by default is
{0} so that L(A) = X* for the minimal generating set X.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .errors import (
    AutomatonContractError,
    EpsilonNotAllowed,
    ParseError,
    SubsetCapExceeded,
    DEFAULT_SUBSET_CAP,
)
from .languages import Alphabet, FiniteLanguage, Word


def mask_from_states(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


def states_from_mask(mask: int) -> list[int]:
    out = []
    q = 0
    while mask:
        if mask & 1:
            out.append(q)
        mask >>= 1
        q += 1
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

    def __post_init__(self):
        if self.accepting is None:
            object.__setattr__(self, "accepting", frozenset({self.initial}))
        if not 0 <= self.initial < self.n_states:
            raise AutomatonContractError("initial state out of range")
        if len(self.table) != self.n_states:
            raise AutomatonContractError("transition table has wrong number of rows")
        full = (1 << self.n_states) - 1
        for row in self.table:
            if len(row) != len(self.alphabet):
                raise AutomatonContractError("transition row has wrong arity")
            for m in row:
                if m & ~full:
                    raise AutomatonContractError("transition target out of range")
        # per-letter views: rows[a][q] and their reverses, for the hot loops
        d = len(self.alphabet)
        rows = tuple(tuple(self.table[q][a] for q in range(self.n_states)) for a in range(d))
        rev = []
        for a in range(d):
            back = [0] * self.n_states
            for q in range(self.n_states):
                m = rows[a][q]
                while m:
                    t = (m & -m).bit_length() - 1
                    back[t] |= 1 << q
                    m &= m - 1
            rev.append(tuple(back))
        object.__setattr__(self, "_letter_rows", rows)
        object.__setattr__(self, "_rev_rows", tuple(rev))

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
        """States q with δ(q,a) ∩ mask ≠ ∅."""
        row = self._rev_rows[a]
        out = 0
        while mask:
            q = (mask & -mask).bit_length() - 1
            out |= row[q]
            mask &= mask - 1
        return out

    def edges(self) -> list[tuple[int, int, int]]:
        """Sorted (from, letter, to) triples."""
        out = []
        for q in range(self.n_states):
            for a in range(len(self.alphabet)):
                for t in states_from_mask(self.table[q][a]):
                    out.append((q, a, t))
        return sorted(out)


def step_forward(automaton: Automaton, mask: int, w: Word) -> int:
    """δ(S, w), computed letter by letter; δ(S, ε) = S."""
    if w.alphabet != automaton.alphabet:
        raise ParseError("word alphabet differs from automaton alphabet")
    for a in w.indices:
        mask = automaton.step_letter(mask, a)
        if not mask:
            return 0
    return mask


def step_backward(automaton: Automaton, mask: int, w: Word) -> int:
    """δ(S, w⁻¹) = {q : δ(q, w) ∩ S ≠ ∅}, the mirror of :func:`step_forward`."""
    if w.alphabet != automaton.alphabet:
        raise ParseError("word alphabet differs from automaton alphabet")
    for a in reversed(w.indices):
        mask = automaton.step_letter_back(mask, a)
        if not mask:
            return 0
    return mask


def reverse(automaton: Automaton) -> Automaton:
    """Edge-reversed automaton; accepts the mirror language."""
    n, d = automaton.n_states, len(automaton.alphabet)
    table = [[0] * d for _ in range(n)]
    for q, a, t in automaton.edges():
        table[t][a] |= 1 << q
    return Automaton(
        n_states=n,
        alphabet=automaton.alphabet,
        table=tuple(tuple(row) for row in table),
        initial=automaton.initial,
        accepting=automaton.accepting,
        labels=automaton.labels,
    )


def flower_automaton(language: FiniteLanguage) -> Automaton:
    """The literal (flower) automaton of X*.

    States are state 1 plus the proper nonempty prefixes of words of X; all
    first-return words at state 1 are exactly X, every state is accessible and
    co-accessible, and every cycle passes through state 1.  The result is
    memoized on the (immutable) language.
    """
    cached = language._memo.get("flower")
    if cached is not None:
        return cached
    if len(language) == 0:
        raise ParseError("cannot build the flower automaton of an empty language")
    if language.contains_epsilon:
        raise EpsilonNotAllowed("flower automaton requires ε ∉ X")
    prefixes = set()
    for w in language.words:
        for k in range(1, len(w)):
            prefixes.add(w.indices[:k])
    ordered = [()] + sorted(prefixes, key=lambda p: (len(p), p))
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
    labels = tuple(
        "1" if not p else Word(language.alphabet, p).text for p in ordered
    )
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
    cap: int = DEFAULT_SUBSET_CAP,
    what: str = "subset search",
) -> tuple[list[int], Optional[Word]]:
    """Breadth-first search in the subset automaton from ``start``.

    Steps with ``step_letter`` (``step_letter_back`` when ``back``), trying
    letters in alphabet order and expanding subsets first-in-first-out, so the
    first word reaching a subset is its (length, lex) minimum.  Returns the
    discovered nonempty subsets in discovery order, start first, and the least
    word whose subset satisfies ``goal`` (None when no subset does).  ∅ is
    tested against ``goal`` but never expanded; the goal is tested before the
    cap on distinct nonempty subsets, so a hit returns before the cap can fire.
    """
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


def is_complete_automaton(automaton: Automaton, cap: int = DEFAULT_SUBSET_CAP) -> bool:
    """True iff δ(Q, u) is nonempty for every word u.

    Decided by checking that ∅ is unreachable from the full state set in the
    subset automaton.
    """
    _, hit = subset_bfs(
        automaton, automaton.full_mask, goal=lambda t: not t, cap=cap, what="completeness check"
    )
    return hit is None


def is_transitive(automaton: Automaton) -> bool:
    """True iff the underlying graph is strongly connected."""
    n = automaton.n_states
    if n == 1:
        return True
    d = len(automaton.alphabet)

    def reach(start: int, rows) -> int:
        seen = 1 << start
        frontier = 1 << start
        while frontier:
            new = 0
            m = frontier
            while m:
                q = (m & -m).bit_length() - 1
                m &= m - 1
                for a in range(d):
                    new |= rows[a][q]
            frontier = new & ~seen
            seen |= new
        return seen

    full = automaton.full_mask
    return (
        reach(automaton.initial, automaton._letter_rows) == full
        and reach(automaton.initial, automaton._rev_rows) == full
    )


def is_unambiguous(automaton: Automaton) -> bool:
    """At most one accepting path per accepted word.

    Checked on the accessible product A×A: the automaton is unambiguous iff no
    pair (p, q) with p ≠ q is both reachable from (1, 1) and co-reachable to
    (1, 1).  Assumes trim input (flower automata are trim by construction).
    """
    d = len(automaton.alphabet)
    init = (automaton.initial, automaton.initial)

    def targets(q: int, a: int) -> list[int]:
        return states_from_mask(automaton.table[q][a])

    reachable = {init}
    frontier = [init]
    while frontier:
        p, q = frontier.pop()
        for a in range(d):
            for p2 in targets(p, a):
                for q2 in targets(q, a):
                    if (p2, q2) not in reachable:
                        reachable.add((p2, q2))
                        frontier.append((p2, q2))
    # backward closure from (1,1) over the product graph, restricted to
    # reachable pairs for economy
    rev = {pair: [] for pair in reachable}
    for p, q in reachable:
        for a in range(d):
            for p2 in targets(p, a):
                for q2 in targets(q, a):
                    if (p2, q2) in rev:
                        rev[(p2, q2)].append((p, q))
    co = {init}
    frontier = [init]
    while frontier:
        pair = frontier.pop()
        for prev in rev.get(pair, ()):
            if prev not in co:
                co.add(prev)
                frontier.append(prev)
    return all(p == q for (p, q) in reachable & co)


def first_return_language(automaton: Automaton) -> FiniteLanguage:
    """Labels of all paths 1 → 1 with no intermediate visit to 1.

    This is the minimal generating set Y of L(A), with Y ∩ Y²Y* = ∅.  Raises
    when some cycle avoids state 1, since Y would then be infinite.
    """
    if automaton.accepting != frozenset({automaton.initial}):
        raise AutomatonContractError("first-return extraction needs I = F = {1}")
    n, d = automaton.n_states, len(automaton.alphabet)
    init = automaton.initial
    # the subgraph on Q \ {1} must be acyclic, else Y is infinite; peel by
    # in-degree (Kahn)
    indeg = [0] * n
    for q, _, t in automaton.edges():
        if q != init and t != init:
            indeg[t] += 1
    queue = [q for q in range(n) if q != init and indeg[q] == 0]
    peeled = 0
    while queue:
        q = queue.pop()
        peeled += 1
        for a in range(d):
            for t in states_from_mask(automaton.table[q][a]):
                if t != init:
                    indeg[t] -= 1
                    if indeg[t] == 0:
                        queue.append(t)
    if peeled != n - 1:
        raise AutomatonContractError(
            "a cycle avoids state 1; the first-return set is infinite"
        )

    words: list[Word] = []

    def walk(state: int, acc: tuple[int, ...]):
        for a in range(d):
            for t in states_from_mask(automaton.table[state][a]):
                if t == init:
                    words.append(Word(automaton.alphabet, acc + (a,)))
                else:
                    walk(t, acc + (a,))

    walk(init, ())
    return FiniteLanguage(automaton.alphabet, tuple(words))


def determinize_minimize(automaton: Automaton) -> Automaton:
    """Accessible subset construction followed by partition refinement.

    The result is a minimal (complete or partial) deterministic automaton for
    the same language, accepting at subsets that contain state 1.
    """
    d = len(automaton.alphabet)
    order, _ = subset_bfs(automaton, 1 << automaton.initial, what="subset construction")
    index = {s: i for i, s in enumerate(order)}
    trans = [[index.get(automaton.step_letter(s, a)) for a in range(d)] for s in order]
    accept_bit = mask_from_states(automaton.accepting)
    accepting = [bool(s & accept_bit) for s in order]

    # Moore refinement over the partial DFA; None acts as a private sink class
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

    n_min = max(cls) + 1
    # relabel so that the class of the start subset is state 0
    relabel = {cls[0]: 0}
    for c in cls:
        if c not in relabel:
            relabel[c] = len(relabel)
    table = [[0] * d for _ in range(n_min)]
    for q in range(n):
        cq = relabel[cls[q]]
        for a in range(d):
            if trans[q][a] is not None:
                table[cq][a] = 1 << relabel[cls[trans[q][a]]]
    accepting_classes = frozenset(relabel[cls[q]] for q in range(n) if accepting[q])
    return Automaton(
        n_states=n_min,
        alphabet=automaton.alphabet,
        table=tuple(tuple(row) for row in table),
        initial=0,
        accepting=accepting_classes,
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


def automaton_from_json(text: str) -> Automaton:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid automaton JSON: {e}") from None
    try:
        n = int(data["states"])
        alphabet = Alphabet(tuple(data["alphabet"]))
        d = len(alphabet)
        table = [[0] * d for _ in range(n)]
        for q, a, t in data["edges"]:
            if not (0 <= q < n and 0 <= a < d and 0 <= t < n):
                raise ParseError(f"edge {(q, a, t)} out of range")
            table[q][a] |= 1 << t
        accepting = frozenset(data.get("accepting", [data.get("initial", 0)]))
        labels = tuple(data["labels"]) if "labels" in data else None
        return Automaton(
            n_states=n,
            alphabet=alphabet,
            table=tuple(tuple(row) for row in table),
            initial=int(data.get("initial", 0)),
            accepting=accepting,
            labels=labels,
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid automaton JSON: {e}") from None


def accepts(automaton: Automaton, w: Word) -> bool:
    """Membership of w in L(A) (paths initial → accepting)."""
    mask = step_forward(automaton, 1 << automaton.initial, w)
    return bool(mask & mask_from_states(automaton.accepting))

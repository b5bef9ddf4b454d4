"""Words, alphabets, finite languages and the basic code-theoretic predicates.

Symbols are arbitrary printable tokens, not necessarily single characters, so
a freshly marked letter like ``a'`` is just another token.  Words store symbol
indices relative to an :class:`Alphabet`; languages keep their words in a
canonical (length, lexicographic) order so that every downstream search has a
reproducible tie-break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EpsilonNotAllowed, ParseError


@dataclass(frozen=True)
class Alphabet:
    """An ordered sequence of distinct symbol tokens."""

    symbols: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not self.symbols:
            raise ParseError("alphabet must be nonempty")
        for s in self.symbols:
            # Word.parse could not read such a symbol back, nor the text
            # format, where "#" starts a comment
            if not isinstance(s, str) or not s or s == "ε" or "#" in s or any(c.isspace() for c in s):
                raise ParseError(f"symbol {s!r} must be a nonempty string without whitespace or '#', not ε")
        if len(set(self.symbols)) != len(self.symbols):
            raise ParseError(f"duplicate symbols in alphabet {self.symbols!r}")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def of(cls, *symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def binary(cls) -> "Alphabet":
        return cls(("a", "b"))

    @classmethod
    def lowercase(cls, d: int) -> "Alphabet":
        """First ``d`` latin letters, the default for generated codes."""
        if not 1 <= d <= 26:
            raise ParseError(f"cannot build a {d}-letter default alphabet")
        return cls(tuple("abcdefghijklmnopqrstuvwxyz"[:d]))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise ParseError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None

    def extended(self, symbol: str) -> "Alphabet":
        """New alphabet with ``symbol`` appended (ordered last)."""
        if symbol in self:
            raise ParseError(f"symbol {symbol!r} already in alphabet")
        return Alphabet(self.symbols + (symbol,))


@dataclass(frozen=True, order=False)
class Word:
    """A symbol-index sequence over an alphabet; the empty word is allowed."""

    alphabet: Alphabet
    indices: tuple[int, ...] = ()

    def __post_init__(self):
        d = len(self.alphabet)
        for i in self.indices:
            if not 0 <= i < d:
                raise ParseError(f"symbol index {i} invalid for {d}-letter alphabet")

    @classmethod
    def epsilon(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> "Word":
        """Parse a word from text.

        Whitespace-separated fields are read as one token each; an unbroken
        field is tokenized by greedy longest match against the alphabet, so
        ``ba'a`` over {a, b, a'} reads as b·a'·a.  The literal ``ε``, the
        empty string, or an ``eps`` the alphabet cannot tokenize denotes the
        empty word.
        """
        text = text.strip()
        if text in ("ε", ""):
            return cls.epsilon(alphabet)
        by_length = sorted(alphabet.symbols, key=len, reverse=True)
        tokens: list[str] = []
        for f in text.split():
            if f in alphabet:
                tokens.append(f)
                continue
            pos = 0
            while pos < len(f):
                for t in by_length:
                    if f.startswith(t, pos):
                        tokens.append(t)
                        pos += len(t)
                        break
                else:
                    if text == "eps":
                        return cls.epsilon(alphabet)
                    raise ParseError(
                        f"cannot tokenize {f!r} over alphabet {alphabet.symbols!r}"
                    )
        return cls(alphabet, tuple(alphabet.index(t) for t in tokens))

    @property
    def text(self) -> str:
        """Rendered form, which :meth:`parse` reads back: ε for the empty word,
        else the concatenated tokens, or the tokens joined by single spaces
        where the concatenation reads back otherwise (a·b over {a, b, ab})."""
        if not self.indices:
            return "ε"
        tokens = [self.alphabet.symbols[i] for i in self.indices]
        joined = "".join(tokens)
        try:
            plain = all(len(s) == 1 for s in self.alphabet) or (
                Word.parse(joined, self.alphabet) == self
            )
        except ParseError:
            plain = False
        return joined if plain else " ".join(tokens)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __getitem__(self, item) -> "Word":
        if isinstance(item, slice):
            return Word(self.alphabet, self.indices[item])
        return Word(self.alphabet, (self.indices[item],))

    def __add__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise ParseError("cannot concatenate words over different alphabets")
        return Word(self.alphabet, self.indices + other.indices)

    def count(self, symbol: str) -> int:
        """Number of occurrences of a letter, |w|_a."""
        return self.indices.count(self.alphabet.index(symbol))

    def reversed(self) -> "Word":
        return Word(self.alphabet, self.indices[::-1])

    def startswith(self, other: "Word") -> bool:
        return self.indices[: len(other.indices)] == other.indices

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.indices), self.indices)

    def __repr__(self) -> str:
        return f"Word({self.text!r})"


@dataclass(frozen=True)
class FiniteLanguage:
    """A finite set of words over one alphabet, canonically ordered.

    ``size`` is the maximal word length, 0 for the empty language.  Derived
    structures (the flower automaton, its subset families, the code test and
    the completeness test) are memoized on the instance, so they live exactly
    as long as the language does.
    """

    alphabet: Alphabet
    words: tuple[Word, ...]
    _memo: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        for w in self.words:
            if w.alphabet != self.alphabet:
                raise ParseError("word alphabet differs from language alphabet")
        canon = tuple(sorted(set(self.words), key=Word.sort_key))
        object.__setattr__(self, "words", canon)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def from_strings(cls, strings: Sequence[str], alphabet: Optional[Alphabet] = None) -> "FiniteLanguage":
        """Build a language from rendered words.

        Without an explicit alphabet, symbols are single characters collected
        in first-appearance order.
        """
        if alphabet is None:
            seen: list[str] = []
            for s in strings:
                for ch in s.strip():
                    if not ch.isspace() and ch not in seen and ch != "ε":
                        seen.append(ch)
            if not seen:
                raise ParseError("cannot infer an alphabet from empty words only")
            alphabet = Alphabet(tuple(seen))
        return cls(alphabet, tuple(Word.parse(s, alphabet) for s in strings))

    @property
    def size(self) -> int:
        """ℓ(X): the maximal word length (0 for the empty language)."""
        return max((len(w) for w in self.words), default=0)

    @property
    def contains_epsilon(self) -> bool:
        # the words are sorted by length, so ε can only come first
        return bool(self.words) and not self.words[0].indices

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in set(self.words)

    def word_strings(self) -> list[str]:
        return [w.text for w in self.words]

    def reversed(self) -> "FiniteLanguage":
        """The mirror image: every word reversed."""
        return FiniteLanguage(self.alphabet, tuple(w.reversed() for w in self.words))

    def __repr__(self) -> str:
        return f"FiniteLanguage({{{', '.join(self.word_strings())}}})"


def parse_language(text: str) -> FiniteLanguage:
    """Parse the language file format (or its JSON alternative).

    Text format: an optional ``alphabet: a b c`` header, one word per line,
    ``#`` starts a comment, blank lines are ignored.  JSON format::

        {"alphabet": ["a", "b"], "words": ["ab", [1, 0]]}
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_language_json(stripped)

    alphabet: Optional[Alphabet] = None
    lines: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if lines or alphabet is not None:
                raise ParseError("alphabet header must come first and appear once")
            symbols = line[len("alphabet:"):].split()
            if not symbols:
                raise ParseError("empty alphabet header")
            alphabet = Alphabet(tuple(symbols))
            continue
        lines.append(line)
    if not lines:
        raise ParseError("empty language file")
    if alphabet is None:
        return FiniteLanguage.from_strings(lines)
    return FiniteLanguage(alphabet, tuple(Word.parse(s, alphabet) for s in lines))


def _json_list(data: dict, key: str) -> list:
    """``data[key]`` of a JSON input, which must be a list."""
    value = data[key]
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a JSON list, not {value!r}")
    return value


def _json_int(value) -> int:
    """An index or state of a JSON input, which must be an integer (JSON
    true and false read as Python bools, which are ints too)."""
    if type(value) is not int:
        raise ParseError(f"{value!r} must be a JSON integer")
    return value


def _parse_language_json(text: str) -> FiniteLanguage:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON language file: {e}") from None
    if not isinstance(data, dict) or "words" not in data:
        raise ParseError("JSON language file must be an object with a 'words' key")
    words = _json_list(data, "words")
    if "alphabet" not in data:
        if not all(isinstance(w, str) for w in words):
            raise ParseError("index-form words require an explicit alphabet")
        return FiniteLanguage.from_strings(words)
    alphabet = Alphabet(tuple(_json_list(data, "alphabet")))
    out = []
    for w in words:
        if isinstance(w, str):
            out.append(Word.parse(w, alphabet))
        elif isinstance(w, list):
            out.append(Word(alphabet, tuple(map(_json_int, w))))
        else:
            raise ParseError(f"word {w!r} must be a string or a list of symbol indices")
    if not out:
        raise ParseError("empty language file")
    return FiniteLanguage(alphabet, tuple(out))


def language_to_json(language: FiniteLanguage) -> str:
    return json.dumps(
        {
            "alphabet": list(language.alphabet.symbols),
            "words": [list(w.indices) for w in language.words],
        }
    )


def kleene_membership(language: FiniteLanguage, w: Word) -> bool:
    """Decide w ∈ X* by dynamic programming over positions of w.

    This is the backbone oracle for brute-force cross-checks; it never looks
    at any automaton.
    """
    if w.alphabet != language.alphabet:
        raise ParseError("word alphabet differs from language alphabet")
    n = len(w)
    pieces = [x.indices for x in language.words if len(x) > 0]
    reachable = [False] * (n + 1)
    reachable[0] = True
    for i in range(n):
        if not reachable[i]:
            continue
        for p in pieces:
            j = i + len(p)
            if j <= n and not reachable[j] and w.indices[i:j] == p:
                reachable[j] = True
    return reachable[n]


def is_prefix(language: FiniteLanguage) -> bool:
    """True iff no word of X is a proper prefix of another word of X."""
    return _prefix_free(w.indices for w in language.words)


def _prefix_free(words: Iterable[tuple[int, ...]]) -> bool:
    """The test of :func:`is_prefix` on distinct index tuples.  In lex order
    every word between u and a word with prefix u also has prefix u, so each
    word is tested against its successor only."""
    words = sorted(words)
    return not any(v[: len(u)] == u for u, v in zip(words, words[1:]))


def is_code(language: FiniteLanguage) -> bool:
    """Unique-factorization test: the Sardinas–Patterson closure over single
    dangling suffixes.

    It starts from u⁻¹v for u a proper prefix of v, both in X, and steps a
    suffix s to x⁻¹s and s⁻¹x for x ∈ X; X is a code iff ε is never reached.
    Raises :class:`EpsilonNotAllowed` when ε ∈ X: the empty word makes every
    factorization ambiguous, so it is rejected as an invalid code candidate
    rather than reported as merely "not a code".  Prefix and suffix codes
    are codes, so the prefix test, on the words and then on their mirror
    images, answers first, without the closure.
    """
    if language.contains_epsilon:
        raise EpsilonNotAllowed("ε ∈ X is not a valid code candidate")
    code = language._memo.get("code")
    if code is None:
        words = [x.indices for x in language.words]
        code = language._memo["code"] = (
            _prefix_free(words)
            or _prefix_free(x[::-1] for x in words)
            or _sardinas_patterson(words)
        )
    return code


def _sardinas_patterson(words: list[tuple[int, ...]]) -> bool:
    """The closure of :func:`is_code` on ε-free index tuples."""
    todo = [v[len(u):] for u in words for v in words if len(u) < len(v) and v[: len(u)] == u]
    seen = set(todo)
    while todo:
        s = todo.pop()
        for x in words:
            short, long = (x, s) if len(x) <= len(s) else (s, x)
            if long[: len(short)] != short:
                continue
            t = long[len(short):]  # x⁻¹s or s⁻¹x
            if not t:
                return False
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return True

"""Workload definitions of the codesync benchmark.

A workload builds, from its seed, a list of operations.  Each operation is one
call into the library (or, for ``cli``, one command-line invocation) plus an
independent check of its answer.  ``build`` runs in the worker's set-up, so
everything it does counts toward ``setup_s``; the operations' own work counts
toward ``wall_s`` and the latency metrics.

``PREDICTIONS`` records, before any optimisation, which end-to-end metric each
per-layer metric should move on which workload, so a performance change can
cite its row.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``check`` returns the list of problems found in
    the answer (empty when it is correct); ``instances`` says how many
    languages the answer covers, for the per-instance layer ratios."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    instances: Callable[[object], int] = lambda result: 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_use: str
    build: Callable[[int, bool, Path], list]


# --------------------------------------------------------------------------
# independent answer checks


def _context_test_incompletable(language, w) -> bool:
    """The brute-force oracle's context test on a single word: w is
    incompletable iff no r, s with |r|, |s| ≤ ℓ(X) − 1 has r·w·s ∈ X*.
    Uses only the dynamic-programming membership oracle, never an automaton."""
    from codesync import Word, kleene_membership

    d = len(language.alphabet)
    contexts = [()]
    frontier = [()]
    for _ in range(max(language.size - 1, 0)):
        frontier = [c + (a,) for c in frontier for a in range(d)]
        contexts.extend(frontier)
    return not any(
        kleene_membership(language, Word(language.alphabet, r + w.indices + s))
        for r in contexts
        for s in contexts
    )


def _check_sync_pair(language, length: int, pair) -> list:
    from codesync import NotInStar, is_sync_pair

    if pair is None:
        return ["no pair found"]
    problems = []
    if pair.total_length != length:
        problems.append(f"|uv| = {pair.total_length}, expected {length}")
    for method in ("code", "general"):
        try:
            ok = is_sync_pair(language, pair.u, pair.v, method=method)
        except NotInStar as e:
            return problems + [str(e)]
        if not ok:
            problems.append(f"{method} checker rejects ({pair.u.text}, {pair.v.text})")
    return problems


def _is_reset_word(dfa, word) -> bool:
    """Walk the DFA table letter by letter, without the library's subset step."""
    states = set(range(dfa.n_states))
    for a in word.indices:
        states = {dfa.table[q][a].bit_length() - 1 for q in states}
    return len(states) == 1


# --------------------------------------------------------------------------
# cerny


def _cerny_reduction_check(language, length: int, result) -> list:
    pair, trace = result
    problems = _check_sync_pair(language, length, pair)
    if not trace.bound_ok:
        problems.append("reduction ledger bound fails")
    return problems


def _cerny_reset(language):
    from codesync import determinize_minimize, flower_automaton, sync_word_shortest

    dfa = determinize_minimize(flower_automaton(language))
    return dfa, sync_word_shortest(dfa)


def _cerny_reset_check(n: int, result) -> list:
    dfa, word = result
    if word is None:
        return ["no reset word"]
    problems = []
    if len(word) != n * n - 3 * n + 3:
        problems.append(f"reset length {len(word)}, expected {n * n - 3 * n + 3}")
    if not _is_reset_word(dfa, word):
        problems.append(f"{word.text} does not reset the minimal DFA")
    return problems


def build_cerny(seed: int, small: bool, workdir: Path) -> list:
    from codesync import (
        cerny_canonical_pair,
        cerny_family,
        shortest_sync_pair,
        synchronizing_pair_via_reduction,
    )

    top = 5 if small else 8
    family = {n: cerny_family(n) for n in range(3, top + 1)}
    ops = []
    for n in range(3, min(top, 7) + 1):
        length = (n - 1) ** 2
        ops.append(Op(
            f"shortest_sync_pair X_{n}",
            partial(shortest_sync_pair, family[n], length),
            partial(_check_sync_pair, family[n], length),
        ))
    for n in range(3, top + 1):
        ops.append(Op(
            f"reduction X_{n}",
            partial(synchronizing_pair_via_reduction, family[n], cerny_canonical_pair(n)),
            partial(_cerny_reduction_check, family[n], (n - 1) ** 2),
        ))
    for n in range(3, top + 1):
        ops.append(Op(
            f"reset X_{n}",
            partial(_cerny_reset, family[n]),
            partial(_cerny_reset_check, n),
        ))
    return ops


# --------------------------------------------------------------------------
# sweep

# (kind, class, value, witness language, witness).  The n = 3 values are the
# seed's answers; R(prefix, 3, 2) = 11 and R(prefix, 2, 2) = 5 are the golden
# values of the acceptance suite.
SWEEPS = {
    False: [
        ("R", "all", 13, ("ba", "aaa", "aab", "aba", "abb", "bab", "bbb"), ("baaaabaaaabba",)),
        ("R", "prefix", 11, ("aaa", "aab", "aba", "abb", "baa", "bab", "bbb"), ("bbaabbaabba",)),
        ("C", "codes", 9, ("aaa", "aba", "abb", "baa", "bab", "bbb"), ("ε", "aaaabbaaa")),
        ("C", "complete-prefix", 7, ("aa", "aba", "abb", "baa", "bab", "bba", "bbb"), ("aababaa", "ε")),
    ],
    True: [
        ("R", "all", 5, ("aa", "ab", "bb"), ("baaba",)),
        ("R", "prefix", 5, ("aa", "ab", "bb"), ("baaba",)),
        ("C", "codes", 4, ("ab", "ba"), ("ε", "abba")),
        ("C", "complete-prefix", 1, ("a", "ba", "bb"), ("a", "ε")),
    ],
}


def _sweep_check(value, language_words, witness, report) -> list:
    from codesync import Alphabet, FiniteLanguage, Word, is_sync_pair

    problems = []
    got = (report.value, report.witness_language, report.witness)
    if got != (value, language_words, witness):
        problems.append(f"answer {got} differs from {(value, language_words, witness)}")
    if report.inconclusive_count:
        problems.append(f"{report.inconclusive_count} inconclusive instances")
    if report.witness_language is None:
        return problems + ["no witness"]
    language = FiniteLanguage.from_strings(
        list(report.witness_language), Alphabet.lowercase(report.d)
    )
    words = [Word.parse(t, language.alphabet) for t in report.witness]
    if report.kind == "R":
        if len(words[0]) != report.value or not _context_test_incompletable(language, words[0]):
            problems.append(f"witness {report.witness[0]} is not incompletable")
    elif (
        len(words[0]) + len(words[1]) != report.value
        or not is_sync_pair(language, words[0], words[1], method="general")
    ):
        problems.append(f"witness {report.witness} fails the general pair checker")
    return problems


def _report_instances(report) -> int:
    return report.instance_count + report.inconclusive_count


def build_sweep(seed: int, small: bool, workdir: Path) -> list:
    from codesync import estimate_C, estimate_R

    n = 2 if small else 3
    ops = []
    for kind, klass, value, words, witness in SWEEPS[small]:
        estimate = estimate_R if kind == "R" else estimate_C
        ops.append(Op(
            f"estimate_{kind}({klass}, {n}, 2)",
            partial(estimate, klass, n, 2),
            partial(_sweep_check, value, words, witness),
            _report_instances,
        ))
    return ops


# --------------------------------------------------------------------------
# ledger

LEDGER_CODES = 150
LEDGER_BASE_SEED = 0
LEDGER_BUDGET = 18
TERNARY_PROFILES = [
    (1, 1, 2, 2, 2),
    (1, 1, 2, 2, 3, 3, 3),
    (1, 2, 2, 2, 2, 2, 3, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3),
    (2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3),
]
TERNARY_INCOMPLETE = 8


def _permute_letters(language, perm):
    from codesync import FiniteLanguage, Word

    return FiniteLanguage(
        language.alphabet,
        tuple(Word(language.alphabet, tuple(perm[i] for i in w.indices)) for w in language.words),
    )


def _language_text(language) -> str:
    return "alphabet: " + " ".join(language.alphabet.symbols) + "\n" + "\n".join(
        language.word_strings()
    ) + "\n"


def _ledger_instance(text: str, budget: int):
    from codesync import parse_language, verify_main_bound

    language = parse_language(text)
    return language, verify_main_bound([language], budget)[0]


def _ledger_check(original, result) -> list:
    language, check = result
    problems = []
    if language != original:
        problems.append("parse round-trip changed the language")
    if not check.ok:
        problems.append(f"BoundCheck fails: {check.detail}")
    return problems


def _road_color_check(profile, code) -> list:
    from codesync import is_prefix, is_synchronizing_code

    problems = []
    if sorted(len(w) for w in code.words) != sorted(profile.lengths):
        problems.append("codeword lengths differ from the profile")
    if sum(Fraction(1, profile.d ** len(w)) for w in code.words) != 1:
        problems.append("Kraft sum is not 1")
    if not is_prefix(code) or not is_synchronizing_code(code):
        problems.append("code is not a synchronizing prefix code")
    return problems


def _to_binary_sync(profile):
    from codesync import reduce_sync_to_binary, road_colored_sync_code

    code = road_colored_sync_code(profile)
    return code, reduce_sync_to_binary(code)


def _to_binary_sync_check(result) -> list:
    from codesync import is_sync_pair

    code, (pair, trace) = result
    problems = [] if trace.ledger["ok"] else [f"binary ledger fails: {trace.ledger}"]
    if not is_sync_pair(code, pair.u, pair.v, method="general"):
        problems.append(f"decoded pair ({pair.u.text}, {pair.v.text}) is not synchronizing")
    return problems


def _to_binary_incompletable_check(language, result) -> list:
    word, trace = result
    problems = [] if trace.ledger["ok"] else [f"binary ledger fails: {trace.ledger}"]
    if not _context_test_incompletable(language, word):
        problems.append(f"decoded word {word.text} is completable")
    return problems


def _incomplete_ternary(rng: random.Random, count: int) -> list:
    """Seeded ternary languages with Kraft sum < 1, which are never complete."""
    from codesync.experiments import random_language

    out = []
    while len(out) < count:
        x = random_language(rng, 3, 3)
        if sum(Fraction(1, 3 ** len(w)) for w in x.words) < 1:
            out.append(x)
    return out


def build_ledger(seed: int, small: bool, workdir: Path) -> list:
    from codesync import (
        LengthProfile,
        random_complete_sync_codes,
        reduce_incompletable_to_binary,
        road_colored_sync_code,
    )

    rng = random.Random(seed)
    base = random_complete_sync_codes(
        10 if small else LEDGER_CODES, seed=LEDGER_BASE_SEED, max_size=6
    )
    ops = []
    for i, code in enumerate(base):
        if rng.random() < 0.5:
            code = _permute_letters(code, (1, 0))
        ops.append(Op(
            f"ledger #{i}",
            partial(_ledger_instance, _language_text(code), LEDGER_BUDGET),
            partial(_ledger_check, code),
        ))
    for lengths in TERNARY_PROFILES[: 2 if small else None]:
        profile = LengthProfile(3, lengths)
        ops.append(Op(
            f"road_colored_sync_code {lengths}",
            partial(road_colored_sync_code, profile),
            partial(_road_color_check, profile),
        ))
        ops.append(Op(
            f"reduce_sync_to_binary {lengths}",
            partial(_to_binary_sync, profile),
            _to_binary_sync_check,
        ))
    for i, x in enumerate(_incomplete_ternary(rng, 2 if small else TERNARY_INCOMPLETE)):
        ops.append(Op(
            f"reduce_incompletable_to_binary #{i}",
            partial(reduce_incompletable_to_binary, x),
            partial(_to_binary_incompletable_check, x),
        ))
    return ops


# --------------------------------------------------------------------------
# cli

CLI_FILES = {
    "example.lang": "aa\nab\nba\nbaa\nbbb\n",
    "prefix.lang": "alphabet: a b\na\nbaaa\nbaab\nbab\nbb\n",
    "tern.lang": "alphabet: a b c\na\nb\nca\ncb\ncc\n",
    "tern_incomplete.lang": "alphabet: a b c\naa\n",
    "quad.lang": "alphabet: a b c d\na\nb\nc\nda\ndb\ndc\ndd\n",
}

# (argv, exit code, expected JSON fields) for the README verbs
CLI_VERBS = [
    (["analyze", "example.lang", "--json"], 0,
     {"is_code": False, "is_complete": False, "shortest_incompletable": "abbabba",
      "sync_pair_within_budget": ["ε", "abba"]}),
    (["incompletable", "example.lang", "--max-len", "7", "--json"], 0,
     {"witness": "abbabba", "length": 7}),
    (["syncpair", "example.lang", "--check", "ab", "ba", "--json"], 0,
     {"pair": ["ab", "ba"], "synchronizing": True}),
    (["reduce", "prefix.lang", "--pair", "aaa", "ε", "--json"], 0,
     {"input_pair": ["aaa", "ε"], "final_pair": ["aaa", "ε"]}),
    (["construct", "--lengths", "1,3,3,2", "--sync", "--json"], 0,
     {"words": ["a", "ba", "bba", "bbb"], "kraft_sum": "1"}),
    (["encode", "tern.lang", "--json"], 0,
     {"kind": "synchronizing", "decoded": ["a", "ε"]}),
    (["encode", "tern_incomplete.lang", "--json"], 0,
     {"kind": "incompletable", "decoded": "b"}),
    (["encode", "quad.lang", "--mode", "power2", "--json"], 0,
     {"kind": "synchronizing", "decoded": ["a", "ε"]}),
    (["encode", "example.lang", "--mode", "uniform", "--json"], 0,
     {"kind": "uniform", "decoded": ["ε", "abba"]}),
    (["cerny", "6", "--verify", "--json"], 0,
     {"pair_verified": True, "min_dfa_reset_length": 21, "pair_total_length": 25}),
    (["experiment", "R", "--class", "prefix", "--n", "2", "--d", "2"], 0,
     {"value": 5, "witness": ["baaba"], "instances": 11}),
]
CLI_REPEATS = 4


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: str
    stderr: str


def cli_check(code: int, fields: dict, result: CliResult) -> list:
    problems = []
    if result.returncode != code:
        problems.append(f"exit code {result.returncode}, expected {code}: {result.stderr.strip()[-200:]}")
    try:
        data = json.loads(result.stdout)
    except ValueError:
        return problems + ["output is not JSON"]
    for key, want in fields.items():
        if data.get(key) != want:
            problems.append(f"{key} = {data.get(key)!r}, expected {want!r}")
    return problems


def cli_argv(verb: list, workdir: Path) -> list:
    return [str(workdir / a) if a in CLI_FILES else a for a in verb]


def build_cli(seed: int, small: bool, workdir: Path) -> list:
    import subprocess
    import sys

    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in CLI_FILES.items():
        (workdir / name).write_text(text)

    def run(argv):
        p = subprocess.run(
            [sys.executable, "-m", "codesync.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return CliResult(p.returncode, p.stdout, p.stderr)

    ops = []
    for _ in range(1 if small else CLI_REPEATS):
        for verb, code, fields in CLI_VERBS:
            ops.append(Op(
                "codesync " + " ".join(verb),
                partial(run, cli_argv(verb, workdir)),
                partial(cli_check, code, fields),
            ))
    return ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "cerny",
            "few large automata and deep subset searches on the Cerny family X_n; "
            "synchrony, reduction and step_letter do nearly all the work",
            "not used: X_n is fixed",
            build_cerny,
        ),
        Workload(
            "sweep",
            "thousands of tiny languages each used once in exhaustive R/C sweeps; "
            "per-instance overhead in experiments, is_code and flower builds dominates",
            "not used: exhaustive sweeps are fixed",
            build_sweep,
        ),
        Workload(
            "ledger",
            "150 mid-size complete sync codes each queried through many entry points, "
            "using the context caches the opposite way to sweep; plus ternary encodings",
            "letter swaps of a fixed set of 150 generated codes and the incomplete "
            "ternary languages; generator-seeded sets spread 0.22 in pass time across "
            "10 seeds, too wide for the bounds",
            build_ledger,
        ),
        Workload(
            "cli",
            "README verbs as fresh python -m codesync.cli processes: the interactive "
            "user's latency, dominated by start-up and import",
            "not used: the language files are fixed",
            build_cli,
        ),
    ]
}


# (layer metric, end-to-end metric it should move, workload, expectation)
PREDICTIONS = [
    ("automata.step_calls", "wall_s", "cerny", "moves"),
    ("automata.step_calls", "wall_s", "sweep", "barely moves"),
    ("automata.step_distinct", "wall_s", "cerny", "bounds the useful work"),
    ("automata.step_useful_ratio", "wall_s", "cerny", "higher ratio, less wasted stepping"),
    ("automata.flower_calls", "wall_s", "sweep", "moves"),
    ("automata.flower_per_instance", "op_p50_ms", "ledger", "moves"),
    ("automata.flower_s", "wall_s", "sweep", "moves"),
    ("automata.automaton_new", "wall_s", "sweep", "moves"),
    ("automata.determinize_s", "wall_s", "cerny", "small share"),
    ("languages.parse_s", "op_p50_ms", "ledger", "small share"),
    ("languages.parse_s", "op_p50_ms", "cli", "small share"),
    ("languages.word_new", "wall_s", "sweep", "moves"),
    ("languages.is_code_s", "wall_s", "sweep", "moves"),
    ("languages.kleene_s", "op_p50_ms", "ledger", "moves"),
    ("completeness.incompletable_s", "wall_s", "sweep", "moves"),
    ("completeness.find_completion_s", "op_p50_ms", "ledger", "small share"),
    ("synchrony.pair_search_s", "wall_s", "cerny", "moves"),
    ("synchrony.pair_search_s", "op_p50_ms", "ledger", "about half of the time"),
    ("synchrony.pair_check_s", "op_p50_ms", "ledger", "moves"),
    ("synchrony.sync_code_s", "wall_s", "sweep", "moves"),
    ("synchrony.reset_s", "wall_s", "cerny", "small share"),
    ("reduction.pipeline_s", "wall_s", "cerny", "moves"),
    ("reduction.half_s", "wall_s", "cerny", "moves"),
    ("reduction.min_marked_s", "wall_s", "cerny", "moves (X_8)"),
    ("reduction.min_marked_steps", "wall_s", "cerny", "moves (X_8)"),
    ("reduction.min_marked_steps", "op_p50_ms", "ledger", "barely moves"),
    ("encoding.road_color_s", "op_tail_ms", "ledger", "moves"),
    ("encoding.to_binary_s", "op_tail_ms", "ledger", "moves"),
    ("experiments.candidates", "wall_s", "sweep", "moves"),
    ("experiments.candidates", "wall_s", "cerny", "no change"),
    ("experiments.enumerate_s", "wall_s", "sweep", "moves"),
    ("experiments.yield_ratio", "wall_s", "sweep", "higher ratio, less wasted enumeration"),
    ("cli.import_s", "op_p50_ms", "cli", "moves"),
    ("cli.import_s", "setup_s", "every workload", "moves"),
    ("cli.verb_s", "op_p50_ms", "cli", "moves"),
    ("cli.startup_share", "op_p50_ms", "cli", "start-up dominates"),
]

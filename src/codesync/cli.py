"""Command-line surface.

Exit codes: 0 ok, 1 checked-property false, 2 usage error, 3 resource cap,
4 internal error (a failed theorem check, with its payload as one JSON line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .automata import determinize_minimize, flower_automaton
from .completeness import (
    brute_force_incompletable,
    is_complete_language,
    shortest_incompletable,
)
from .errors import (
    CodesyncError,
    InternalInvariantError,
    NotSynchronizing,
    ParseError,
    SearchBudgetExceeded,
    SubsetCapExceeded,
    DEFAULT_COLORING_SEED,
)
from .encoding import (
    LengthProfile,
    kraft_canonical,
    reduce_incompletable_to_binary,
    reduce_sync_to_binary,
    road_colored_sync_code,
    uniform_sync_encoding,
)
from .experiments import CSV_HEADER, estimate_C, estimate_R, CLASS_TAGS
from .languages import FiniteLanguage, Word, is_code, is_prefix, parse_language
from .reduction import synchronizing_pair_via_reduction
from .synchrony import (
    SyncPair,
    cerny_canonical_pair,
    cerny_family,
    is_sync_pair,
    shortest_sync_pair,
    sync_word_shortest,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _load_language(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading byte-order mark is not a word
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from None
    return parse_language(text)


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise CodesyncError(f"cannot write {path}: {e}") from None


def _core(x: FiniteLanguage) -> FiniteLanguage:
    """X without ε.  ε adds nothing to X*, so completeness, incompletable
    words and synchronizing pairs are those of this ε-free core."""
    return FiniteLanguage(x.alphabet, x.words[1:]) if x.contains_epsilon else x


def _emit(args, data: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(data, indent=2))
    else:
        print(text)


def _degenerate(args, x: FiniteLanguage) -> int:
    """The report of ``analyze``, ``syncpair`` and ``encode`` on a language
    holding only ε."""
    _emit(
        args,
        {"words": x.word_strings(), "degenerate": "only ε"},
        "degenerate language: only the empty word",
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    x = _load_language(args.language)
    core = _core(x)  # keep the degenerate flag visible
    if len(core) == 0:
        return _degenerate(args, x)
    code = is_code(core)
    witness = None if code and is_complete_language(core) else shortest_incompletable(core)
    complete = witness is None
    pair = shortest_sync_pair(core, args.budget)
    data = {
        "words": x.word_strings(),
        "alphabet": list(x.alphabet.symbols),
        "size": x.size,
        "count": len(x),
        "contains_epsilon": x.contains_epsilon,
        "is_code": code,
        "is_prefix": is_prefix(core),
        "is_complete": complete,
        "shortest_incompletable": None if witness is None else witness.text,
        "sync_pair_within_budget": None if pair is None else [pair.u.text, pair.v.text],
        "budget": args.budget,
    }
    lines = [
        f"language: {{{', '.join(data['words'])}}} over {{{', '.join(data['alphabet'])}}}",
        f"size ℓ(X) = {data['size']}, {data['count']} words",
        f"code: {data['is_code']}, prefix: {data['is_prefix']}, complete: {data['is_complete']}",
    ]
    if witness is not None:
        lines.append(f"shortest incompletable word: {witness.text} (length {len(witness)})")
    if pair is not None:
        lines.append(
            f"synchronizing pair: ({pair.u.text}, {pair.v.text}) with |uv| = {pair.total_length}"
        )
    else:
        lines.append(f"no synchronizing pair with |uv| ≤ {args.budget} found")
    _emit(args, data, "\n".join(lines))
    return EXIT_OK


def cmd_incompletable(args) -> int:
    x = _core(_load_language(args.language))
    # with only ε, X* = {ε} and the least incompletable word is the first letter
    w = shortest_incompletable(x) if len(x) else Word(x.alphabet, (0,))
    if args.max_len is not None:
        # brute force only sees lengths ≤ max_len, so compare the search's answer cut there
        brute = brute_force_incompletable(x, args.max_len)
        within = w is not None and len(w) <= args.max_len
        if within != (brute is not None) or (within and len(w) != len(brute)):
            raise InternalInvariantError(
                "oracle disagreement between search and brute force",
                {"words": x.word_strings(), "search": None if w is None else w.text,
                 "brute_force": None if brute is None else brute.text, "max_len": args.max_len},
            )
    if w is None:
        _emit(args, {"complete": True, "witness": None}, "language is complete")
        return EXIT_FALSE
    _emit(
        args,
        {"complete": False, "witness": w.text, "length": len(w)},
        f"shortest incompletable word: {w.text} (length {len(w)})",
    )
    return EXIT_OK


def cmd_syncpair(args) -> int:
    language = _load_language(args.language)
    x = _core(language)
    if len(x) == 0:
        return _degenerate(args, language)
    if args.check:
        u = Word.parse(args.check[0], x.alphabet)
        v = Word.parse(args.check[1], x.alphabet)
        ok = is_sync_pair(x, u, v)
        _emit(
            args,
            {"pair": [u.text, v.text], "synchronizing": ok},
            f"({u.text}, {v.text}) synchronizing: {ok}",
        )
        return EXIT_OK if ok else EXIT_FALSE
    pair = shortest_sync_pair(x, args.budget)
    if pair is None:
        _emit(
            args,
            {"pair": None, "budget": args.budget},
            f"no synchronizing pair with |uv| ≤ {args.budget}",
        )
        return EXIT_FALSE
    _emit(
        args,
        {"pair": [pair.u.text, pair.v.text], "total_length": pair.total_length,
         "checked_by": pair.checked_by},
        f"shortest synchronizing pair: ({pair.u.text}, {pair.v.text}), |uv| = {pair.total_length}",
    )
    return EXIT_OK


def cmd_reduce(args) -> int:
    x = _load_language(args.language)
    pair = None
    if args.pair:
        pair = SyncPair(
            u=Word.parse(args.pair[0], x.alphabet),
            v=Word.parse(args.pair[1], x.alphabet),
        )
    try:
        out, trace = synchronizing_pair_via_reduction(x, pair, budget=args.budget)
    except NotSynchronizing as e:
        # no pair within the budget, or a supplied pair that fails verification
        _emit(args, {"synchronizing": False, "reason": str(e)}, str(e))
        return EXIT_FALSE
    if args.trace:
        _write(args.trace, trace.to_json())
    _emit(
        args,
        json.loads(trace.to_json()),
        "\n".join(
            [
                f"input pair: ({trace.input_pair.u.text}, {trace.input_pair.v.text})",
                f"output pair: ({out.u.text}, {out.v.text}), |uv| = {out.total_length}",
                f"ledger: {trace.final_length} ≤ {trace.bound_value} "
                f"(2·max(|v|) + 2n − 2): {trace.bound_ok}",
            ]
        ),
    )
    return EXIT_OK if trace.bound_ok else EXIT_FALSE


def cmd_construct(args) -> int:
    try:
        lengths = tuple(int(k) for k in args.lengths.split(","))
    except ValueError:
        raise ParseError(
            f"--lengths takes comma-separated integers, not {args.lengths!r}"
        ) from None
    profile = LengthProfile(args.d, lengths)
    if args.sync:
        y = road_colored_sync_code(profile, seed=args.seed)
    else:
        y = kraft_canonical(profile)
    data = {
        "lengths": list(lengths),
        "d": args.d,
        "kraft_sum": str(profile.kraft_sum),
        "synchronizing_requested": args.sync,
        "words": y.word_strings(),
    }
    _emit(args, data, "\n".join(y.word_strings()))
    return EXIT_OK


def cmd_encode(args) -> int:
    language = _load_language(args.language)
    x = _core(language)
    if len(x) == 0:
        return _degenerate(args, language)
    try:
        if args.mode == "uniform":
            pair, trace = uniform_sync_encoding(x)
        elif args.mode == "power2":
            if len(x.alphabet) & (len(x.alphabet) - 1):
                raise ParseError("power2 mode needs a power-of-two source alphabet")
            pair, trace = reduce_sync_to_binary(x)
        elif is_complete_language(x):
            pair, trace = reduce_sync_to_binary(x)
        else:
            word, trace = reduce_incompletable_to_binary(x)
            pair = None
    except NotSynchronizing as e:
        _emit(args, {"synchronizing": False, "reason": str(e)}, str(e))
        return EXIT_FALSE
    data = json.loads(trace.to_json())
    if trace.kind == "incompletable":
        text = f"incompletable word of X: {trace.decoded.text}; ledger: {trace.ledger}"
    elif pair is None:
        text = f"unary fallback; ledger: {trace.ledger}"
    else:
        text = f"pair: ({pair.u.text}, {pair.v.text}); ledger: {trace.ledger}"
    _emit(args, data, text)
    return EXIT_OK


def cmd_cerny(args) -> int:
    x = cerny_family(args.n)
    pair = cerny_canonical_pair(args.n)
    data = {
        "n": args.n,
        "words": x.word_strings(),
        "canonical_pair": [pair.u.text, pair.v.text],
        "pair_total_length": pair.total_length,
    }
    if args.verify:
        ok = is_sync_pair(x, pair.u, pair.v)
        reset = sync_word_shortest(determinize_minimize(flower_automaton(x)))
        data["pair_verified"] = ok
        data["min_dfa_reset_length"] = None if reset is None else len(reset)
        data["expected_reset_length"] = args.n * args.n - 3 * args.n + 3
    text = "\n".join(x.word_strings())
    if args.verify:
        text += (
            f"\npair ({pair.u.text}, {pair.v.text}) verified: {data['pair_verified']}; "
            f"reset length {data['min_dfa_reset_length']} "
            f"(expected {data['expected_reset_length']})"
        )
    _emit(args, data, text)
    if args.verify and not (
        data["pair_verified"]
        and data["min_dfa_reset_length"] == data["expected_reset_length"]
    ):
        return EXIT_FALSE
    return EXIT_OK


def cmd_experiment(args) -> int:
    estimate = estimate_R if args.kind == "R" else estimate_C
    report = estimate(args.klass, args.n, args.d, args.mode, samples=args.samples, seed=args.seed)
    if args.out:
        _write(args.out, report.to_json())
    if args.csv:
        print(CSV_HEADER)
        print(report.to_csv_row())
    else:
        print(report.to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codesync",
        description="completeness and synchronization of finite variable-length codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="all predicates for one language")
    p.add_argument("language")
    p.add_argument("--budget", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("incompletable", help="shortest incompletable word")
    p.add_argument("language")
    p.add_argument("--max-len", type=int, default=None,
                   help="cross-check against the brute-force oracle up to this length")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_incompletable)

    p = sub.add_parser("syncpair", help="find or check synchronizing pairs")
    p.add_argument("language")
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--check", nargs=2, metavar=("U", "V"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_syncpair)

    p = sub.add_parser("reduce", help="run the bounded-pair reduction pipeline")
    p.add_argument("language")
    p.add_argument("--pair", nargs=2, metavar=("U", "V"))
    p.add_argument("--budget", type=int, default=12)
    p.add_argument("--trace", help="write the full trace JSON here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("construct", help="prefix codes from length profiles")
    p.add_argument("--lengths", required=True, help="comma-separated codeword lengths")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--sync", action="store_true",
                   help="road-color until the code synchronizes")
    p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_COLORING_SEED)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="binary-encoding reductions")
    p.add_argument("language")
    p.add_argument("--mode", choices=("general", "power2", "uniform"), default="general")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cerny", help="the slowly synchronizing prefix code family")
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_cerny)

    p = sub.add_parser("experiment", help="estimate the R or C parameter")
    p.add_argument("kind", choices=("R", "C"))
    p.add_argument("--class", dest="klass", choices=CLASS_TAGS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SubsetCapExceeded, SearchBudgetExceeded) as e:
        print(f"resource cap: {e}", file=sys.stderr)
        return EXIT_CAP
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        print(json.dumps(e.details, default=str), file=sys.stderr)
        return EXIT_INTERNAL
    except CodesyncError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""Golden witnesses: the exact outputs of the shortest-pair search and the
reduction pipeline on the Černý family and on seeded complete codes.

Every witness has a fixed tie-break, so any change of search strategy must
reproduce these values exactly.  Regenerate the data file (only when an
output change is intended and documented) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from codesync import (
    cerny_canonical_pair,
    cerny_family,
    shortest_sync_pair,
    synchronizing_pair_via_reduction,
)
from codesync.experiments import random_complete_sync_codes

from helpers import swap_letters

DATA = Path(__file__).parent / "data" / "golden_witnesses.json"
CERNY = range(3, 8)
LEDGER_CODES, LEDGER_SEED, LEDGER_BUDGET = 20, 0, 18


def _pair(pair) -> list:
    return None if pair is None else [pair.u.text, pair.v.text]


def collect() -> dict:
    out = {"sync_pairs": {}, "reductions": {}, "ledger": []}
    for n in CERNY:
        x = cerny_family(n)
        out["sync_pairs"][str(n)] = _pair(shortest_sync_pair(x, (n - 1) ** 2))
        _, trace = synchronizing_pair_via_reduction(x, cerny_canonical_pair(n))
        out["reductions"][str(n)] = json.loads(trace.to_json())
    for code in random_complete_sync_codes(LEDGER_CODES, seed=LEDGER_SEED, max_size=6):
        for x in (code, swap_letters(code)):
            pair, trace = synchronizing_pair_via_reduction(x, None, LEDGER_BUDGET)
            out["ledger"].append({
                "words": x.word_strings(),
                "pair": _pair(trace.input_pair),
                "left_v": None if trace.left.incompletable is None else trace.left.incompletable.text,
                "right_v": None if trace.right.incompletable is None else trace.right.incompletable.text,
                "final": _pair(trace.final_pair),
                "returned": _pair(pair),
            })
    return out


def test_witnesses_match_the_golden_file():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    actual = collect()
    for key in ("sync_pairs", "reductions"):
        for n, value in expected[key].items():
            assert actual[key][n] == value, (key, n)
    assert len(actual["ledger"]) == len(expected["ledger"])
    for got, want in zip(actual["ledger"], expected["ledger"]):
        assert got == want, want["words"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    data = collect()
    lines = [
        f" {json.dumps(key)}: {{\n" + ",\n".join(
            f"  {json.dumps(n)}: {json.dumps(v, ensure_ascii=False)}" for n, v in data[key].items()
        ) + "\n }"
        for key in ("sync_pairs", "reductions")
    ]
    lines.append(' "ledger": [\n' + ",\n".join(
        f"  {json.dumps(v, ensure_ascii=False)}" for v in data["ledger"]
    ) + "\n ]")
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")

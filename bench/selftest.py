"""Self-test of the benchmark itself, at the smallest size of each workload.

    python3 bench/selftest.py

Checks that every workload runs with no failed operation and prints the
output schema ``BENCHMARK.json`` asks for, that the traced counts repeat
exactly between two traced runs, that the answer checks flag deliberately
wrong witnesses, and that the benchmark refuses to run without the sources.
Prints one line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402  (bench/ is the script directory)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok, detail) -> None:
    """A check that ``python -O`` cannot strip."""
    if not ok:
        raise SystemExit(f"selftest FAILED: {detail}")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    p = run(workload, trace)
    expect(p.returncode == 0, p.stderr)
    out = json.loads(p.stdout.strip().splitlines()[-1])
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys())
    expect(out["correct"] is True and out["failed"] == 0, p.stdout)
    expect(isinstance(out["attempted"], int) and out["attempted"] >= 1, out["attempted"])
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    expect(got == wanted, set(got) ^ set(wanted))
    for name, v in out["metrics"].items():
        expect(set(v) == {"value", "unit"} and isinstance(v["value"], (int, float)), name)
    return out


def check_schema_and_determinism() -> None:
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio", "count/instance")}
    for name in wl.WORKLOADS:
        e2e = result(name, 0)
        for m in SPEC["end_to_end"]:
            expect(e2e["metrics"][m["name"]]["value"] > 0, (name, m["name"]))
        first, second = result(name, 1), result(name, 1)
        differ = {
            k: (first["metrics"][k]["value"], second["metrics"][k]["value"])
            for k in counts - {"cli.startup_share"}
            if first["metrics"][k]["value"] != second["metrics"][k]["value"]
        }
        expect(not differ, differ)
        print(f"ok  {name}: schema, zero failures, traced counts repeat "
              f"(step_calls {first['metrics']['automata.step_calls']['value']})")


def first_op(ops: list, prefix: str):
    op = next(o for o in ops if o.label.startswith(prefix))
    answer = op.call()
    expect(op.check(answer) == [], op.check(answer))
    return op, answer


def check_gate() -> None:
    from codesync import SyncPair, Word, cerny_family

    workdir = BENCH / "results" / "tmp-selftest-gate"
    try:
        ops = wl.build_cerny(0, True, workdir)
        op, pair = first_op(ops, "shortest_sync_pair X_4")
        codeword = cerny_family(4).words[0]
        expect(op.check(SyncPair(u=pair.u, v=pair.v + codeword)), "cerny: a too-long pair passed")
        expect(op.check(SyncPair(u=pair.u, v=Word(pair.v.alphabet, (0,)))),
               "cerny: a pair outside X* passed")
        op, (dfa, word) = first_op(ops, "reset X_4")
        expect(op.check((dfa, word[:-1])), "cerny: a non-reset word passed")

        op, report = first_op(wl.build_sweep(0, True, workdir), "estimate_R(prefix")
        expect(op.check(dataclasses.replace(report, witness=("aaaaa",))), "sweep: a completable witness passed")
        expect(op.check(dataclasses.replace(report, value=4)), "sweep: a wrong R passed")

        ops = wl.build_ledger(0, True, workdir)
        op, (language, bound) = first_op(ops, "ledger #0")
        expect(op.check((language, dataclasses.replace(bound, ok=False))), "ledger: a failed BoundCheck passed")
        op, (word, trace) = first_op(ops, "reduce_incompletable_to_binary")
        expect(op.check((Word.epsilon(word.alphabet), trace)), "ledger: a completable decoded word passed")

        verb, code, fields = wl.CLI_VERBS[0]
        good = json.dumps({**fields, "other": 1})
        expect(wl.cli_check(code, fields, wl.CliResult(code, good, "")) == [], "cli: a right answer failed")
        expect(wl.cli_check(code, fields, wl.CliResult(1, good, "")), "cli: exit code 1 passed")
        bad = json.dumps({**fields, "shortest_incompletable": "abba"})
        expect(wl.cli_check(code, fields, wl.CliResult(code, bad, "")), "cli: wrong field passed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ok  the answer checks flag wrong witnesses on every workload")


def check_whys() -> None:
    spec = {w["name"]: w["why"] for w in SPEC["workloads"]}
    expect(spec == {w.name: w.why for w in wl.WORKLOADS.values()}, "BENCHMARK.json whys differ")
    print("ok  BENCHMARK.json workloads match bench/workloads.py")


def check_refuses_without_sources() -> None:
    bare = BENCH / "results" / "tmp-selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        p = run("cerny", 0, cwd=bare)
        expect(p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/codesync")


def main() -> int:
    check_whys()
    check_gate()
    check_refuses_without_sources()
    check_schema_and_determinism()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

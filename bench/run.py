"""Run one codesync benchmark workload and print its metrics.

    python3 bench/run.py --workload cerny --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is loaded from ``src/`` next to this
directory, never from an installed copy.  Every pass runs in a fresh
interpreter (``bench/worker.py``), one at a time, so the module-level caches
of ``codesync`` start cold in each pass as they do for a user.  Passes repeat
while another pass still fits in ``--seconds``; timings are medians over passes.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced passes and reports the per-layer
metrics, the tracing overhead among them.  Every answer is checked; the last
line of output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record, with machine information, the Python
version and the ``src/`` line count, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 3
IMPORT_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # imports read cached bytecode, as an installed package does, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    def __init__(self, args, deadline: float):
        self.args = args
        self.deadline = deadline
        self.env = worker_env()

    def _run(self, argv: list) -> tuple:
        """Run a child to completion; returns (launch time, completed process).
        On timeout the child's whole process group (the ``cli`` workload's
        command-line processes too) is killed before the error is raised."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        t0 = time.monotonic()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=self.env, start_new_session=True) as p:
            try:
                out, err = p.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(p.pid, signal.SIGKILL)
                p.communicate()
                raise
        return t0, subprocess.CompletedProcess(argv, p.returncode, out, err)

    def worker(self, *extra: str) -> dict:
        """One fresh-interpreter pass; a crash is reported as a failed pass."""
        a = self.args
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), *(["--small"] if a.small else []), *extra]
        try:
            t0, p = self._run(argv)
        except subprocess.TimeoutExpired:
            return {"crashed": "worker timed out"}
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            return {"crashed": f"worker exit {p.returncode}: {p.stderr.strip()[-500:]}"}
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - t0
        return out

    def interpreter_s(self, code: str) -> float:
        """Median wall time of a fresh ``python -c code``."""
        samples = []
        for _ in range(IMPORT_PROBES):
            t0, p = self._run([sys.executable, "-c", code])
            if p.returncode != 0:
                raise RuntimeError(p.stderr.strip()[-500:])
            samples.append(time.monotonic() - t0)
        return statistics.median(samples)


def tail(latencies: list) -> tuple:
    """(value, percentile, samples beyond) for the highest percentile with at
    least ten samples beyond it; the maximum when there are too few samples."""
    n = len(latencies)
    ordered = sorted(latencies)
    pct = math.floor(100 * (n - 10) / n) if n >= 20 else 100
    rank = max(math.ceil(pct * n / 100), 1)
    return ordered[rank - 1], pct, n - rank


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu": model, "cpus": os.cpu_count()}


def end_to_end(passes: list, setups: list) -> tuple:
    latency_ms = [[s * 1000 for s in p["latencies"]] for p in passes]
    tails = [tail(ms) for ms in latency_ms]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_p50_ms": statistics.median(statistics.median(ms) for ms in latency_ms),
        "op_tail_ms": statistics.median(t[0] for t in tails),
    }
    _, pct, beyond = tails[0]
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "op_p50_ms": f"median over passes of the per-pass median of {len(latency_ms[0])} ops",
        "op_tail_ms": f"p{pct} of {len(latency_ms[0])} ops per pass, {beyond} beyond; "
        f"median over passes",
    }
    return metrics, notes


def per_layer(traced: list, untraced: list, import_s: float) -> tuple:
    first = traced[0]["layers"]
    problems = []
    for other in traced[1:]:
        for name, value in first.items():
            if isinstance(value, int) and other["layers"][name] != value:
                problems.append(f"count {name} differs between traced passes: "
                                f"{value} vs {other['layers'][name]}")
    metrics = {}
    for name, value in first.items():
        if isinstance(value, float):
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = value
    metrics["cli.import_s"] = import_s
    metrics["cli.startup_share"] = statistics.median(p.get("startup_share", 0.0) for p in traced)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true",
                        help="smallest size of each workload, for the self-test")
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "codesync" / "__init__.py").is_file():
        return fail(f"no codesync sources under {ROOT / 'src'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    RESULTS.mkdir(exist_ok=True)
    runner = Runner(args, started + RUN_LIMIT_S)
    try:
        runner.interpreter_s("import codesync.cli")  # writes the bytecode cache before any timing
        setups = [runner.worker("--setup-only") for _ in range(SETUP_PROBES)]
        import_s = None
        if args.trace:
            import_s = runner.interpreter_s("import codesync.cli") - runner.interpreter_s("pass")
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return fail(f"set-up failed: {e}")
    if any("crashed" in s for s in setups):
        return fail(next(s["crashed"] for s in setups if "crashed" in s))
    setups = [s["setup_s"] for s in setups]

    # a traced run alternates traced and untraced passes; the first traced
    # pass also writes its spans
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-small' if args.small else ''}"
    spans = RESULTS / f"{stem}.spans.jsonl"
    kinds = [1, 0] if args.trace else [0]
    passes = {0: [], 1: []}
    crashed = []
    measure_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for kind in kinds:
            extra = ["--trace", str(kind)]
            if kind and not passes[1]:
                extra += ["--spans", str(spans)]
            out = runner.worker(*extra)
            if "crashed" in out:
                crashed.append(out["crashed"])
            else:
                passes[kind].append(out)
        # start another round only if one like the last ends inside the window
        now = time.monotonic()
        last = now - round_start
        if crashed or now + last > min(measure_start + args.seconds, runner.deadline):
            break
    if not all(passes[k] for k in kinds):
        print(f"bench: no pass completed: {crashed[:1]}", file=sys.stderr)
        return 1

    all_passes = passes[0] + passes[1]
    setups += [p["setup_s"] for p in all_passes]
    attempted = sum(p["attempted"] for p in all_passes) + len(crashed)
    failed = sum(p["failed"] for p in all_passes) + len(crashed)
    failures = [f for p in all_passes for f in p["failures"]] + crashed
    if args.trace:
        values, problems = per_layer(passes[1], passes[0], import_s)
        failures += problems
        notes = {}
    else:
        values, notes = end_to_end(passes[0], setups)
        problems = []
    correct = failed == 0 and not problems

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{note}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for f in failures[:10]:
        print(f"FAILED {f}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "machine": machine(),
        "python": platform.python_version(), "src_lines": src_lines(),
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "failures": failures[:50],
        "metrics": metrics, "notes": notes,
        "passes": [{k: v for k, v in p.items() if k != "latencies"} for p in all_passes],
        "setup_samples_s": setups,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

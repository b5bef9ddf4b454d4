"""One pass of one workload in a fresh interpreter.

Run by ``bench/run.py``; prints one JSON object on its last line of output.
Set-up (interpreter start, ``import codesync``, input generation) ends when
the first operation starts; the worker reports that moment on the system-wide
monotonic clock so the parent can subtract its own launch time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _import_codesync():
    import codesync

    expected = ROOT / "src" / "codesync"
    if Path(codesync.__file__).resolve().parent != expected.resolve():
        raise SystemExit(f"codesync imported from {codesync.__file__}, not {expected}")
    return codesync


def _in_process_cli(workdir: Path, tracer, failures: list) -> list:
    """Run each distinct CLI verb once through ``cli.main`` in this process,
    traced, and return (label, seconds) pairs."""
    from codesync import cli
    from workloads import CLI_VERBS, cli_argv

    out = []
    for verb, code, _ in CLI_VERBS:
        label = "codesync " + " ".join(verb)
        tracer.begin_op(label)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            got = cli.main(cli_argv(verb, workdir))
        out.append((label, time.perf_counter() - start))
        tracer.end_op()
        if got != code:
            failures.append(f"in-process {label}: exit code {got}, expected {code}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    args = parser.parse_args(argv)

    _import_codesync()
    from workloads import WORKLOADS  # bench/ is on sys.path as the script directory

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = BENCH / "results" / f"tmp-{os.getpid()}"
    try:
        ops = WORKLOADS[args.workload].build(args.seed, args.small, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        latencies, failures, instances = [], [], 0
        start = time.perf_counter()
        for op in ops:
            if tracer:
                tracer.begin_op(op.label)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as e:  # an operation that raises is a failure, not a crash
                failures.append(f"{op.label}: {type(e).__name__}: {e}")
                continue
            finally:
                latencies.append(time.perf_counter() - t0)
                if tracer:
                    tracer.end_op()
            try:
                problems = op.check(result)
                instances += op.instances(result)
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
            if problems:
                failures.append(f"{op.label}: " + "; ".join(problems))
        wall = time.perf_counter() - start

        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        report = {
            "ready": ready,
            "wall_s": wall,
            "latencies": latencies,
            "attempted": len(ops),
            "instances": instances,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }
        if tracer:
            if args.workload == "cli":
                # the traced work is each verb once through cli.main in-process
                inproc = _in_process_cli(workdir, tracer, failures)
                first = {}
                for op, seconds in zip(ops, latencies):
                    first.setdefault(op.label, seconds)
                shares = sorted(1 - s / first[label] for label, s in inproc)
                report["startup_share"] = shares[len(shares) // 2]
                report["attempted"] += len(inproc)
                instances = len(inproc)
            report["layers"] = tracer.layer_metrics(instances)
            if args.spans:
                with open(args.spans, "w") as f:
                    for span in tracer.spans:
                        f.write(json.dumps(span) + "\n")
        report["failed"], report["failures"] = len(failures), failures[:20]
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

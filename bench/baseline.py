"""Summarise the run records in ``bench/results/`` into ``bench/baseline.json``.

    python3 bench/baseline.py

Takes every full-size record (``bench/run.py`` without ``--small``) and
writes, per workload, the median and quartiles over seeds of each metric,
the relative spread (quartile distance over median), the seeds used, the
machine, the Python version and the ``src/`` line count, together with each
workload's reason and seed use and the layer-to-end-to-end prediction table.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from workloads import PREDICTIONS, WORKLOADS  # noqa: E402  (bench/ is the script directory)


def summary(values: list) -> dict:
    median = statistics.median(values)
    out = {"median": median, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def main() -> int:
    records = [json.loads(p.read_text()) for p in sorted((BENCH / "results").glob("*.json"))]
    records = [r for r in records if not r["small"]]
    if not records:
        print("no full-size records in bench/results/", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "machine": records[0]["machine"],
        "python": records[0]["python"],
        "src_lines": records[0]["src_lines"],
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "predictions": [
            {"layer_metric": m, "end_to_end": e, "workload": w, "expect": x}
            for m, e, w, x in PREDICTIONS
        ],
    }
    for name, workload in WORKLOADS.items():
        entry = {"why": workload.why, "seed_use": workload.seed_use}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            runs = [r for r in records if r["workload"] == name and r["trace"] == trace]
            if not runs:
                continue
            entry[key] = {
                "seeds": sorted(r["seed"] for r in runs),
                "all_correct": all(r["correct"] for r in runs),
                "metrics": {
                    m: {"unit": runs[0]["metrics"][m]["unit"],
                        **summary([r["metrics"][m]["value"] for r in runs])}
                    for m in runs[0]["metrics"]
                },
            }
        out["workloads"][name] = entry
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {BENCH / 'baseline.json'} from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())

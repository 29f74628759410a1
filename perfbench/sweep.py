"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 [--trace] --out FILE

For each workload of ``BENCHMARK.json`` it runs ``run.py`` once per
seed, one run at a time, each for the ``run_seconds`` that file sets.
It writes a JSON file holding every run's result line and the samples,
set-ups, digest count, failures and health figures of its record line,
and, per metric, the median, the quartiles and the spread (quartile
distance over the median) as ``statistics.quantiles(values, n=4)``
gives them.  With ``--trace`` the runs are traced and the summary
covers the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    out = {"median": median, "min": min(values), "max": max(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else float("nan"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    report: dict[str, dict] = {}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]), "--trace", "1" if args.trace else "0"]
            began = time.perf_counter()
            proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True)
            elapsed = time.perf_counter() - began
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            kept = {k: record[k] for k in ("samples", "setups", "distinct_digests", "error_rate", "failures", "health")}
            runs.append({"seed": seed, "elapsed_s": elapsed, "result": result, "record": kept})
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed} {elapsed:.1f} s correct={result['correct']} {shown}", flush=True)
        metrics = {
            key: summarize([run["result"]["metrics"][key]["value"] for run in runs])
            for key in runs[0]["result"]["metrics"]
        }
        report[name] = {"metrics": metrics, "runs": runs}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and print every metric by name.

    python3 bench/report.py                       # 10 seeds, every workload
    python3 bench/report.py --workloads smallworld --seeds 5
    python3 bench/report.py --trace --seeds 1     # per-layer breakdown
    python3 bench/report.py --json a.json         # keep the raw results
    python3 bench/report.py --compare a.json      # medians against a.json

Run from the repository root. For each workload and metric it prints the
unit, the number of runs, the median, the quartiles and the spread (the
interquartile range as a share of the median), with the metric's bound
from BENCHMARK.json; ``failed_frac`` is failed output checks over checks
attempted across the runs. Each run is one ``run.py`` process on its own
seed, and each run's value is already a median over its operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    *_, info, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    result["info"] = json.loads(info.removeprefix("info "))
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(runs: list[dict], specs: list[dict]) -> list[dict]:
    rows = []
    for spec in specs:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        q1, median, q3 = quartiles(values)
        rows.append({"name": spec["name"], "unit": spec["unit"], "runs": len(values),
                     "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": spec.get("bound"), "better": spec["better"]})
    return rows


def print_rows(workload: str, runs: list[dict], rows: list[dict], previous: dict | None) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    ops = [len(r["info"]["walls"]) for r in runs]
    print(f"\n{workload}: {len(runs)} runs of {min(ops)}-{max(ops)} operations, "
          f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"  {'metric':40} {'unit':11} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>7} {'bound':>6}" + ("  vs previous" if previous else ""))
    old = {row["name"]: row for row in (previous or {}).get(workload, {}).get("rows", [])}
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        line = (f"  {row['name']:40} {row['unit']:11} {row['runs']:>3} {row['median']:>12.6g}"
                f" {row['q1']:>12.6g} {row['q3']:>12.6g} {row['spread']:>7.3f} {bound:>6}")
        if row["name"] in old and old[row["name"]]["median"]:
            change = row["median"] / old[row["name"]]["median"] - 1
            worse = change if row["better"] == "lower" else -change
            flag = " WORSE" if row["bound"] is not None and worse > row["bound"] else ""
            line += f"  {change:+.3f}{flag}"
        print(line)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    parser.add_argument("--json", type=Path, help="write runs and summaries here")
    parser.add_argument("--compare", type=Path, help="earlier --json output")
    args = parser.parse_args()

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    previous = None
    if args.compare:
        # Either a plain --json file or seed_results.json, which holds both kinds.
        previous = json.loads(args.compare.read_text(encoding="utf-8"))
        previous = previous.get("per_layer" if args.trace else "end_to_end", previous)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    results = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        rows = summarise(runs, specs)
        results[workload] = {"seeds": list(seeds), "runs": runs, "rows": rows}
        print_rows(workload, runs, rows, previous)
        sys.stdout.flush()
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

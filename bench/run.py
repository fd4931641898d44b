"""chaingraph benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload smallworld --seed 1 --seconds 50 --trace 0

Run from the repository root; chaingraph is imported from ``src``. The
blocks come from the seed alone. Every set-up and every operation runs in
a fresh interpreter (``child.py``), so peak memory is per operation and no
state carries from one repeat to the next. Operations repeat until the
time is up (at least ``MIN_OPS``), and each end-to-end metric is the
median over them. A probe (``probe.py``) runs before the first operation
and after each one, and ``wall_rel`` divides each operation's wall time by
the mean of the two probes around it. Every operation's output is checked
against an independent reference computed once, before timing.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from statistics import median

import check
from gen import Shape, generate
from tracing import SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_OPS = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    shape: Shape
    argv: list[str]  # the CLI command and its options
    setups: int  # set-ups per run; setup_s is their median
    exact_distances: bool  # whether the reference computes exact L
    check: Callable[[Path, check.Reference], list[bool]]


# Sizes keep one operation near 1.5-3 s on a 2-core machine, so a 50 s run
# holds a dozen or more repeats and their probes. See README.md for why
# each workload exists.
WORKLOADS = {
    "analyze-sampled": Workload(
        Shape(300, 150, 12000, 120),
        ["analyze", "--exact-threshold", "1000", "--sample-sources", "32"], 7, False,
        lambda out, ref: check.check_analyze(out, ref, sample_sources=32, seed=0)),
    "smallworld": Workload(
        Shape(14, 150, 700, 30), ["smallworld", "--trials", "5", "--seed", "42"], 7, True,
        lambda out, ref: check.check_smallworld(out, ref, trials=5, seed=42)),
}

# Per-layer metrics: every span gets .s and .self_s; these also get .calls.
CALLS = ("ingest.cache_get", "ingest.parse_block_json", "graph.project_simple",
         "metrics.connected_components", "metrics.largest_component",
         "metrics.average_local_clustering", "metrics.distance_summary",
         "baseline.gnm_random_graph")


def _child(mode: str, cfg: dict) -> dict:
    # A fixed string hash seed makes repeats on one input do the same work.
    env = dict(os.environ, BENCH_SRC=str(SRC), PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, json.dumps(cfg)],
                          env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{mode} step exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _write_payload(blocks: list[tuple[int, str]], work: Path) -> Path:
    payload = work / "payload.jsonl"
    with open(payload, "w", encoding="utf-8") as f:
        for _, text in blocks:
            f.write(text + "\n")
    return payload


class Run:
    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        blocks = generate(self.workload.shape, seed)
        self.payload = _write_payload(blocks, work)
        self.ref = check.reference(blocks, self.workload.exact_distances)
        self.cache = work / "cache"
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.last_probe: list[float] = []

    def setup(self, times: int) -> list[float]:
        """Set up ``times`` fresh caches; keep the last as the warm cache."""
        result = []
        for i in range(times):
            target = self.work / f"setup{i}"
            result.append(_child("setup", {"payload": str(self.payload),
                                           "cache_dir": str(target)})["setup_s"])
            shutil.rmtree(self.cache, ignore_errors=True)
            target.rename(self.cache)
        return result

    def op(self, trace: bool) -> dict:
        """One operation and the probe after it; ``probe_s`` is the mean of
        the probes just before and just after the operation."""
        shutil.rmtree(self.out, ignore_errors=True)
        shape = self.workload.shape
        argv = self.workload.argv + [
            "--start-block", str(shape.start_block), "--num-blocks", str(shape.num_blocks),
            "--cache-dir", str(self.cache), "--out-dir", str(self.out), "--offline"]
        result = _child("op", {"trace": trace, "argv": argv})
        after = _child("probe", {})["probe_runs"]
        result["probe_s"] = median(self.last_probe + after)
        self.last_probe = after
        result["cache_bytes"] = _dir_bytes(self.cache)
        checks = self.workload.check(self.out, self.ref)
        if result["rc"] != 0:
            checks = [False] * len(checks)
        self.attempted += len(checks)
        self.failed += checks.count(False)
        return result

    def measure(self, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
        """Untraced ops (and, with ``trace``, traced ops alternating with
        them) until ``seconds`` pass and the minimum counts are met."""
        plain, traced = [], []
        start = time.perf_counter()
        self.last_probe = _child("probe", {})["probe_runs"]
        while True:
            elapsed = time.perf_counter() - start
            enough = len(plain) >= MIN_OPS and (not trace or len(traced) >= MIN_TRACED)
            per_op = elapsed / max(1, len(plain) + len(traced))
            if enough and elapsed + per_op > seconds:
                return plain, traced
            if trace and len(traced) < len(plain):
                traced.append(self.op(trace=True))
            else:
                plain.append(self.op(trace=False))


def end_to_end(setups: list[float], plain: list[dict]) -> dict:
    return {
        "setup_s": {"value": median(setups), "unit": "s"},
        "wall_rel": {"value": median(r["wall_s"] / r["probe_s"] for r in plain), "unit": "probe"},
        "peak_rss_mib": {"value": median(r["rss_kib"] for r in plain) / 1024, "unit": "MiB"},
        "cache_mib": {"value": median(r["cache_bytes"] for r in plain) / 2**20, "unit": "MiB"},
    }


def per_layer(plain: list[dict], traced: list[dict], blocks: int) -> dict:
    metrics = {}
    for span in SPANS:
        metrics[f"{span}.s"] = (median(r["layers"][span]["s"] for r in traced), "s")
        metrics[f"{span}.self_s"] = (median(r["layers"][span]["self_s"] for r in traced), "s")
        if span in CALLS:
            metrics[f"{span}.calls"] = (median(r["layers"][span]["calls"] for r in traced), "count")

    def count(name: str, source: str = "counts") -> float:
        return median(r[source].get(name, 0) for r in traced)

    metrics.update({
        "op.wall_s": (median(r["wall_s"] for r in plain), "s"),
        "probe.s": (median(r["probe_s"] for r in plain + traced), "s"),
        "ingest.cache_hits": (count("ingest.cache_hits"), "count"),
        "ingest.cache_misses": (count("ingest.cache_misses"), "count"),
        "ingest.cache_kib_per_block": (median(r["cache_bytes"] for r in traced) / 1024 / blocks,
                                       "KiB/block"),
        "graph.nodes": (count("graph.nodes", "firsts"), "count"),
        "graph.edges": (count("graph.edges", "firsts"), "count"),
        "metrics.bfs_sources": (count("metrics.bfs_sources"), "count"),
        "metrics.main_component_nodes": (count("metrics.main_component_nodes", "firsts"), "count"),
        "trace.overhead_frac": (median(r["wall_s"] for r in traced)
                                / median(r["wall_s"] for r in plain) - 1, "ratio"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chaingraph" / "__init__.py").is_file():
        print(f"error: no chaingraph sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work)
        setups = run.setup(1 if args.trace else run.workload.setups)
        plain, traced = run.measure(args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(plain, traced, run.workload.shape.num_blocks)
        else:
            metrics = end_to_end(setups, plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    print("info " + json.dumps({"setups": [round(s, 4) for s in setups],
                                "walls": [round(r["wall_s"], 4) for r in plain],
                                "probes": [round(r["probe_s"], 4) for r in plain],
                                "traced_walls": [round(r["wall_s"], 4) for r in traced]}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""A/B timing of one chaingraph command from two source trees.

Runs the command from BASE's and CHANGE's ``src/`` in alternating fresh
interpreters (the side that goes first alternates too) and times
``chaingraph.cli.main(argv)`` there, imports excluded. Prints each side's
median time and its peak resident memory (VmHWM of the interpreter, read
where /proc is) as a median and a min-max range, the base side's
interquartile range, how many pairs each side won on time and on peak
memory, and whether the two sides wrote byte-identical files on every
pair. Peak memory moves with heap layout by a few hundred KiB between
runs of one tree, so a memory claim shows the ranges and the pair count,
not one median.
Each run writes into an emptied output directory of its own side, so give
the command no --out-dir. Exits 1 if a run fails or the outputs differ.
Every ``{side}`` in COMMAND ARGS becomes ``base`` or ``change`` in that
side's runs, so each tree can read an input of its own: with
``--cache-dir cache_{side}``, each reads a cache written in its own
format, and neither times a read of the other's.

Usage: python3 scripts/ab_command.py BASE CHANGE [--pairs N] -- COMMAND ARGS...

    python3 scripts/ab_command.py ../parent . --pairs 20 -- smallworld \\
        --start-block 5000000 --num-blocks 14 --cache-dir cache_{side} --offline \\
        --trials 5 --seed 42
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

# Prints one JSON line last: the exit code, the timed wall, the peak
# resident KiB (None without /proc) and where chaingraph was imported from.
_CHILD = """
import json, sys, time
import chaingraph, chaingraph.cli
t0 = time.perf_counter()
rc = chaingraph.cli.main(json.loads(sys.argv[1]))
wall_s = time.perf_counter() - t0
try:
    with open("/proc/self/status") as f:
        hwm_kib = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    hwm_kib = None
print(json.dumps({"rc": rc, "wall_s": wall_s, "hwm_kib": hwm_kib,
                  "origin": chaingraph.__file__}))
"""


def run_once(tree: Path, argv: list[str], out: Path) -> tuple[float, Optional[int]]:
    """Wall seconds and peak resident KiB of one run of argv from tree/src,
    writing into out."""
    shutil.rmtree(out, ignore_errors=True)
    src = (tree / "src").resolve()
    # A fixed string hash seed makes repeats on one input do the same work.
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", _CHILD,
                           json.dumps(argv + ["--out-dir", str(out)])],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: interpreter exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if src not in Path(result["origin"]).resolve().parents:
        raise RuntimeError(f"{tree}: chaingraph imported from {result['origin']}")
    if result["rc"] != 0:
        raise RuntimeError(f"{tree}: command exited with {result['rc']}\n{proc.stderr}")
    return result["wall_s"], result["hwm_kib"]


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative names of files that are missing on one side or differ in bytes."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    differ = names_a ^ names_b
    differ |= {n for n in names_a & names_b if (a / n).read_bytes() != (b / n).read_bytes()}
    return sorted(map(str, differ))


def peak_spread(peaks: list[Optional[int]]) -> str:
    """Median and min-max VmHWM of one side's runs, or n/a where it was not read."""
    known = [p for p in peaks if p is not None]
    if not known:
        return "n/a"
    return f"{statistics.median(known):,.0f} KiB (min-max {min(known):,}-{max(known):,})"


def lower_in(base: list, change: list, what: str) -> str:
    """How many pairs each side read lower on ``what``; pairs where either
    side has no reading are not counted."""
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    return (f"change {what} in {sum(c < b for b, c in pairs)} of {len(pairs)} pairs, "
            f"base {what} in {sum(b < c for b, c in pairs)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s BASE CHANGE [--pairs N] -- COMMAND ARGS...")
    parser.add_argument("base", type=Path, help="source tree of the reference side")
    parser.add_argument("change", type=Path, help="source tree of the changed side")
    parser.add_argument("--pairs", type=int, default=10)
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:split])
    argv = own[split + 1:]
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    if not argv:
        parser.error("no command given after --")
    if "--out-dir" in argv:
        parser.error("each side has its own --out-dir; leave it out")
    for tree in (args.base, args.change):
        if not (tree / "src" / "chaingraph").is_dir():
            parser.error(f"{tree} has no src/chaingraph")

    sides = {"base": args.base, "change": args.change}
    argvs = {side: [arg.replace("{side}", side) for arg in argv] for side in sides}
    times: dict[str, list[float]] = {"base": [], "change": []}
    peaks: dict[str, list[Optional[int]]] = {"base": [], "change": []}
    mismatches: set[str] = set()
    with tempfile.TemporaryDirectory() as work:
        outs = {side: Path(work) / side for side in sides}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                wall_s, hwm_kib = run_once(sides[side], argvs[side], outs[side])
                times[side].append(wall_s)
                peaks[side].append(hwm_kib)
            mismatches.update(differing_files(outs["base"], outs["change"]))
            print(f"pair {i + 1}: base {times['base'][-1] * 1e3:.1f} ms, "
                  f"change {times['change'][-1] * 1e3:.1f} ms", flush=True)
        files = sum(1 for p in outs["base"].rglob("*") if p.is_file())

    base, change = times["base"], times["change"]
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    print(f"base   median {statistics.median(base) * 1e3:.1f} ms, "
          f"IQR {(q3 - q1) * 1e3:.1f} ms, peak RSS {peak_spread(peaks['base'])}")
    print(f"change median {statistics.median(change) * 1e3:.1f} ms, "
          f"peak RSS {peak_spread(peaks['change'])}")
    print(lower_in(base, change, "faster"))
    print(lower_in(peaks["base"], peaks["change"], "peak RSS lower"))
    if mismatches:
        print(f"outputs DIFFER: {', '.join(sorted(mismatches))}")
        return 1
    print(f"outputs byte-identical: {files} files on every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())

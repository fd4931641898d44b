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
not one median. Next to each side's peak it prints the largest peak of
any worker process a run forked and reaped (``ru_maxrss`` of
RUSAGE_CHILDREN), which the run's own VmHWM does not count.
It also prints how many CPUs the runs may use, and a spin check before
and after the pairs: a short counting loop timed alone, then two copies
of it at once. When two copies take much longer than one, the machine
did not give a second CPU-bound process a core of its own, and a command
that forks workers is timed under contention.
With --contend, one CPU spinner, a counting loop that ends by itself
after a bounded time or when this script is gone, runs while the pairs do:
a command that forks workers is then timed with one CPU taken. The spinner
is killed and reaped when the pairs end, before the second spin check.
Each run writes into an emptied output directory of its own side, so give
the command no --out-dir. Exits 1 if a run fails or the outputs differ.
Every ``{side}`` in COMMAND ARGS becomes ``base`` or ``change`` in that
side's runs, so each tree can read an input of its own: with
``--cache-dir cache_{side}``, each reads a cache written in its own
format, and neither times a read of the other's.

Usage: python3 scripts/ab_command.py BASE CHANGE [--pairs N] [--contend] -- COMMAND ARGS...

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
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Optional

# Prints one JSON line last: the exit code, the timed wall, the peak
# resident KiB (None without /proc), the largest peak resident KiB of a
# reaped child process (0 if none, None without the resource module) and
# where chaingraph was imported from.
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
try:
    import resource
    worker_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
except ImportError:
    worker_kib = None
print(json.dumps({"rc": rc, "wall_s": wall_s, "hwm_kib": hwm_kib,
                  "worker_kib": worker_kib, "origin": chaingraph.__file__}))
"""

# A counting loop of about 0.1-0.2 s; prints its seconds. With an argument
# it first prints "ready" and waits for a line on stdin, so that a second
# copy starts its loop together with this script's own.
_SPIN = """
import sys, time
if len(sys.argv) > 1:
    print("ready", flush=True)
    sys.stdin.readline()
t0 = time.perf_counter()
n = 0
for _ in range(1_500_000):
    n += 1
print(time.perf_counter() - t0, flush=True)
"""


# Spins for at most an hour, or until its parent is gone, so that no
# spinner outlives the script by much even if the script is killed.
_SPINNER = """
import os, time
parent = os.getppid()
deadline = time.monotonic() + 3600
while time.monotonic() < deadline and os.getppid() == parent:
    for _ in range(100_000):
        pass
"""


@contextmanager
def spinner():
    """One CPU-bound process for the body's duration, at most an hour;
    killed and reaped when the body ends, however it ends. Yields its pid."""
    proc = subprocess.Popen([sys.executable, "-c", _SPINNER])
    try:
        yield proc.pid
    finally:
        proc.kill()
        proc.wait()


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def spin_check() -> str:
    """The spin loop's seconds in one process alone, then in two at once."""
    def spin(*args):
        return subprocess.Popen([sys.executable, "-c", _SPIN, *args], text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    with spin() as alone:
        alone_s = float(alone.communicate()[0])
    with spin("paired") as first, spin("paired") as second:
        for proc in (first, second):
            proc.stdout.readline()
        for proc in (first, second):
            proc.stdin.write("go\n")
            proc.stdin.flush()
        paired_s = [float(proc.communicate()[0]) for proc in (first, second)]
    return (f"one loop alone {alone_s:.3f} s, "
            f"two at once {paired_s[0]:.3f} s and {paired_s[1]:.3f} s")


def run_once(tree: Path, argv: list[str], out: Path) -> dict:
    """Wall seconds, peak resident KiB and largest worker peak KiB of one
    run of argv from tree/src, writing into out."""
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
    return result


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


def worker_peak(peaks: list[Optional[int]]) -> str:
    """The largest peak of any worker process over one side's runs."""
    known = [p for p in peaks if p is not None]
    if not known:
        return "worker peak n/a"
    if max(known) == 0:
        return "no worker process"
    return f"largest worker peak {max(known):,} KiB"


def lower_in(base: list, change: list, what: str) -> str:
    """How many pairs each side read lower on ``what``; pairs where either
    side has no reading are not counted."""
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    return (f"change {what} in {sum(c < b for b, c in pairs)} of {len(pairs)} pairs, "
            f"base {what} in {sum(b < c for b, c in pairs)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        usage="%(prog)s BASE CHANGE [--pairs N] [--contend] -- COMMAND ARGS...")
    parser.add_argument("base", type=Path, help="source tree of the reference side")
    parser.add_argument("change", type=Path, help="source tree of the changed side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--contend", action="store_true",
                        help="run the pairs beside one CPU spinner")
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
    workers: dict[str, list[Optional[int]]] = {"base": [], "change": []}
    mismatches: set[str] = set()
    print(f"usable CPUs: {usable_cpus()}")
    print(f"spin check before: {spin_check()}", flush=True)
    with tempfile.TemporaryDirectory() as work, \
            (spinner() if args.contend else nullcontext()) as spinner_pid:
        if spinner_pid is not None:
            print(f"contending: spinner pid {spinner_pid}", flush=True)
        outs = {side: Path(work) / side for side in sides}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                result = run_once(sides[side], argvs[side], outs[side])
                times[side].append(result["wall_s"])
                peaks[side].append(result["hwm_kib"])
                workers[side].append(result["worker_kib"])
            mismatches.update(differing_files(outs["base"], outs["change"]))
            print(f"pair {i + 1}: base {times['base'][-1] * 1e3:.1f} ms, "
                  f"change {times['change'][-1] * 1e3:.1f} ms", flush=True)
        files = sum(1 for p in outs["base"].rglob("*") if p.is_file())
    print(f"spin check after: {spin_check()}")

    base, change = times["base"], times["change"]
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    print(f"base   median {statistics.median(base) * 1e3:.1f} ms, "
          f"IQR {(q3 - q1) * 1e3:.1f} ms, peak RSS {peak_spread(peaks['base'])}, "
          f"{worker_peak(workers['base'])}")
    print(f"change median {statistics.median(change) * 1e3:.1f} ms, "
          f"peak RSS {peak_spread(peaks['change'])}, {worker_peak(workers['change'])}")
    print(lower_in(base, change, "faster"))
    print(lower_in(peaks["base"], peaks["change"], "peak RSS lower"))
    if mismatches:
        print(f"outputs DIFFER: {', '.join(sorted(mismatches))}")
        return 1
    print(f"outputs byte-identical: {files} files on every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())

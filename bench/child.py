"""One measured step in a fresh interpreter, so peak memory is per step.

    python3 bench/child.py setup '<json config>'
    python3 bench/child.py op '<json config>'
    python3 bench/child.py probe '{}'

``setup`` times ``import chaingraph`` plus writing the workload's warm
cache through ``BlockCache.store``; decoding the generated payloads is the
benchmark's own work and is left out. ``op`` times one workload operation,
``chaingraph.cli.main(argv)``, optionally traced. ``probe`` times the
reference kernel in ``probe.py``. Each mode prints one JSON line. The
parent puts the repository's ``src`` first on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def _check_import_origin(module) -> None:
    src = Path(os.environ["BENCH_SRC"]).resolve()
    if src not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"chaingraph imported from {module.__file__}, not from {src}")


def _peak_rss_kib() -> int:
    # VmHWM belongs to this process image; ru_maxrss would also carry the
    # parent's peak across fork and exec.
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(cfg: dict) -> dict:
    t0 = time.perf_counter()
    import chaingraph
    from chaingraph.ingest import BlockCache
    import_s = time.perf_counter() - t0
    _check_import_origin(chaingraph)

    with open(cfg["payload"], encoding="utf-8") as f:
        results = [json.loads(line) for line in f]
    t1 = time.perf_counter()
    cache = BlockCache(cfg["cache_dir"])
    for result in results:
        cache.store(int(result["number"], 16), result)
    return {"setup_s": import_s + time.perf_counter() - t1}


def op(cfg: dict) -> dict:
    import chaingraph
    import chaingraph.cli
    _check_import_origin(chaingraph)

    tracer = None
    if cfg["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    rc = chaingraph.cli.main(cfg["argv"])
    out = {"wall_s": time.perf_counter() - t0, "rss_kib": _peak_rss_kib(), "rc": rc}
    if tracer is not None:
        out.update(layers=tracer.summary(), counts=dict(tracer.counts), firsts=tracer.firsts)
    return out


def probe(cfg: dict) -> dict:
    import probe
    return {"probe_runs": probe.probe()}


def main() -> None:
    mode, cfg = sys.argv[1], json.loads(sys.argv[2])
    result = {"setup": setup, "op": op, "probe": probe}[mode](cfg)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

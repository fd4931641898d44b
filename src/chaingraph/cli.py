"""Command-line front-end: fetch, analyze, smallworld, snapshots, miners,
export.

Offline-first: blocks are read from the cache and only fetched on a miss;
--offline turns misses into errors. Every output file starts with a
provenance comment header (tool version, config hash, seed, snapshot), and
runs with equal headers are byte-identical below it. Every table of
results is written by _write_csv; the graph exports (graph.net, edges.csv)
have writers of their own in the graph module. --seed draws the sampled
distance sources and the G(n,m) baselines, so only analyze, smallworld and
snapshots take it; the other commands record the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TextIO

from chaingraph import __version__, metrics
from chaingraph.baseline import UNDEFINED, small_world_report
from chaingraph.graph import (SimpleGraph, TransactionGraph, build_graph, export_edge_csv,
                              export_pajek, project_simple)
from chaingraph.ingest import (
    BlockCache,
    BlockRecord,
    CacheCorruptError,
    IngestError,
    JsonRpcEndpoint,
    OfflineMissError,
    SnapshotSpec,
    fetch_range,
)
from chaingraph.metrics import (
    ComponentSet,
    ExactnessPolicy,
    connected_components,
    degree_distribution,
    distance_summary,
)
from chaingraph.miners import miner_distribution

RPC_URL_ENV = "CHAINGRAPH_RPC_URL"
DEFAULT_CACHE_DIR = "./chaincache"
_GraphOutputs = Optional[Callable[[TransactionGraph], None]]  # the weighted graph's outputs


@dataclass
class RunConfig:
    command: str
    rpc_url: Optional[str]
    cache_dir: Path
    snapshots: list[SnapshotSpec]
    out_dir: Path = Path(".")
    seed: int = 0
    trials: int = 5
    exact_threshold: int = ExactnessPolicy.exact_threshold
    sample_sources: int = ExactnessPolicy.sample_sources
    fmt: str = "csv"
    offline: bool = False
    pretty: bool = False

    def policy(self) -> ExactnessPolicy:
        return ExactnessPolicy(self.exact_threshold, self.sample_sources, self.seed)

    def config_hash(self) -> str:
        # Only run-semantic fields; paths and endpoint are excluded so runs
        # into different directories share a hash (and must share bytes).
        payload = json.dumps(
            {
                "command": self.command,
                "snapshots": [s.label() for s in self.snapshots],
                "seed": self.seed,
                "trials": self.trials,
                "exact_threshold": self.exact_threshold,
                "sample_sources": self.sample_sources,
                "format": self.fmt,
                "version": __version__,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def header_lines(self) -> list[str]:
        snapshots = ",".join(s.label() for s in self.snapshots) or "-"
        return [
            f"chaingraph {__version__}",
            f"config={self.config_hash()} seed={self.seed} snapshot={snapshots}",
        ]


def _fmt(value) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_file(cfg: RunConfig, name: str, body: Callable[[TextIO], None],
                comment: str = "#") -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.out_dir / name, "w", encoding="utf-8", newline="\n") as sink:
        for line in cfg.header_lines():
            sink.write(f"{comment} {line}\n")
        body(sink)


def _write_csv(cfg: RunConfig, name: str, columns: list[str], rows: list[Sequence],
               pretty: bool = False) -> None:
    """Write a results table; with pretty, --pretty also prints it on stdout."""
    def body(sink: TextIO) -> None:
        sink.write(",".join(columns) + "\n")
        for row in rows:
            sink.write(",".join(_fmt(v) for v in row) + "\n")

    _write_file(cfg, name, body)
    if pretty and cfg.pretty:
        cells = [columns] + [[_fmt(v) for v in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
        for r in cells:
            print("  ".join(val.ljust(w) for val, w in zip(r, widths)))


def _endpoint(cfg: RunConfig) -> Optional[JsonRpcEndpoint]:
    if cfg.offline or not cfg.rpc_url:
        return None
    return JsonRpcEndpoint(cfg.rpc_url)


def _load_blocks(cfg: RunConfig, spec: SnapshotSpec,
                 on_block: Optional[Callable[[int, bool], None]] = None) -> Iterator[BlockRecord]:
    """The snapshot's blocks in order, streamed: each command reads them
    once, so none holds the whole range in memory."""
    return fetch_range(_endpoint(cfg), spec, BlockCache(cfg.cache_dir), on_block=on_block)


def _fork_writer(graph_outputs: Callable[[TransactionGraph], None],
                 g: TransactionGraph) -> Callable[..., None]:
    """Start graph_outputs(g) in a writer forked from this process, and
    return a function that waits for the writer to end and, unless called
    with check=False, raises its failure as an OSError: the text of the
    writer's exception, or else its exit status or the signal that killed
    it. Where metrics._workers(2) gives one process, or no pipe or process
    can be made, graph_outputs(g) runs here instead, and the function does
    nothing."""
    pid = -1
    if metrics._workers(2) > 1:
        try:
            read_fd, write_fd = os.pipe()
        except OSError:
            pass
        else:
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
    if pid == 0:
        # Like a _fork_map worker, the writer never returns into the
        # caller's stack, runs its atexit handlers or flushes its stdio.
        code = 1
        try:
            metrics._in_map = True
            try:
                graph_outputs(g)
                code = 0
            except Exception as exc:
                os.write(write_fd, str(exc).encode("utf-8", "replace"))
        finally:
            os._exit(code)
    if pid < 0:
        graph_outputs(g)
        return lambda check=True: None
    os.close(write_fd)

    def wait(check: bool = True) -> None:
        try:
            why = b""
            while chunk := os.read(read_fd, 4096):
                why += chunk
        finally:
            os.close(read_fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if not check:
            return
        if code > 0:
            raise OSError(why.decode("utf-8", "replace")
                          or f"graph outputs: the writer exited with status {code}")
        if code < 0:
            raise OSError(f"graph outputs: the writer was killed by signal {-code}")
    return wait


def _snapshot(blocks: Iterator[BlockRecord], graph_outputs: _GraphOutputs = None,
              waits: Optional[list] = None) -> tuple[SimpleGraph, ComponentSet]:
    """A block range as a network. graph_outputs, the only reader of the
    weighted graph's weights and labels, gets the graph first, through
    _fork_writer, which appends its wait function to `waits`: the caller
    calls it before it returns or raises, and checks the writer only if
    nothing else failed. The graph is then dropped here but for its node
    count and edge keys, so the projection is never built while the labels
    are held here, and no metric runs while any of it is."""
    g = build_graph(blocks)
    if graph_outputs is not None:
        waits.append(_fork_writer(graph_outputs, g))
    n, edges = g.n, g.edges
    del g  # with it go the labels and the loops
    simple = project_simple(n, edges)
    del edges
    return simple, connected_components(simple)


def _tap_timestamps(blocks: Iterator[BlockRecord], stamps: list[int]) -> Iterator[BlockRecord]:
    """The blocks, passed on; stamps keeps the first and last timestamps only."""
    for block in blocks:
        del stamps[1:]
        stamps.append(block.timestamp)
        yield block


def _record(cfg: RunConfig, spec: SnapshotSpec, policy: ExactnessPolicy,
            graph_outputs: _GraphOutputs = None) -> dict:
    """Every number of a block range, one key per quantity, in snapshots.csv's
    order. _snapshot builds and projects the range, while a forked writer
    writes the weighted graph's outputs; the distance pieces and the
    clustering pass then run side by side, on the projection alone."""
    stamps: list[int] = []
    waits: list = []
    try:
        simple, comps = _snapshot(_tap_timestamps(_load_blocks(cfg, spec), stamps),
                                  graph_outputs, waits)
        # with_clustering, passed by position, as a wrapper taking
        # (g, *args) passes it on.
        summary = distance_summary(simple, comps, policy, True)
    except BaseException:
        # The writer is reaped, but this failure, not the writer's, is
        # raised: on Ctrl-C the writer gets the SIGINT too.
        for wait in waits:
            wait(check=False)
        raise
    for wait in waits:
        wait()
    nodes_main, edges_main = comps.largest_size
    return {"start_block": spec.start_block, "num_blocks": spec.count, "nodes": simple.n,
            "nodes_main": nodes_main, "edges": simple.m, "edges_main": edges_main,
            "components": comps.num_components, "avg_distance": summary.average_distance,
            "avg_clus_coeff": summary.avg_clustering, "transitivity": summary.transitivity,
            "diameter": summary.diameter, "l_method": summary.l_method,
            "diameter_method": summary.diameter_method,
            "sample_sources": summary.sample_sources, "seed": summary.seed,
            "first_timestamp": stamps[0], "last_timestamp": stamps[-1]}


# analyze's files: each header, then the record key it reads.
_METRICS_CSV = {"blocks": "num_blocks", "nodes": "nodes", "edges": "edges",
                "avg_clus_coeff": "avg_clus_coeff", "transitivity": "transitivity",
                "components": "components", "nodes_largest_comp": "nodes_main",
                "edges_largest_comp": "edges_main"}
_DISTANCES_CSV = {"nodes_main_comp": "nodes_main", "avg_distance": "avg_distance",
                  "diameter": "diameter", "l_method": "l_method",
                  "diameter_method": "diameter_method", "sample_sources": "sample_sources",
                  "seed": "seed"}


def _why(exc: Exception, offline: bool) -> str:
    """The error's text; a cache miss or a corrupt entry, which reach here
    only when there is no endpoint, also says why nothing was fetched."""
    hint = "--offline is on" if offline else f"no --rpc-url or ${RPC_URL_ENV} is set"
    if isinstance(exc, (OfflineMissError, CacheCorruptError)):
        return f"{exc} ({hint})"
    return str(exc)


def cmd_fetch(cfg: RunConfig) -> int:
    stats = {"fetched": 0, "hits": 0}

    def on_block(_number: int, from_cache: bool) -> None:
        stats["hits" if from_cache else "fetched"] += 1

    for _ in _load_blocks(cfg, cfg.snapshots[0], on_block=on_block):
        pass
    print(f"{stats['fetched']} fetched, {stats['hits']} cache hits")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    def graph_outputs(g: TransactionGraph) -> None:
        hist, weighted = degree_distribution(g)
        degrees = sorted(hist.items())
        _write_csv(cfg, "degree.csv", ["degree", "count"], degrees)
        # Every node is an endpoint of some transaction, so no degree or
        # count is 0 and each has a logarithm.
        _write_csv(cfg, "degree_loglog.csv", ["log10_degree", "log10_count"],
                   [[math.log10(d), math.log10(c)] for d, c in degrees])
        _write_csv(cfg, "degree_weighted.csv", ["degree", "count"], sorted(weighted.items()))
        _write_file(cfg, "graph.net", lambda sink: export_pajek(g, sink), comment="%")

    record = _record(cfg, cfg.snapshots[0], cfg.policy(), graph_outputs)
    _write_csv(cfg, "metrics.csv", list(_METRICS_CSV),
               [[record[key] for key in _METRICS_CSV.values()]], pretty=True)
    _write_csv(cfg, "distances.csv", list(_DISTANCES_CSV),
               [[record[key] for key in _DISTANCES_CSV.values()]])
    return 0


def cmd_smallworld(cfg: RunConfig) -> int:
    policy = cfg.policy()
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    spec = cfg.snapshots[0]
    simple, comps = _snapshot(_load_blocks(cfg, spec))
    if comps.largest_size[1] == 0:
        raise ValueError(f"block range {spec.label()} has no edge to compare")
    report = small_world_report(simple, comps, cfg.trials, cfg.seed, policy)
    columns = ["blocks", "nodes", "edges", "cc", "L", "cc_RG", "L_RG", "sigma", "trials", "seed"]
    row = [spec.count, report.n, report.m, report.cc, report.avg_distance,
           report.cc_rg, report.l_rg, report.sigma, report.trials, report.seed]
    _write_csv(cfg, "smallworld.csv", columns, [row], pretty=True)
    return 0


def cmd_snapshots(cfg: RunConfig) -> int:
    if len(cfg.snapshots) < 2:
        print("error: snapshots needs at least two --snapshot specs", file=sys.stderr)
        return 1
    policy = cfg.policy()
    records: list[dict] = []
    for spec in cfg.snapshots:
        try:
            records.append(_record(cfg, spec, policy))
        except (IngestError, ValueError, OSError) as exc:
            print(f"snapshot {spec.label()} failed: {_why(exc, cfg.offline)}", file=sys.stderr)
    if not records:  # like every command that fails, write nothing
        return 1
    _write_csv(cfg, "snapshots.csv", list(records[0]),
               [list(record.values()) for record in records], pretty=True)
    return 0


def cmd_miners(cfg: RunConfig) -> int:
    per_miner, distribution = miner_distribution(_load_blocks(cfg, cfg.snapshots[0]))
    _write_csv(cfg, "miners.csv", ["miner", "blocks"], sorted(per_miner.items()))
    _write_csv(cfg, "miner_histogram.csv", ["blocks_mined", "num_miners"],
               sorted(distribution.items()), pretty=True)
    return 0


def cmd_export(cfg: RunConfig) -> int:
    g = build_graph(_load_blocks(cfg, cfg.snapshots[0]))
    if cfg.fmt == "pajek":
        _write_file(cfg, "graph.net", lambda sink: export_pajek(g, sink), comment="%")
    else:
        _write_file(cfg, "edges.csv", lambda sink: export_edge_csv(g, sink))
    return 0


_COMMANDS = {"fetch": cmd_fetch, "analyze": cmd_analyze, "smallworld": cmd_smallworld,
             "snapshots": cmd_snapshots, "miners": cmd_miners, "export": cmd_export}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaingraph",
        description="Ethereum transaction networks: ingestion and complex-network metrics",
    )
    parser.add_argument("--version", action="version", version=f"chaingraph {__version__}")

    # Flag groups; each command takes only the groups it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rpc-url", default=os.environ.get(RPC_URL_ENV),
                        help=f"JSON-RPC endpoint (or ${RPC_URL_ENV})")
    common.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    common.add_argument("--offline", action="store_true",
                        help="never touch the network; cache misses are errors")
    outputs = argparse.ArgumentParser(add_help=False)
    outputs.add_argument("--out-dir", type=Path, default=RunConfig.out_dir)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=RunConfig.seed,
                      help="draws sampled sources and random baselines; "
                           "recorded in every output header")
    block_range = argparse.ArgumentParser(add_help=False)
    block_range.add_argument("--start-block", type=int)
    block_range.add_argument("--num-blocks", type=int)
    distances = argparse.ArgumentParser(add_help=False)
    distances.add_argument("--exact-threshold", type=int, default=RunConfig.exact_threshold)
    distances.add_argument("--sample-sources", type=int, default=RunConfig.sample_sources)
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", help="also print a table on stdout")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("fetch", help="populate the block cache for a range",
                   parents=[common, block_range])
    sub.add_parser("analyze", help="metrics, degree histograms, distances, Pajek export",
                   parents=[common, outputs, seed, block_range, distances, pretty])
    p = sub.add_parser("smallworld", help="small-world sigma vs. G(n,m) baselines",
                       parents=[common, outputs, seed, block_range, distances, pretty])
    p.add_argument("--trials", type=int, default=RunConfig.trials)
    p = sub.add_parser("snapshots", help="per-snapshot series over multiple block ranges",
                       parents=[common, outputs, seed, distances, pretty])
    p.add_argument("--snapshot", action="append", default=[],
                   metavar="START:COUNT", help="repeatable snapshot spec")
    sub.add_parser("miners", help="blocks-mined-per-miner distribution",
                   parents=[common, outputs, block_range, pretty])
    p = sub.add_parser("export", help="write the graph as Pajek or edge-list CSV",
                       parents=[common, outputs, block_range])
    p.add_argument("--format", dest="fmt", choices=["csv", "pajek"], default=RunConfig.fmt)
    return parser


# RunConfig fields set by flags that only some commands have; a command
# without the flag keeps the field's default, so its header is unchanged.
_PER_COMMAND_FIELDS = ("out_dir", "seed", "trials", "exact_threshold", "sample_sources",
                       "fmt", "pretty")


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "snapshots":
        snapshots = [SnapshotSpec.parse(s) for s in args.snapshot]
        if not snapshots:
            raise ValueError("no block range given: use --snapshot START:COUNT")
    elif args.start_block is not None:
        count = args.num_blocks if args.num_blocks is not None else 1
        snapshots = [SnapshotSpec(args.start_block, count)]
    else:
        raise ValueError("no block range given: use --start-block/--num-blocks")
    per_command = {name: getattr(args, name) for name in _PER_COMMAND_FIELDS
                   if hasattr(args, name)}
    return RunConfig(
        command=args.command,
        rpc_url=args.rpc_url,
        cache_dir=Path(args.cache_dir),
        snapshots=snapshots,
        offline=args.offline,
        **per_command,
    )


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {_why(exc, args.offline)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

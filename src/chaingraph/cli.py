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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, TextIO

from chaingraph import __version__
from chaingraph.baseline import UNDEFINED, small_world_report
from chaingraph.graph import (SimpleGraph, TransactionGraph, build_graph, export_edge_csv,
                              export_pajek, project_simple)
from chaingraph.ingest import (
    BlockCache,
    BlockRecord,
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
    general_metrics,
)
from chaingraph.miners import miner_distribution

RPC_URL_ENV = "CHAINGRAPH_RPC_URL"
DEFAULT_CACHE_DIR = "./chaincache"


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


def _write_csv(cfg: RunConfig, name: str, columns: list[str], rows: list[Sequence]) -> None:
    def body(sink: TextIO) -> None:
        sink.write(",".join(columns) + "\n")
        for row in rows:
            sink.write(",".join(_fmt(v) for v in row) + "\n")

    _write_file(cfg, name, body)


def _print_table(columns: list[str], rows: list[Sequence]) -> None:
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


class _Snapshot(NamedTuple):
    simple: SimpleGraph
    comps: ComponentSet


def _snapshot(cfg: RunConfig, spec: SnapshotSpec,
              graph_outputs: Optional[Callable[[TransactionGraph], None]] = None) -> _Snapshot:
    """A block range as a network. Only graph_outputs reads the weighted graph;
    it is dropped before this returns, so no metric runs while it is held."""
    g = build_graph(_load_blocks(cfg, spec))
    simple = project_simple(g)
    if graph_outputs is not None:
        graph_outputs(g)
    del g
    return _Snapshot(simple, connected_components(simple))


def cmd_fetch(cfg: RunConfig) -> int:
    stats = {"fetched": 0, "hits": 0}

    def on_block(_number: int, from_cache: bool) -> None:
        stats["hits" if from_cache else "fetched"] += 1

    for _ in _load_blocks(cfg, cfg.snapshots[0], on_block=on_block):
        pass
    print(f"{stats['fetched']} fetched, {stats['hits']} cache hits")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    policy = cfg.policy()

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

    spec = cfg.snapshots[0]
    simple, comps = _snapshot(cfg, spec, graph_outputs)
    summary = distance_summary(simple, comps, policy)
    dist_row = [comps.largest_size[0], summary.average_distance, summary.diameter,
                summary.l_method, summary.diameter_method, summary.sample_sources, summary.seed]
    report = general_metrics(simple, comps)
    metrics_cols = ["blocks", "nodes", "edges", "avg_clus_coeff", "transitivity",
                    "components", "nodes_largest_comp", "edges_largest_comp"]
    metrics_row = [spec.count, report.n, report.m, report.avg_clustering,
                   report.transitivity, report.num_components,
                   report.largest_component_nodes, report.largest_component_edges]
    _write_csv(cfg, "metrics.csv", metrics_cols, [metrics_row])
    _write_csv(cfg, "distances.csv",
               ["nodes_main_comp", "avg_distance", "diameter", "l_method",
                "diameter_method", "sample_sources", "seed"], [dist_row])

    if cfg.pretty:
        _print_table(metrics_cols, [metrics_row])
    return 0


def cmd_smallworld(cfg: RunConfig) -> int:
    policy = cfg.policy()
    if cfg.trials < 1:
        raise ValueError(f"trials must be >= 1, got {cfg.trials}")
    spec = cfg.snapshots[0]
    simple, comps = _snapshot(cfg, spec)
    if comps.largest_size[1] == 0:
        raise ValueError(f"block range {spec.label()} has no edge to compare")
    report = small_world_report(simple, comps, cfg.trials, cfg.seed, policy)
    columns = ["blocks", "nodes", "edges", "cc", "L", "cc_RG", "L_RG", "sigma",
               "trials", "seed"]
    row = [spec.count, report.n, report.m, report.cc, report.avg_distance,
           report.cc_rg, report.l_rg, report.sigma, report.trials, report.seed]
    _write_csv(cfg, "smallworld.csv", columns, [row])
    if cfg.pretty:
        _print_table(columns, [row])
    return 0


def cmd_snapshots(cfg: RunConfig) -> int:
    if len(cfg.snapshots) < 2:
        print("error: snapshots needs at least two --snapshot specs", file=sys.stderr)
        return 1
    policy = cfg.policy()
    columns = ["start_block", "num_blocks", "nodes", "nodes_main", "edges",
               "edges_main", "components", "avg_distance"]
    rows: list[list] = []
    for spec in cfg.snapshots:
        try:
            simple, comps = _snapshot(cfg, spec)
            nodes_main, edges_main = comps.largest_size
            summary = distance_summary(simple, comps, policy)
            rows.append([spec.start_block, spec.count, simple.n, nodes_main, simple.m,
                         edges_main, comps.num_components, summary.average_distance])
            del simple, comps  # not held while the next range is built
        except (IngestError, ValueError, OSError) as exc:
            print(f"snapshot {spec.label()} failed: {exc}", file=sys.stderr)
    if not rows:  # like every command that fails, write nothing
        return 1
    _write_csv(cfg, "snapshots.csv", columns, rows)
    if cfg.pretty:
        _print_table(columns, rows)
    return 0


def cmd_miners(cfg: RunConfig) -> int:
    per_miner, distribution = miner_distribution(_load_blocks(cfg, cfg.snapshots[0]))
    _write_csv(cfg, "miners.csv", ["miner", "blocks"], sorted(per_miner.items()))
    columns = ["blocks_mined", "num_miners"]
    rows = sorted(distribution.items())
    _write_csv(cfg, "miner_histogram.csv", columns, rows)
    if cfg.pretty:
        _print_table(columns, rows)
    return 0


def cmd_export(cfg: RunConfig) -> int:
    g = build_graph(_load_blocks(cfg, cfg.snapshots[0]))
    if cfg.fmt == "pajek":
        _write_file(cfg, "graph.net", lambda sink: export_pajek(g, sink), comment="%")
    else:
        _write_file(cfg, "edges.csv", lambda sink: export_edge_csv(g, sink))
    return 0


_COMMANDS = {
    "fetch": cmd_fetch,
    "analyze": cmd_analyze,
    "smallworld": cmd_smallworld,
    "snapshots": cmd_snapshots,
    "miners": cmd_miners,
    "export": cmd_export,
}


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
    except OfflineMissError as exc:
        hint = "--offline is on" if cfg.offline else f"no --rpc-url or ${RPC_URL_ENV} is set"
        print(f"error: {exc} ({hint})", file=sys.stderr)
        return 1
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

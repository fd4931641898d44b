import ast
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import chaingraph
from chaingraph import baseline, cli, metrics
from chaingraph.cli import _config_from_args, build_parser, main
from chaingraph.baseline import small_world_report
from chaingraph.graph import SimpleGraph, build_graph, project_simple
from chaingraph.ingest import BlockCache, BlockRecord, JsonRpcEndpoint, parse_block_json
from chaingraph.metrics import ExactnessPolicy, connected_components, largest_component

from conftest import (
    MockEndpoint,
    addr,
    forest_blocks,
    forest_pairs,
    pairs_to_raw_blocks,
    raw_block,
    raw_tx,
    seed_cache,
    star_pairs,
    stub_endpoint,
    summary_of,
    tx_rows,
)
from oracles import LabelKeyedGraph, format4_body, recipient_node, write_entry


def strip_header(path, comment="#"):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith(comment + " chaingraph")
            and not ln.startswith(comment + " config=")]


def write_old_cache(directory, raw_blocks, formats):
    """Cache each block of ``raw_blocks`` in ``directory`` as an entry of
    the old format ``formats[number]``, 4 or 3, as those formats stored
    it: the format-4 body, then for format 3 the transactions' values in
    hex. Returns the blocks."""
    directory.mkdir()
    cache = BlockCache(directory)
    for number, raw in raw_blocks.items():
        fmt = formats[number]
        values = " ".join("0" for _ in raw["transactions"]).encode() if fmt == 3 else b""
        write_entry(cache.path(number), format4_body(raw) + values,
                    f"chaingraph-block/{fmt}".encode())
    return raw_blocks


def run(args, tmp_path, cache="cache", out="out", extra=()):
    argv = list(args) + ["--cache-dir", str(tmp_path / cache), "--offline"] + list(extra)
    if args[0] != "fetch":
        argv += ["--out-dir", str(tmp_path / out)]
    return main(argv)


@pytest.fixture
def forest_cache(tmp_path):
    seed_cache(tmp_path / "cache", pairs_to_raw_blocks(forest_pairs(), start=1))
    return tmp_path


@pytest.fixture
def star_cache(tmp_path):
    seed_cache(tmp_path / "cache", pairs_to_raw_blocks(star_pairs(), start=1, num_blocks=1))
    return tmp_path


class TestFetch:
    def test_warm_cache_zero_fetched(self, forest_cache, capsys):
        assert run(["fetch", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        assert "0 fetched, 3 cache hits" in capsys.readouterr().out

    def test_cold_fetch_counts(self, tmp_path, capsys, monkeypatch):
        blocks = {n: raw_block(n, [raw_tx(n, addr(n), addr(n + 1))]) for n in range(10, 20)}
        endpoint = MockEndpoint(blocks)
        monkeypatch.setattr("chaingraph.cli._endpoint", lambda cfg: endpoint)
        argv = ["fetch", "--start-block", "10", "--num-blocks", "10",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "10 fetched, 0 cache hits" in capsys.readouterr().out
        # The first write made the missing cache directory.
        assert len(list((tmp_path / "cache").iterdir())) == 10

    def test_resume_fetches_only_gap(self, tmp_path, capsys, monkeypatch):
        blocks = {n: raw_block(n, []) for n in range(10, 13)}
        seed_cache(tmp_path / "cache", {11: blocks[11]})
        endpoint = MockEndpoint(blocks)
        monkeypatch.setattr("chaingraph.cli._endpoint", lambda cfg: endpoint)
        argv = ["fetch", "--start-block", "10", "--num-blocks", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert sorted(endpoint.block_calls()) == [10, 12]
        assert "2 fetched, 1 cache hits" in capsys.readouterr().out

    def test_old_entries_refetched(self, tmp_path, capsys, monkeypatch):
        # One online fetch over a range is the migration: an entry of an
        # old format counts as a miss, and its rewrite is what a fresh
        # fetch stores.
        raw_blocks = pairs_to_raw_blocks(forest_pairs(), start=1)
        write_old_cache(tmp_path / "cache", raw_blocks, {1: 4, 2: 3, 3: 4})
        endpoint = MockEndpoint(raw_blocks)
        monkeypatch.setattr("chaingraph.cli._endpoint", lambda cfg: endpoint)
        argv = ["fetch", "--start-block", "1", "--num-blocks", "3",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "3 fetched, 0 cache hits" in capsys.readouterr().out
        seed_cache(tmp_path / "fresh", raw_blocks)
        entries = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
        assert entries == {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}

    def test_rpc_url_builds_endpoint(self):
        argv = ["fetch", "--start-block", "1", "--rpc-url", "http://localhost:1"]
        cfg = _config_from_args(build_parser().parse_args(argv))
        endpoint = cli._endpoint(cfg)
        assert isinstance(endpoint, JsonRpcEndpoint) and endpoint.url == "http://localhost:1"
        cfg.offline = True
        assert cli._endpoint(cfg) is None

    def test_offline_miss_fails(self, tmp_path, capsys):
        assert run(["fetch", "--start-block", "5", "--num-blocks", "1"], tmp_path) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags,hint,old", [
        ("analyze", [], "no --rpc-url or $CHAINGRAPH_RPC_URL is set", False),
        ("analyze", ["--offline"], "--offline is on", False),
        ("snapshots", [], "no --rpc-url or $CHAINGRAPH_RPC_URL is set", False),
        ("snapshots", ["--offline"], "--offline is on", False),
        ("analyze", [], "no --rpc-url or $CHAINGRAPH_RPC_URL is set", True),
        ("snapshots", ["--offline"], "--offline is on", True),
    ], ids=["no-endpoint", "offline", "snapshots-no-endpoint", "snapshots-offline",
            "format-4-no-endpoint", "snapshots-format-4-offline"])
    def test_miss_without_endpoint_says_why(self, tmp_path, capsys, monkeypatch, command,
                                            flags, hint, old):
        # A miss, or an entry of an old format, which is refused rather
        # than refetched when there is no endpoint.
        monkeypatch.delenv("CHAINGRAPH_RPC_URL", raising=False)
        cache = BlockCache(tmp_path / "cache")
        if old:
            write_old_cache(cache.directory, pairs_to_raw_blocks(forest_pairs(), start=1,
                                                                 num_blocks=2), {1: 4, 2: 4})
        ranges = {"analyze": ["--start-block", "1"],
                  "snapshots": ["--snapshot", "1:1", "--snapshot", "2:1"]}[command]
        argv = [command, *ranges, "--cache-dir", str(tmp_path / "cache"),
                "--out-dir", str(tmp_path / "out")] + flags
        assert main(argv) == 1
        why = {n: (f"{cache.path(n)}: unknown format 'chaingraph-block/4'" if old else
                   f"block {n} not in cache and no RPC endpoint to fetch it from")
               for n in (1, 2)}
        expected = {"analyze": [f"error: {why[1]} ({hint})"],
                    "snapshots": [f"snapshot {n}:1 failed: {why[n]} ({hint})"
                                  for n in (1, 2)]}[command]
        assert capsys.readouterr().err.splitlines() == expected
        # A command that only reads writes nothing: a mistyped --cache-dir
        # is not made.
        assert cache.directory.exists() == old

    def test_non_object_reply_reported(self, tmp_path, capsys, monkeypatch):
        endpoint = stub_endpoint("<html>502 Bad Gateway</html>")
        monkeypatch.setattr("chaingraph.cli._endpoint", lambda cfg: endpoint)
        monkeypatch.setattr("chaingraph.ingest.time.sleep", lambda seconds: None)
        argv = ["fetch", "--start-block", "1", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eth_getBlockByNumber failed") and "Traceback" not in err

    def test_offline_corrupt_entry_named(self, forest_cache, capsys):
        path = forest_cache / "cache" / "000000000002.json"
        path.write_bytes(path.read_bytes()[:-2] + b"\n")
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "not in cache" not in err


class TestAnalyze:
    def test_forest_fixture_metrics_row(self, forest_cache):
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        out = forest_cache / "out"
        body = strip_header(out / "metrics.csv")
        assert body[0].startswith("blocks,nodes,edges,avg_clus_coeff")
        assert body[1] == "3,55,40,0.0,0.0,15,19,18"
        assert (out / "degree.csv").exists()
        assert (out / "degree_loglog.csv").exists()
        assert (out / "degree_weighted.csv").exists()
        assert (out / "graph.net").exists()
        dist = strip_header(out / "distances.csv")
        assert dist[1].split(",")[0] == "19"

    def test_empty_range_rejected(self, forest_cache, capsys):
        assert run(["analyze", "--start-block", "1", "--num-blocks", "0"], forest_cache) == 1
        assert "error" in capsys.readouterr().err

    def test_no_range_rejected(self, forest_cache, capsys):
        assert run(["analyze"], forest_cache) == 1
        assert "error" in capsys.readouterr().err

    def test_byte_identical_reruns(self, forest_cache):
        args = ["analyze", "--start-block", "1", "--num-blocks", "3", "--seed", "5"]
        assert run(args, forest_cache, out="out1") == 0
        assert run(args, forest_cache, out="out2") == 0
        for name in ("metrics.csv", "degree.csv", "degree_loglog.csv",
                     "degree_weighted.csv", "distances.csv", "graph.net"):
            a = (forest_cache / "out1" / name).read_bytes()
            b = (forest_cache / "out2" / name).read_bytes()
            assert a == b, name

    def test_pajek_file_has_provenance_header(self, forest_cache):
        run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache)
        first = (forest_cache / "out" / "graph.net").read_text().splitlines()[0]
        assert first.startswith("% chaingraph")

    def test_pretty_prints_table(self, forest_cache, capsys):
        run(["analyze", "--start-block", "1", "--num-blocks", "3", "--pretty"],
            forest_cache)
        out = capsys.readouterr().out
        assert "nodes" in out and "55" in out


class TestSmallworld:
    def test_star_row(self, star_cache):
        args = ["smallworld", "--start-block", "1", "--num-blocks", "1",
                "--trials", "20", "--seed", "1"]
        assert run(args, star_cache) == 0
        body = strip_header(star_cache / "out" / "smallworld.csv")
        assert body[0] == "blocks,nodes,edges,cc,L,cc_RG,L_RG,sigma,trials,seed"
        fields = body[1].split(",")
        assert fields[1] == "19" and fields[2] == "18"
        assert float(fields[3]) == 0.0
        assert float(fields[4]) == pytest.approx(324 / 171)
        assert float(fields[7]) == 0.0

    def test_seeded_repeat_identical(self, star_cache):
        args = ["smallworld", "--start-block", "1", "--num-blocks", "1",
                "--trials", "5", "--seed", "7"]
        assert run(args, star_cache, out="o1") == 0
        assert run(args, star_cache, out="o2") == 0
        assert (star_cache / "o1" / "smallworld.csv").read_bytes() == \
               (star_cache / "o2" / "smallworld.csv").read_bytes()


class TestSnapshots:
    def test_two_snapshots_two_rows(self, forest_cache):
        args = ["snapshots", "--snapshot", "1:1", "--snapshot", "2:2"]
        assert run(args, forest_cache) == 0
        body = strip_header(forest_cache / "out" / "snapshots.csv")
        assert body[0] == ("start_block,num_blocks,nodes,nodes_main,edges,"
                           "edges_main,components,avg_distance,avg_clus_coeff,"
                           "transitivity,diameter,l_method,diameter_method,"
                           "sample_sources,seed,first_timestamp,last_timestamp")
        assert len(body) == 3

    def test_single_snapshot_rejected(self, forest_cache, capsys):
        assert run(["snapshots", "--snapshot", "1:1"], forest_cache) == 1
        assert "at least two" in capsys.readouterr().err

    def test_failed_snapshot_reported_run_continues(self, forest_cache, capsys):
        args = ["snapshots", "--snapshot", "1:3", "--snapshot", "900:1"]
        assert run(args, forest_cache) == 0
        assert "900:1 failed" in capsys.readouterr().err
        body = strip_header(forest_cache / "out" / "snapshots.csv")
        assert len(body) == 2  # header + the snapshot that worked

    # analyze's headers, by the snapshots.csv column each one repeats.
    ANALYZE_COLUMNS = {
        "metrics.csv": {"blocks": "num_blocks", "nodes": "nodes", "edges": "edges",
                        "avg_clus_coeff": "avg_clus_coeff", "transitivity": "transitivity",
                        "components": "components", "nodes_largest_comp": "nodes_main",
                        "edges_largest_comp": "edges_main"},
        "distances.csv": {"nodes_main_comp": "nodes_main", "avg_distance": "avg_distance",
                          "diameter": "diameter", "l_method": "l_method",
                          "diameter_method": "diameter_method",
                          "sample_sources": "sample_sources", "seed": "seed"},
    }

    @staticmethod
    def table(path):
        """A one-row-per-range table as (header, rows): an int cell as an
        int, another number as its float.hex, any other cell as text."""
        def cell(text):
            for parse in (int, lambda t: float(t).hex()):
                try:
                    return parse(text)
                except ValueError:
                    pass
            return text

        header, *rows = (line.split(",") for line in strip_header(path))
        return header, [[cell(text) for text in row] for row in rows]

    @pytest.mark.parametrize("policy", [[], ["--exact-threshold", "1", "--sample-sources", "3"]],
                             ids=["default", "sampled"])
    @pytest.mark.parametrize("fixture,specs", [("forest", ["1:1", "2:2", "1:3"]),
                                               ("star", ["1:1", "1:1"]),
                                               ("mixed", ["1:1", "1:3"])],
                             ids=["forest", "star", "mixed"])
    def test_rows_are_the_analyze_record(self, tmp_path, fixture, specs, policy):
        # Each row holds, under snapshots.csv's names, the values analyze
        # writes for the same range: both come from one record. Only the
        # mixed fixture closes triangles.
        make_pairs, count = {"forest": (forest_pairs, 3), "star": (star_pairs, 1),
                             "mixed": (TestPinnedOutputs.mixed_pairs, 3)}[fixture]
        seed_cache(tmp_path / "cache",
                   pairs_to_raw_blocks(make_pairs(), start=1, num_blocks=count))
        argv = ["snapshots"] + [arg for spec in specs for arg in ("--snapshot", spec)]
        assert run(argv + policy, tmp_path) == 0
        header, rows = self.table(tmp_path / "out" / "snapshots.csv")
        assert len(rows) == len(specs)
        for spec, row in zip(specs, rows):
            start, num = spec.split(":")
            out = f"analyze-{start}-{num}"
            argv = ["analyze", "--start-block", start, "--num-blocks", num]
            assert run(argv + policy, tmp_path, out=out) == 0
            snapshot = dict(zip(header, row))
            assert (snapshot["start_block"], snapshot["num_blocks"]) == (int(start), int(num))
            covered = {"start_block", "first_timestamp", "last_timestamp"}
            for name, columns in self.ANALYZE_COLUMNS.items():
                analyze_header, [analyze_row] = self.table(tmp_path / out / name)
                assert analyze_header == list(columns)
                assert [snapshot[columns[h]] for h in analyze_header] == analyze_row, name
                covered.update(columns.values())
            assert covered == set(header)

    def test_timestamps_are_the_header_timestamps(self, tmp_path):
        raw_blocks = pairs_to_raw_blocks(forest_pairs(), start=1, num_blocks=3)
        for number, raw in raw_blocks.items():
            raw["timestamp"] = hex(1_600_000_000 + 13 * number * number)
        seed_cache(tmp_path / "cache", raw_blocks)
        args = ["snapshots", "--snapshot", "1:3", "--snapshot", "2:1", "--snapshot", "1:2"]
        assert run(args, tmp_path) == 0
        header, *rows = strip_header(tmp_path / "out" / "snapshots.csv")
        assert header.endswith(",first_timestamp,last_timestamp")
        stamp = {n: parse_block_json(raw).timestamp for n, raw in raw_blocks.items()}
        assert [row.split(",")[-2:] for row in rows] == [
            [str(stamp[1]), str(stamp[3])], [str(stamp[2])] * 2, [str(stamp[1]), str(stamp[2])]]

    def test_every_snapshot_failed_writes_nothing(self, forest_cache, capsys):
        args = ["snapshots", "--snapshot", "900:1", "--snapshot", "901:2"]
        assert run(args, forest_cache) == 1
        err = capsys.readouterr().err
        assert "900:1 failed" in err and "901:2 failed" in err
        assert not (forest_cache / "out").exists()


class TestDegenerateRanges:
    """Block 1 holds only a self-transfer (one node, no edge); block 2 holds
    no transaction (no node)."""

    @pytest.fixture
    def degenerate_cache(self, tmp_path):
        seed_cache(tmp_path / "cache", {1: raw_block(1, [raw_tx(1, addr(1), addr(1))]),
                                        2: raw_block(2, [])})
        return tmp_path

    @pytest.mark.parametrize("block,row", [(1, "1,0.0,0,exact,exact,-,-"),
                                           (2, "0,0.0,0,exact,exact,-,-")])
    def test_analyze_distances(self, degenerate_cache, block, row):
        assert run(["analyze", "--start-block", str(block)], degenerate_cache) == 0
        assert strip_header(degenerate_cache / "out" / "distances.csv")[1:] == [row]

    def test_snapshots_rows(self, degenerate_cache):
        args = ["snapshots", "--snapshot", "1:1", "--snapshot", "2:1"]
        assert run(args, degenerate_cache) == 0
        body = strip_header(degenerate_cache / "out" / "snapshots.csv")
        new = "0.0,0.0,0,exact,exact,-,-,1500000000,1500000000"
        assert body[1:] == [f"1,1,1,1,0,0,1,0.0,{new}", f"2,1,0,0,0,0,0,0.0,{new}"]

    @pytest.mark.parametrize("block", [1, 2])
    def test_smallworld_refused(self, degenerate_cache, capsys, block):
        assert run(["smallworld", "--start-block", str(block)], degenerate_cache) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: block range {block}:1 has no edge to compare"]
        assert not (degenerate_cache / "out").exists()


@pytest.mark.parametrize("args", [
    ["analyze", "--start-block", "1", "--num-blocks", "3"],
    ["smallworld", "--start-block", "1", "--num-blocks", "3"],
    ["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"],
])
def test_zero_sample_sources_refused_before_any_output(forest_cache, capsys, args):
    assert run(args + ["--exact-threshold", "5", "--sample-sources", "0"], forest_cache) == 1
    assert capsys.readouterr().err.splitlines() == ["error: sample_sources must be >= 1, got 0"]
    assert not (forest_cache / "out").exists()


@pytest.mark.parametrize("args", [
    ["analyze", "--start-block", "1", "--num-blocks", "3"],
    ["smallworld", "--start-block", "1", "--num-blocks", "3"],
])
def test_negative_seed_refused_before_any_output(forest_cache, capsys, args):
    # random.Random(-1) is Random(1): --seed -1 would repeat --seed 1's draws.
    assert run(args + ["--seed", "-1"], forest_cache) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not (forest_cache / "out").exists()


@pytest.mark.parametrize("args", [
    ["analyze", "--start-block", "1", "--num-blocks", "3"],
    ["smallworld", "--start-block", "1", "--num-blocks", "3"],
    ["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"],
])
def test_negative_exact_threshold_refused_before_any_output(forest_cache, capsys, args):
    # Every non-empty graph is above a negative threshold, as it is above
    # 0: -5 would write 0's sampled rows under another config hash.
    assert run(args + ["--exact-threshold", "-5"], forest_cache) == 1
    assert capsys.readouterr().err.splitlines() == ["error: exact_threshold must be >= 0, got -5"]
    assert not (forest_cache / "out").exists()


def test_zero_trials_refused_before_loading(tmp_path, capsys):
    (tmp_path / "cache").mkdir()
    assert run(["smallworld", "--start-block", "1", "--trials", "0"], tmp_path) == 1
    assert capsys.readouterr().err.splitlines() == ["error: trials must be >= 1, got 0"]
    assert not (tmp_path / "out").exists()


class TestMiners:
    def test_outputs(self, tmp_path, capsys):
        # Two miners, the first block's miner after the second's in address
        # order: both files are sorted by their first column, and --pretty
        # prints the histogram's rows.
        miners = [addr(0xB), addr(0xA), addr(0xB)]
        seed_cache(tmp_path / "cache", {n: raw_block(n, [], miner=m)
                                        for n, m in enumerate(miners, start=1)})
        argv = ["miners", "--start-block", "1", "--num-blocks", "3", "--pretty"]
        assert run(argv, tmp_path) == 0
        out = tmp_path / "out"
        assert strip_header(out / "miners.csv") == [
            "miner,blocks", f"{addr(0xA)},1", f"{addr(0xB)},2"]
        assert strip_header(out / "miner_histogram.csv") == [
            "blocks_mined,num_miners", "1,1", "2,1"]
        assert capsys.readouterr().out.split() == ["blocks_mined", "num_miners",
                                                   "1", "1", "2", "1"]


class TestExport:
    def test_pajek(self, star_cache):
        args = ["export", "--start-block", "1", "--num-blocks", "1", "--format", "pajek"]
        assert run(args, star_cache) == 0
        text = (star_cache / "out" / "graph.net").read_text()
        assert "*Vertices 19" in text

    def test_edge_csv(self, star_cache):
        args = ["export", "--start-block", "1", "--num-blocks", "1", "--format", "csv"]
        assert run(args, star_cache) == 0
        body = strip_header(star_cache / "out" / "edges.csv")
        assert body[0] == "src,dst,weight"
        assert len(body) == 19


class TestGraphReleased:
    """Each range's weighted TransactionGraph is read by the degree and Pajek
    outputs only, then dropped with its account labels before the projection
    is built, so neither the projection nor any metric runs while it is held."""

    @pytest.fixture
    def alive_at_distances(self, monkeypatch):
        graphs = []
        alive = []
        build_graph = cli.build_graph

        def watched_build_graph(blocks):
            g = build_graph(blocks)
            graphs.append(weakref.ref(g))
            return g

        def watched(fn):
            def call(g, *args, **kwargs):
                alive.append([ref() is not None for ref in graphs])
                return fn(g, *args, **kwargs)
            return call

        monkeypatch.setattr(cli, "build_graph", watched_build_graph)
        monkeypatch.setattr(cli, "distance_summary", watched(cli.distance_summary))
        monkeypatch.setattr(cli, "small_world_report", watched(cli.small_world_report))
        return alive

    def test_analyze(self, forest_cache, alive_at_distances):
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        assert alive_at_distances == [[False]]

    def test_snapshots(self, forest_cache, alive_at_distances):
        args = ["snapshots", "--snapshot", "1:1", "--snapshot", "2:2"]
        assert run(args, forest_cache) == 0
        assert alive_at_distances == [[False], [False, False]]

    def test_smallworld(self, star_cache, alive_at_distances):
        args = ["smallworld", "--start-block", "1", "--num-blocks", "1", "--trials", "2"]
        assert run(args, star_cache) == 0
        assert alive_at_distances == [[False]]

    @pytest.fixture
    def events(self, monkeypatch):
        """The calls, in order, of the weighted graph's outputs and of the
        projection; at each projection, whether each TransactionGraph from
        build_graph, and each of their label lists, is still alive."""
        # A list takes no weak reference, so each graph's labels are
        # swapped for a list subclass that does.
        class Labels(list):
            pass

        refs = []
        events = []
        build_graph = cli.build_graph
        project_simple = cli.project_simple

        def watched_build_graph(blocks):
            g = build_graph(blocks)
            g.labels = Labels(g.labels)
            refs.extend((weakref.ref(g), weakref.ref(g.labels)))
            return g

        def watched_project_simple(*args):
            events.append(("project_simple", [ref() is not None for ref in refs]))
            return project_simple(*args)

        def called(name):
            fn = getattr(cli, name)

            def call(*args):
                events.append(name)
                return fn(*args)
            monkeypatch.setattr(cli, name, call)

        monkeypatch.setattr(cli, "build_graph", watched_build_graph)
        monkeypatch.setattr(cli, "project_simple", watched_project_simple)
        called("degree_distribution")
        called("export_pajek")
        return events

    def test_analyze_projects_after_outputs_without_labels(self, forest_cache, events,
                                                           monkeypatch):
        # On one CPU the outputs run in this process, before the projection.
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 1)
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        assert events == ["degree_distribution", "export_pajek",
                          ("project_simple", [False, False])]

    def test_forked_writer_leaves_no_graph_here(self, forest_cache, events, monkeypatch):
        # With two CPUs the outputs run in the forked writer, and this
        # process projects without the graph or its labels.
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        assert events == [("project_simple", [False, False])]
        assert (forest_cache / "out" / "graph.net").is_file()

    def test_snapshots_project_without_labels(self, forest_cache, events):
        args = ["snapshots", "--snapshot", "1:1", "--snapshot", "2:2"]
        assert run(args, forest_cache) == 0
        assert events == [("project_simple", [False, False]),
                          ("project_simple", [False, False, False, False])]

    def test_smallworld_projects_without_labels(self, star_cache, events):
        args = ["smallworld", "--start-block", "1", "--num-blocks", "1", "--trials", "2"]
        assert run(args, star_cache) == 0
        assert events == [("project_simple", [False, False])]

    @pytest.mark.parametrize("args", [
        ["analyze", "--start-block", "1", "--num-blocks", "3"],
        ["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"],
    ], ids=["analyze", "snapshots"])
    def test_timestamp_tap_keeps_no_block(self, forest_cache, monkeypatch, args):
        # A BlockRecord is a tuple and takes no weak reference, so each
        # block's sender column is swapped for a list that does: the
        # column lives as long as its block.
        class Column(list):
            pass

        columns = []
        alive = []
        load_blocks, build_graph = cli._load_blocks, cli.build_graph

        def watched_load_blocks(cfg, spec, on_block=None):
            for block in load_blocks(cfg, spec, on_block):
                senders = Column(block.senders)
                columns.append(weakref.ref(senders))
                yield block._replace(senders=senders)

        def watched_build_graph(blocks):
            g = build_graph(blocks)
            alive.append([ref() is not None for ref in columns])
            return g

        monkeypatch.setattr(cli, "_load_blocks", watched_load_blocks)
        monkeypatch.setattr(cli, "build_graph", watched_build_graph)
        assert run(args, forest_cache) == 0
        assert alive and all(refs and not any(refs) for refs in alive)

    def test_snapshots_drop_each_range_before_the_next(self, forest_cache, monkeypatch):
        projections = []
        alive = []
        build_graph, project_simple = cli.build_graph, cli.project_simple

        def watched_build_graph(blocks):
            alive.append([ref() is not None for ref in projections])
            return build_graph(blocks)

        def watched_project_simple(n, edges):
            simple = project_simple(n, edges)
            projections.append(weakref.ref(simple))
            return simple

        monkeypatch.setattr(cli, "build_graph", watched_build_graph)
        monkeypatch.setattr(cli, "project_simple", watched_project_simple)
        args = ["snapshots", "--snapshot", "1:1", "--snapshot", "2:2", "--snapshot", "1:3"]
        assert run(args, forest_cache) == 0
        assert alive == [[], [False], [False, False]]


class TestWriter:
    """analyze writes the weighted graph's outputs in a forked writer where
    it may use two CPUs; a failed writer fails the command as a failed
    output would in process, and leaves no process behind."""

    ARGS = ["analyze", "--start-block", "1", "--num-blocks", "3"]

    @staticmethod
    def no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return True

    def test_failed_output_same_error_in_writer_and_here(self, forest_cache, monkeypatch,
                                                         capsys):
        errors = []
        for processes in (1, 2):
            monkeypatch.setattr(metrics, "_usable_cpus", lambda: processes)
            out = forest_cache / f"out{processes}"
            (out / "graph.net").mkdir(parents=True)
            assert run(self.ARGS, forest_cache, out=out.name) == 1
            errors.append(capsys.readouterr().err)
            assert not (out / "metrics.csv").exists()
            assert not (out / "distances.csv").exists()
            assert self.no_child_left()
        here, forked = errors
        assert here.startswith("error: [Errno 21] Is a directory: ")
        assert forked == here.replace("out1", "out2")

    @pytest.mark.parametrize("end,why", [
        (lambda: os._exit(7), "the writer exited with status 7"),
        (lambda: os.kill(os.getpid(), 9), "the writer was killed by signal 9"),
    ], ids=["exit", "signal"])
    def test_writer_that_ends_without_an_error(self, forest_cache, monkeypatch, capsys,
                                               end, why):
        caller = os.getpid()
        export_pajek = cli.export_pajek

        def ends_in_writer(g, sink):
            if os.getpid() != caller:
                end()
            export_pajek(g, sink)

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "export_pajek", ends_in_writer)
        assert run(self.ARGS, forest_cache) == 1
        assert capsys.readouterr().err == f"error: graph outputs: {why}\n"
        assert not (forest_cache / "out" / "metrics.csv").exists()
        assert not (forest_cache / "out" / "distances.csv").exists()
        assert self.no_child_left()

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("error", [TypeError, KeyboardInterrupt], ids=["bug", "interrupt"])
    def test_failure_here_is_raised_over_the_writers(self, forest_cache, monkeypatch, capsys,
                                                     error, processes):
        # A forked writer fails too, as on Ctrl-C, whose SIGINT reaches it
        # as well: it is reaped, and this process's own failure comes
        # through, as it does with the outputs written here.
        caller = os.getpid()
        export_pajek = cli.export_pajek

        def interrupted_in_writer(g, sink):
            if os.getpid() != caller:
                raise KeyboardInterrupt
            export_pajek(g, sink)

        def fails(*args, **kwargs):
            raise error("raised here")

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: processes)
        monkeypatch.setattr(cli, "export_pajek", interrupted_in_writer)
        monkeypatch.setattr(cli, "distance_summary", fails)
        with pytest.raises(error, match="raised here"):
            run(self.ARGS, forest_cache)
        assert capsys.readouterr().err == ""
        assert not (forest_cache / "out" / "metrics.csv").exists()
        assert self.no_child_left()

    def test_only_weighted_outputs_fork_a_writer(self, forest_cache, monkeypatch):
        # With every fork map in process, snapshots and smallworld fork
        # nothing, having no weighted outputs to write; analyze forks its
        # writer, once.
        def in_process(task, count):
            return [task(i) for i in range(count)]

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(metrics, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(metrics, "_fork_map", in_process)
        monkeypatch.setattr(baseline, "_fork_map", in_process)
        fork = os.fork
        monkeypatch.setattr(os, "fork", no_fork)
        assert run(["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"], forest_cache) == 0
        args = ["smallworld", "--start-block", "1", "--num-blocks", "3", "--trials", "3"]
        assert run(args, forest_cache) == 0
        forks = []

        def logged_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        assert run(self.ARGS, forest_cache) == 0
        assert forks == [os.getpid()]
        assert self.no_child_left()

    def test_writer_outputs_match_in_process(self, forest_cache, monkeypatch):
        for processes in (1, 2):
            monkeypatch.setattr(metrics, "_usable_cpus", lambda: processes)
            assert run(self.ARGS, forest_cache, out=f"out{processes}") == 0
            assert self.no_child_left()
        files = sorted(path.name for path in (forest_cache / "out1").iterdir())
        assert files == sorted(path.name for path in (forest_cache / "out2").iterdir())
        for name in files:
            assert (forest_cache / "out2" / name).read_bytes() == \
                (forest_cache / "out1" / name).read_bytes()


@pytest.mark.parametrize("args", [
    ["analyze", "--start-block", "1", "--num-blocks", "3"],
    ["analyze", "--start-block", "1", "--num-blocks", "3", "--exact-threshold", "10",
     "--sample-sources", "5"],
    ["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"],
    ["smallworld", "--start-block", "1", "--num-blocks", "3", "--trials", "3"],
], ids=["analyze-exact", "analyze-sampled", "snapshots", "smallworld"])
def test_main_component_never_copied(forest_cache, monkeypatch, args):
    # Distances, and the small-world subject's clustering, run on the main
    # component in place.
    sizes = []
    subgraph = SimpleGraph.subgraph

    def counted(self, node_indices):
        sizes.append(len(node_indices))
        return subgraph(self, node_indices)

    monkeypatch.setattr(SimpleGraph, "subgraph", counted)
    assert run(args, forest_cache) == 0
    assert sizes == []


def test_offline_commands_never_load_http_stack(forest_cache):
    # A fresh interpreter: the test process itself has imported requests.
    # Offline runs and a warm online run load neither the HTTP stack nor
    # the fetch pool; a miss, served by a local JSON-RPC server, loads both.
    script = textwrap.dedent("""
        import json
        import sys
        import chaingraph
        import chaingraph.cli

        cache, out, missing = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
        lazy = ("concurrent.futures", "requests", "urllib3")
        blocks = ["--start-block", "1", "--num-blocks", "3"]
        for argv in (["analyze", *blocks], ["smallworld", *blocks, "--trials", "2"],
                     ["snapshots", "--snapshot", "1:1", "--snapshot", "1:3"],
                     ["miners", *blocks], ["export", *blocks],
                     ["export", *blocks, "--format", "pajek"]):
            argv += ["--cache-dir", cache, "--offline", "--out-dir", out]
            assert chaingraph.cli.main(argv) == 0, argv
        print(sorted(name for name in lazy if name in sys.modules))
        argv = ["miners", *blocks, "--cache-dir", cache, "--out-dir", out,
                "--rpc-url", "http://localhost:1"]
        assert chaingraph.cli.main(argv) == 0
        chaingraph.JsonRpcEndpoint("http://localhost:1")
        print(sorted(name for name in lazy if name in sys.modules))

        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        class Rpc(BaseHTTPRequestHandler):
            def do_POST(self):
                request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                body = json.dumps({"jsonrpc": "2.0", "id": request["id"],
                                   "result": missing}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Rpc)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        argv = ["fetch", "--start-block", "1", "--num-blocks", "4", "--cache-dir", cache,
                "--rpc-url", f"http://127.0.0.1:{server.server_port}"]
        assert chaingraph.cli.main(argv) == 0
        server.shutdown()
        print(sorted(name for name in lazy if name in sys.modules))
    """)
    root = Path(__file__).resolve().parent.parent
    missing = raw_block(4, [raw_tx(4000, addr(1), addr(2))])
    proc = subprocess.run(
        [sys.executable, "-c", script, str(forest_cache / "cache"), str(forest_cache / "out"),
         json.dumps(missing)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, NO_PROXY="*", PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "[]", "[]", "1 fetched, 3 cache hits", "['concurrent.futures', 'requests', 'urllib3']"]


def traced_run(cache_root, argv):
    """Run the CLI under the benchmark's tracer; its counts, firsts and
    calls per span. A fresh interpreter, since install() rebinds names in
    every chaingraph module. It may use one CPU, so the G(n,m) trials run
    in it and its tracer sees every call: a forked worker's spans are not
    reported."""
    script = textwrap.dedent("""
        import json
        import os
        import sys
        import chaingraph
        import chaingraph.cli
        import tracing

        os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])
        tracer = tracing.Tracer()
        tracing.install(tracer)
        rc = chaingraph.cli.main(sys.argv[1:])
        calls = {name: row["calls"] for name, row in tracer.summary().items()}
        print(json.dumps({"rc": rc, "counts": tracer.counts, "firsts": tracer.firsts,
                          "calls": calls}))
    """)
    root = Path(__file__).resolve().parent.parent
    argv = list(argv) + ["--offline", "--cache-dir", str(cache_root / "cache"),
                         "--out-dir", str(cache_root / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    return result


# The benchmark's tracer wraps library functions by name; a rename must
# fail here, not only in a traced benchmark run.

def test_traced_analyze_counts_the_fixture(forest_cache):
    result = traced_run(forest_cache, [
        "analyze", "--exact-threshold", "1000", "--sample-sources", "32",
        "--start-block", "1", "--num-blocks", "3"])
    assert result["counts"]["ingest.cache_hits"] == 3
    assert "ingest.cache_misses" not in result["counts"]
    assert result["firsts"] == {"graph.nodes": 55, "graph.edges": 40}
    for name in ("ingest.fetch_range", "graph.build_graph", "metrics.distance_summary"):
        assert result["calls"][name] == 1, name
    assert result["calls"]["ingest.cache_get"] == 3
    # Distances run on the main component in place, without a copy.
    assert result["calls"]["metrics.largest_component"] == 0
    assert result["calls"]["graph.subgraph"] == 0
    assert strip_header(forest_cache / "out" / "distances.csv")[1].split(",")[0] == "19"


def test_traced_sampled_analyze_sweeps_with_two_bfs(forest_cache):
    # Above the threshold, the diameter's double sweep is two plain BFS,
    # run here on the one CPU, where the bench's counter sees them.
    result = traced_run(forest_cache, [
        "analyze", "--exact-threshold", "10", "--sample-sources", "5",
        "--start-block", "1", "--num-blocks", "3"])
    assert result["counts"]["metrics.bfs_sources"] == 2
    row = strip_header(forest_cache / "out" / "distances.csv")[1].split(",")
    assert (row[0], row[4], row[5]) == ("19", "lower_bound", "5")


def test_traced_smallworld_counts_the_subject(star_cache):
    # The subject is read in place: its components are labelled once, with
    # the projection's, and then once per G(n,m) trial; nothing is copied.
    result = traced_run(star_cache, [
        "smallworld", "--trials", "3", "--start-block", "1", "--num-blocks", "1"])
    assert result["firsts"] == {"graph.nodes": 19, "graph.edges": 18}
    assert result["calls"]["baseline.small_world_report"] == 1
    assert result["calls"]["metrics.connected_components"] == 1 + 3
    assert result["calls"]["metrics.largest_component"] == 0
    assert result["calls"]["graph.subgraph"] == 0
    assert result["calls"]["baseline.gnm_random_graph"] == 3
    assert result["calls"]["metrics.distance_summary"] == 4


class TestCliSurface:
    # Every output header carries the config hash, so a change to the
    # parser must leave these values as they are.
    @pytest.mark.parametrize("argv,expected", [
        (["analyze", "--start-block", "1", "--num-blocks", "3"], "ba38b995e72fca0a"),
        (["analyze", "--start-block", "1", "--num-blocks", "3", "--seed", "5"],
         "14c0a325759e477d"),
        (["smallworld", "--start-block", "1", "--num-blocks", "1", "--trials", "20",
          "--seed", "1"], "50c50940497c3e3d"),
        (["smallworld", "--start-block", "1", "--num-blocks", "1", "--trials", "5",
          "--seed", "7"], "4aee953e73642864"),
        (["snapshots", "--snapshot", "1:1", "--snapshot", "2:2"], "f067348dad63df3d"),
        (["snapshots", "--snapshot", "1:3", "--snapshot", "900:1"], "a73bfaad7dbb7251"),
    ])
    def test_config_hash_pinned(self, argv, expected):
        cfg = _config_from_args(build_parser().parse_args(argv))
        assert cfg.config_hash() == expected

    @pytest.mark.parametrize("argv", [
        ["analyze", "--start-block", "1", "--trials", "3"],
        ["miners", "--start-block", "1", "--exact-threshold", "5"],
        ["analyze", "--start-block", "1", "--format", "pretty"],
        ["export", "--start-block", "1", "--format", "pretty"],
        ["snapshots", "--start-block", "1"],
        ["fetch", "--start-block", "1", "--out-dir", "x"],
        ["miners", "--start-block", "1", "--seed", "1"],
        ["export", "--start-block", "1", "--seed", "1"],
    ])
    def test_flag_of_another_command_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "error:" in capsys.readouterr().err


def test_public_names_pinned():
    # The library surface, pinned so that a name is added or dropped on
    # purpose, not as a side effect.
    assert sorted(chaingraph.__all__) == [
        "BlockCache", "BlockRecord", "ComponentSet", "DistanceSummary", "ExactnessPolicy",
        "GnmParams", "JsonRpcEndpoint", "MetricsReport", "SimpleGraph",
        "SmallWorldReport", "SnapshotSpec", "TransactionGraph", "UNDEFINED",
        "average_local_clustering", "build_graph", "connected_components",
        "degree_distribution", "distance_summary", "export_pajek", "fetch_range",
        "general_metrics", "gnm_random_graph", "miner_distribution",
        "parse_block_json", "project_simple", "recipient_nodes", "small_world_report",
        "small_world_sigma",
    ]
    namespace = {}
    exec("from chaingraph import *", namespace)
    for name in chaingraph.__all__:
        assert namespace[name] is getattr(chaingraph, name), name


def test_block_layer_form_pinned():
    # A record's fields and the cache's public methods, pinned like
    # __all__: None in recipients is the only creation marker, and get is
    # the only read.
    assert BlockRecord._fields == ("number", "hash", "timestamp", "miner", "senders",
                                   "recipients", "creation_hashes")
    assert sorted(name for name in vars(BlockCache) if not name.startswith("_")) == [
        "get", "path", "store"]


def test_runtime_imports_only_stdlib_and_requests():
    # The runtime is the standard library plus requests: numpy, scipy and
    # networkx may serve the tests and the benchmark, never the package.
    allowed = set(sys.stdlib_module_names) | {"chaingraph", "requests"}
    imported = set()
    for path in sorted(Path(chaingraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("ingest.py", "requests") in imported
    assert [(name, module) for name, module in sorted(imported)
            if module.partition(".")[0] not in allowed] == []


def test_paper_anchors_script_runs():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "paper_anchors.py"), "--trials", "2"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "nodes=55 (55)" in proc.stdout


class TestAbCommand:
    """scripts/ab_command.py on the forest fixture, one or two pairs."""

    ROOT = Path(__file__).resolve().parent.parent
    SCRIPT = ROOT / "scripts" / "ab_command.py"

    def ab(self, own, command):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), str(self.ROOT), str(self.ROOT), *own, "--",
             *command], capture_output=True, text=True, timeout=120)

    def test_same_tree_byte_identical(self, forest_cache):
        proc = self.ab(["--pairs", "2"], ["analyze", "--start-block", "1", "--num-blocks", "3",
                                          "--cache-dir", str(forest_cache / "cache"),
                                          "--offline"])
        assert proc.returncode == 0, proc.stderr
        assert "change faster in" in proc.stdout
        # Each side's peak memory as a median and a range, and a pair count.
        assert len(re.findall(r"peak RSS [\d,]+ KiB \(min-max [\d,]+-[\d,]+\)",
                              proc.stdout)) == 2
        assert re.search(r"change peak RSS lower in [0-2] of 2 pairs, "
                         r"base peak RSS lower in [0-2]\n", proc.stdout)
        assert "outputs byte-identical: 6 files on every pair" in proc.stdout
        # The CPUs the runs may use, the spin check on both sides of the
        # pairs, and each side's worker peak: analyze forks its writer and
        # workers where it may use more than one CPU.
        cpus = int(re.search(r"^usable CPUs: ([1-9]\d*)$", proc.stdout, re.MULTILINE).group(1))
        for when in ("before", "after"):
            assert re.search(rf"^spin check {when}: one loop alone \d+\.\d{{3}} s, "
                             r"two at once \d+\.\d{3} s and \d+\.\d{3} s$",
                             proc.stdout, re.MULTILINE)
        worker = r"largest worker peak [\d,]+ KiB" if cpus > 1 else "no worker process"
        assert len(re.findall(rf"\), {worker}$", proc.stdout, re.MULTILINE)) == 2

    def test_smallworld_worker_peak(self, star_cache):
        proc = self.ab(["--pairs", "1"], ["smallworld", "--start-block", "1", "--num-blocks",
                                          "1", "--trials", "2", "--cache-dir",
                                          str(star_cache / "cache"), "--offline"])
        assert proc.returncode == 0, proc.stderr
        cpus = int(re.search(r"^usable CPUs: (\d+)$", proc.stdout, re.MULTILINE).group(1))
        worker = r"largest worker peak [\d,]+ KiB" if cpus > 1 else "no worker process"
        assert len(re.findall(rf"\), {worker}$", proc.stdout, re.MULTILINE)) == 2

    def test_caches_of_different_blocks_differ(self, tmp_path):
        seed_cache(tmp_path / "cache_base", pairs_to_raw_blocks(forest_pairs(), start=1))
        seed_cache(tmp_path / "cache_change", pairs_to_raw_blocks(star_pairs(), start=1))
        proc = self.ab(["--pairs", "1"], ["analyze", "--start-block", "1", "--num-blocks", "3",
                                          "--cache-dir", str(tmp_path / "cache_{side}"),
                                          "--offline"])
        assert proc.returncode == 1, proc.stderr
        assert "outputs DIFFER: degree.csv" in proc.stdout

    def load(self):
        spec = importlib.util.spec_from_file_location("ab_command", self.SCRIPT)
        ab_command = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(ab_command)
        return ab_command

    def test_contend_leaves_no_spinner(self, star_cache):
        proc = self.ab(["--pairs", "1", "--contend"], [
            "smallworld", "--start-block", "1", "--num-blocks", "1", "--trials", "2",
            "--cache-dir", str(star_cache / "cache"), "--offline"])
        assert proc.returncode == 0, proc.stderr
        pid = int(re.search(r"^contending: spinner pid (\d+)$", proc.stdout,
                            re.MULTILINE).group(1))
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)

    def test_spinner_killed_and_reaped(self):
        # However the body ends, no child process is left, not even a zombie.
        ab_command = self.load()
        with pytest.raises(KeyError):
            with ab_command.spinner() as pid:
                os.kill(pid, 0)
                raise KeyError("body failed")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairs_below_one_refused_before_any_run(self, monkeypatch, capsys, pairs):
        ab_command = self.load()

        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(ab_command.subprocess, "run", no_process)
        monkeypatch.setattr(sys, "argv", ["ab_command.py", str(self.ROOT), str(self.ROOT),
                                          "--pairs", pairs, "--", "analyze"])
        with pytest.raises(SystemExit) as exit_info:
            ab_command.main()
        assert exit_info.value.code == 2
        assert f"--pairs must be >= 1, got {pairs}" in capsys.readouterr().err


def test_readme_library_snippet_runs():
    # The README's one python block, run on the forest fixture, so a change
    # to a field or signature it uses fails here.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace = {"blocks": forest_blocks()}
    exec(snippet, namespace)
    g, report, sw = namespace["g"], namespace["report"], namespace["sw"]
    assert (report.n, report.m, report.largest_component_nodes) == (55, 40, 19)
    # The in-place distances and small-world row are those of the copy.
    main = largest_component(namespace["simple"])
    assert namespace["dist"] == summary_of(main)
    assert sw == small_world_report(main, connected_components(main), trials=5, seed=42,
                                    policy=ExactnessPolicy(seed=42))
    # The names map back onto the 18 edges of one closed component of g.
    inside = {g.labels.index(account) for account in namespace["main_accounts"]}
    touching = [edge for edge in g.edges if inside & set(edge)]
    assert len(inside) == 19
    assert len(touching) == 18 and all(set(edge) <= inside for edge in touching)
    assert (sw.n, sw.m) == (19, 18)


def test_smallworld_row_is_the_library_row(forest_cache):
    # One --seed seeds both the trials and a sampled subject's sources, as
    # the README's snippet does with ExactnessPolicy(seed=...).
    args = ["smallworld", "--seed", "7", "--trials", "3", "--exact-threshold", "1",
            "--sample-sources", "3", "--start-block", "1", "--num-blocks", "3"]
    assert run(args, forest_cache) == 0
    g = build_graph(forest_blocks())
    simple = project_simple(g.n, g.edges)
    sw = small_world_report(simple, connected_components(simple), 3, 7,
                            ExactnessPolicy(1, 3, 7))
    assert sw.l_method == "sampled"
    row = [3, sw.n, sw.m, sw.cc, sw.avg_distance, sw.cc_rg, sw.l_rg, sw.sigma, sw.trials, sw.seed]
    body = strip_header(forest_cache / "out" / "smallworld.csv")
    assert body[1] == ",".join(map(cli._fmt, row))


class TestPinnedOutputs:
    # sha256 of every output file, headers included. Code that claims to
    # keep the outputs must keep these; they were recorded before the
    # records, projection, subgraph and triangle kernel were rewritten for
    # speed, on the plain set-based versions.
    NUM_BLOCKS = {"star": 1, "forest": 3, "mixed": 3}
    SNAPSHOTS = {"star": ["1:1", "1:1"], "forest": ["1:1", "1:3"], "mixed": ["1:1", "1:3"]}
    COMMANDS = {
        "analyze-exact": ["analyze"],
        "analyze-sampled": ["analyze", "--exact-threshold", "10", "--sample-sources", "5",
                            "--seed", "3"],
        "smallworld": ["smallworld", "--trials", "3", "--seed", "2"],
        "miners": ["miners"],
        "export-csv": ["export", "--format", "csv"],
        "export-pajek": ["export", "--format", "pajek"],
    }
    EXPECTED = {
        "star": {
            "analyze-exact/degree.csv":
                "0ffd4ac00e82f4dd487d3b999eaf5cb243d2e9175d9025ca2f23e18b46ac7f63",
            "analyze-exact/degree_loglog.csv":
                "a8fb35b9df5ece977408867e91aa75fa171e8059f883a6215e296179b8f0e1f0",
            "analyze-exact/degree_weighted.csv":
                "0ffd4ac00e82f4dd487d3b999eaf5cb243d2e9175d9025ca2f23e18b46ac7f63",
            "analyze-exact/distances.csv":
                "5066d0b8f945cefc828c0ccd8bab1f24fe3a032897ccafdad3abfb054936dbdf",
            "analyze-exact/graph.net":
                "7ce2badfd2dfdcb9e091a19ce9b72ada7b1809d86ba9a19431240b158b22c4f2",
            "analyze-exact/metrics.csv":
                "b1e4a1a9abf864811d1cf19236072035c600247deb4e90781ce476c657119fc9",
            "analyze-sampled/degree.csv":
                "3a39fd2fd21a91cb5e7ae06d614b2fac266a74dae731d0ff45d01e7ccb5b4071",
            "analyze-sampled/degree_loglog.csv":
                "46d3ebe02b1cdea9acb447a9312cc17239de06317d5bb18bd03d50b9d28829e6",
            "analyze-sampled/degree_weighted.csv":
                "3a39fd2fd21a91cb5e7ae06d614b2fac266a74dae731d0ff45d01e7ccb5b4071",
            "analyze-sampled/distances.csv":
                "71e5605cc93c5863fc960d55e8352e02bf2405af2eb225772022764e15b39da3",
            "analyze-sampled/graph.net":
                "e863b9f26a1474763f401dee80a219e42f735a1fc010dacd6265105f0d2c1657",
            "analyze-sampled/metrics.csv":
                "6049c815d211b3ee8a52912103e5f7514602679848d1af5e34105bf993d0d4d9",
            "smallworld/smallworld.csv":
                "ac8a59c855cacb397361b3ecd51a5e012b83661c5ea1d95f5554412b8c8c8591",
            "miners/miner_histogram.csv":
                "ce714fe8b81ffb46b86231e2f2559ab57bee9682deafee9e3c69cda4fca8a9ab",
            "miners/miners.csv":
                "c2a85e9a6b2ca14e5d470f6c14753cfbbc16c01926ca08c1d1336bcdabbdf200",
            "export-csv/edges.csv":
                "b37ee3e5df87d5c37e576dab0a0ed366395ae7dd1c0abae063892bbd440ff472",
            "export-pajek/graph.net":
                "cdee791c58d27fe640e13461d2722616c4cf2fa4d3408a08c07fdd1dc529e703",
            "snapshots/snapshots.csv":
                "591d79356451b6c4abf14be8c1f1685354169b630846fb255455c5b05f24d6d9",
        },
        "forest": {
            "analyze-exact/degree.csv":
                "173ebe232e4eaef06ef104db6228c0c0b65a9fcff8e2d9f3d06820843ef3c9fc",
            "analyze-exact/degree_loglog.csv":
                "d713c56ff8f097b94bc2d81abc13e444a122a91957120897aa22e6b31fa93ed8",
            "analyze-exact/degree_weighted.csv":
                "173ebe232e4eaef06ef104db6228c0c0b65a9fcff8e2d9f3d06820843ef3c9fc",
            "analyze-exact/distances.csv":
                "242ff62ca24cef9334461a1b4ba5680643e604264c9330fc4a3b180b14307043",
            "analyze-exact/graph.net":
                "be37168c87cfdc4c3cb4bc260e4ad913dd15eb1b8b3a07cc1c31d3c7eae87e97",
            "analyze-exact/metrics.csv":
                "f6089e7c3b8ded0647d50a761a141bf5407571c0d708a8bffcba04960ca11d37",
            "analyze-sampled/degree.csv":
                "4819845ac12f65d238eec86182f937a0671a3336d30b5c92bb00860f706c5627",
            "analyze-sampled/degree_loglog.csv":
                "cd71c39847d19f8e0a1dffc9d7c9ec5e8b3c83a48d1c02401997a4204c539247",
            "analyze-sampled/degree_weighted.csv":
                "4819845ac12f65d238eec86182f937a0671a3336d30b5c92bb00860f706c5627",
            "analyze-sampled/distances.csv":
                "26c008763d3816e77965320bf60905e542fc6855eeb35c91d0bcc9ec81800610",
            "analyze-sampled/graph.net":
                "f98f807ee0eea8c8ff9b56ae5e6bc8c0e6f61214dd58cc840f2e1acb2a5639fc",
            "analyze-sampled/metrics.csv":
                "5756d64bb397ab9156518a2f3b28a947f2b660f1ff063ee76c457e48e8d6bb97",
            "smallworld/smallworld.csv":
                "bbe56edb3564c7922c31cadb2df08d025ce02fa40c92764996b07947bc56302c",
            "miners/miner_histogram.csv":
                "4c90888fb41a8945c677b28dd45e643b23bd06ea9b2013a3b3ae59d413fcd9b9",
            "miners/miners.csv":
                "8df8b9402855d55a76390e9b4a6f2ec3e0b834708a3151367a035c9413565395",
            "export-csv/edges.csv":
                "2f1c70ccd80c84d4509412001882140724d89d4f8d74d845213ab1fed6aa431b",
            "export-pajek/graph.net":
                "745235acf38da008123697ae29d0b346618d4171fb20887067a88efafe2a3281",
            "snapshots/snapshots.csv":
                "55d1d637efe073b029c925731b72339f68c1ead7bd78c5281bf30837d4cebdb4",
        },
        "mixed": {
            "analyze-exact/degree.csv":
                "932457acb1b5700e162945f442c857b3c8c005372a34519d40ad4024e8ea9e27",
            "analyze-exact/degree_loglog.csv":
                "af6239397528fa1b9113d56feef0a203519aed449fab11749acc76d7e73f0d83",
            "analyze-exact/degree_weighted.csv":
                "df3a47c08884760d5f524da42d9d811eed88fd8fdc172bc1b86ae6726f8a6006",
            "analyze-exact/distances.csv":
                "8608cbc80aece54f620ce148f26383ec9cd733e45be41a76e2c8b7b116e43567",
            "analyze-exact/graph.net":
                "2a9289687b56500b437ad048fbdb3beefa46aa6aeb0373471f7d5a882e984086",
            "analyze-exact/metrics.csv":
                "e91e4899a9c439e25f7a2b4be2c1bf199d0a7154d7d9132274d5e18ab4c011de",
            "analyze-sampled/degree.csv":
                "5eaaa0e59e4a11754ec00789f7fa53416f96fec7d660feec2406a6d46d4e9bce",
            "analyze-sampled/degree_loglog.csv":
                "ba41fbecfcad42cae56958bed0ea4a69da9980f4b05d5b1f909cbfc66996140a",
            "analyze-sampled/degree_weighted.csv":
                "b82ce7ddfaacbbb287b76b3e92c7fecbf2e3d6842ed0e4acb30c89c0033626d1",
            "analyze-sampled/distances.csv":
                "a98a05ca589bfaa7aa5568baac2400cd1d12048bdaea65238d8a0eb7c4126701",
            "analyze-sampled/graph.net":
                "93e9538301a75aae1f1190bc12b5e6548c943ec59c6c786dff972ab2708b0ab1",
            "analyze-sampled/metrics.csv":
                "57c529a2b2e92b8cc25d1e0e2123be38a6f17a48582b0d4c60f8dcf2839b507c",
            "smallworld/smallworld.csv":
                "cae7877743b054ccef34b9bc12a4a24b1a1576dd5d2b0e3f1f77fde32d69fd16",
            "miners/miner_histogram.csv":
                "4c90888fb41a8945c677b28dd45e643b23bd06ea9b2013a3b3ae59d413fcd9b9",
            "miners/miners.csv":
                "8df8b9402855d55a76390e9b4a6f2ec3e0b834708a3151367a035c9413565395",
            "export-csv/edges.csv":
                "e64cd42c838958ccf2f42b0e472ab790af17a1d3b3c6e4aea259f15cacdaa661",
            "export-pajek/graph.net":
                "d495aa9b67f4652b9d5d9098efcaf3058e6e0b213f74972ba4c1b1ba09192812",
            "snapshots/snapshots.csv":
                "1876ce78972cdf345f3dcf442346852db69b4a03dcdb7c0bc30488a05a5b7607",
        },
    }

    @staticmethod
    def mixed_pairs():
        """Triangles next to leaves: a hub joined to a 5-clique, pendant
        leaves and a pendant path, repeats both ways, loops, creations, and
        a second component holding one triangle."""
        hub, clique = addr(0xA0), [addr(0xB0 + i) for i in range(5)]
        pairs = [(hub, c) for c in clique]
        pairs += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
        pairs += [(hub, addr(0xC0 + i)) for i in range(6)]
        pairs += [(clique[0], addr(0xD0)), (addr(0xD0), addr(0xD1)), (addr(0xD2), addr(0xD1))]
        pairs += [(clique[1], hub), (clique[1], hub), (hub, hub), (addr(0xC0), None)]
        tri = [addr(0xE0 + i) for i in range(3)]
        pairs += [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]), (tri[2], addr(0xE3))]
        return pairs

    @classmethod
    def runs(cls, fixture):
        """The argv of each pinned run on ``fixture``, by run name."""
        count = cls.NUM_BLOCKS[fixture]
        runs = {name: argv + ["--start-block", "1", "--num-blocks", str(count)]
                for name, argv in cls.COMMANDS.items()}
        runs["snapshots"] = ["snapshots"] + [
            arg for spec in cls.SNAPSHOTS[fixture] for arg in ("--snapshot", spec)]
        return runs

    def digests(self, fixture, tmp_path, names):
        """The sha256 of each output file of the named runs on ``fixture``."""
        pairs = {"star": star_pairs, "forest": forest_pairs,
                 "mixed": self.mixed_pairs}[fixture]()
        count = self.NUM_BLOCKS[fixture]
        seed_cache(tmp_path / "cache", pairs_to_raw_blocks(pairs, start=1, num_blocks=count))
        digests = {}
        for name, argv in self.runs(fixture).items():
            if name not in names:
                continue
            assert run(argv, tmp_path, out=name) == 0, name
            for path in sorted((tmp_path / name).iterdir()):
                digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        return digests

    @pytest.mark.parametrize("fixture", ["star", "forest", "mixed"])
    def test_output_digests(self, fixture, tmp_path):
        assert self.digests(fixture, tmp_path, [*self.COMMANDS, "snapshots"]) == \
            self.EXPECTED[fixture]

    @pytest.mark.parametrize("processes", [1, 2, 3])
    @pytest.mark.parametrize("fixture", ["star", "forest", "mixed"])
    def test_forking_commands_keep_their_digests(self, fixture, processes, tmp_path,
                                                 monkeypatch):
        # The commands that fork a writer or fork-map workers give the
        # pinned bytes whatever number of CPUs they may use.
        monkeypatch.setattr(metrics, "_usable_cpus", lambda: processes)
        names = ["analyze-exact", "analyze-sampled", "snapshots", "smallworld"]
        assert self.digests(fixture, tmp_path, names) == {
            key: digest for key, digest in self.EXPECTED[fixture].items()
            if key.partition("/")[0] in names}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def write_old_mixed_cache(self, directory, fmt):
        """The mixed fixture's blocks, each cached in format ``fmt``, 4 or
        3. Returns the blocks."""
        raw_blocks = pairs_to_raw_blocks(self.mixed_pairs(), start=1, num_blocks=3)
        return write_old_cache(directory, raw_blocks, dict.fromkeys(raw_blocks, fmt))

    @pytest.mark.parametrize("fmt", [4, 3])
    @pytest.mark.parametrize("name", [*COMMANDS, "snapshots"])
    def test_old_cache_refused_offline(self, name, fmt, tmp_path, capsys):
        # Formats 4 and 3 are no longer read: offline, every command names
        # the first entry and fails, writes no output and leaves the cache
        # as it is.
        self.write_old_mixed_cache(tmp_path / "cache", fmt)
        before = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
        assert run(self.runs("mixed")[name], tmp_path, out=name) == 1
        path = BlockCache(tmp_path / "cache").path(1)
        assert f"{path}: unknown format 'chaingraph-block/{fmt}'" in capsys.readouterr().err
        assert not (tmp_path / name).exists()
        assert {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()} == before

    @pytest.mark.parametrize("fmt", [4, 3])
    @pytest.mark.parametrize("name", [*COMMANDS, "snapshots"])
    def test_old_cache_refetched(self, name, fmt, tmp_path, monkeypatch):
        # Online, every command refetches each old entry once, gives the
        # pinned outputs, and leaves the cache as a fresh fetch does.
        raw_blocks = self.write_old_mixed_cache(tmp_path / "cache", fmt)
        endpoint = MockEndpoint(raw_blocks)
        monkeypatch.setattr("chaingraph.cli._endpoint", lambda cfg: endpoint)
        argv = self.runs("mixed")[name] + ["--cache-dir", str(tmp_path / "cache"),
                                           "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
        assert sorted(endpoint.block_calls()) == [1, 2, 3]
        digests = {f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (tmp_path / name).iterdir()}
        assert digests == {key: digest for key, digest in self.EXPECTED["mixed"].items()
                           if key.startswith(name + "/")}
        seed_cache(tmp_path / "fresh", raw_blocks)
        entries = {p.name: p.read_bytes() for p in (tmp_path / "cache").iterdir()}
        assert entries == {p.name: p.read_bytes() for p in (tmp_path / "fresh").iterdir()}

    def test_degree_histograms_match_oracle(self, tmp_path):
        # degree.csv and degree_weighted.csv against the label-keyed
        # reference graph, on the fixture with repeats both ways, a loop
        # and a creation, where the two histograms differ.
        raw_blocks = pairs_to_raw_blocks(self.mixed_pairs(), start=1, num_blocks=3)
        seed_cache(tmp_path / "cache", raw_blocks)
        assert run(["analyze", "--start-block", "1", "--num-blocks", "3"], tmp_path) == 0
        ref = LabelKeyedGraph()
        for number in sorted(raw_blocks):
            for h, sender, recipient in tx_rows(parse_block_json(raw_blocks[number])):
                ref.add_interaction(sender, recipient_node(h, recipient))
        for name, weighted in (("degree.csv", False), ("degree_weighted.csv", True)):
            header, *rows = strip_header(tmp_path / "out" / name)
            assert header == "degree,count"
            hist = {int(deg): int(count) for deg, count in (row.split(",") for row in rows)}
            assert list(hist) == sorted(hist)
            assert hist == ref.degree_entries(weighted), name
        assert ref.degree_entries(True) != ref.degree_entries(False)
        # degree_loglog.csv holds the repr of both logarithms of each
        # degree.csv row, in the same order.
        header, *rows = strip_header(tmp_path / "out" / "degree_loglog.csv")
        assert header == "log10_degree,log10_count"
        assert rows == [f"{math.log10(deg)!r},{math.log10(count)!r}"
                        for deg, count in sorted(ref.degree_entries(False).items())]

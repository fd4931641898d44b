import os
import subprocess
import sys
from pathlib import Path

import pytest

from chaingraph.cli import _config_from_args, build_parser, main

from conftest import (
    MockEndpoint,
    addr,
    forest_pairs,
    pairs_to_raw_blocks,
    raw_block,
    raw_tx,
    seed_cache,
    star_pairs,
)


def strip_header(path, comment="#"):
    lines = path.read_text().splitlines()
    return [ln for ln in lines if not ln.startswith(comment + " chaingraph")
            and not ln.startswith(comment + " config=")]


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

    def test_offline_miss_fails(self, tmp_path, capsys):
        assert run(["fetch", "--start-block", "5", "--num-blocks", "1"], tmp_path) == 1
        assert "error" in capsys.readouterr().err

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
                     "distances.csv", "graph.net"):
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
                           "edges_main,components,avg_distance")
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


class TestMiners:
    def test_outputs(self, forest_cache):
        assert run(["miners", "--start-block", "1", "--num-blocks", "3"], forest_cache) == 0
        out = forest_cache / "out"
        miners = strip_header(out / "miners.csv")
        assert miners[0] == "miner,blocks"
        assert miners[1].endswith(",3")  # all fixture blocks share one miner
        hist = strip_header(out / "miner_histogram.csv")
        assert hist == ["blocks_mined,num_miners", "3,1"]


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
    ])
    def test_flag_of_another_command_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert "error:" in capsys.readouterr().err


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

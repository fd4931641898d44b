"""Acceptance gate: one test per release criterion, each printing a
PASS line with the measured numbers (run with -s to see them inline)."""

import io
import math
import os
import random
import statistics
import time

import pytest

from chaingraph.baseline import (
    UNDEFINED,
    GnmParams,
    gnm_random_graph,
    small_world_sigma,
    trial_seed,
)
from chaingraph.cli import main
from chaingraph.graph import (
    SimpleGraph,
    TransactionGraph,
    build_graph,
    export_pajek,
)
from chaingraph.metrics import (
    ExactnessPolicy,
    average_local_clustering,
    connected_components,
    degree_distribution,
    distance_summary,
    largest_component,
    transitivity,
)

from conftest import (
    addr,
    forest_pairs,
    make_block,
    pairs_to_raw_blocks,
    seed_cache,
    star_pairs,
    summary_of,
)
from oracles import (
    add_interaction,
    all_pairs_average_and_diameter,
    brute_average_local_clustering,
    brute_closure_probability,
    brute_transitivity,
    canonical_form,
    chain_head,
    degree_sum,
    edge_list,
    flood_fill_components,
    import_pajek,
    oracle_fixtures,
    set_from_edges,
)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def star_graph(leaves: int) -> SimpleGraph:
    return set_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_criterion_1_star_anchor():
    start = time.perf_counter()
    summary = summary_of(star_graph(18))
    elapsed = time.perf_counter() - start
    assert summary.average_distance == pytest.approx(1.8947, abs=0.005)
    assert summary.diameter == 2
    assert elapsed < 1.0
    report(1, f"L={summary.average_distance:.4f} diameter={summary.diameter} "
              f"runtime={elapsed:.3f}s")


def test_criterion_2_baseline_anchor():
    start = time.perf_counter()
    n, m, trials = 19, 18, 200
    p = 2 * m / (n * (n - 1))
    ccs = []
    l_rgs = []
    for i in range(trials):
        g = gnm_random_graph(GnmParams(n, m, trial_seed(1, i)))
        # estimate the edge probability from nodes that actually have a
        # neighbor pair; nodes of degree < 2 carry no closure information
        # and would bias the estimate at this tiny size
        ccs.append(brute_closure_probability(g))
        l_rgs.append(distance_summary(g, connected_components(g)).average_distance)
    cc_mean = statistics.mean(ccs)
    cc_se = statistics.stdev(ccs) / math.sqrt(trials)
    l_mean = statistics.mean(l_rgs)
    elapsed = time.perf_counter() - start
    assert abs(cc_mean - p) <= 3 * cc_se
    assert 2.5 <= l_mean <= 3.4
    assert elapsed < 10.0
    report(2, f"cc_mean={cc_mean:.4f} vs p={p:.4f} (3se={3 * cc_se:.4f}), "
              f"L_RG={l_mean:.3f}, runtime={elapsed:.2f}s")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    for params in oracle_fixtures():
        g = gnm_random_graph(params)
        assert transitivity(g) == pytest.approx(brute_transitivity(g), abs=1e-12)
        assert average_local_clustering(g) == pytest.approx(
            brute_average_local_clustering(g), abs=1e-12
        )
        comps = connected_components(g)
        oracle = flood_fill_components(g)
        pairing = {}
        for node in range(g.n):
            got, want = comps.assignment[node], oracle[node]
            assert pairing.setdefault(got, want) == want
        main_comp = largest_component(g)
        if main_comp.n > 1:
            summary = distance_summary(g, comps)
            oracle_avg, oracle_diam = all_pairs_average_and_diameter(main_comp)
            assert summary.average_distance == oracle_avg
            assert summary.diameter == oracle_diam
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"50 fixtures, runtime={elapsed:.1f}s")


def test_criterion_4_handshake_and_bookkeeping():
    checked = 0
    # transaction-level fixtures exercise loops and weights too
    pair_fixtures = [star_pairs(), forest_pairs(),
                     [(addr(1), addr(2)), (addr(2), addr(1)), (addr(3), addr(3))]]
    for pairs in pair_fixtures:
        g = build_graph([make_block(1, pairs)])
        hist, weighted = degree_distribution(g)
        assert degree_sum(hist) == 2 * g.m + len(g.loops)
        total_weight = sum(g.edges.values())
        assert degree_sum(weighted) == 2 * total_weight + sum(g.loops.values())
        assert sum(hist.values()) == g.n
        checked += 1
    for params in oracle_fixtures():
        g = gnm_random_graph(params)
        comps = connected_components(g)
        assert sum(nodes for nodes, _ in comps.sizes) == g.n
        assert sum(edges for _, edges in comps.sizes) == g.m
        checked += 1
    report(4, f"identities exact on {checked} fixtures")


def test_criterion_5_gnm_contract():
    for seed in range(25):
        for n, m in [(10, 0), (10, 20), (30, 100), (40, 40)]:
            g = gnm_random_graph(GnmParams(n, m, seed))
            edges = edge_list(g)
            assert len(edges) == m
            assert len(set(edges)) == m
            assert all(u != v for u, v in edges)
    k5 = gnm_random_graph(GnmParams(5, 10, seed=77))
    assert all(len(k5.adj[v]) == 4 for v in range(5))
    assert gnm_random_graph(GnmParams(60, 300, 5)).adj == \
           gnm_random_graph(GnmParams(60, 300, 5)).adj
    report(5, "exact edge counts, no loops/duplicates, K5, seed-stable")


def test_criterion_6_random_graph_distance_scaling():
    start = time.perf_counter()
    n, m = 10_000, 50_000
    g = gnm_random_graph(GnmParams(n, m, seed=0))
    policy = ExactnessPolicy(exact_threshold=1000, sample_sources=200, seed=0)
    measured = distance_summary(g, connected_components(g), policy).average_distance
    expected = math.log(n) / math.log(2 * m / n)
    elapsed = time.perf_counter() - start
    assert abs(measured - expected) / expected < 0.15
    assert elapsed < 60.0
    report(6, f"L_RG={measured:.3f} vs ln(n)/ln(2m/n)={expected:.3f}, "
              f"runtime={elapsed:.1f}s")


def test_criterion_7_sigma_formula():
    assert small_world_sigma(0.01, 5.0, 0.001, 10.0) == 20.0
    assert small_world_sigma(0.0, 1.89, 0.05, 2.94) == 0.0
    marker = small_world_sigma(0.01, 5.0, 0.0, 10.0)
    assert marker is UNDEFINED
    report(7, "exact value, zero rows, UNDEFINED marker")


def test_criterion_8_pajek_round_trip():
    rng = random.Random(99)
    for _ in range(10):
        g = TransactionGraph()
        for _ in range(rng.randrange(10, 120)):
            add_interaction(g, addr(rng.randrange(50)), addr(rng.randrange(50)))
        sink = io.StringIO()
        export_pajek(g, sink)
        back = import_pajek(io.StringIO(sink.getvalue()))
        assert canonical_form(back) == canonical_form(g)
    two = TransactionGraph()
    add_interaction(two, "a", "b", count=3)
    sink = io.StringIO()
    export_pajek(two, sink)
    assert sink.getvalue() == '*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 3\n'
    report(8, "50-node fixtures round-trip; 2-node bytes exact")


def test_criterion_9_determinism(tmp_path):
    seed_cache(tmp_path / "cache", pairs_to_raw_blocks(forest_pairs(), start=1))
    outputs = {}
    for tag in "abc":
        for cmd in ("analyze", "smallworld"):
            argv = [cmd, "--start-block", "1", "--num-blocks", "3", "--seed", "5",
                    "--cache-dir", str(tmp_path / "cache"),
                    "--out-dir", str(tmp_path / f"{cmd}_{tag}"), "--offline"]
            if cmd == "smallworld":
                argv += ["--trials", "5"]
            assert main(argv) == 0
    for cmd, files in [("analyze", ["metrics.csv", "degree.csv", "degree_loglog.csv",
                                    "degree_weighted.csv", "distances.csv", "graph.net"]),
                       ("smallworld", ["smallworld.csv"])]:
        for name in files:
            blobs = {(tmp_path / f"{cmd}_{t}" / name).read_bytes() for t in "abc"}
            assert len(blobs) == 1, f"{cmd}/{name} differed across runs"
    report(9, "analyze+smallworld byte-identical across three reruns")


@pytest.mark.network
@pytest.mark.skipif(not os.environ.get("CHAINGRAPH_RPC_URL"),
                    reason="set CHAINGRAPH_RPC_URL to run the live smoke check")
def test_criterion_10_live_smoke(tmp_path):
    from chaingraph.ingest import JsonRpcEndpoint

    endpoint = JsonRpcEndpoint(os.environ["CHAINGRAPH_RPC_URL"])
    head = chain_head(endpoint)
    start = head - 12  # small margin behind the tip
    common = ["--start-block", str(start), "--num-blocks", "10",
              "--cache-dir", str(tmp_path / "cache")]
    assert main(["fetch"] + common) == 0
    assert main(["analyze"] + common + ["--out-dir", str(tmp_path / "out"), "--offline"]) == 0
    degree_lines = [
        ln for ln in (tmp_path / "out" / "degree.csv").read_text().splitlines()
        if ln and not ln.startswith("#") and not ln.startswith("degree")
    ]
    hist = {int(d): int(c) for d, c in (ln.split(",") for ln in degree_lines)}
    total = sum(hist.values())
    assert total > 0
    metrics_line = [
        ln for ln in (tmp_path / "out" / "metrics.csv").read_text().splitlines()
        if ln and not ln.startswith("#")
    ][1]
    nodes, edges = int(metrics_line.split(",")[1]), int(metrics_line.split(",")[2])
    assert nodes > 0 and edges > 0
    assert hist.get(1, 0) > total / 2  # degree-1 nodes dominate
    report(10, f"live fetch: n={nodes} m={edges} degree-1 share="
               f"{hist.get(1, 0) / total:.2f}")

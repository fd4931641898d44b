import dataclasses
import errno
import hashlib
import math
import os
import random
import statistics
import threading
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from chaingraph import baseline
from chaingraph.baseline import (
    _ENUMERATE_LIMIT,
    UNDEFINED,
    GnmParams,
    gnm_random_graph,
    small_world_report,
    small_world_sigma,
    trial_seed,
)
from chaingraph.metrics import (
    ExactnessPolicy,
    average_local_clustering,
    connected_components,
    distance_summary,
    largest_component,
)

from oracles import edge_list, set_from_edges


def complete_graph(n):
    return set_from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves):
    return set_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def ring_lattice_rewired(n, k, rewire_every, seed):
    """Watts-Strogatz-style fixture: ring lattice with every
    `rewire_every`-th edge re-pointed at a pseudo-random node."""
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(1, k // 2 + 1):
            edges.append((i, (i + j) % n))
    rewired = []
    for idx, (u, v) in enumerate(edges):
        if idx % rewire_every == 0:
            w = rng.randrange(n)
            if w not in (u, v):
                rewired.append((u, w))
                continue
        rewired.append((u, v))
    return set_from_edges(n, rewired)


class TestGnm:
    def test_max_edges_gives_complete_graph(self):
        g = gnm_random_graph(GnmParams(5, 10, seed=1))
        assert g.m == 10
        assert all(len(g.adj[v]) == 4 for v in range(5))

    def test_zero_edges(self):
        g = gnm_random_graph(GnmParams(7, 0, seed=1))
        assert g.m == 0
        assert g.n == 7

    def test_m_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GnmParams(4, 7, seed=1)

    def test_same_seed_same_graph(self):
        a = gnm_random_graph(GnmParams(50, 200, seed=42))
        b = gnm_random_graph(GnmParams(50, 200, seed=42))
        assert a.adj == b.adj

    def test_different_seed_usually_differs(self):
        a = gnm_random_graph(GnmParams(50, 200, seed=1))
        b = gnm_random_graph(GnmParams(50, 200, seed=2))
        assert a.adj != b.adj

    # G(1000, m) has 499,500 possible pairs, just within the limit;
    # G(1001, m) has 500,500, just above it. (100, 4000) takes the branch of
    # random.sample that copies the whole population.
    @pytest.mark.parametrize("n,m,seed", [
        (2, 1, 0), (3, 2, 5), (5, 10, 1), (17, 0, 1), (17, 136, 2), (100, 250, 3),
        (100, 4000, 4), (999, 1600, 5), (1000, 1600, 6), (1000, 30_000, 7),
    ])
    def test_same_draw_as_sampling_enumerated_pairs(self, n, m, seed):
        assert n * (n - 1) // 2 <= _ENUMERATE_LIMIT
        pairs = random.Random(seed).sample(list(combinations(range(n), 2)), m)
        assert gnm_random_graph(GnmParams(n, m, seed)) == set_from_edges(n, pairs)

    # 1024 and 2047 are the ends of one bit length, where the most and the
    # fewest draws of getrandbits are redrawn; 1093 is the size of the
    # benchmark's smallworld subject, with its first trial's seed.
    @pytest.mark.parametrize("n,m,seed", [
        (1001, 1600, 6), (1500, 3000, 8), (1024, 2000, 9), (2047, 3000, 10),
        (1093, 1711, trial_seed(42, 0)),
    ])
    def test_rejection_draw_above_limit(self, n, m, seed):
        assert n * (n - 1) // 2 > _ENUMERATE_LIMIT
        rng = random.Random(seed)
        chosen = set()
        while len(chosen) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                chosen.add((min(u, v), max(u, v)))
        assert gnm_random_graph(GnmParams(n, m, seed)) == set_from_edges(n, chosen)

    # sha256 of repr(adj), recorded on the per-node neighbour-set builder:
    # one enumerated draw and one rejection draw.
    @pytest.mark.parametrize("n,m,seed,digest", [
        (1000, 30_000, 7, "9c136f63f59321ef4e4f5b577dd8fed2fab38beeac88d0148870c8e1410b1cf1"),
        (1500, 3000, 8, "0dd032dee09518969566c08e695a1aef491e6bec9b56e3a208aea2e4d10e48c8"),
    ])
    def test_pinned_graphs(self, n, m, seed, digest):
        g = gnm_random_graph(GnmParams(n, m, seed))
        assert g.m == m
        assert hashlib.sha256(repr(g.adj).encode()).hexdigest() == digest

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 10**6), frac=st.floats(0, 1))
    def test_contract_exact_m_no_loops_no_duplicates(self, n, seed, frac):
        max_edges = n * (n - 1) // 2
        m = int(frac * max_edges)
        g = gnm_random_graph(GnmParams(n, m, seed=seed))
        edges = edge_list(g)
        assert len(edges) == m == g.m
        assert len(set(edges)) == m
        assert all(u != v for u, v in edges)

    def test_monte_carlo_degree_and_clustering(self):
        # 20 seeds of G(2000, 10000): average degree is 2m/n per instance
        # by the handshake lemma; mean clustering sits near p = 2m/(n(n-1)).
        n, m = 2000, 10_000
        p = 2 * m / (n * (n - 1))
        ccs = []
        for seed in range(20):
            g = gnm_random_graph(GnmParams(n, m, seed=seed))
            assert sum(len(a) for a in g.adj) / n == 2 * m / n
            ccs.append(average_local_clustering(g))
        mean = statistics.mean(ccs)
        se = statistics.stdev(ccs) / math.sqrt(len(ccs))
        assert abs(mean - p) <= 3 * se

    def test_log_distance_scaling(self):
        # random graphs keep pair distances near ln(n)/ln(avg degree)
        n, m = 10_000, 50_000
        g = gnm_random_graph(GnmParams(n, m, seed=0))
        policy = ExactnessPolicy(exact_threshold=1000, sample_sources=200, seed=0)
        measured = distance_summary(g, connected_components(g), policy).average_distance
        expected = math.log(n) / math.log(2 * m / n)
        assert abs(measured - expected) / expected < 0.15


class TestSigma:
    def test_direct_substitution(self):
        assert small_world_sigma(0.01, 5.0, 0.001, 10.0) == 20.0

    def test_zero_cc_gives_zero(self):
        assert small_world_sigma(0.0, 5.0, 0.05, 2.94) == 0.0

    def test_zero_baseline_cc_undefined(self):
        assert small_world_sigma(0.01, 5.0, 0.0, 10.0) is UNDEFINED

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            small_world_sigma(0.01, 0.0, 0.001, 10.0)

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_invariant_under_common_cc_scaling(self, scale):
        base = small_world_sigma(0.01, 5.0, 0.001, 10.0)
        scaled = small_world_sigma(0.01 * scale, 5.0, 0.001 * scale, 10.0)
        assert scaled == pytest.approx(base, rel=1e-9)


def report_of(g, trials, seed, policy=ExactnessPolicy()):
    return small_world_report(g, connected_components(g), trials, seed, policy)


class TestSmallWorldReport:
    def test_star_subject_matches_published_row(self):
        report = report_of(star_graph(18), trials=200, seed=1)
        assert report.cc == 0.0
        assert report.sigma == 0.0
        assert report.avg_distance == pytest.approx(324 / 171, abs=5e-3)
        # published baseline row: cc_RG 0.05, L_RG 2.94
        assert report.cc_rg == pytest.approx(0.05, abs=0.03)
        assert 2.5 <= report.l_rg <= 3.4

    def test_k4_subject_sigma_one(self):
        report = report_of(complete_graph(4), trials=3, seed=0)
        assert report.cc == 1.0
        assert report.avg_distance == 1.0
        assert report.sigma == 1.0

    def test_small_world_fixture_classified_above_one(self):
        report = report_of(ring_lattice_rewired(500, 4, rewire_every=10, seed=8),
                           trials=5, seed=3)
        assert isinstance(report.sigma, float)
        assert report.sigma > 1.0

    def test_deterministic(self):
        g = gnm_random_graph(GnmParams(120, 200, seed=4))
        a = report_of(g, trials=4, seed=9)
        b = report_of(g, trials=4, seed=9)
        assert a == b

    def test_disconnected_reports_on_its_largest_component(self):
        # A triangle with a pendant (nodes 1, 3, 5, 6) among two isolated
        # edges: the report is that of the triangle's component alone.
        g = set_from_edges(8, [(0, 2), (1, 3), (3, 5), (1, 5), (5, 6), (4, 7)])
        report = report_of(g, trials=2, seed=0)
        assert (report.n, report.m) == (4, 4)
        assert report.cc == (1 + 1 + 1 / 3 + 0) / 4
        assert report.avg_distance == 8 / 6
        assert report == report_of(largest_component(g), trials=2, seed=0)

    @pytest.mark.parametrize("g", [
        set_from_edges(0, []),
        set_from_edges(1, []),
        set_from_edges(3, []),
    ], ids=["empty", "one-node", "isolated-nodes"])
    def test_main_component_without_edge_rejected(self, g):
        with pytest.raises(ValueError, match="no edge"):
            report_of(g, trials=1, seed=0)

    def test_trial_seeds_distinct(self):
        seeds = {trial_seed(7, i) for i in range(100)}
        assert len(seeds) == 100


def report_fields(report):
    values = (getattr(report, f.name) for f in dataclasses.fields(report))
    return [v.hex() if isinstance(v, float) else v for v in values]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@st.composite
def edge_graphs(draw):
    """Up to 60 random pairs on 25 nodes, at least one of them an edge."""
    node = st.integers(0, 24)
    edges = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=60))
    return set_from_edges(25, edges)


class TestTrialWorkers:
    """The G(n,m) trials run in up to min(trials, usable CPUs) forked
    workers; the report is that of the serial loop, float for float."""

    @pytest.fixture
    def workers(self, monkeypatch):
        def use(count):
            monkeypatch.setattr(baseline, "_usable_cpus", lambda: count)
        return use

    @staticmethod
    def fields_by_workers(g, trials, seed, policy=ExactnessPolicy()):
        reports = []
        for count in (1, 2, 3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(baseline, "_usable_cpus", lambda: count)
                reports.append(report_fields(report_of(g, trials, seed, policy)))
        return reports

    @pytest.mark.parametrize("g,trials,policy", [
        (star_graph(18), 5, ExactnessPolicy()),
        (complete_graph(4), 3, ExactnessPolicy()),
        (ring_lattice_rewired(300, 4, rewire_every=10, seed=8), 5, ExactnessPolicy()),
        (ring_lattice_rewired(300, 4, rewire_every=10, seed=8), 4,
         ExactnessPolicy(exact_threshold=100, sample_sources=20, seed=3)),
        (set_from_edges(8, [(0, 2), (1, 3), (3, 5), (1, 5), (5, 6), (4, 7)]), 7,
         ExactnessPolicy()),
        (star_graph(18), 1, ExactnessPolicy()),
        (complete_graph(5), 2, ExactnessPolicy()),
    ], ids=["star", "k4", "ring", "ring-sampled", "disconnected", "one-trial", "two-trials"])
    def test_same_report_with_any_worker_count(self, g, trials, policy):
        one, two, three = self.fields_by_workers(g, trials, 9, policy)
        assert one == two == three
        assert no_child_left()

    @settings(max_examples=25, deadline=None)
    @given(g=edge_graphs(), trials=st.integers(1, 5), seed=st.integers(0, 1000))
    def test_same_report_on_random_graphs(self, g, trials, seed):
        one, two, three = self.fields_by_workers(g, trials, seed)
        assert one == two == three

    def test_workers_report_their_trials(self, workers, monkeypatch):
        # Before its first trial, this process waits, without reaping, until
        # every worker has exited: it then computes its own share alone and
        # reads the rest from the workers' records.
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))
        caller = os.getpid()
        pids = []
        here = []
        fork, gnm = os.fork, baseline.gnm_random_graph

        def recorded_fork():
            pid = fork()
            pids.append(pid)
            return pid

        def waits_for_workers(params):
            if os.getpid() == caller:
                if not here:
                    for pid in pids:
                        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                here.append(params.seed)
            return gnm(params)

        workers(2)
        monkeypatch.setattr(os, "fork", recorded_fork)
        monkeypatch.setattr(baseline, "gnm_random_graph", waits_for_workers)
        assert report_fields(report_of(g, trials=5, seed=4)) == serial
        assert len(pids) == 1
        assert here == [trial_seed(4, i) for i in (0, 2, 4)]
        assert no_child_left()

    def test_caller_waits_for_a_live_worker(self, workers, monkeypatch):
        # The worker's two trials take longer than the caller's three: the
        # caller reads the worker's records rather than computing its trials.
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))
        caller = os.getpid()
        here = []
        gnm = baseline.gnm_random_graph

        def slow_in_worker(params):
            if os.getpid() == caller:
                here.append(params.seed)
            else:
                time.sleep(0.2)
            return gnm(params)

        workers(2)
        monkeypatch.setattr(baseline, "gnm_random_graph", slow_in_worker)
        assert report_fields(report_of(g, trials=5, seed=4)) == serial
        assert here == [trial_seed(4, i) for i in (0, 2, 4)]
        assert no_child_left()

    @pytest.mark.parametrize("count,dies_in,here_in", [
        (3, (1, 2, 4), (0, 3, 1, 2, 4)),
        (2, (3,), (0, 2, 4, 3)),
    ], ids=["first-trial", "after-a-record"])
    def test_dead_worker_leaves_no_trial_out(self, workers, monkeypatch,
                                             count, dies_in, here_in):
        # A worker dies in each trial of dies_in; the caller computes its own
        # share, then only the trials no worker reported, in trial order.
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))
        caller = os.getpid()
        here = []
        gnm = baseline.gnm_random_graph

        def dies_in_worker(params):
            if os.getpid() == caller:
                here.append(params.seed)
            elif params.seed in {trial_seed(4, i) for i in dies_in}:
                os._exit(3)
            return gnm(params)

        workers(count)
        monkeypatch.setattr(baseline, "gnm_random_graph", dies_in_worker)
        assert report_fields(report_of(g, trials=5, seed=4)) == serial
        assert here == [trial_seed(4, i) for i in here_in]
        assert no_child_left()

    @pytest.mark.parametrize("failing", [0, 1, 4], ids=["own", "worker", "last"])
    def test_trial_error_raised_here(self, workers, monkeypatch, failing):
        gnm = baseline.gnm_random_graph

        def fails(params):
            if params.seed == trial_seed(2, failing):
                raise ValueError(f"trial {failing} failed")
            return gnm(params)

        workers(2)
        monkeypatch.setattr(baseline, "gnm_random_graph", fails)
        with pytest.raises(ValueError, match=f"trial {failing} failed"):
            report_of(star_graph(18), trials=5, seed=2)
        assert no_child_left()

    @pytest.fixture
    def fork_fails(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", no_fork)

    def test_no_fork_while_a_thread_is_alive(self, workers, fork_fails):
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        workers(1)
        serial = report_fields(report_of(g, trials=5, seed=4))
        workers(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert report_fields(report_of(g, trials=5, seed=4)) == serial
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_no_fork_without_os_fork(self, workers, monkeypatch):
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))
        workers(3)
        monkeypatch.delattr(os, "fork")
        assert report_fields(report_of(g, trials=5, seed=4)) == serial

    def test_failed_fork_keeps_the_trials_here(self, workers, monkeypatch):
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))

        def no_process():
            raise BlockingIOError("fork: resource temporarily unavailable")

        workers(3)
        monkeypatch.setattr(os, "fork", no_process)
        assert report_fields(report_of(g, trials=5, seed=4)) == serial
        assert no_child_left()

    def test_failed_pipe_keeps_the_trials_here(self, workers, monkeypatch):
        # The first worker is forked; the second pipe fails, and that
        # worker's trials stay here.
        g = ring_lattice_rewired(200, 4, rewire_every=10, seed=8)
        serial = report_fields(report_of(g, trials=5, seed=4))
        pipe = os.pipe
        made = []

        def one_pipe():
            if made:
                raise OSError(errno.EMFILE, "Too many open files")
            made.append(pipe())
            return made[-1]

        workers(3)
        monkeypatch.setattr(os, "pipe", one_pipe)
        assert report_fields(report_of(g, trials=5, seed=4)) == serial
        assert len(made) == 1
        assert no_child_left()

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from chaingraph.graph import (
    TransactionGraph,
    build_graph,
    export_edge_csv,
    export_pajek,
    project_simple,
    recipient_nodes,
)
from chaingraph.ingest import BlockCache
from chaingraph.metrics import degree_distribution

from conftest import (addr, block_from_rows, forest_blocks, make_block, raw_block, raw_tx,
                      tx_hash)
from oracles import (
    LabelKeyedGraph,
    PajekError,
    add_interaction,
    canonical_form,
    import_pajek,
    index_of,
    labelled_edges,
    labelled_loops,
    recipient_node,
    set_from_edges,
    total_transactions,
)


def graph_from_pairs(pairs):
    return build_graph([make_block(1, pairs)])


def block_of(*txs):
    """Block 1 with these (hash, sender, recipient) transaction rows."""
    return block_from_rows(1, tx_hash(0xB001), 1_500_000_000, addr(0xFEED), txs)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([])
        assert (g.n, g.m) == (0, 0)

    def test_bidirectional_pair_pools_weight(self):
        a, b = addr(1), addr(2)
        g = graph_from_pairs([(a, b), (b, a)])
        assert (g.n, g.m) == (2, 1)
        assert labelled_edges(g)[(a, b)] == 2

    def test_repeat_transactions_increment_weight(self):
        a, b = addr(1), addr(2)
        g = graph_from_pairs([(a, b)] * 5)
        assert labelled_edges(g)[(a, b)] == 5

    def test_loop(self):
        a = addr(1)
        g = graph_from_pairs([(a, a)])
        assert (g.n, g.m) == (1, 0)
        assert labelled_loops(g)[a] == 1

    def test_forest_fixture_counts(self):
        g = build_graph(forest_blocks())
        assert (g.n, g.m) == (55, 40)

    def test_total_transactions_conserved(self):
        a, b, c = addr(1), addr(2), addr(3)
        g = graph_from_pairs([(a, b), (b, a), (a, c), (c, c)])
        assert total_transactions(g) == 4

    def test_order_insensitive(self):
        blocks = forest_blocks()
        shuffled = list(blocks)
        random.Random(3).shuffle(shuffled)
        assert canonical_form(build_graph(blocks)) == canonical_form(build_graph(shuffled))

    def test_contract_creation_gets_synthetic_node(self):
        g = build_graph([block_of((tx_hash(0xDEADBEEF), addr(1), None))])
        assert g.n == 2
        assert any(label.startswith("created!") for label in g.labels)

    def test_zero_address_payment_beside_creation(self, tmp_path):
        # None is the only creation marker: through the cache and back, a
        # null "to" becomes a synthetic node and a payment to the zero
        # address links to the zero-address account.
        zero = "0x" + "0" * 40
        creation = "0x0123456789abcdef" + "f" * 48
        txs = [raw_tx(1, addr(1), zero), {**raw_tx(2, addr(2), None), "hash": creation},
               raw_tx(3, addr(3), addr(4))]
        cache = BlockCache(tmp_path)
        cache.store(9, raw_block(9, txs))
        block = cache.get(9)
        assert block.recipients == (zero, None, addr(4))
        g = build_graph([block])
        assert g.labels == [addr(1), zero, addr(2), "created!0123456789abcdef",
                            addr(3), addr(4)]
        assert labelled_edges(g) == {(zero, addr(1)): 1,
                                     (addr(2), "created!0123456789abcdef"): 1,
                                     (addr(3), addr(4)): 1}


class TestRecipientNodes:
    def test_present_recipient_passthrough(self):
        block = block_of((tx_hash(1), addr(1), addr(2)))
        assert recipient_nodes(block) == (addr(2),)

    def test_absent_recipient_uses_hash_prefix(self):
        h = "0xdeadbeef" + "0" * 56
        block = block_of((tx_hash(1), addr(1), addr(2)), (h, addr(1), None))
        assert list(recipient_nodes(block)) == [addr(2), "created!deadbeef00000000"]

    def test_distinct_hashes_distinct_nodes(self):
        block = block_of(("0x" + "a" * 64, addr(1), None), ("0x" + "b" * 64, addr(1), None))
        first, second = recipient_nodes(block)
        assert first != second


class TestProjectSimple:
    def test_weight_collapses(self):
        g = graph_from_pairs([(addr(1), addr(2))] * 7)
        s = project_simple(g.n, g.edges)
        assert (s.n, s.m) == (2, 1)

    def test_loop_dropped(self):
        g = graph_from_pairs([(addr(1), addr(1))])
        s = project_simple(g.n, g.edges)
        assert (s.n, s.m) == (1, 0)

    def test_edge_count_preserved(self):
        g = build_graph(forest_blocks())
        assert project_simple(g.n, g.edges).m == g.m

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(1, 3)),
                    max_size=60))
    def test_matches_from_edges(self, raw):
        # Repeats, both directions and loops, folded by the reference.
        g = TransactionGraph()
        for u, v, count in raw:
            add_interaction(g, f"n{u}", f"n{v}", count=count)
        pairs = [(index_of(g, f"n{u}"), index_of(g, f"n{v}")) for u, v, _ in raw]
        assert project_simple(g.n, g.edges) == set_from_edges(g.n, pairs)


def random_graph_pairs(rng, n_nodes, n_txs):
    pairs = []
    for _ in range(n_txs):
        u = rng.randrange(n_nodes)
        v = rng.randrange(n_nodes)
        pairs.append((addr(u), addr(v)))
    return pairs


class TestPajek:
    def test_two_node_exact_bytes(self):
        g = TransactionGraph()
        add_interaction(g, "a", "b", count=3)
        sink = io.StringIO()
        export_pajek(g, sink)
        assert sink.getvalue() == '*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 3\n'

    def test_empty_graph(self):
        sink = io.StringIO()
        export_pajek(TransactionGraph(), sink)
        assert sink.getvalue() == "*Vertices 0\n*Edges\n"

    def test_round_trip_50_node_fixture(self):
        rng = random.Random(42)
        g = graph_from_pairs(random_graph_pairs(rng, 50, 120))
        sink = io.StringIO()
        export_pajek(g, sink)
        back = import_pajek(io.StringIO(sink.getvalue()))
        assert canonical_form(back) == canonical_form(g)

    def test_import_arcs_section(self):
        text = '*Vertices 2\n1 "a"\n2 "b"\n*Arcs\n1 2 4\n'
        g = import_pajek(io.StringIO(text))
        assert labelled_edges(g)[("a", "b")] == 4

    def test_import_loop_line(self):
        text = '*Vertices 1\n1 "a"\n*Edges\n1 1 2\n'
        g = import_pajek(io.StringIO(text))
        assert labelled_loops(g)["a"] == 2

    def test_malformed_header(self):
        with pytest.raises(PajekError):
            import_pajek(io.StringIO("nope\n"))

    def test_vertex_index_out_of_range(self):
        with pytest.raises(PajekError):
            import_pajek(io.StringIO('*Vertices 1\n1 "a"\n*Edges\n1 2 1\n'))

    def test_non_positive_weight(self):
        with pytest.raises(PajekError):
            import_pajek(io.StringIO('*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 0\n'))

    def test_comment_lines_skipped(self):
        text = '% header\n*Vertices 2\n1 "a"\n2 "b"\n*Edges\n1 2 3\n'
        assert import_pajek(io.StringIO(text)).m == 1

    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    def test_round_trip_property(self, raw_pairs):
        pairs = [(addr(u), addr(v)) for u, v in raw_pairs]
        g = graph_from_pairs(pairs)
        sink = io.StringIO()
        export_pajek(g, sink)
        back = import_pajek(io.StringIO(sink.getvalue()))
        assert canonical_form(back) == canonical_form(g)


class TestEdgeCsv:
    def test_rows(self):
        g = graph_from_pairs([(addr(1), addr(2)), (addr(3), addr(3))])
        sink = io.StringIO()
        export_edge_csv(g, sink)
        lines = sink.getvalue().splitlines()
        assert lines[0] == "src,dst,weight"
        assert f"{addr(1)},{addr(2)},1" in lines
        assert f"{addr(3)},{addr(3)},1" in lines


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=80),
       st.randoms(use_true_random=False))
def test_property_weight_sum_and_order_insensitivity(raw_pairs, rng):
    pairs = [(addr(u), addr(v)) for u, v in raw_pairs]
    g = graph_from_pairs(pairs)
    # all transactions are accounted for as edge weight or loop count
    assert total_transactions(g) == len(pairs)
    # node set is exactly the distinct endpoints
    assert g.n == len({a for pair in pairs for a in pair})
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert canonical_form(graph_from_pairs(shuffled)) == canonical_form(g)


# Transactions among 10 accounts: None is a contract creation, and hashes
# share their first 8 bytes often enough that two creations can name one
# node. Small ranges give self-transfers and both directions of a pair, in
# insertion orders unlike label order.
_txs = st.builds(
    lambda prefix, rest, u, v: ("0x" + format(prefix, "016x") + rest.hex(), addr(u),
                                None if v is None else addr(v)),
    st.integers(0, 3), st.binary(min_size=24, max_size=24),
    st.integers(0, 9), st.one_of(st.none(), st.integers(0, 9)))


@settings(max_examples=80)
@given(st.lists(st.lists(_txs, max_size=40), max_size=4))
def test_property_columnar_build_matches_label_keyed_reference(txs_per_block):
    blocks = [block_from_rows(k, tx_hash(k), 1_500_000_000, addr(0xFEED), txs)
              for k, txs in enumerate(txs_per_block)]
    g = build_graph(blocks)
    ref = LabelKeyedGraph()
    for txs in txs_per_block:
        for h, sender, recipient in txs:
            ref.add_interaction(sender, recipient_node(h, recipient))
    assert g.labels == ref.labels
    assert list(labelled_edges(g).items()) == list(ref.edges.items())
    assert list(labelled_loops(g).items()) == list(ref.loops.items())
    assert degree_distribution(g) == (ref.degree_entries(False), ref.degree_entries(True))
    pajek, csv = io.StringIO(), io.StringIO()
    export_pajek(g, pajek)
    export_edge_csv(g, csv)
    assert pajek.getvalue() == ref.pajek()
    assert csv.getvalue() == ref.edge_csv()

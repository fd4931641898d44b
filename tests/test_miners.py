from hypothesis import given, strategies as st

from chaingraph.miners import miner_distribution

from conftest import addr, make_block
from oracles import total_blocks


def blocks_by_miners(miners):
    return [make_block(100 + i, [], miner=m) for i, m in enumerate(miners)]


def test_all_blocks_same_miner():
    hist = miner_distribution(blocks_by_miners([addr(5)] * 3))
    assert hist.per_miner == {addr(5): 3}
    assert hist.distribution == {3: 1}


def test_empty_input():
    hist = miner_distribution([])
    assert hist.per_miner == {}
    assert hist.distribution == {}


@given(st.lists(st.integers(0, 6), max_size=40))
def test_inversion_identities(miner_ids):
    hist = miner_distribution(blocks_by_miners([addr(i) for i in miner_ids]))
    assert sum(k * v for k, v in hist.distribution.items()) == len(miner_ids)
    assert sum(hist.distribution.values()) == len(set(miner_ids))
    assert total_blocks(hist) == len(miner_ids)


@given(st.lists(st.integers(0, 6), max_size=40), st.randoms(use_true_random=False))
def test_order_insensitive(miner_ids, rng):
    blocks = blocks_by_miners([addr(i) for i in miner_ids])
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    assert miner_distribution(blocks).per_miner == miner_distribution(shuffled).per_miner


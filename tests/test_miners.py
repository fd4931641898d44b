from hypothesis import given, strategies as st

from chaingraph.miners import miner_distribution

from conftest import addr, make_block
from oracles import total_blocks


def blocks_by_miners(miners):
    return [make_block(100 + i, [], miner=m) for i, m in enumerate(miners)]


def test_all_blocks_same_miner():
    per_miner, distribution = miner_distribution(blocks_by_miners([addr(5)] * 3))
    assert per_miner == {addr(5): 3}
    assert distribution == {3: 1}


def test_empty_input():
    per_miner, distribution = miner_distribution([])
    assert per_miner == {}
    assert distribution == {}


@given(st.lists(st.integers(0, 6), max_size=40))
def test_inversion_identities(miner_ids):
    per_miner, distribution = miner_distribution(blocks_by_miners([addr(i) for i in miner_ids]))
    assert sum(k * v for k, v in distribution.items()) == len(miner_ids)
    assert sum(distribution.values()) == len(set(miner_ids))
    assert total_blocks(per_miner) == len(miner_ids)


@given(st.lists(st.integers(0, 6), max_size=40), st.randoms(use_true_random=False))
def test_order_insensitive(miner_ids, rng):
    blocks = blocks_by_miners([addr(i) for i in miner_ids])
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    assert miner_distribution(blocks)[0] == miner_distribution(shuffled)[0]


"""Neighbor sampling and the induced slices of sampled per-hop blocks."""

import numpy as np
import pytest

from repro.data import taobao_like
from repro.graph import PropagationEngine
from repro.graph.subgraph import sample_neighbors


@pytest.fixture(scope="module")
def engine():
    data = taobao_like(num_users=80, num_items=160, seed=3)
    return PropagationEngine(data.graph(), normalization="row")


@pytest.fixture(scope="module")
def single_engine():
    data = taobao_like(num_users=40, num_items=90, seed=3)
    return PropagationEngine.bipartite(data.graph())


class TestSampleNeighbors:
    def test_fanout_caps_each_row(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        rng = np.random.default_rng(0)
        nodes = np.arange(engine.num_users)
        sampled = sample_neighbors(matrix, nodes, fanout=2, rng=rng)
        degrees = np.diff(matrix.indptr)
        assert sampled.size == int(np.minimum(degrees, 2).sum())

    def test_none_fanout_keeps_everything(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        nodes = np.arange(engine.num_users)
        sampled = sample_neighbors(matrix, nodes, fanout=None,
                                   rng=np.random.default_rng(0))
        assert sampled.size == matrix.nnz

    def test_sampled_ids_are_real_neighbors(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        node = int(np.argmax(np.diff(matrix.indptr)))  # busiest user
        row = set(matrix.indices[matrix.indptr[node]:matrix.indptr[node + 1]].tolist())
        sampled = sample_neighbors(matrix, np.array([node]), fanout=3,
                                   rng=np.random.default_rng(1))
        assert set(sampled.tolist()) <= row


class TestLayeredSlices:
    """Slice-level guarantees of the sampled per-hop blocks."""

    def test_localize_rejects_absent_ids(self, engine):
        block = engine.layered_subgraph(np.array([0]), np.array([0]), hops=1,
                                        fanout=1, rng=np.random.default_rng(0))
        missing = np.setdiff1d(np.arange(engine.num_users),
                               block.user_levels[0])
        assert missing.size
        with pytest.raises(KeyError, match="not in subgraph"):
            block.localize_users(0, missing[:1])

    def test_row_renormalization_gives_means(self, engine):
        block = engine.layered_subgraph(np.arange(10), np.arange(10), hops=1,
                                        fanout=3, rng=np.random.default_rng(0))
        for hop in block.user_hops + block.item_hops:
            sums = np.asarray(hop.stack.matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_edges_are_subset_of_full_graph(self, engine):
        block = engine.layered_subgraph(np.arange(6), np.arange(4), hops=2,
                                        fanout=4, rng=np.random.default_rng(2))
        for level, hop in enumerate(block.user_hops):
            rows = block.user_levels[level + 1]
            cols = block.item_levels[level]
            coo = hop.stack.matrix.tocoo()
            for r, c in zip(coo.row, coo.col):
                k, local = divmod(int(r), rows.size)
                full = engine.user_adjacencies[k].matrix
                assert full[rows[local], cols[c]] != 0.0

    def test_self_loops_survive(self, single_engine):
        blocks = single_engine.layered_subgraph_nodes(
            np.array([3]), hops=1, fanout=2, rng=np.random.default_rng(0))
        sliced = blocks.hops[0].matrix
        # the seed's row keeps its identity message among the sampled columns
        seed_col = blocks.localize(0, np.array([3]))[0]
        assert sliced[0, seed_col] > 0


class TestSubgraphBlock:
    """Mode guard of the multi-behavior engine's sampled-block API."""

    def test_multi_behavior_engine_rejects_single_api(self, engine):
        with pytest.raises(RuntimeError):
            engine.layered_subgraph_nodes(np.array([0]))


class TestSingleSubgraph:
    """Mode guard of the single-graph engine's sampled-block API."""

    def test_single_engine_rejects_bipartite_api(self, single_engine):
        with pytest.raises(RuntimeError):
            single_engine.layered_subgraph(np.array([0]), np.array([0]))

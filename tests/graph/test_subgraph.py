"""Neighbor sampling and the induced slices of sampled per-hop blocks."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.graph.subgraph as subgraph
from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.graph import PropagationEngine
from repro.graph.subgraph import sample_neighbors
from repro.models import NGCF


def full_rank_reference(matrix, nodes, fanout, rng):
    """Rank every candidate edge of the frontier by (row, key).

    The reference for :func:`sample_neighbors`: the same key draw, one
    ``lexsort`` over all edges, ``rank < fanout`` per row. The shipped
    sampler pre-filters the edges first and must agree with this exactly.
    """
    indptr, indices = matrix.indptr, matrix.indices
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    pos = np.repeat(starts - offsets[:-1], lengths) + np.arange(total)
    candidates = indices[pos]
    if fanout is None or int(lengths.max()) <= fanout:
        return candidates
    row_of_edge = np.repeat(np.arange(nodes.size), lengths)
    keys = rng.random(total)
    order = np.lexsort((keys, row_of_edge))
    rank = np.arange(total) - np.repeat(offsets[:-1], lengths)
    return candidates[order][rank < fanout]


def csr_with_degrees(degrees, num_cols, rng):
    """CSR whose row ``r`` holds ``degrees[r]`` distinct random columns."""
    rows = [np.sort(rng.choice(num_cols, size=d, replace=False))
            for d in degrees]
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int32)
    indices = (np.concatenate(rows) if rows else np.empty(0)).astype(np.int32)
    data = rng.random(indices.size)
    return sp.csr_matrix((data, indices, indptr),
                         shape=(len(degrees), num_cols))


def assert_same_draw(matrix, nodes, fanout, seed):
    """Shipped sampler == reference: ids, dtype, order and rng state."""
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_neighbors(matrix, nodes, fanout, ours)
    want = full_rank_reference(matrix, nodes, fanout, ref)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state


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


    @pytest.mark.parametrize("fanout", [True, False, 2.0, "3", 0, -1])
    def test_rejects_invalid_fanout(self, engine, fanout):
        matrix = engine.user_adjacencies[0].matrix
        with pytest.raises(ValueError, match="fanout value"):
            sample_neighbors(matrix, np.arange(3), fanout,
                             np.random.default_rng(0))

    def test_accepts_numpy_int_fanout(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        nodes = np.arange(engine.num_users)
        assert np.array_equal(
            sample_neighbors(matrix, nodes, np.int64(2),
                             np.random.default_rng(0)),
            sample_neighbors(matrix, nodes, 2, np.random.default_rng(0)))


class TestMatchesFullRank:
    """The pre-filtered sampler returns what a full rank of every edge does."""

    @pytest.mark.parametrize("trial", range(40))
    def test_random_csr(self, trial):
        meta = np.random.default_rng(1000 + trial)
        fanout = int(meta.choice([1, 2, 3, 5, 10]))
        num_rows = int(meta.integers(1, 60))
        # empty rows, rows exactly at the cap, small rows and hubs
        kinds = meta.integers(0, 4, size=num_rows)
        degrees = np.select(
            [kinds == 0, kinds == 1, kinds == 2],
            [0, fanout, meta.integers(1, 3 * fanout + 2, size=num_rows)],
            default=meta.integers(20 * fanout, 60 * fanout, size=num_rows))
        matrix = csr_with_degrees(degrees, int(degrees.max()) + 5, meta)
        # a frontier drawn with replacement repeats nodes
        nodes = meta.integers(0, num_rows, size=int(meta.integers(1, 80)))
        for seed in range(3):
            assert_same_draw(matrix, nodes, fanout, seed)
        assert_same_draw(matrix, nodes, None, 0)

    def test_all_rows_at_cap_draws_no_keys(self):
        matrix = csr_with_degrees(np.array([3, 0, 3, 2]), 10,
                                  np.random.default_rng(0))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        got = sample_neighbors(matrix, np.array([0, 1, 2, 3, 0]), 3, rng)
        assert got.size == 11
        assert rng.bit_generator.state == state

    def test_duplicate_frontier_nodes_draw_independently(self):
        matrix = csr_with_degrees(np.array([200]), 250,
                                  np.random.default_rng(1))
        nodes = np.zeros(4, dtype=np.int64)
        got = sample_neighbors(matrix, nodes, 5, np.random.default_rng(2))
        assert got.size == 20
        assert_same_draw(matrix, nodes, 5, 2)

    def test_fanout_one_on_hubs(self):
        meta = np.random.default_rng(3)
        matrix = csr_with_degrees(meta.integers(100, 400, size=30), 500, meta)
        nodes = np.arange(30)
        for seed in range(5):
            assert_same_draw(matrix, nodes, 1, seed)

    def test_row_with_too_few_passing_keys_falls_back(self):
        # row 0 has 40 edges and a cap of 2, so the pre-filter keeps keys
        # below 3·2/40 = 0.15; under seed 84 only one of its 40 keys does
        degrees = np.array([40, 2, 0, 25])
        matrix = csr_with_degrees(degrees, 60, np.random.default_rng(4))
        keys = np.random.default_rng(84).random(int(degrees.sum()))
        assert (keys[:40] < 3.0 * 2 / 40).sum() < 2
        got = sample_neighbors(matrix, np.arange(4), 2,
                               np.random.default_rng(84))
        assert got.size == 2 + 2 + 0 + 2
        assert_same_draw(matrix, np.arange(4), 2, 84)


class TestSeedIdRange:
    """Out-of-range seed ids fail at extraction instead of wrapping."""

    @pytest.fixture(scope="class")
    def split(self):
        return leave_one_out_split(taobao_like(num_users=30, num_items=50,
                                               seed=2))

    @pytest.mark.parametrize("users,pos,kind", [
        ([0], [-3], "item"), ([-1], [0], "user"),
        ([30], [0], "user"), ([0], [50], "item")])
    def test_gnmr_extract_block_rejects(self, split, users, pos, kind):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=0))
        with pytest.raises(ValueError, match=f"{kind} ids out of range"):
            model.extract_block(np.array(users), np.array(pos),
                                np.array([1]), fanout=3,
                                rng=np.random.default_rng(0))

    @pytest.mark.parametrize("users,pos,kind", [
        # item -3 would otherwise land on user node num_users - 3
        ([0], [-3], "item"), ([-1], [0], "user"), ([30], [0], "user"),
        ([0], [50], "item")])
    def test_ngcf_extract_block_rejects(self, split, users, pos, kind):
        model = NGCF(split.train, seed=0, num_layers=2)
        with pytest.raises(ValueError, match=f"{kind} ids out of range"):
            model.extract_block(np.array(users), np.array(pos),
                                np.array([1]), fanout=3,
                                rng=np.random.default_rng(0))

    def test_ngcf_cold_user_rejects_item_nodes(self, split):
        model = NGCF(split.train, seed=0, num_layers=2)
        with pytest.raises(ValueError, match=r"user ids out of range \[0, 30\)"):
            model.cold_user_embeddings(np.array([30]))

    def test_error_names_the_offending_ids(self, engine):
        with pytest.raises(ValueError, match=r"\[-2, 80\]"):
            engine.layered_subgraph(np.array([0, -2, 80, 5]), np.array([0]))

    def test_nodes_engine_rejects(self, single_engine):
        n = single_engine.num_users
        with pytest.raises(ValueError, match=f"\\[{n}\\]"):
            single_engine.layered_subgraph_nodes(np.array([0, n]))


def _hop_matrices(adjacency):
    return adjacency.matrix, adjacency._transposed()


def assert_same_csr(left, right):
    assert left.shape == right.shape
    assert left.dtype == right.dtype
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert left.data.tobytes() == right.data.tobytes()


class TestBlockPin:
    """Whole blocks equal those built with the full-rank reference sampler."""

    @pytest.fixture(scope="class")
    def split(self):
        return leave_one_out_split(taobao_like(num_users=80, num_items=160,
                                               seed=5))

    def _both(self, monkeypatch, extract):
        shipped = extract()
        with monkeypatch.context() as patch:
            patch.setattr(subgraph, "sample_neighbors", full_rank_reference)
            reference = extract()
        return shipped, reference

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_gnmr_bipartite_blocks(self, split, monkeypatch, dtype):
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=0,
                                             dtype=dtype))
        users, pos, neg = np.arange(0, 80, 3), np.arange(20), np.arange(20, 40)
        shipped, reference = self._both(monkeypatch, lambda: model.extract_block(
            users, pos, neg, fanout=(3, 2), rng=np.random.default_rng(11)))
        for ours, theirs in ((shipped.user_levels, reference.user_levels),
                             (shipped.item_levels, reference.item_levels)):
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert np.array_equal(a, b)
        assert shipped.user_levels[0].size > users.size  # the cap mattered
        for ours, theirs in zip(shipped.user_hops + shipped.item_hops,
                                reference.user_hops + reference.item_hops):
            for a, b in zip(_hop_matrices(ours.stack),
                            _hop_matrices(theirs.stack)):
                assert_same_csr(a, b)

    def test_ngcf_node_blocks(self, split, monkeypatch):
        model = NGCF(split.train, seed=0, num_layers=2)
        users, pos, neg = np.arange(0, 80, 4), np.arange(20), np.arange(20, 40)
        shipped, reference = self._both(monkeypatch, lambda: model.extract_block(
            users, pos, neg, fanout=2, rng=np.random.default_rng(12)))
        assert len(shipped.levels) == len(reference.levels)
        for a, b in zip(shipped.levels, reference.levels):
            assert np.array_equal(a, b)
        for ours, theirs in zip(shipped.hops, reference.hops):
            for a, b in zip(_hop_matrices(ours), _hop_matrices(theirs)):
                assert_same_csr(a, b)


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

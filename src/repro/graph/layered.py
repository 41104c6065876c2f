"""Layered (per-hop) sampled blocks — the mini-batch training block format.

A sampled block only needs layer ``l``'s output where layer ``l+1``
aggregates, and the final matching reads seed rows alone. This module
holds the GraphSAGE/DGL-"MFG"-style block: one shrinking bipartite
sub-adjacency per hop, so layer ``l`` computes exactly the rows layer
``l+1`` needs and the top layer computes seeds only. For a 2-layer model
with a 25k-node neighborhood and a few hundred seeds, that is ~3k
node-layer evaluations instead of ~2×25k.

Construction walks backwards from the seeds: with level sets
``S_L = seeds`` and ``S_{l-1} = S_l ∪ sampled-neighbors(S_l)``, the level-
``l`` computation aggregates ``S_l``-rows from ``S_{l-1}``-columns through
the induced bipartite slice ``A[S_l][:, S_{l-1}]``. Induced slicing keeps
every graph edge between the included node sets; row-normalized
adjacencies are re-normalized over the included columns so messages stay
means. With ``fanout=None`` the level sets cover every reachable neighbor,
each re-normalized row equals the full-graph row, and the seed outputs are
*bit-exact* full-graph values — the property the layered tests pin down.

Per-hop fanout schedules compose naturally: ``fanout=[10, 5]`` caps the
first expansion away from the seeds at 10 neighbors per (node, behavior)
and the second at 5, bounding the deepest (cheapest-per-row, but largest)
level set.

Two shapes mirror the two engine modes:

* :class:`LayeredBlock` — multi-behavior (GNMR): per-level user-side and
  item-side stacked-CSR bipartite slices with the engine's fused
  ``(K·n) × m`` layout.
* :class:`LayeredNodeBlocks` — single-graph (NGCF): per-level rectangular
  slices of one square adjacency over the joint (users+items) space.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.subgraph import (
    _expand,
    _IndexMap,
    _slice_block,
    resolve_fanout,
)
from repro.tensor.sparse import SparseAdjacency
from repro.tensor.tensor import Tensor


class _BipartiteHop:
    """One hop's fused bipartite slice: ``(K·|dst|) × |src|`` stacked CSR."""

    __slots__ = ("stack", "num_dst", "num_behaviors")

    def __init__(self, stack: SparseAdjacency, num_dst: int, num_behaviors: int):
        self.stack = stack
        self.num_dst = int(num_dst)
        self.num_behaviors = int(num_behaviors)

    def propagate(self, h_src: Tensor) -> Tensor:
        """Aggregate source embeddings to destinations: ``(|dst|, K, d)``."""
        out = self.stack.matmul(h_src)                       # (K·dst, d)
        return out.reshape(self.num_behaviors, self.num_dst,
                           h_src.shape[-1]).transpose(1, 0, 2)


def _fused_slice(matrices: list[sp.csr_matrix], rows: np.ndarray,
                 cols: np.ndarray, renormalize: bool, dtype) -> SparseAdjacency:
    """Vstack the K per-behavior induced slices into one stacked CSR."""
    blocks = [_slice_block(m, rows, cols, renormalize) for m in matrices]
    return SparseAdjacency(sp.vstack(blocks, format="csr"), dtype=dtype,
                           precompute_transpose=True)


class LayeredBlock:
    """Per-hop shrinking bipartite blocks for multi-behavior propagation.

    ``user_levels[l]`` / ``item_levels[l]`` are the sorted global ids whose
    embeddings exist *after* ``l`` layer applications — ``user_levels[0]``
    is the widest (order-0 input) set, ``user_levels[L]`` the seed users.
    ``user_hops[l]`` aggregates item level-``l`` embeddings into user
    level-``l+1`` rows (and ``item_hops[l]`` the mirror image), so a model
    runs layer ``l+1`` as ``layer(user_hops[l].propagate(h_item))`` and
    each level's tensors shrink toward the seeds.

    >>> import numpy as np
    >>> from repro.data import taobao_like
    >>> from repro.graph import PropagationEngine
    >>> graph = taobao_like(num_users=20, num_items=30, seed=0).graph()
    >>> engine = PropagationEngine(graph, normalization="row")
    >>> block = engine.layered_subgraph(np.array([0, 1]), np.array([2, 3]),
    ...                                 hops=2, fanout=None)
    >>> block.num_layers, block.num_behaviors
    (2, 4)
    >>> block.user_levels[-1].tolist()           # the top level is the seeds
    [0, 1]
    >>> block.localize_users(2, np.array([1])).tolist()
    [1]
    >>> h_item = np.ones((block.item_levels[0].size, 8))
    >>> block.user_hops[0].propagate(h_item).shape == (
    ...     block.user_levels[1].size, 4, 8)
    True
    """

    def __init__(self, user_levels: list[np.ndarray],
                 item_levels: list[np.ndarray],
                 user_hops: list[_BipartiteHop],
                 item_hops: list[_BipartiteHop],
                 num_behaviors: int):
        self._user_maps = [_IndexMap(nodes) for nodes in user_levels]
        self._item_maps = [_IndexMap(nodes) for nodes in item_levels]
        self.user_hops = user_hops
        self.item_hops = item_hops
        self.num_behaviors = int(num_behaviors)

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.user_hops)

    @property
    def user_levels(self) -> list[np.ndarray]:
        """Global user ids per level (position = local row index)."""
        return [m.nodes for m in self._user_maps]

    @property
    def item_levels(self) -> list[np.ndarray]:
        return [m.nodes for m in self._item_maps]

    def localize_users(self, level: int, ids: np.ndarray) -> np.ndarray:
        """Rows of level-``level`` user tensors holding these global ids."""
        return self._user_maps[level].localize(ids, "user")

    def localize_items(self, level: int, ids: np.ndarray) -> np.ndarray:
        return self._item_maps[level].localize(ids, "item")

    def restrict_users(self, level: int) -> np.ndarray:
        """Rows of level ``level-1`` user tensors kept at level ``level``.

        Level sets are nested (``S_l ⊆ S_{l-1}``), so a model's residual /
        self-connection term restricts the previous level's tensor to these
        rows before adding it to the propagated one.
        """
        return self._user_maps[level - 1].localize(
            self._user_maps[level].nodes, "user")

    def restrict_items(self, level: int) -> np.ndarray:
        return self._item_maps[level - 1].localize(
            self._item_maps[level].nodes, "item")


class LayeredNodeBlocks:
    """Per-hop shrinking slices of one square adjacency (NGCF mode).

    ``levels[l]`` is the sorted joint-space node set after ``l`` layers
    (``levels[L]`` = seeds); ``hops[l]`` is the ``|levels[l+1]| ×
    |levels[l]|`` induced slice, self-loops included because the level
    sets are nested.
    """

    def __init__(self, levels: list[np.ndarray],
                 hops: list[SparseAdjacency]):
        self._maps = [_IndexMap(nodes) for nodes in levels]
        self.hops = hops

    @property
    def num_layers(self) -> int:
        return len(self.hops)

    @property
    def levels(self) -> list[np.ndarray]:
        return [m.nodes for m in self._maps]

    def localize(self, level: int, ids: np.ndarray) -> np.ndarray:
        return self._maps[level].localize(ids, "node")

    def restrict(self, level: int) -> np.ndarray:
        """Rows of level ``level-1`` tensors kept at level ``level``."""
        return self._maps[level - 1].localize(self._maps[level].nodes, "node")

    def propagate(self, level: int, h: Tensor) -> Tensor:
        """One hop: aggregate level-``level`` rows into level ``level+1``."""
        return self.hops[level].matmul(h)


def sample_layered_bipartite(user_matrices: list[sp.csr_matrix],
                             item_matrices: list[sp.csr_matrix],
                             seed_users: np.ndarray, seed_items: np.ndarray,
                             hops: int, fanout,
                             rng: np.random.Generator,
                             dtype,
                             renormalize: bool) -> LayeredBlock:
    """Build a :class:`LayeredBlock` by backward expansion from the seeds.

    ``fanout`` follows :func:`~repro.graph.subgraph.resolve_fanout`
    semantics: ``schedule[0]`` caps the first expansion away from the
    seeds (i.e. the neighbors aggregated by the *last* layer).
    """
    schedule = resolve_fanout(fanout, hops)
    users = [np.unique(np.asarray(seed_users, dtype=np.int64))]
    items = [np.unique(np.asarray(seed_items, dtype=np.int64))]
    for hop_fanout in schedule:
        # the level-l computation pulls from sampled neighbors of level l's
        # node sets; union with the current sets keeps levels nested so
        # residual connections can restrict instead of re-gather
        next_items = _expand(user_matrices, users[-1], hop_fanout, rng)
        next_users = _expand(item_matrices, items[-1], hop_fanout, rng)
        users.append(np.union1d(users[-1], next_users))
        items.append(np.union1d(items[-1], next_items))
    # built seed-first; level 0 must be the widest set
    users.reverse()
    items.reverse()
    k = len(user_matrices)
    user_hops = [
        _BipartiteHop(_fused_slice(user_matrices, users[level + 1],
                                   items[level], renormalize, dtype),
                      num_dst=users[level + 1].size, num_behaviors=k)
        for level in range(hops)
    ]
    item_hops = [
        _BipartiteHop(_fused_slice(item_matrices, items[level + 1],
                                   users[level], renormalize, dtype),
                      num_dst=items[level + 1].size, num_behaviors=k)
        for level in range(hops)
    ]
    return LayeredBlock(users, items, user_hops, item_hops, num_behaviors=k)


def sample_layered_square(matrix: sp.csr_matrix, seed_nodes: np.ndarray,
                          hops: int, fanout,
                          rng: np.random.Generator,
                          dtype) -> LayeredNodeBlocks:
    """Build :class:`LayeredNodeBlocks` over one square adjacency (NGCF)."""
    schedule = resolve_fanout(fanout, hops)
    levels = [np.unique(np.asarray(seed_nodes, dtype=np.int64))]
    for hop_fanout in schedule:
        neighbors = _expand([matrix], levels[-1], hop_fanout, rng)
        levels.append(np.union1d(levels[-1], neighbors))
    levels.reverse()
    slices = [
        SparseAdjacency(_slice_block(matrix, levels[level + 1], levels[level],
                                     renormalize=False),
                        dtype=dtype, precompute_transpose=True)
        for level in range(hops)
    ]
    return LayeredNodeBlocks(levels, slices)

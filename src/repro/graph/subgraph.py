"""Neighbor-sampling primitives for mini-batch graph training.

GNMR's Algorithm 1 trains on mini-batches of seed users, yet full-graph
propagation pays ``A @ H`` over every node each step. The sampled training
path instead expands the batch seeds L hops with a per-(node, behavior)
fanout cap and propagates over the induced sub-adjacencies only, so the
per-step cost scales with ``batch × fanout^L`` instead of the graph size.

This module holds the pieces that expansion is built from: fanout-spec
validation and parsing (scalar cap, ``None`` for no cap, or a per-hop
schedule), vectorized per-row neighbor sampling, induced-slice extraction
with row re-normalization, and the global→local index map. The per-hop
block types built on them live in :mod:`repro.graph.layered`.

Row-normalized ("mean") adjacencies are re-normalized over the *sampled*
neighborhood, so each message is the mean of the neighbors actually
included — the unbiased-as-fanout-grows estimator — and a fanout covering
every neighbor reproduces the full-graph messages exactly. Other
normalizations keep their original edge values (a subset sum; NGCF's
self-loops keep the identity component intact).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _check_fanout_entry(value, position: str) -> None:
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"fanout {position} must be an int or None, "
                         f"got {value!r}")
    if value < 1:
        raise ValueError(f"fanout {position} must be >= 1 (or None for no "
                         f"cap), got {value}")


def check_seed_ids(ids, n: int, kind: str) -> np.ndarray:
    """Seed ids as int64, refusing any outside ``[0, n)``.

    A negative id would otherwise index from the end of the CSR arrays
    and sample the wrong node's neighborhood.

    >>> check_seed_ids([0, 4, -3, 9], 5, "item")
    Traceback (most recent call last):
        ...
    ValueError: item ids out of range [0, 5): [-3, 9]
    """
    ids = np.asarray(ids, dtype=np.int64)
    bad = (ids < 0) | (ids >= n)
    if bad.any():
        raise ValueError(f"{kind} ids out of range [0, {n}): "
                         f"{np.unique(ids[bad])[:5].tolist()}")
    return ids


def validate_fanout(fanout) -> None:
    """Validate a fanout spec without knowing the hop count.

    Accepts a scalar (``int`` ≥ 1), ``None`` (no cap), or a sequence of
    those (a per-hop schedule). Raises ``ValueError`` for anything else —
    including an empty schedule, which would silently sample nothing.
    """
    if isinstance(fanout, (list, tuple)):
        if len(fanout) == 0:
            raise ValueError("fanout schedule must not be empty")
        for i, entry in enumerate(fanout):
            _check_fanout_entry(entry, f"schedule entry {i}")
        return
    _check_fanout_entry(fanout, "value")


def resolve_fanout(fanout, hops: int) -> list[int | None]:
    """Normalize a fanout spec into a per-hop schedule of length ``hops``.

    A scalar (or ``None``) broadcasts to every hop; a sequence must match
    ``hops`` exactly — a silent truncation or cycle would make ``fanout=[10,
    5]`` mean different things at different model depths.

    >>> resolve_fanout(10, 2)
    [10, 10]
    >>> resolve_fanout(None, 3)
    [None, None, None]
    >>> resolve_fanout([10, 5], 2)
    [10, 5]
    >>> resolve_fanout([10, 5], 3)
    Traceback (most recent call last):
        ...
    ValueError: fanout schedule has 2 entries but the expansion runs 3 hops
    """
    validate_fanout(fanout)
    if isinstance(fanout, (list, tuple)):
        if len(fanout) != hops:
            raise ValueError(f"fanout schedule has {len(fanout)} entries but "
                             f"the expansion runs {hops} hops")
        return [None if f is None else int(f) for f in fanout]
    return [fanout] * hops


def parse_fanout(text: str) -> int | None | tuple[int | None, ...]:
    """Parse the CLI ``--fanout`` string into a fanout spec.

    ``"10"`` → 10, ``"0"`` → None (no cap), ``"10,5"`` → ``(10, 5)`` with
    per-hop semantics (``0`` entries mean "no cap on that hop").

    >>> parse_fanout("10"), parse_fanout("0"), parse_fanout("10,5")
    (10, None, (10, 5))
    >>> parse_fanout("10,0,5")
    (10, None, 5)
    """
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"invalid --fanout value {text!r}: empty entry")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"invalid --fanout value {text!r}: entries must be "
                         "integers") from None
    if any(v < 0 for v in values):
        raise ValueError(f"invalid --fanout value {text!r}: entries must be "
                         ">= 0 (0 means no cap)")
    resolved = [None if v == 0 else v for v in values]
    if len(resolved) == 1:
        return resolved[0]
    return tuple(resolved)


#: an over-cap row of length L keeps the edges whose key is below
#: ``_PREFILTER_SLACK * fanout / L``: about 3·fanout survivors. Fewer than
#: fanout pass (the per-row fallback) in ~5% of over-cap rows at fanout 1,
#: ~0.6% at fanout 3 and almost never at 10
_PREFILTER_SLACK = 3.0


def sample_neighbors(matrix: sp.csr_matrix, nodes: np.ndarray,
                     fanout: int | None,
                     rng: np.random.Generator) -> np.ndarray:
    """Up-to-``fanout`` neighbors of each node from one CSR adjacency.

    Returns the (non-unique) concatenation of the sampled neighbor ids,
    frontier row by row; ``fanout=None`` keeps every neighbor. Sampling is
    per node — a hub's neighborhood is capped, a sparse node keeps
    everything it has — and fully vectorized (no per-node Python loop on
    the training hot path).

    When any row is over the cap, every candidate edge draws one uniform
    key (one ``rng.random(total)`` call) and each row keeps its
    ``fanout`` smallest keys, in key order. Ranking every edge would sort
    the whole frontier to keep a small part of it, so an exact pre-filter
    runs first:

    * rows at or under the cap keep every edge;
    * an over-cap row of length ``L`` keeps only the edges whose key is
      below ``3·fanout/L`` (about ``3·fanout`` of them);
    * a row where fewer than ``fanout`` keys pass falls back to all of its
      edges.

    Only the survivors are ``lexsort``-ed by (row, key), keeping
    ``rank < fanout``. The result equals a full rank of every edge, order
    included: when at least ``fanout`` keys of a row lie below a
    threshold, its ``fanout`` smallest keys (and any key tied with them)
    lie below it too, and the stable sort keeps ties in edge order.

    >>> import scipy.sparse as sp
    >>> adjacency = sp.csr_matrix(np.array([[1, 1, 0, 0, 0, 0],
    ...                                     [1, 1, 1, 1, 1, 1]]))
    >>> rng = np.random.default_rng(0)
    >>> sorted(sample_neighbors(adjacency, np.array([0]), 2, rng).tolist())
    [0, 1]
    >>> sample_neighbors(adjacency, np.array([1]), 2, rng).size
    2
    """
    _check_fanout_entry(fanout, "value")
    indptr, indices = matrix.indptr, matrix.indices
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    if fanout is None or int(lengths.max()) <= fanout:
        # global CSR position of each candidate edge, frontier-row by row
        pos = np.repeat(starts - offsets[:-1], lengths) + np.arange(total)
        return indices[pos]
    keys = rng.random(total)
    over = lengths > fanout
    threshold = np.full(nodes.size, 2.0)  # keys lie in [0, 1): keep all
    threshold[over] = _PREFILTER_SLACK * fanout / lengths[over]
    keep = keys < np.repeat(threshold, lengths)

    def survivors():
        edge = np.flatnonzero(keep)  # position in the frontier's edge list
        row = np.searchsorted(offsets, edge, side="right") - 1
        return edge, row, np.bincount(row, minlength=nodes.size)

    edge, row, kept = survivors()
    short = over & (kept < fanout)
    if short.any():  # too few keys passed: rank the whole row
        keep |= np.repeat(short, lengths)
        edge, row, kept = survivors()
    order = np.lexsort((keys[edge], row))  # stable: rows stay contiguous
    edge, row = edge[order], row[order]
    rank = np.arange(edge.size) - np.repeat(np.cumsum(kept) - kept, kept)
    take = rank < fanout
    edge, row = edge[take], row[take]
    return indices[starts[row] + edge - offsets[row]]


def _expand(matrices: list[sp.csr_matrix], frontier: np.ndarray,
            fanout: int | None, rng: np.random.Generator) -> np.ndarray:
    """Unique sampled neighbors of a frontier across K adjacencies."""
    if frontier.size == 0:
        return np.empty(0, dtype=np.int64)
    gathered = [sample_neighbors(m, frontier, fanout, rng) for m in matrices]
    merged = np.concatenate(gathered) if gathered else np.empty(0, dtype=np.int64)
    return np.unique(merged.astype(np.int64, copy=False))


def _renormalize_rows(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """Rescale each row to sum 1 (mean over the sampled neighborhood)."""
    sums = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return (sp.diags(inv.astype(matrix.dtype)) @ matrix).tocsr()


def _slice_block(matrix: sp.csr_matrix, rows: np.ndarray,
                 cols: np.ndarray, renormalize: bool) -> sp.csr_matrix:
    """Induced sub-adjacency ``matrix[rows][:, cols]`` as CSR."""
    block = matrix[rows][:, cols].tocsr()
    if renormalize:
        block = _renormalize_rows(block)
    return block


class _IndexMap:
    """Old→new index lookup over a sorted unique node array."""

    __slots__ = ("nodes",)

    def __init__(self, nodes: np.ndarray):
        self.nodes = nodes  # sorted unique int64

    def localize(self, ids: np.ndarray, kind: str) -> np.ndarray:
        """Map global ids to positions in the block (raises if absent)."""
        ids = np.asarray(ids, dtype=np.int64)
        pos = np.searchsorted(self.nodes, ids)
        ok = (pos < self.nodes.size) & (self.nodes[np.minimum(pos, self.nodes.size - 1)] == ids)
        if not np.all(ok):
            missing = np.unique(ids[~ok])[:5]
            raise KeyError(f"{kind} ids not in subgraph: {missing.tolist()}")
        return pos

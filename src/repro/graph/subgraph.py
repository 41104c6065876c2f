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


def sample_neighbors(matrix: sp.csr_matrix, nodes: np.ndarray,
                     fanout: int | None,
                     rng: np.random.Generator) -> np.ndarray:
    """Up-to-``fanout`` neighbors of each node from one CSR adjacency.

    Returns the (non-unique) concatenation of the sampled neighbor ids;
    ``fanout=None`` keeps every neighbor. Sampling is per node — a hub's
    neighborhood is capped, a sparse node keeps everything it has — and
    fully vectorized: every candidate edge gets a random key and a stable
    ``lexsort`` ranks edges within their row, so selecting ``rank < fanout``
    draws without replacement across all rows in one pass (no per-node
    Python loop on the training hot path).
    """
    if fanout is not None and fanout < 1:
        raise ValueError("fanout must be >= 1 (or None for no cap)")
    indptr, indices = matrix.indptr, matrix.indices
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    # global CSR position of each candidate edge, frontier-row by row
    pos = np.repeat(starts - offsets[:-1], lengths) + np.arange(total)
    candidates = indices[pos]
    if fanout is None or int(lengths.max()) <= fanout:
        return candidates
    row_of_edge = np.repeat(np.arange(nodes.size), lengths)
    keys = rng.random(total)
    order = np.lexsort((keys, row_of_edge))  # stable: rows stay contiguous
    rank = np.arange(total) - np.repeat(offsets[:-1], lengths)
    return candidates[order][rank < fanout]


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

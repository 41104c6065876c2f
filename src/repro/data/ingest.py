"""Streaming, memory-bounded dataset ingestion from event logs.

The in-memory loader (:mod:`repro.data.loaders`) materializes every row of
the file as Python objects before building arrays — fine for test
fixtures, hopeless for UserBehavior-scale logs. This module builds the
same :class:`~repro.data.dataset.InteractionDataset` (and from it the
stacked-CSR :class:`~repro.graph.MultiBehaviorGraph`) out-of-core:

* the file is read in **fixed-size chunks** (``chunk_rows`` events at a
  time) through one shared parser that applies the same rating→behavior
  mapping and bad-row policy as the in-memory loader;
* **two-pass dense re-indexing**: pass 1 streams the log once to build
  the user/item vocabularies (from rows that survive behavior filtering
  only — no phantom ids) and exact per-behavior row counts; pass 2
  streams it again, filling **preallocated** per-behavior arrays through
  bounded append buffers that flush every ``chunk_rows`` events;
* peak *transient* memory is therefore O(chunk + vocabulary), independent
  of the number of events in the log — the benchmark
  ``benchmarks/bench_ingest.py`` measures and CI gates exactly this;
* the result can be persisted as a **deterministic** ``.npz`` artifact
  (byte-identical across re-ingests of the same log) and reloaded without
  re-parsing: ``repro.cli ingest <csv> --out <npz>`` then
  ``repro.cli train --scenario <npz>``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.data.loaders import (
    BadRowError,
    map_ratings_to_behaviors,
    parse_rating,
    parse_timestamp,
)
from repro.utils.checkpoint import ArchiveFormatError, load_arrays, save_arrays

#: dataset schema tag (bumped on any change to the member or key layout)
ARTIFACT_FORMAT = "repro-dataset-npz-v2"
#: earlier tags this build still reads (v1: same schema, meta.json manifest)
_READABLE_FORMATS = ("repro-dataset-npz-v1", ARTIFACT_FORMAT)
_LABELS = ("users", "items", "timestamps")


@dataclass
class IngestOptions:
    """Parsing knobs shared by both streaming passes.

    ``chunk_rows`` bounds every transient buffer: the parser hands rows
    over in lists of at most this many events, and the pass-2 append
    buffers flush into the preallocated arrays at the same bound.
    """

    delimiter: str = ","
    user_col: str = "user"
    item_col: str = "item"
    behavior_col: str | None = "behavior"
    rating_col: str | None = None
    timestamp_col: str | None = "timestamp"
    has_header: bool = True
    on_bad_rows: str = "raise"
    chunk_rows: int = 100_000

    def __post_init__(self):
        if (self.behavior_col is None) == (self.rating_col is None):
            raise ValueError(
                "exactly one of behavior_col / rating_col must be given")
        if self.on_bad_rows not in ("raise", "skip"):
            raise ValueError("on_bad_rows must be 'raise' or 'skip'")
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be positive")


@dataclass
class IngestReport:
    """Everything the two passes observed about the log."""

    rows_read: int = 0
    rows_kept: int = 0
    rows_dropped_bad: int = 0
    rows_dropped_behavior: int = 0
    chunks: int = 0
    num_users: int = 0
    num_items: int = 0
    has_timestamps: bool = False
    per_behavior: dict[str, int] = field(default_factory=dict)
    bad_row_examples: list[tuple[int, str]] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "rows_read": self.rows_read,
            "rows_kept": self.rows_kept,
            "rows_dropped_bad": self.rows_dropped_bad,
            "rows_dropped_behavior": self.rows_dropped_behavior,
            "chunks": self.chunks,
            "num_users": self.num_users,
            "num_items": self.num_items,
            "has_timestamps": self.has_timestamps,
            "per_behavior": dict(self.per_behavior),
        }


def iter_event_chunks(path: str | Path, options: IngestOptions,
                      report: IngestReport | None = None,
                      ) -> Iterator[list[tuple[str, str, str, float]]]:
    """Stream ``(user, item, behavior, timestamp)`` tuples in bounded chunks.

    Ratings are already mapped to behavior names; bad rows follow
    ``options.on_bad_rows`` (counted into ``report`` when skipping). No
    structure larger than one chunk is ever held.
    """
    path = Path(path)
    rating_mode = options.rating_col is not None
    chunk: list[tuple[str, str, str, float]] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=options.delimiter)
        header: list[str] | None = None
        column_of: dict[str, int] = {}
        for row_num, row in enumerate(reader):
            if not row:
                continue
            if row_num == 0 and options.has_header:
                header = [c.strip() for c in row]
                column_of = {name: idx for idx, name in enumerate(header)}
                continue
            if report is not None:
                report.rows_read += 1
            try:
                parsed = _parse_row(row, row_num, header, column_of,
                                    options, rating_mode)
            except BadRowError as exc:
                if options.on_bad_rows == "raise":
                    raise
                if report is not None:
                    report.rows_dropped_bad += 1
                    if len(report.bad_row_examples) < 5:
                        report.bad_row_examples.append((row_num, str(exc)))
                continue
            chunk.append(parsed)
            if len(chunk) >= options.chunk_rows:
                if report is not None:
                    report.chunks += 1
                yield chunk
                chunk = []
    if chunk:
        if report is not None:
            report.chunks += 1
        yield chunk


def _parse_row(row: list[str], row_num: int, header: list[str] | None,
               column_of: dict[str, int], options: IngestOptions,
               rating_mode: bool) -> tuple[str, str, str, float]:
    if header is not None:
        def cell(column: str) -> str | None:
            idx = column_of.get(column)
            if idx is None or idx >= len(row):
                return None
            return row[idx].strip()
    else:
        # positional: user, item, behavior-or-rating, [timestamp]
        positional = {options.user_col: 0, options.item_col: 1,
                      (options.behavior_col or options.rating_col): 2,
                      options.timestamp_col: 3}

        def cell(column: str) -> str | None:
            idx = positional.get(column)
            if idx is None or idx >= len(row):
                return None
            return row[idx].strip()

    user = cell(options.user_col)
    item = cell(options.item_col)
    if not user or not item:
        raise BadRowError(f"row {row_num}: missing user/item id")
    if rating_mode:
        raw_rating = cell(options.rating_col)
        if not raw_rating:
            raise BadRowError(f"row {row_num}: missing column "
                              f"{options.rating_col!r}")
        rating = parse_rating(raw_rating, row_num)
        behavior = str(map_ratings_to_behaviors(np.array([rating]))[0])
    else:
        behavior = cell(options.behavior_col)
        if not behavior:
            raise BadRowError(f"row {row_num}: missing column "
                              f"{options.behavior_col!r}")
    timestamp = 0.0
    if options.timestamp_col is not None:
        timestamp = parse_timestamp(cell(options.timestamp_col), row_num)
    return user, item, behavior, timestamp


def ingest_csv(path: str | Path, name: str, target_behavior: str,
               behavior_names: tuple[str, ...] | None = None,
               options: IngestOptions | None = None,
               **option_overrides) -> tuple[InteractionDataset, IngestReport]:
    """Two-pass, chunked ingestion of an event log into a dataset.

    Pass 1 scans the log to size everything (vocabularies over surviving
    rows, exact per-behavior counts); pass 2 fills preallocated arrays.
    Between the two passes nothing proportional to the log is resident
    beyond the final arrays themselves.

    Parameters mirror :func:`repro.data.loaders.load_interactions_csv`;
    extra keyword overrides are applied onto ``options``.
    """
    if options is None:
        options = IngestOptions(**option_overrides)
    elif option_overrides:
        raise ValueError("pass either options or keyword overrides, not both")

    report = IngestReport()
    keep: set[str] | None = set(behavior_names) if behavior_names else None

    # ---------------------------------------------------------- pass 1
    user_index: dict[str, int] = {}
    item_index: dict[str, int] = {}
    counts: dict[str, int] = {}
    discovered: dict[str, None] = {}
    has_timestamps = False
    for chunk in iter_event_chunks(path, options, report):
        for user, item, behavior, timestamp in chunk:
            discovered.setdefault(behavior, None)
            if keep is not None and behavior not in keep:
                report.rows_dropped_behavior += 1
                continue
            counts[behavior] = counts.get(behavior, 0) + 1
            if user not in user_index:
                user_index[user] = len(user_index)
            if item not in item_index:
                item_index[item] = len(item_index)
            if timestamp != 0.0:
                has_timestamps = True

    if behavior_names is None:
        behavior_names = tuple(discovered)
    if target_behavior not in behavior_names:
        raise ValueError(
            f"target behavior {target_behavior!r} absent from data "
            f"(saw {tuple(discovered)})")

    # ---------------------------------------------------------- pass 2
    arrays = {
        b: {
            "users": np.empty(counts.get(b, 0), dtype=np.int64),
            "items": np.empty(counts.get(b, 0), dtype=np.int64),
            "timestamps": np.zeros(counts.get(b, 0), dtype=np.float64),
        }
        for b in behavior_names
    }
    offsets = {b: 0 for b in behavior_names}
    buffers: dict[str, list[tuple[int, int, float]]] = {b: [] for b in behavior_names}

    def flush(behavior: str) -> None:
        buffer = buffers[behavior]
        if not buffer:
            return
        start = offsets[behavior]
        stop = start + len(buffer)
        rec = arrays[behavior]
        rec["users"][start:stop] = [entry[0] for entry in buffer]
        rec["items"][start:stop] = [entry[1] for entry in buffer]
        rec["timestamps"][start:stop] = [entry[2] for entry in buffer]
        offsets[behavior] = stop
        buffer.clear()

    kept_behaviors = set(behavior_names)
    for chunk in iter_event_chunks(path, options, report=None):
        for user, item, behavior, timestamp in chunk:
            if behavior not in kept_behaviors:
                continue
            buffers[behavior].append(
                (user_index[user], item_index[item], timestamp))
        for behavior in behavior_names:
            flush(behavior)

    for behavior in behavior_names:
        if offsets[behavior] != counts.get(behavior, 0):
            raise RuntimeError(
                f"log changed between ingest passes: behavior {behavior!r} "
                f"filled {offsets[behavior]} of {counts.get(behavior, 0)} rows")

    report.rows_kept = sum(counts.values())
    report.num_users = len(user_index)
    report.num_items = len(item_index)
    report.has_timestamps = has_timestamps
    report.per_behavior = {b: counts.get(b, 0) for b in behavior_names}

    dataset = InteractionDataset(
        name=name,
        num_users=len(user_index),
        num_items=len(item_index),
        behavior_names=behavior_names,
        target_behavior=target_behavior,
        interactions=arrays,
    )
    return dataset, report


# ----------------------------------------------------------------------
# Deterministic dataset artifacts
# ----------------------------------------------------------------------

def save_dataset_npz(dataset: InteractionDataset, path: str | Path,
                     has_timestamps: bool | None = None) -> Path:
    """Persist a dataset as an atomic, deterministic, hashed archive
    (:func:`save_arrays`): three arrays per behavior, the header in the
    manifest. Readable with :func:`load_dataset_npz` (or ``np.load``)."""
    if has_timestamps is None:
        has_timestamps = any(
            bool(np.any(dataset.arrays(b)[2] != 0.0))
            for b in dataset.behavior_names)
    meta = {
        "format": ARTIFACT_FORMAT,
        "name": dataset.name,
        "behavior_names": list(dataset.behavior_names),
        "target_behavior": dataset.target_behavior,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "has_timestamps": bool(has_timestamps),
    }
    # index prefix keeps member names free of path-separator constraints
    arrays = {f"b{index}_{label}": array
              for index, behavior in enumerate(dataset.behavior_names)
              for label, array in zip(_LABELS, dataset.arrays(behavior))}
    return save_arrays(path, arrays, meta)


def load_dataset_npz(path: str | Path) -> tuple[InteractionDataset, dict]:
    """Load (and verify) a dataset artifact written by :func:`save_dataset_npz`.

    Returns ``(dataset, meta)`` where ``meta`` carries the artifact
    header (including ``has_timestamps``).
    """
    arrays, meta = load_arrays(path)
    if meta.get("format") not in _READABLE_FORMATS:
        raise ArchiveFormatError(f"{path}: unsupported artifact format "
                                 f"{meta.get('format')!r}")
    expected = {f"b{index}_{label}" for label in _LABELS
                for index in range(len(meta["behavior_names"]))}
    if set(arrays) != expected:
        raise ArchiveFormatError(f"{path}: dataset artifact members "
                                 f"{sorted(arrays)} != {sorted(expected)}")
    interactions = {
        behavior: {label: arrays[f"b{index}_{label}"] for label in _LABELS}
        for index, behavior in enumerate(meta["behavior_names"])}
    dataset = InteractionDataset(
        name=meta["name"],
        num_users=int(meta["num_users"]),
        num_items=int(meta["num_items"]),
        behavior_names=tuple(meta["behavior_names"]),
        target_behavior=meta["target_behavior"],
        interactions=interactions,
    )
    return dataset, meta

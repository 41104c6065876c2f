"""Async double-buffered sampled-batch pipeline.

Sampled mini-batch training pays for two very different things per step:
*extraction* (draw the pairwise batch, expand it L hops, slice the per-hop
sub-adjacencies — pure graph work that never reads a parameter) and
*compute* (forward, backward, optimizer). Run serially, extraction is dead
time the optimizer waits on. :class:`SampledBatchPipeline` moves it off
the training thread: while the optimizer applies step ``t``, background
workers extract the blocks for steps ``t+1, t+2, …`` from a pre-drawn
batch stream, double-buffered so the training loop always finds the next
block ready (hardware permitting). With ``workers=0`` the same stream is
extracted inline — the trainer's ``propagation="sampled"`` mode.

Determinism contract
--------------------
Everything random is split off one seed, and nothing random depends on
the worker count:

* the **batch stream** is drawn step-ordered from its own generator on
  the consuming thread, so step ``t``'s batch never depends on worker
  count or scheduling;
* **extraction** for step ``t`` runs on its own per-step spawned child
  generator — whichever worker (or the inline ``workers=0`` path) ends
  up executing it. Traces are therefore bit-reproducible across *any*
  worker count: ``workers=0``, ``1`` and ``8`` draw the exact same
  neighborhoods for every step, which is what the cross-worker
  determinism golden in ``tests/train/test_pipeline.py`` pins down.

Worker count is purely an execution knob (how much extraction overlaps
compute), never a sampling knob.

>>> draws = iter([[0], [1], [2]])
>>> pipe = SampledBatchPipeline(
...     draw_batch=lambda rng: next(draws),
...     extract=lambda batch, rng: batch[0] * 10,
...     total_steps=3, seed=0, workers=1)
>>> with pipe:
...     [(p.step, p.batch, p.block) for p in pipe]
[(0, [0], 0), (1, [1], 10), (2, [2], 20)]
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

_SENTINEL = object()


@dataclass
class PreparedBatch:
    """One step's prefetched work unit: the batch plus its sampled block."""

    step: int
    batch: Any
    block: Any


class SampledBatchPipeline:
    """Step-ordered iterator of :class:`PreparedBatch`, extraction prefetched.

    Parameters
    ----------
    draw_batch:
        ``rng → batch``. Called in step order on the consuming thread
        (batches are cheap; blocks are not).
    extract:
        ``(batch, rng) → block``. Runs on a background worker when
        ``workers ≥ 1``; must not read mutable training state (the models'
        ``extract_block`` reads only graph structure, so it qualifies).
        Skipped (block ``None``) for empty batches (``len(batch) == 0``).
    total_steps:
        Number of steps the stream produces.
    seed:
        Root seed; the batch stream and each *step's* extraction get
        spawned children (per-step, not per-worker, so traces are
        invariant to the worker count).
    workers:
        Background extraction threads. ``0`` runs everything inline on
        the consuming thread — same rng streams as any worker count, no
        threading — the reference the equivalence tests compare against.
    depth:
        Per-worker buffer depth; ``2`` double-buffers (one block being
        consumed, one ready, one in flight per worker).
    """

    def __init__(self, draw_batch: Callable[[np.random.Generator], Any],
                 extract: Callable[[Any, np.random.Generator], Any],
                 total_steps: int, *, seed: int = 0, workers: int = 1,
                 depth: int = 2, start_step: int = 0):
        if total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if start_step < 0 or start_step > total_steps:
            raise ValueError("start_step must be in [0, total_steps]")
        self._draw_batch = draw_batch
        self._extract = extract
        self.total_steps = int(total_steps)
        self.workers = int(workers)
        self.depth = int(depth)

        root = np.random.SeedSequence(seed)
        batch_ss, extract_ss = root.spawn(2)
        self._batch_rng = np.random.default_rng(batch_ss)
        # one child seed per STEP (not per worker): extraction randomness is
        # a property of the step, so any worker count replays the same trace.
        # Children are derived lazily (bit-identical to extract_ss.spawn —
        # a spawned child is SeedSequence(entropy, spawn_key + (i,))) so
        # construction stays O(1) however many total steps the run has.
        self._extract_ss = extract_ss

        # mid-epoch resume: fast-forward the batch stream through the steps
        # a previous run already consumed. Replaying the draws (rather than
        # restoring a live generator state) keeps the cursor exact even
        # though prefetching advances _batch_rng ahead of the consumed
        # step; per-step extraction rngs are derived from the absolute step
        # index so they need no fast-forward at all.
        for _ in range(start_step):
            self._draw_batch(self._batch_rng)
        self._produced = start_step  # next step to enqueue (batch drawn)
        self._consumed = start_step  # next step to hand out
        self._stop = False
        self._threads: list[threading.Thread] = []
        self._in_queues: list[queue.Queue] = []
        self._out_queues: list[queue.Queue] = []
        if self.workers >= 1:
            for w in range(self.workers):
                self._in_queues.append(queue.Queue(maxsize=self.depth))
                self._out_queues.append(queue.Queue(maxsize=self.depth))
                thread = threading.Thread(
                    target=self._worker_loop, args=(w,),
                    name=f"sampled-batch-worker-{w}", daemon=True)
                self._threads.append(thread)
                thread.start()

    def _step_rng(self, step: int) -> np.random.Generator:
        """The step's extraction generator, derived lazily from the seed
        tree (bit-identical to ``extract_ss.spawn(total_steps)[step]``)."""
        parent = self._extract_ss
        child = np.random.SeedSequence(entropy=parent.entropy,
                                       spawn_key=parent.spawn_key + (step,))
        return np.random.default_rng(child)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _worker_loop(self, w: int) -> None:
        in_q, out_q = self._in_queues[w], self._out_queues[w]
        while True:
            item = in_q.get()
            if item is _SENTINEL:
                return
            step, batch = item
            try:
                rng = self._step_rng(step)
                block = self._extract(batch, rng) if len(batch) else None
                result = (step, batch, block, None)
            except BaseException as exc:  # surfaced on the consuming thread
                result = (step, batch, None, exc)
            while not self._stop:
                try:
                    out_q.put(result, timeout=0.05)
                    break
                except queue.Full:
                    continue
            if self._stop:
                return

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _top_up(self) -> None:
        """Draw batches (in step order) and hand them to their workers."""
        while self._produced < self.total_steps:
            in_q = self._in_queues[self._produced % self.workers]
            if in_q.full():
                return  # must enqueue in order; stop at the first full lane
            batch = self._draw_batch(self._batch_rng)
            in_q.put_nowait((self._produced, batch))
            self._produced += 1

    def __iter__(self):
        return self

    def __next__(self) -> PreparedBatch:
        if self._consumed >= self.total_steps:
            raise StopIteration
        if self._stop:
            raise RuntimeError("pipeline is closed")
        if self.workers == 0:
            batch = self._draw_batch(self._batch_rng)
            rng = self._step_rng(self._consumed)
            block = self._extract(batch, rng) if len(batch) else None
            prepared = PreparedBatch(self._consumed, batch, block)
            self._consumed += 1
            return prepared
        self._top_up()
        out_q = self._out_queues[self._consumed % self.workers]
        step, batch, block, exc = out_q.get()
        assert step == self._consumed, "pipeline delivered out of order"
        self._consumed += 1
        self._top_up()  # keep the buffers primed before compute starts
        if exc is not None:
            self.close()
            raise exc
        return PreparedBatch(step, batch, block)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release their buffers (idempotent)."""
        if self._stop:
            return
        self._stop = True
        for in_q in self._in_queues:
            while True:  # only this thread enqueues; drain then sentinel
                try:
                    in_q.get_nowait()
                except queue.Empty:
                    break
            in_q.put(_SENTINEL)
        for out_q in self._out_queues:
            while True:
                try:
                    out_q.get_nowait()
                except queue.Empty:
                    break
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "SampledBatchPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

"""The ``serve-online`` and ``serve-batch`` workloads on the HTTP tier.

The benchmark builds a GNMR model (float32, embedding dim 32, so serving
dim 96) over a seeded catalog, wraps it in ``RecommendationService`` and
``RecommendationHTTPServer`` inside this process, and drives the server
from one separate load-generator process (``loadgen.py``) over at most
``nproc`` keep-alive connections:

* ``serve-online`` — open loop of single-user ``GET /recommend`` at
  ``ONLINE_RATE`` requests/s, Zipf-skewed users. The first
  ``STEADY_SHARE`` of the run is steady and gives the end-to-end figures,
  tail latency by the rule in ``stats.tail``. In the rest, the benchmark
  changes the model's embedding tables and calls ``model.on_step_end()``
  back to back; the server's watcher hot-swaps the snapshot.
* ``serve-batch`` — closed loop of ``POST /recommend`` with
  ``BATCH_USERS`` users per request, no model updates.

Every reply is checked against a library-direct
``RecommendationService.recommend`` call on the snapshot version it was
served from (two references: a batched call and a 1-user call, because a
GEMM and a GEMV round differently at float32 epsilon).
"""

from __future__ import annotations

import collections
import gc
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler
from urllib.parse import parse_qs, urlparse

import gen
import stats

CATALOG = {"num_users": 30_000, "num_items": 60_000, "rows": 300_000}
EMBEDDING_DIM = 32
K = 10
SETUP_REPS = 4
ONLINE_RATE = 50.0
#: share of a serve-online run before the first model update; the
#: end-to-end latency figures come from this steady phase
STEADY_SHARE = 0.6
#: model updates one serve-online run publishes; a fixed count, so every
#: run archives and checks the same number of snapshots
UPDATES = 2
#: latency limit of ``serve-online``; a failed request also misses it
SLO_MS = 50.0
BATCH_USERS = 256
#: distinct POST bodies the closed loop cycles through
BATCH_POOL = 4
#: seconds the load generator may need to start, connect and warm up
START_DELAY_S = 2.0


def install_wrappers(tracer) -> None:
    """Timing wrappers around the serving tier's public calls."""
    from repro.core.gnmr import GNMR
    from repro.serve.http import (DynamicBatcher, RecommendationHTTPServer,
                                  _RequestHandler)
    from repro.serve.retriever import (ExclusionMask, MatrixBackend,
                                       TopKResult, TopKRetriever)
    from repro.serve.service import RecommendationService
    from repro.serve.store import EmbeddingStore

    # (user, request span id) in submit order; a batch span on the
    # batcher thread claims the requests it served
    submitted: collections.deque = collections.deque()
    lock = threading.Lock()

    def link_submit(span, args, pending):
        with lock:
            submitted.append((int(args[1]), span["parent"]))

    def link_batch(span, args, result):
        users = [int(u) for u in result.users]
        span["attrs"] = {"users": len(users)}
        if span["parent"] is not None:
            return  # a POST: the request span is the parent
        served = []
        with lock:
            for user in users:
                for pos, (queued_user, request) in enumerate(submitted):
                    if queued_user == user:
                        served.append(request)
                        del submitted[pos]
                        break
        span["attrs"]["requests"] = served

    def request_id(span, args, result):
        query = parse_qs(urlparse(args[0].path).query)
        if "rid" in query:
            span["tag"] = int(query["rid"][0])

    tracer.wrap(RecommendationService, "recommend", "serve.recommend",
                link_batch)
    tracer.wrap(RecommendationService, "reload", "serve.swap")
    tracer.wrap(MatrixBackend, "score_block", "serve.gemm")
    tracer.wrap(ExclusionMask, "gather", "serve.mask")
    tracer.wrap(ExclusionMask, "stamp", "serve.mask")
    tracer.wrap(TopKRetriever, "retrieve", "serve.retrieve")
    tracer.wrap(TopKResult, "to_payload", "serve.payload")
    tracer.wrap(RecommendationHTTPServer, "recommend_one", "serve.handle")
    tracer.wrap(RecommendationHTTPServer, "recommend_many", "serve.handle")
    tracer.wrap(_RequestHandler, "do_GET", "serve.http", request_id)
    tracer.wrap(_RequestHandler, "do_POST", "serve.http", request_id)
    tracer.wrap(BaseHTTPRequestHandler, "parse_request", "serve.http_parse",
                request_id)
    tracer.wrap(DynamicBatcher, "submit", "serve.submit", link_submit)
    tracer.wrap(EmbeddingStore, "verify", "serve.verify")
    tracer.wrap(GNMR, "serving_embeddings", "core.serving_embeddings")


def _build(interactions: dict, seed: int):
    """One set-up: model, snapshot + exclusion mask, running server."""
    from repro.core import GNMR, GNMRConfig
    from repro.data.dataset import InteractionDataset
    from repro.serve import RecommendationService
    from repro.serve.http import RecommendationHTTPServer

    # a fresh dataset object per set-up, so the graph build is timed too
    train = InteractionDataset("serve-catalog", CATALOG["num_users"],
                               CATALOG["num_items"], gen.BEHAVIORS, "buy",
                               interactions)
    model = GNMR(train, GNMRConfig(pretrain=False, seed=seed, dtype="float32",
                                   embedding_dim=EMBEDDING_DIM))
    service = RecommendationService(model, train=train, k_default=K,
                                    retain=UPDATES + 1)
    server = RecommendationHTTPServer(service, port=0).start()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.request("GET", "/healthz")
        reply = conn.getresponse()
        reply.read()
        ready = reply.status == 200
    finally:
        conn.close()
    return model, service, server, ready


def _publish_update(model, rng) -> None:
    """A model update: perturb both embedding tables, then end the step."""
    for table in (model.user_embeddings, model.item_embeddings):
        noise = rng.standard_normal(table.data.shape) * (0.5 * float(table.data.std()))
        table.data += noise.astype(table.data.dtype)
    model.on_step_end()


def run(mode: str, seed: int, seconds: int, tracer, cache_dir,
        import_s: float) -> dict:
    import numpy as np

    interactions, inputs = gen.serve_catalog(seed, **CATALOG)
    connections = max(1, min(2, os.cpu_count() or 1))

    failures: list[str] = []
    setup_times = []
    for rep in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        model, service, server, ready = _build(interactions, seed)
        setup_times.append(time.perf_counter() - start)
        if not ready:
            failures.append("server not healthy after set-up")
        if rep < SETUP_REPS - 1:
            server.close()
            del model, service, server

    plan = {"host": "127.0.0.1", "port": server.port, "k": K,
            "connections": connections, "seconds": seconds, "mode": mode}
    if mode == "open":
        count = int(ONLINE_RATE * seconds)
        users, request_props = gen.zipf_users(seed, CATALOG["num_users"], count)
        plan.update(rate=ONLINE_RATE, users=users.tolist())
    else:
        users, request_props = gen.zipf_users(
            seed, CATALOG["num_users"], BATCH_POOL * BATCH_USERS)
        plan["batches"] = users.reshape(BATCH_POOL, BATCH_USERS).tolist()
    inputs.update(request_props)

    here = os.path.dirname(os.path.abspath(__file__))
    plan_path = os.path.join(cache_dir, f"plan-{os.getpid()}.json")
    out_path = os.path.join(cache_dir, f"replies-{os.getpid()}.json")
    start_at = time.monotonic() + START_DELAY_S
    plan["start_at"] = start_at
    # serve-online: a steady phase for the end-to-end figures, then a
    # phase of hot swaps measured on its own
    swap_from = start_at + (STEADY_SHARE * seconds if mode == "open"
                            else seconds)
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    proc = subprocess.Popen([sys.executable, os.path.join(here, "loadgen.py"),
                             plan_path, out_path])
    freshness: list[float] = []
    versions = [service.snapshot_version]
    try:
        if mode == "open":
            update_rng = np.random.default_rng([seed, 4])
            time.sleep(max(0.0, swap_from - time.monotonic()))
            # back to back, like a co-located trainer: the next update is
            # published once the previous one is served
            for _ in range(UPDATES):
                before = service.snapshot_version
                _publish_update(model, update_rng)
                published = time.perf_counter()
                deadline = published + 60.0
                while (service.snapshot_version == before
                       and time.perf_counter() < deadline):
                    time.sleep(0.01)
                if service.snapshot_version == before:
                    failures.append(f"update {len(freshness)} was not swapped in")
                    break
                freshness.append(time.perf_counter() - published)
                versions.append(service.snapshot_version)
        proc.wait(timeout=seconds + START_DELAY_S + 120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # the version flips inside reload(); the swap is counted after it returns
    deadline = time.perf_counter() + 30.0
    while (server.stats.snapshot()["snapshot"]["swaps"] < len(freshness)
           and time.perf_counter() < deadline):
        time.sleep(0.01)
    server_stats = server.stats_payload()  # what GET /stats returns
    server.close()
    os.remove(plan_path)
    if proc.returncode != 0:
        failures.append(f"load generator exited with {proc.returncode}")
        records = []
    else:
        with open(out_path, encoding="utf-8") as handle:
            records = json.load(handle)
        os.remove(out_path)

    ok = [r for r in records if r["status"] == 200]
    # before the reply check, whose reference calls are traced too
    layers = _layers(tracer, ok, server_stats) if tracer is not None else None
    wrong = _check_replies(mode, service, records, plan, versions)
    refused = len(records) - len(ok)
    attempted = len(plan["users"]) if mode == "open" else len(records)
    if len(records) != attempted:
        failures.append(f"{attempted - len(records)} requests were never sent")
    if refused:
        failures.append(f"{refused} requests refused, timed out or broken")
    if wrong:
        failures.append(f"{wrong} replies differ from the library answer")
    failed = max(attempted - len(ok), 0) + wrong
    if server_stats["snapshot"]["swap_errors"]:
        failures.append(f"{server_stats['snapshot']['swap_errors']} swap errors")
        failed += server_stats["snapshot"]["swap_errors"]
    if not ok:
        failures.append("no reply succeeded")
        return {"metrics": None, "layers": None, "attempted": max(attempted, 1),
                "failed": max(failed, 1), "failures": failures, "details": {}}

    steady = [r for r in ok if r["due"] < swap_from]
    latencies = [r["done"] - r["due"] for r in steady]
    swap_latencies = [r["done"] - r["due"] for r in ok if r["due"] >= swap_from]
    tail_value, tail_q, tail_n = stats.tail(latencies)
    per_request_users = 1 if mode == "open" else BATCH_USERS
    wall = max(r["done"] for r in steady) - start_at
    # the latency limit applies to the online loop only
    slo_miss = 0
    if mode == "open":
        slo_miss = (sum(1 for r in ok if (r["done"] - r["due"]) * 1e3 > SLO_MS)
                    + attempted - len(ok) + wrong)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "throughput_per_s": (len(steady) * per_request_users / wall, "1/s"),
        "p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (stats.peak_rss_mb(), "MB"),
    }
    late = [r["late"] for r in records]
    details = {
        "inputs": inputs, "connections": connections,
        "tail_percentile": tail_q, "tail_samples_beyond": tail_n,
        "requests": attempted, "replies_ok": len(ok), "wrong": wrong,
        "steady_requests": len(steady), "swap_phase_requests": len(swap_latencies),
        "freshness_s": freshness, "slo_ms": SLO_MS, "setup_s": setup_times,
        "import_s": import_s,
        "slo_miss_share": slo_miss / attempted,
        "fail_share": failed / attempted,
        "loadgen_late_p90_ms": stats.percentile(late, 90) * 1e3,
        "server_stats": {"batcher": server_stats["batcher"],
                         "snapshot": server_stats["snapshot"],
                         "requests": server_stats["requests"]},
    }
    if tracer is not None:
        layers["serve.freshness_s"] = (
            statistics.median(freshness) if freshness else 0.0, "s")
        layers["serve.swap_tail_ms"] = (
            stats.tail(swap_latencies)[0] * 1e3
            if len(swap_latencies) > stats.TAIL_BEYOND else 0.0, "ms")
        layers["serve.slo_miss_share"] = (slo_miss / attempted, "ratio")
        layers["serve.rejected"] = (
            sum(1 for r in records if r["status"] == 503), "count")
        layers["loadgen.late_ms"] = (stats.percentile(late, 90) * 1e3, "ms")
        layers["run.fail_share"] = (failed / attempted, "ratio")
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": failed, "failures": failures, "details": details}


def _check_replies(mode, service, records, plan, versions) -> int:
    """Count replies whose item lists match neither library reference.

    A reply names the snapshot version current when it was sent back,
    which may be one swap newer than the tables it was scored on, so it
    is checked against that version and the one before it. References
    are computed after the load, newest version first, rolling the
    service back through its archive.
    """
    import numpy as np

    ok = [r for r in records if r["status"] == 200]
    previous = {v: versions[i - 1] if i else None
                for i, v in enumerate(versions)}
    candidates = {}  # record index -> acceptable versions
    for r in ok:
        candidates[r["i"]] = {r["version"], previous.get(r["version"])} - {None}
    matched: set[int] = set()
    for version in reversed(versions):
        if service.snapshot_version != version:
            service.recover(version)
        todo = [r for r in ok if r["i"] not in matched
                and version in candidates[r["i"]]]
        if not todo:
            continue
        if mode == "open":
            wanted = sorted({plan["users"][r["i"]] for r in todo})
            batched = dict(zip(wanted, service.recommend(
                np.asarray(wanted), K).items.tolist()))
            single: dict[int, list] = {}
            for r in todo:
                user = plan["users"][r["i"]]
                if r["items"][0] == batched[user]:
                    matched.add(r["i"])
                    continue
                if user not in single:
                    single[user] = service.recommend(
                        np.asarray([user]), K).items[0].tolist()
                if r["items"][0] == single[user]:
                    matched.add(r["i"])
        else:
            refs = [service.recommend(np.asarray(batch), K).items.tolist()
                    for batch in plan["batches"]]
            for r in todo:
                batch = plan["batches"][r["i"] % len(plan["batches"])]
                expect = refs[r["i"] % len(plan["batches"])]
                rows_ok = len(r["items"]) == len(batch)
                for user, got, want in zip(batch, r["items"], expect):
                    if got != want and got != service.recommend(
                            np.asarray([user]), K).items[0].tolist():
                        rows_ok = False
                        break
                if rows_ok:
                    matched.add(r["i"])
    return len(ok) - len(matched)


def _layers(tracer, ok, server_stats) -> dict:
    """Per-retrieval and per-request breakdown of the traced serving run."""
    self_times = tracer.self_times()
    recommends = tracer.by_name("serve.recommend")
    calls = max(len(recommends), 1)

    def total(name):
        return sum(s["end"] - s["start"] for s in tracer.by_name(name))

    def mean_s(name):
        spans = tracer.by_name(name)
        return total(name) / len(spans) if spans else 0.0

    def by_request(name):
        return {s["tag"]: s for s in tracer.by_name(name) if s["tag"] is not None}

    http_spans = by_request("serve.http")
    parse_spans = by_request("serve.http_parse")
    handles = {s["parent"]: s for s in tracer.by_name("serve.handle")}
    http_residual, inside, observed = [], 0.0, 0.0
    for r in ok:
        span = http_spans.get(r["i"])
        if span is None or span["id"] not in handles or r["i"] not in parse_spans:
            continue
        handle = handles[span["id"]]
        parse = parse_spans[r["i"]]
        client = r["done"] - r["sent"]
        http_residual.append(client - (handle["end"] - handle["start"]))
        inside += span["end"] - span["start"] + parse["end"] - parse["start"]
        observed += client
    queue_wait = server_stats["latency_ms"]["queue_wait"]["p50_ms"]
    return {
        "core.serving_embeddings_s": (mean_s("core.serving_embeddings"), "s"),
        "serve.recommend_ms": (total("serve.recommend") / calls * 1e3, "ms"),
        "serve.gemm_ms": (total("serve.gemm") / calls * 1e3, "ms"),
        "serve.mask_ms": (total("serve.mask") / calls * 1e3, "ms"),
        "serve.select_ms": (sum(self_times[s["id"]] for s in
                                tracer.by_name("serve.retrieve"))
                            / calls * 1e3, "ms"),
        "serve.payload_ms": (total("serve.payload") / calls * 1e3, "ms"),
        "serve.queue_wait_ms": (queue_wait or 0.0, "ms"),
        "serve.batch_mean": (server_stats["batcher"]["mean_batch_size"],
                             "count"),
        "serve.http_ms": ((statistics.median(http_residual) * 1e3)
                          if http_residual else 0.0, "ms"),
        "serve.swap_s": (mean_s("serve.swap"), "s"),
        "serve.verify_s": (mean_s("serve.verify"), "s"),
        "serve.swaps": (server_stats["snapshot"]["swaps"], "count"),
        "serve.swap_errors": (server_stats["snapshot"]["swap_errors"],
                              "count"),
        "trace.coverage": (inside / observed if observed else 0.0, "ratio"),
    }

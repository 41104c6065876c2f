"""Load generator for the serving workloads; runs as its own process.

Reads a JSON plan, opens ``connections`` keep-alive HTTP/1.1 connections
to the server and drives one of two loops:

* ``open`` — request ``i`` of ``GET /recommend`` is due at
  ``start_at + i / rate`` whatever the server does. A request waits for a
  free connection, and its latency is timed from when it was due, so a
  stall is charged to every request queued behind it. ``late`` records
  how far past the due time the generator itself woke up when a
  connection was already free (its own scheduling error).
* ``closed`` — each connection sends its next ``POST /recommend`` as soon
  as the previous reply arrived, until ``seconds`` have passed.

Times are ``time.monotonic()``, which both processes share on Linux.
Writes one JSON record per request to ``out``: index, due, sent, done,
status (``-1`` refused or broken connection, ``-2`` timed out), the
snapshot version the reply named, and the returned item ids per user.

Run: ``python3 loadgen.py <plan.json> <out.json>``.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time

TIMEOUT_S = 10.0
WARMUP_PER_CONNECTION = 3


class Connection:
    """One keep-alive connection with a minimal HTTP/1.1 exchange."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.sock = None
        self.reader = None

    def _open(self) -> None:
        self.sock = socket.create_connection((self.host, self.port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        if self.sock is not None:
            self.sock.close()
        self.sock = self.reader = None

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; ``(status, body)``, status < 0 on failure."""
        try:
            if self.sock is None:
                self._open()
            self.sock.sendall(request)
            status_line = self.reader.readline()
            if not status_line:
                raise ConnectionError("connection closed")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":", 1)[1])
            return status, self.reader.read(length)
        except socket.timeout:
            self.close()
            return -2, b""
        except (OSError, ValueError, IndexError):
            self.close()
            return -1, b""


def _get(host: str, user: int, k: int, index: int) -> bytes:
    return (f"GET /recommend?user={user}&k={k}&rid={index} HTTP/1.1\r\n"
            f"Host: {host}\r\n\r\n").encode("ascii")


def _post(host: str, users: list[int], k: int, index: int) -> bytes:
    body = json.dumps({"users": users, "k": k}).encode("ascii")
    return (f"POST /recommend?rid={index} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def _record(index: int, due: float, sent: float, done: float, late: float,
            status: int, body: bytes) -> dict:
    version, items = None, None
    if status == 200:
        try:
            payload = json.loads(body)
            version = payload.get("snapshot_version")
            rows = payload.get("recommendations", [payload])
            items = [[entry["item"] for entry in row["items"]] for row in rows]
        except (ValueError, KeyError, TypeError):
            status = -3  # unparseable reply counts as a wrong answer
    return {"i": index, "due": due, "sent": sent, "done": done,
            "late": late, "status": status, "version": version,
            "items": items}


def run(plan: dict) -> list[dict]:
    host, port, k = plan["host"], plan["port"], plan["k"]
    conns = [Connection(host, port) for _ in range(plan["connections"])]
    for conn in conns:
        for _ in range(WARMUP_PER_CONNECTION):
            if plan["mode"] == "open":
                conn.exchange(_get(host, plan["users"][0], k, -1))
            else:
                conn.exchange(_post(host, plan["batches"][0], k, -1))
    records: list[dict] = []
    lock = threading.Lock()
    counter = itertools.count()
    start_at = plan["start_at"]
    stop_at = start_at + plan["seconds"]

    def open_worker(conn: Connection) -> None:
        users, rate = plan["users"], plan["rate"]
        while True:
            with lock:
                index = next(counter)
            if index >= len(users):
                return
            due = start_at + index / rate
            now = time.monotonic()
            late = 0.0
            if now < due:
                time.sleep(due - now)
                now = time.monotonic()
                late = now - due
            status, body = conn.exchange(_get(host, users[index], k, index))
            done = time.monotonic()
            rec = _record(index, due, now, done, late, status, body)
            with lock:
                records.append(rec)

    def closed_worker(conn: Connection) -> None:
        batches = plan["batches"]
        now = time.monotonic()
        if now < start_at:
            time.sleep(start_at - now)
        while time.monotonic() < stop_at:
            with lock:
                index = next(counter)
            sent = time.monotonic()
            status, body = conn.exchange(
                _post(host, batches[index % len(batches)], k, index))
            done = time.monotonic()
            rec = _record(index, sent, sent, done, 0.0, status, body)
            with lock:
                records.append(rec)

    target = open_worker if plan["mode"] == "open" else closed_worker
    threads = [threading.Thread(target=target, args=(conn,)) for conn in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for conn in conns:
        conn.close()
    records.sort(key=lambda r: r["i"])
    return records


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: loadgen.py <plan.json> <out.json>", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        plan = json.load(handle)
    records = run(plan)
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

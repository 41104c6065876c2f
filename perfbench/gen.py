"""Seeded input generators for the benchmark workloads.

Everything the program under test receives is made here from ``--seed``:

* :func:`write_event_log` — a tmall-like ``user,item,behavior,timestamp``
  CSV (click ≫ cart ≈ fav ≫ buy, buy the target) for the training
  workload; run ``python3 gen.py event-log <path> <seed>`` to write it
  from a separate process, which prints the log's properties as JSON;
* :func:`serve_catalog` — the interaction arrays the serving model is
  built over;
* :func:`zipf_users` — the request stream's user ids.

The shape follows the repository's documented ``tmall-like`` scenario
(``docs/experiments.md``, "Scenarios"; ``repro.data.scenarios``):

* the behavior mix is that scenario's mean events per user, as shares;
* items follow a Zipf law with its popularity skew, 1.2;
* user activity is gamma-distributed with shape 2, drawn independently
  per behavior, as in ``repro.data.synthetic``;
* a fav/cart/buy row follows one of the user's clicks with the
  scenario's preference alignment for that behavior as the chance, and
  otherwise draws from popularity. Reading alignment as this chance is
  the benchmark's own mapping.

Ids are randomly permuted, so activity and popularity are skewed but not
ordered by id. The request skew (``REQUEST_ZIPF``) has no source in the
repository; it is an assumption, see ``perfbench/README.md``. Each
generator returns the properties the workload's behaviour depends on,
which the benchmark prints with its results.
"""

from __future__ import annotations

import json
import sys

import numpy as np

BEHAVIORS = ("click", "fav", "cart", "buy")

#: mean events per user of the tmall-like scenario; their shares are the mix
EVENTS_PER_USER = {"click": 36.0, "fav": 5.0, "cart": 6.0, "buy": 3.5}
MIX = {b: n / sum(EVENTS_PER_USER.values()) for b, n in EVENTS_PER_USER.items()}
#: preference alignment of the tmall-like scenario, used as the chance
#: that a row of the behavior follows one of the user's clicks
ALIGNMENT = {"fav": 0.55, "cart": 0.60, "buy": 0.80}
ITEM_ZIPF = 1.2
ACTIVITY_GAMMA_SHAPE = 2.0
#: Zipf exponent of the request stream over users: an assumption, within
#: the 0.64–0.83 range measured for web request streams
REQUEST_ZIPF = 0.8
#: share of malformed rows in the event log (unparseable timestamp); the
#: ingest layer must drop exactly these under ``on_bad_rows="skip"``
BAD_ROW_SHARE = 0.0005
#: nine days of events, like the Tmall release
LOG_SPAN_S = 9 * 86400


def zipf_weights(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    """Truncated Zipf probabilities over ``n`` ids, ranks randomly permuted."""
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    weights /= weights.sum()
    return weights[rng.permutation(n)]


def activity_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gamma-distributed activity of ``n`` users, as probabilities."""
    weights = rng.gamma(ACTIVITY_GAMMA_SHAPE, 1.0, size=n)
    return weights / weights.sum()


def _interactions(num_users: int, num_items: int, rows: int,
                  rng: np.random.Generator,
                  ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """``behavior → (users, items)``: ``rows`` rows split by ``MIX``."""
    item_p = zipf_weights(num_items, ITEM_ZIPF, rng)
    counts = {b: int(round(rows * MIX[b])) for b in BEHAVIORS}
    click_users = rng.choice(num_users, size=counts["click"],
                             p=activity_weights(num_users, rng))
    click_items = rng.choice(num_items, size=counts["click"], p=item_p)
    order = np.argsort(click_users, kind="stable")
    sorted_items = click_items[order]
    per_user = np.bincount(click_users, minlength=num_users)
    starts = np.concatenate(([0], np.cumsum(per_user)[:-1]))
    out = {"click": (click_users, click_items)}
    for behavior in BEHAVIORS[1:]:
        count = counts[behavior]
        users = rng.choice(num_users, size=count,
                           p=activity_weights(num_users, rng))
        items = rng.choice(num_items, size=count, p=item_p)
        follow = ((rng.random(count) < ALIGNMENT[behavior])
                  & (per_user[users] > 0))
        picks = (rng.random(count) * per_user[users]).astype(np.int64)
        items[follow] = sorted_items[starts[users[follow]] + picks[follow]]
        out[behavior] = (users, items)
    return out


def _properties(data: dict, num_users: int, num_items: int) -> dict:
    total = sum(data[b][0].size for b in BEHAVIORS)
    buys = np.bincount(data["buy"][0], minlength=num_users)
    return {
        "rows": int(total),
        "users_drawn": num_users,
        "items_drawn": num_items,
        "mix": {b: round(data[b][0].size / total, 4) for b in BEHAVIORS},
        "item_zipf": ITEM_ZIPF,
        "activity_gamma_shape": ACTIVITY_GAMMA_SHAPE,
        "alignment": ALIGNMENT,
        # a user enters the leave-one-out test set with two or more buys
        "users_with_2plus_buys": int((buys >= 2).sum()),
    }


def write_event_log(path, seed: int, *, num_users: int = 20_000,
                    num_items: int = 24_000, rows: int = 300_000) -> dict:
    """Write the training event log; returns its input properties.

    Rows are sorted by timestamp like a real log. Ids are opaque strings
    (``u…``/``i…``), so ingest re-indexes them. A seeded share of rows
    carries an unparseable timestamp.
    """
    rng = np.random.default_rng([seed, 1])
    data = _interactions(num_users, num_items, rows, rng)
    users = np.concatenate([data[b][0] for b in BEHAVIORS])
    items = np.concatenate([data[b][1] for b in BEHAVIORS])
    kinds = np.concatenate([np.full(data[b][0].size, k)
                            for k, b in enumerate(BEHAVIORS)])
    stamps = rng.integers(1_511_000_000, 1_511_000_000 + LOG_SPAN_S,
                          size=users.size)
    order = np.argsort(stamps, kind="stable")
    users, items, kinds, stamps = (users[order], items[order], kinds[order],
                                   stamps[order])
    bad = rng.random(users.size) < BAD_ROW_SHARE
    stamp_text = stamps.astype(str).astype(object)
    stamp_text[bad] = "n/a"
    names = np.array(BEHAVIORS, dtype=object)[kinds]
    lines = ["user,item,behavior,timestamp"]
    lines.extend(f"u{u},i{i},{b},{t}" for u, i, b, t in
                 zip(users.tolist(), items.tolist(), names, stamp_text))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    return {**_properties(data, num_users, num_items),
            "bad_rows": int(bad.sum())}


def serve_catalog(seed: int, *, num_users: int, num_items: int,
                  rows: int) -> tuple[dict, dict]:
    """Interaction arrays for the serving model, plus input properties."""
    rng = np.random.default_rng([seed, 2])
    data = _interactions(num_users, num_items, rows, rng)
    interactions = {b: {"users": data[b][0], "items": data[b][1]}
                    for b in BEHAVIORS}
    return interactions, _properties(data, num_users, num_items)


def zipf_users(seed: int, num_users: int, count: int) -> tuple[np.ndarray, dict]:
    """``count`` request user ids drawn Zipf(``REQUEST_ZIPF``) over users."""
    rng = np.random.default_rng([seed, 3])
    weights = zipf_weights(num_users, REQUEST_ZIPF, rng)
    users = rng.choice(num_users, size=count, p=weights)
    top = np.argsort(-weights)[:max(1, num_users // 100)]
    props = {
        "request_zipf": REQUEST_ZIPF,
        "distinct_users": int(np.unique(users).size),
        "top1pct_share": round(float(np.isin(users, top).mean()), 4),
    }
    return users, props


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "event-log":
        print("usage: gen.py event-log <path> <seed>", file=sys.stderr)
        sys.exit(2)
    print(json.dumps(write_event_log(sys.argv[2], int(sys.argv[3]))))

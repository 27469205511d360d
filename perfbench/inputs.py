"""Seeded benchmark inputs and their expected outputs, cached on disk.

Every input is a pure function of the workload's sizes and ``--seed``,
so a cached directory is reused as is. Expected outputs come from the
repository's own references, never from the engine under test:

- CDC lakes: ``pipelines.oracle.replay_envelopes``, the single-thread
  relay loop;
- graph queries: their ``oracle_sql()`` run by DuckDB over the same
  ``events.parquet``, as ``tools/check_queries.py`` does.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# --- workload sizes ---------------------------------------------------------
# The key space keeps the sf0.1 ratio of ~67 events per user and 40
# turns per conversation, so keys are (conv_id, turn_idx) pairs as in
# the testdata events table.
REPLAY_ROUND_EVENTS = 30_000  # events offered per update round
REPLAY_USERS = 450
REPLAY_ROUNDS = 4
REPLAY_KEEP = 0.85  # share of a round's events present in that round

# event_ids drawn from [0, 2 * GRAPH_EVENTS): the edge count of sf0.01.
# link_prediction's wedge stage has no degree cap; at 20k events it
# takes ~70 s on two logical CPUs against ~3 s here.
GRAPH_EVENTS = 10_000
GRAPH_QUERIES = {  # metric suffix -> queries() entry
    "pagerank": "pagerank",
    "components": "components_sharded",
    "kcore": "kcore_sharded",
    "sssp": "sssp",
    "link_prediction": "link_prediction",
}

ROW_GROUP = 12_500  # envelope-log row groups, as in bench.py
KEEP_SEEDS = 6  # cached seeds kept per workload
EVENT_TYPES = np.array(["click", "view", "purchase", "signup", "error"])
T0_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00


def events_table(
    rng: np.random.Generator, event_ids: np.ndarray, user_ids: np.ndarray, lsn_offset: int
) -> pa.Table:
    """Rows of the testdata ``events`` schema for the given ids."""
    n = len(event_ids)
    ts = T0_US + (event_ids + lsn_offset) * 1000 + rng.integers(0, 1000, n)
    return pa.table(
        {
            "event_id": pa.array(event_ids, pa.int64()),
            "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(user_ids, pa.int64()),
            "event_type": pa.array(rng.choice(EVENT_TYPES, n).astype(object), pa.string()),
            "value": pa.array(np.round(rng.exponential(25.0, n), 2), pa.float64()),
            "props": pa.array(
                np.char.mod('{"k": %d}', rng.integers(0, 100, n)).astype(object), pa.string()
            ),
        }
    )


def encode(events: pa.Table, lsn_offset: int) -> pa.Table:
    """Mixed 3-dialect envelopes, sorted by log offset."""
    from commons_codec_ray.envelopes import EventsToEnvelopes

    env = EventsToEnvelopes(duplicates=False, lsn_offset=lsn_offset)(events)
    return env.sort_by("source_offset")


def oracle(envelopes: pa.Table) -> tuple[pa.Table, float]:
    """Expected lake state and the oracle's wall time."""
    from commons_codec_ray.pipelines.oracle import replay_envelopes

    t0 = time.perf_counter()
    out = replay_envelopes(envelopes)
    return out, time.perf_counter() - t0


def prepare(work: Path, workload: str, seed: int) -> Path:
    """The directory of ``workload``'s inputs for ``seed``. A missing one
    is built in a child process, so that generating it does not raise
    the benchmark process's own memory peak."""
    path = work / workload / f"seed-{seed}"
    if not (path / "_DONE").exists():
        subprocess.run(
            [sys.executable, __file__, str(work), workload, str(seed)], check=True, timeout=600
        )
    os.utime(path)
    return path


def _build(work: Path, workload: str, seed: int) -> None:
    """Build the inputs atomically, via a temporary sibling, and keep the
    KEEP_SEEDS most recently used seeds of the workload."""
    path = work / workload / f"seed-{seed}"
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    BUILDERS[workload](tmp, seed)
    (tmp / "_DONE").touch()
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    seeds = sorted(path.parent.glob("seed-*"), key=lambda p: p.stat().st_mtime)
    for old in seeds[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)


def _write_meta(d: Path, **meta) -> None:
    (d / "meta.json").write_text(json.dumps(meta))


def read_meta(d: Path) -> dict:
    return json.loads((d / "meta.json").read_text())


# --- replay_update ----------------------------------------------------------
def _build_replay(d: Path, seed: int) -> None:
    """Amplified update log: REPLAY_ROUNDS rounds over one key set.

    The seed draws each event's user (so the key set), which events each
    round carries and every row's payload, so the last writer of a key
    falls in different rounds for different keys."""
    rng = np.random.default_rng([seed, 1])
    users = rng.integers(0, REPLAY_USERS, REPLAY_ROUND_EVENTS)
    (d / "log").mkdir()
    rounds = []
    for r in range(REPLAY_ROUNDS):
        ids = np.flatnonzero(rng.random(REPLAY_ROUND_EVENTS) < REPLAY_KEEP)
        offset = r * REPLAY_ROUND_EVENTS
        env = encode(events_table(rng, ids, users[ids], offset), offset)
        pq.write_table(env, d / "log" / f"round-{r:03d}.parquet", row_group_size=ROW_GROUP)
        rounds.append(env)
    log = pa.concat_tables(rounds)
    want, oracle_s = oracle(log)
    pq.write_table(want, d / "expected.parquet")
    _write_meta(d, events=log.num_rows, oracle_s=oracle_s)


# --- graph_iterative ---------------------------------------------------------
def _build_graph(d: Path, seed: int) -> None:
    """An ``events.parquet`` with a seeded sample of event ids (the five
    graph queries derive their edges from ``event_id``), and each
    query's expected rows from its oracle SQL."""
    import duckdb

    from commons_codec_ray.pipelines.queries import ORACLE_SQL

    rng = np.random.default_rng([seed, 4])
    ids = np.sort(rng.choice(2 * GRAPH_EVENTS, GRAPH_EVENTS, replace=False))
    users = rng.integers(0, math.ceil(GRAPH_EVENTS / 67), len(ids))
    pq.write_table(events_table(rng, ids, users, 0), d / "events.parquet")
    con = duckdb.connect()
    try:
        con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{d}/events.parquet')")
        (d / "expected").mkdir()
        for query in GRAPH_QUERIES.values():
            con.execute(ORACLE_SQL[query]).df().to_parquet(d / "expected" / f"{query}.parquet")
    finally:
        con.close()
    _write_meta(d, events=len(ids))


BUILDERS = {"replay_update": _build_replay, "graph_iterative": _build_graph}

if __name__ == "__main__":
    _build(Path(sys.argv[1]), sys.argv[2], int(sys.argv[3]))

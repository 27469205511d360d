#!/usr/bin/env python
"""Measure where spawned pools start to beat a pool of one in the driver
(``commons_codec_ray.util.DRIVER_POOL_ROWS``).

For each input size it times full calls with both placements, the runs
interleaved, and prints one JSON line per size with the median wall
times:

- ``cdc``: ``replay()`` of an update log shaped like the
  ``replay_update`` benchmark workload (4 rounds over one key set, 85 %
  of a round's events kept, 64 partitions, two epochs), with
  ``--cdc-events`` events offered per round. Driver placement against
  the default spawned pool.
- ``pagerank`` / ``sssp`` / ``link_prediction``: a random graph with
  ``--graph-edges`` edges over E/5 nodes, ``pagerank(iterations=5)``,
  ``sssp(rounds=6)`` and ``link_prediction(top_k=50)``. Driver
  placement against ``num_shards=2``. With ``--hubs H`` every edge
  instead joins a random node to one of H hubs (the bipartite shape of
  the link-prediction catalog queries), so the wedges that
  link_prediction's cost follows outgrow its setup rows; its lines
  report the wedge count too.
- ``graph_read``: ``q_pagerank``, ``q_kcore_sharded`` and
  ``q_link_prediction`` from ``queries()`` on an ``events.parquet`` of
  ``--graph-read-events`` seeded event ids. The table path reads the
  events into one Arrow table and runs the whole query in the driver
  on one shard, whatever the size; the Ray Data path reads them as a
  Dataset: in one block below the bound of
  ``pipelines/queries.py::_graph_events``, and in the ~CPUs/2 floor of
  blocks at and above it, where the query reads a Dataset itself (its
  pool spawns once the setup reaches ``DRIVER_POOL_ROWS`` rows). Each
  path runs in two fresh driver processes (one warm-up call, then
  ``--repeats`` timed calls each), alternating with the other path's,
  so the line also reports each path's driver peak RSS (median over its
  two processes). This measures where the table path stops
  paying.

The script owns its Ray session; run it once per CPU count:

    python tools/placement_crossover.py --cpus 2 --cdc-events 15000 30000 150000
    python tools/placement_crossover.py --cpus 4 --graph-edges 200000 800000 --repeats 3
    python tools/placement_crossover.py --cpus 2 --cdc-events --graph-edges 100000 --hubs 97
    python tools/placement_crossover.py --cpus 2 --cdc-events --graph-edges --graph-read-events 10000 300000

Inputs are built under a temporary directory and removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

NUM_PARTITIONS = 64
ROUNDS = 4
KEEP = 0.85
USERS_PER_ROUND_EVENT = 450 / 30_000  # the benchmark's users per offered event


def _build_log(d: Path, round_events: int, seed: int) -> int:
    """An update log in ``d``, built as the ``replay_update`` inputs are;
    returns its envelope rows."""
    import numpy as np
    import pyarrow.parquet as pq

    from perfbench.inputs import ROW_GROUP, encode, events_table

    rng = np.random.default_rng([seed, 1])
    users = rng.integers(0, max(1, round(round_events * USERS_PER_ROUND_EVENT)), round_events)
    d.mkdir(parents=True)
    rows = 0
    for r in range(ROUNDS):
        ids = np.flatnonzero(rng.random(round_events) < KEEP)
        offset = r * round_events
        env = encode(events_table(rng, ids, users[ids], offset), offset)
        pq.write_table(env, d / f"round-{r:03d}.parquet", row_group_size=ROW_GROUP)
        rows += env.num_rows
    return rows


def _time_replay(log: Path, lake: Path, rows: int) -> float:
    import math

    from commons_codec_ray.config import PipelineConfig
    from commons_codec_ray.pipelines.cdc import CDCPipeline

    cfg = PipelineConfig(num_partitions=NUM_PARTITIONS, epoch_size=math.ceil(rows / 2))
    t0 = time.perf_counter()
    CDCPipeline(lake, cfg).replay(str(log))
    return time.perf_counter() - t0


def _edges(num_edges: int, seed: int, hubs: int):
    """The edge Dataset and its wedge count (pairs of distinct
    neighbors of one node, over the distinct undirected edges)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng([seed, 2])
    nodes = max(2, num_edges // 5)
    src = rng.integers(0, nodes, num_edges)
    dst = nodes + rng.integers(0, hubs, num_edges) if hubs else rng.integers(0, nodes, num_edges)
    tbl = pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
        "w": pa.array(rng.integers(1, 10, num_edges), pa.int64()),
    })
    keep = src != dst
    pairs = np.unique(np.minimum(src, dst)[keep] << 32 | np.maximum(src, dst)[keep])
    deg = np.unique(np.r_[pairs >> 32, pairs & 0xFFFFFFFF], return_counts=True)[1]
    return rd.from_arrow(tbl).materialize(), int((deg * (deg - 1) // 2).sum())


def _time_graph(op: str, edges, num_shards: int | None) -> float:
    from commons_codec_ray.stages.graph import link_prediction, pagerank, sssp

    t0 = time.perf_counter()
    if op == "pagerank":
        pagerank(edges, iterations=5, num_shards=num_shards).materialize()
    elif op == "sssp":
        sssp(edges, source=0, rounds=6, num_shards=num_shards).materialize()
    else:
        link_prediction(edges, top_k=50, num_shards=num_shards)
    return time.perf_counter() - t0


def _build_events(d: Path, num_events: int, seed: int) -> None:
    """``d/events.parquet`` with ``num_events`` distinct event ids drawn
    from ``[0, 2 * num_events)``, as the ``graph_iterative`` input is."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng([seed, 3])
    ids = np.sort(rng.choice(2 * num_events, num_events, replace=False))
    d.mkdir(parents=True)
    pq.write_table(pa.table({"event_id": pa.array(ids, pa.int64())}), d / "events.parquet")


def _time_graph_read(op: str, sf_dir: Path, table: bool) -> float:
    """One ``queries()`` call with the events as one Arrow table, or as
    the Ray Dataset of the read blocks the bound picks."""
    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.pipelines import queries

    saved_rows, saved_read = queries._GRAPH_SETUP_PER_EVENT, queries._graph_events

    def as_dataset(d: str):
        events = saved_read(d)
        if isinstance(events, pa.Table):  # below the bound: one read block
            return rd.read_parquet(f"{d}/events.parquet", columns=["event_id"], override_num_blocks=1)
        return events

    if table:
        queries._GRAPH_SETUP_PER_EVENT = 0
    else:
        queries._graph_events = as_dataset
    try:
        t0 = time.perf_counter()
        out = queries.QUERIES[op](str(sf_dir))
        if not isinstance(out, pa.Table):
            out.materialize()
        return time.perf_counter() - t0
    finally:
        queries._GRAPH_SETUP_PER_EVENT, queries._graph_events = saved_rows, saved_read


# One path of the graph_read leg in a fresh driver process joined to the
# session: argv = address, op, events dir, table (0/1), timed calls.
_READ_PROC = """
import json, resource, sys
import ray
ray.init(address=sys.argv[1], logging_level="ERROR")
from tools.placement_crossover import _time_graph_read
op, sf_dir, table, calls = sys.argv[2], sys.argv[3], sys.argv[4] == "1", int(sys.argv[5])
_time_graph_read(op, sf_dir, table)
walls = [_time_graph_read(op, sf_dir, table) for _ in range(calls)]
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"walls": walls, "rss_mb": rss_mb}))
ray.shutdown()
"""


def _graph_read_proc(address: str, op: str, sf_dir: Path, table: bool, calls: int) -> dict:
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", _READ_PROC, address, op, str(sf_dir), str(int(table)), str(calls)],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--cpus", type=int, default=2, help="logical CPUs of the Ray session")
    ap.add_argument("--cdc-events", type=int, nargs="*", default=[15_000, 30_000],
                    help="events offered per update round (~3.4 envelope rows each)")
    ap.add_argument("--graph-edges", type=int, nargs="*", default=[10_000, 50_000])
    ap.add_argument("--hubs", type=int, default=0,
                    help="join every edge to one of this many hubs (0: random graph)")
    ap.add_argument("--graph-read-events", type=int, nargs="*", default=[10_000, 100_000, 250_000, 300_000],
                    help="events of the graph_read leg's input")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed calls per placement (graph_read: per driver process)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    import ray

    from commons_codec_ray import util

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR")
    saved = util.DRIVER_POOL_ROWS
    try:
        with tempfile.TemporaryDirectory(prefix="placement-crossover-") as tmp:
            tmp = Path(tmp)
            for n, round_events in enumerate(args.cdc_events):
                log = tmp / f"log-{n}"
                rows = _build_log(log, round_events, args.seed)
                times = {"driver": [], "actors": []}
                for i in range(args.repeats):
                    for placement, crossover in (("driver", float("inf")), ("actors", 0)):
                        util.DRIVER_POOL_ROWS = crossover
                        lake = tmp / f"lake-{n}-{placement}-{i}"
                        times[placement].append(_time_replay(log, lake, rows))
                _report(args.cpus, "cdc", rows, times)
            util.DRIVER_POOL_ROWS = float("inf")
            for num_edges in args.graph_edges:
                edges, wedges = _edges(num_edges, args.seed, args.hubs)
                for op in ("pagerank", "sssp", "link_prediction"):
                    times = {"driver": [], "actors": []}
                    for _ in range(args.repeats):
                        times["driver"].append(_time_graph(op, edges, None))
                        times["actors"].append(_time_graph(op, edges, 2))
                    extra = {"wedges": wedges} if op == "link_prediction" else {}
                    _report(args.cpus, op, num_edges, times, **extra)
            util.DRIVER_POOL_ROWS = saved
            address = ray.get_runtime_context().gcs_address
            for num_events in args.graph_read_events:
                sf_dir = tmp / f"events-{num_events}"
                _build_events(sf_dir, num_events, args.seed)
                for op in ("pagerank", "kcore_sharded", "link_prediction"):
                    times = {"table": [], "ray_data": []}
                    rss = {"table": [], "ray_data": []}
                    for _ in range(2):
                        for path in times:
                            got = _graph_read_proc(address, op, sf_dir, path == "table", args.repeats)
                            times[path] += got["walls"]
                            rss[path].append(got["rss_mb"])
                    peaks = {f"{k}_rss_mb": round(statistics.median(v)) for k, v in rss.items()}
                    _report(args.cpus, f"graph_read:{op}", num_events, times, **peaks)
    finally:
        util.DRIVER_POOL_ROWS = saved
        ray.shutdown()
    return 0


def _report(cpus: int, kind: str, size: int, times: dict[str, list[float]], **extra) -> None:
    """``size`` is envelope rows for ``cdc``, edges for the graph ops and
    events for ``graph_read``; one ``<placement>_s`` median per key of
    ``times``."""
    print(json.dumps({
        "cpus": cpus,
        "kind": kind,
        "size": size,
        **extra,
        **{f"{k}_s": round(statistics.median(v), 3) for k, v in times.items()},
    }), flush=True)


if __name__ == "__main__":
    sys.exit(main())

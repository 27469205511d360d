"""The actor-sharded graph operators' shard pool: every operator finishes
on a Ray cluster with ONE logical CPU, and no shard outlives a call,
whether the call returns or raises."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from ray._private import state

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120
SHARD_CLASSES = {
    "_PagerankShard", "_CCShard", "_KCoreShard", "_SSSPShard", "_LinkShard", "_HitsShard",
    "_TriangleShard", "_AssortativityShard",
}

# a 4-clique 0..3, a tail 3 -> 4 -> 5, and a separate edge 10 - 11
SRC = [0, 0, 0, 1, 1, 2, 3, 4, 10]
DST = [1, 2, 3, 2, 3, 3, 4, 5, 11]

_SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    import pyarrow as pa
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    try:
        from commons_codec_ray.stages.graph import (
            assortativity, clustering_coeff, components_sharded, densest_subgraph, hits,
            kcore_sharded, link_prediction, pagerank, sssp, triangle_count,
        )

        src, dst = json.loads(sys.argv[1]), json.loads(sys.argv[2])
        edge_tbl = pa.table({"src": src, "dst": dst, "w": [1] * len(src)})
        pair_tbl = pa.table({"id_a": src, "id_b": dst})

        def rows(out, col):
            df = out.to_pandas()
            return dict(zip(df["node"].tolist(), df[col].tolist()))

        # Datasets, then the same edges as Arrow tables
        for edges, pairs in ((rd.from_arrow(edge_tbl), rd.from_arrow(pair_tbl)), (edge_tbl, pair_tbl)):
            assert len(rows(pagerank(edges, iterations=3, num_shards=2), "score")) == 8
            assert rows(components_sharded(pairs, num_shards=2), "cluster_id") == {
                0: 0, 1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 10: 10, 11: 10,
            }
            assert rows(kcore_sharded(edges, k=3, num_shards=2), "deg") == {0: 3, 1: 3, 2: 3, 3: 3}
            assert rows(sssp(edges, source=0, rounds=3, num_shards=2), "dist") == {
                0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 3,
            }
            # (0, 4), (1, 4), (2, 4) and (3, 5) tie at one common neighbor
            top = link_prediction(edges, top_k=2, num_shards=2).to_pylist()
            assert [(r["a"], r["b"], r["jaccard_ppm"]) for r in top] == [
                (0, 4, 250_000), (1, 4, 250_000),
            ]
            scores = hits(edges, iterations=1, num_shards=2).to_pandas()
            hub = scores[scores["kind"] == "hub"]
            assert dict(zip(hub["node"].tolist(), hub["score"].tolist())) == {
                0: 6, 1: 5, 2: 3, 3: 1, 4: 1, 5: 0, 10: 1, 11: 0,
            }
            # round 1's 4-clique (density 6/4) beats round 0's 9/8
            dense = densest_subgraph(edges, num_shards=2).to_pandas()
            assert sorted(dense["node"].tolist()) == [0, 1, 2, 3]
            assert set(zip(dense["r"], dense["v_count"], dense["e_count"])) == {(1, 4, 6)}
            tri = triangle_count(edges, num_shards=2).to_pylist()
            assert tri == [{"n_edges": 9, "n_triangles": 4}]
            assert rows(clustering_coeff(edges, num_shards=2), "cc_ppm") == {
                0: 1_000_000, 1: 1_000_000, 2: 1_000_000, 3: 500_000, 4: 0, 5: 0, 10: 0, 11: 0,
            }
            # the 9 edges both ways; the same r as one driver shard's
            r = assortativity(edges, num_shards=2).to_pylist()
            assert r == assortativity(edge_tbl).to_pylist() and r[0]["n_pairs"] == 18
        print("SHARDED-OK")
    finally:
        ray.shutdown()
    """
)


def test_sharded_operators_on_one_logical_cpu():
    """Shards reserve no CPU, so the driver's own tasks (routing,
    ``from_arrow_refs``) always find a slot. When the k-core shards held
    half a CPU each, a one-CPU cluster never scheduled the result's
    metadata task and k-core hung. ``num_shards=2`` spawns shard actors
    (an input this small would otherwise run on one shard in the driver).
    The session fixture pins 4 CPUs, so the operators run in a subprocess
    with its own ``ray.init``."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT), env.get("PYTHONPATH")) if p)
    # own process group: a hung run's Ray processes are killed with it
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, json.dumps(SRC), json.dumps(DST)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError(f"sharded operators at num_cpus=1 still running after {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    assert "SHARDED-OK" in out


def _alive_shards() -> list[str]:
    """Class names of the shard actors still ALIVE. ``ray.kill`` is
    asynchronous, so a killed shard gets a few seconds to show as dead;
    a shard nobody killed stays ALIVE for as long as its handle lives."""
    deadline = time.monotonic() + 10
    while True:
        alive = [
            a["ActorClassName"]
            for a in state.actors().values()
            if a["State"] == "ALIVE" and a["ActorClassName"] in SHARD_CLASSES
        ]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def _edges(src, dst, w=None, table=False):
    cols = {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    cols["w"] = pa.array(w if w is not None else np.ones(len(src), np.int64), pa.int64())
    return pa.table(cols) if table else rd.from_arrow(pa.table(cols))


def test_no_shard_outlives_a_call(ray_session):
    from commons_codec_ray.stages.graph import (
        assortativity,
        clustering_coeff,
        components_sharded,
        densest_subgraph,
        hits,
        kcore_sharded,
        link_prediction,
        pagerank,
        sssp,
        triangle_count,
    )

    pair_tbl = pa.table({"id_a": SRC, "id_b": DST})
    # Dataset input, then the same edges as Arrow tables
    for edges, pairs in ((_edges(SRC, DST), rd.from_arrow(pair_tbl)), (_edges(SRC, DST, table=True), pair_tbl)):
        calls = [
            lambda: pagerank(edges, iterations=3, num_shards=2),
            lambda: components_sharded(pairs, num_shards=2),
            lambda: kcore_sharded(edges, k=3, num_shards=2),
            lambda: sssp(edges, source=0, rounds=3, num_shards=2),
            lambda: link_prediction(edges, num_shards=2),
            lambda: hits(edges, num_shards=2),
            lambda: densest_subgraph(edges, num_shards=2),
            lambda: triangle_count(edges, num_shards=2),
            lambda: clustering_coeff(edges, num_shards=2),
            lambda: assortativity(edges, num_shards=2),
        ]
        for call in calls:
            out = call()
            assert _alive_shards() == []
            # the results outlive their shards
            assert (out.num_rows if isinstance(out, pa.Table) else out.count()) > 0


def test_no_shard_outlives_a_failed_call(ray_session):
    from commons_codec_ray.stages.graph import densest_subgraph, hits, kcore_sharded, sssp

    for table in (False, True):
        # a path peels from both ends, one node per end per round
        path = _edges([0, 1, 2, 3, 4], [1, 2, 3, 4, 5], table=table)
        with pytest.raises(RuntimeError, match="did not reach fixpoint"):
            kcore_sharded(path, k=2, max_rounds=1, num_shards=2)
        assert _alive_shards() == []
        # the second superstep's relaxation passes int64 max
        big = _edges([0, 1], [1, 2], [1 << 62, 1 << 62], table=table)
        with pytest.raises(OverflowError):
            sssp(big, source=0, rounds=3, num_shards=2)
        assert _alive_shards() == []
        with pytest.raises(RuntimeError, match="did not terminate"):
            densest_subgraph(path, max_rounds=1, num_shards=2)
        assert _alive_shards() == []
        # complete digraph on 60 nodes: h_4 = 60^8 passes 2^44
        u, v = np.meshgrid(np.arange(60), np.arange(60))
        dense = _edges(u.ravel(), v.ravel(), table=table)
        with pytest.raises(OverflowError, match="2\\^44"):
            hits(dense, iterations=4, num_shards=2)
        assert _alive_shards() == []

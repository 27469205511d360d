"""Round-5 session-9 operators: personalized PageRank (seed-restricted
teleport) and the merged lake VACUUM (orphan GC + history retention)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline

SF_DIR = "/root/testdata/sf0.001"


def _ppr_expected(edges, seeds, iterations):
    """Dense fixed-point PPR on distinct edges (floor division, int64)."""
    SCALE = 1_000_000_000_000
    e = sorted(set(edges))
    nodes = sorted({u for u, _ in e} | {v for _, v in e})
    idx = {n: i for i, n in enumerate(nodes)}
    a_mat = np.zeros((len(nodes), len(nodes)), np.int64)
    for u, v in e:
        a_mat[idx[u], idx[v]] = 1
    deg = a_mat.sum(axis=1)
    live_seeds = [s for s in seeds if s in idx]
    s0 = SCALE // len(live_seeds)
    base = np.zeros(len(nodes), np.int64)
    base[[idx[s] for s in live_seeds]] = 15 * s0 // 100
    p = np.zeros(len(nodes), np.int64)
    p[[idx[s] for s in live_seeds]] = s0
    for _ in range(iterations):
        contrib = np.where(deg > 0, p // np.maximum(deg, 1), 0)
        p = base + 85 * (a_mat.T @ contrib) // 100
    return {n: int(p[idx[n]]) for n in nodes}


def test_ppr_matches_dense_fixed_point(ray_session):
    from commons_codec_ray.stages.graph import personalized_pagerank

    rng = np.random.RandomState(23)
    src = rng.randint(0, 60, 800).astype(np.int64)
    dst = rng.randint(0, 60, 800).astype(np.int64)
    ds = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    seeds = np.array([0, 7, 14, 999], np.int64)  # 999 absent: ignored
    got = personalized_pagerank(ds, seeds=seeds, iterations=3).to_pandas()
    want = _ppr_expected(list(zip(src.tolist(), dst.tolist())), seeds.tolist(), 3)
    assert len(got) == len(want)
    for _, r in got.iterrows():
        assert r["score"] == want[int(r["node"])], r
    # seed scores dominate: teleport mass concentrates near the seed set
    by_node = dict(zip(got["node"], got["score"]))
    assert by_node[0] > 0 and by_node[7] > 0


def test_ppr_no_live_seed_raises(ray_session):
    from commons_codec_ray.stages.graph import personalized_pagerank

    ds = rd.from_arrow(
        pa.table({"src": pa.array([1, 2], pa.int64()), "dst": pa.array([2, 3], pa.int64())})
    )
    with pytest.raises(Exception, match="no seed"):
        personalized_pagerank(ds, seeds=np.array([99], np.int64)).to_pandas()


def _build(tmp_path, epoch_size=300):
    events = pq.read_table(f"{SF_DIR}/events.parquet")
    env = EventsToEnvelopes(duplicates=False)(events).sort_by("lsn")
    log = tmp_path / "env.parquet"
    pq.write_table(env, log, row_group_size=100)
    pipe = CDCPipeline(
        tmp_path / "lake", PipelineConfig(num_partitions=8, epoch_size=epoch_size)
    )
    pipe.replay(str(log))
    return pipe


def test_vacuum_removes_each_crash_artifact(ray_session, tmp_path):
    pipe = _build(tmp_path)
    store = pipe.store
    before = pipe.checkpoint()
    junk = pa.table({"x": pa.array([1])})
    # (a) task died after writing, before the manifest
    stray = store.epoch_dir(0) / "part-9999.parquet"
    pq.write_table(junk, stray)
    # (b) commit-point crash: file + manifest written, checkpoint not swapped
    e = before.last_epoch + 1
    store.ensure_dirs(e)
    pq.write_table(junk, store.partition_file(e, 0))
    rel = store.partition_file(e, 0).relative_to(store.root).as_posix()
    store.write_manifest(
        e,
        {
            "offset_range": [0, 0],
            "files": {"transcripts#0": {"path": rel, "rows": 1, "max_lsn": 0, "kind": "full"}},
            "registry": {},
            "metrics": {},
        },
    )
    # (c) stranded atomic-write temp
    tmp = store.epoch_dir(1) / "manifest.json.tmp-42"
    tmp.write_text("{}")

    dry = pipe.vacuum(dry_run=True)
    assert dry["orphans_removed"] == 4  # a + b(file) + b(manifest) + c
    assert stray.exists() and tmp.exists()  # dry-run deletes nothing
    res = pipe.vacuum()
    assert res["orphans_removed"] == 4
    assert sorted(res["orphan_paths"]) == sorted(dry["orphan_paths"])
    assert not stray.exists() and not tmp.exists()
    assert not store.partition_file(e, 0).exists()
    assert not store.epoch_dir(e).exists()  # emptied uncommitted dir pruned
    assert pipe.checkpoint().to_dict() == before.to_dict()
    # history fully retained by default: epoch-0 time travel still reads
    assert pipe.read_lake(epoch=0).count() > 0
    # idempotent
    assert pipe.vacuum()["orphans_removed"] == 0


def test_vacuum_retention_bounds_time_travel(ray_session, tmp_path):
    pipe = _build(tmp_path)
    last = pipe.checkpoint().last_epoch
    assert last >= 2
    res = pipe.vacuum(keep_last=1)
    assert res["orphans_removed"] > 0  # pre-horizon snapshot files reclaimed
    # retained window still reads; current state intact
    assert pipe.read_lake(epoch=last - 1).count() > 0
    assert pipe.read_lake().count() > 0
    # pre-horizon epoch is no longer fully reconstructible
    with pytest.raises(Exception):
        pipe.read_lake(epoch=0).count()


def _python_bfs(src, dst, source, max_levels):
    """Hop level of every node within ``max_levels`` directed hops."""
    from collections import deque

    adj = {}
    for u, v in zip(src.tolist(), dst.tolist()):
        adj.setdefault(u, set()).add(v)
    want = {source: 0}
    q = deque([source])
    while q:
        u = q.popleft()
        if want[u] >= max_levels:
            continue
        for v in sorted(adj.get(u, ())):
            if v not in want:
                want[v] = want[u] + 1
                q.append(v)
    return want


def _python_bellman_ford(src, dst, w, source, rounds):
    """Min-weight dedupe of multi-edges, then synchronous Bellman-Ford
    over Python ints (no wrap, no float)."""
    emin = {}
    for u, v, ww in zip(src.tolist(), dst.tolist(), w.tolist()):
        emin[(u, v)] = min(emin.get((u, v), ww), ww)
    d = {source: 0}
    for _ in range(rounds):
        nxt = dict(d)
        for (u, v), ww in emin.items():
            if u in d and (v not in nxt or d[u] + ww < nxt[v]):
                nxt[v] = d[u] + ww
        d = nxt
    return d


def _edges(src, dst, w=None, blocks=1):
    cols = {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
    if w is not None:
        cols["w"] = pa.array(w, pa.int64())
    t = pa.table(cols)
    cuts = np.linspace(0, t.num_rows, blocks + 1).astype(int)
    return rd.from_arrow([t.slice(a, b - a) for a, b in zip(cuts[:-1], cuts[1:])])


def _as_dict(df, col):
    return dict(zip(df["node"].tolist(), df[col].tolist()))


def test_bfs_levels_matches_python_bfs(ray_session):
    from commons_codec_ray.stages.graph import bfs_levels

    rng = np.random.RandomState(11)
    src = rng.randint(0, 80, 500).astype(np.int64)
    dst = rng.randint(0, 80, 500).astype(np.int64)
    # an unreachable island and a self-loop at the source
    src = np.append(src, [0, 200])
    dst = np.append(dst, [0, 201])
    ds = rd.from_arrow(pa.table({"src": pa.array(src), "dst": pa.array(dst)}))
    max_levels = 4
    got = bfs_levels(ds, source=0, max_levels=max_levels).to_pandas()
    assert _as_dict(got, "level") == _python_bfs(src, dst, 0, max_levels)
    assert 201 not in set(got["node"])  # island stays unreached


def test_sequence_islands_stitches_runs_across_buckets(ray_session):
    from commons_codec_ray.stages.watermark import sequence_islands

    # one 5000-id run that MUST span several range buckets, plus
    # scattered singleton islands and a duplicate delivery
    run = np.arange(10_000, 15_000, dtype=np.int64)
    singles = np.array([1, 3, 20_000, 20_002], np.int64)
    ids = np.concatenate([run, singles, run[:100]])
    ds = rd.from_arrow(pa.table({"seq": pa.array(ids)}))
    got = (
        sequence_islands(ds, id_col="seq", num_buckets=8)
        .to_pandas()
        .sort_values("start_id")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "start_id": np.array([1, 3, 10_000, 20_000, 20_002], np.int64),
            "end_id": np.array([1, 3, 14_999, 20_000, 20_002], np.int64),
            "n_ids": np.array([1, 1, 5_000, 1, 1], np.int64),
        }
    )
    pd.testing.assert_frame_equal(got, want)


def test_sssp_matches_python_bellman_ford(ray_session):
    from commons_codec_ray.stages.graph import sssp

    rng = np.random.RandomState(5)
    src = rng.randint(0, 70, 600).astype(np.int64)
    dst = rng.randint(0, 70, 600).astype(np.int64)
    w = rng.randint(1, 10, 600).astype(np.int64)
    rounds = 4
    ds = rd.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst), "w": pa.array(w)})
    )
    got = sssp(ds, source=3, rounds=rounds).to_pandas()
    assert _as_dict(got, "dist") == _python_bellman_ford(src, dst, w, 3, rounds)


def _random_weighted(seed, n_nodes=60, n_edges=400, w_lo=1, w_hi=10):
    rng = np.random.RandomState(seed)
    return (
        rng.randint(0, n_nodes, n_edges).astype(np.int64),
        rng.randint(0, n_nodes, n_edges).astype(np.int64),
        rng.randint(w_lo, w_hi, n_edges).astype(np.int64),
    )


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_sssp_shard_counts_and_blocks(ray_session, num_shards):
    """Same distances at any shard count, over input split into blocks."""
    from commons_codec_ray.stages.graph import sssp

    src, dst, w = _random_weighted(17)
    ds = _edges(src, dst, w, blocks=4)
    got = sssp(ds, source=5, rounds=5, num_shards=num_shards).to_pandas()
    assert _as_dict(got, "dist") == _python_bellman_ford(src, dst, w, 5, 5)


def test_sssp_and_bfs_edge_cases(ray_session):
    from commons_codec_ray.stages.graph import bfs_levels, sssp

    src, dst, w = _random_weighted(29)
    ds, unweighted = _edges(src, dst, w, blocks=3), _edges(src, dst, blocks=3)
    # rounds=0: the source alone
    assert _as_dict(sssp(ds, source=7, rounds=0).to_pandas(), "dist") == {7: 0}
    assert _as_dict(bfs_levels(unweighted, source=7, max_levels=0).to_pandas(), "level") == {7: 0}
    # a source with no edges at all, and one with in-edges only
    sink = int(dst[0])
    src_k, dst_k, w_k = src[src != sink], dst[src != sink], w[src != sink]
    for source, (s, d, ww) in ((999, (src, dst, w)), (sink, (src_k, dst_k, w_k))):
        got = sssp(_edges(s, d, ww), source=source, rounds=4).to_pandas()
        assert _as_dict(got, "dist") == {source: 0}
        got = bfs_levels(_edges(s, d), source=source, max_levels=4).to_pandas()
        assert _as_dict(got, "level") == {source: 0}
    # an empty edge dataset: still the source at distance 0
    none = np.empty(0, np.int64)
    got = sssp(_edges(none, none, none), source=4, rounds=3).to_pandas()
    assert _as_dict(got, "dist") == {4: 0}
    got = bfs_levels(_edges(none, none), source=4, max_levels=3).to_pandas()
    assert _as_dict(got, "level") == {4: 0}
    # a deeper BFS over several blocks
    got = bfs_levels(unweighted, source=7, max_levels=6).to_pandas()
    assert _as_dict(got, "level") == _python_bfs(src, dst, 7, 6)


def test_sssp_weights_above_2_53_stay_exact(ray_session):
    """int64 distances past float64's exact range: no float anywhere."""
    from commons_codec_ray.stages.graph import sssp

    src, dst, w = _random_weighted(41, w_lo=0, w_hi=1000)
    w = w + (1 << 55)  # 5 hops stay below 2^58
    got = sssp(_edges(src, dst, w, blocks=2), source=1, rounds=5, num_shards=2).to_pandas()
    want = _python_bellman_ford(src, dst, w, 1, 5)
    assert max(want.values()) > 1 << 53
    assert got["dist"].dtype == np.int64
    assert _as_dict(got, "dist") == want


def test_sssp_overflow_raises_instead_of_wrapping(ray_session):
    """dist + w past int64 max raises, like a SQL BIGINT add."""
    from commons_codec_ray.stages.graph import sssp

    i64_max = (1 << 63) - 1
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([1, 2, 3], np.int64)
    w = np.array([1 << 62, (1 << 62) - 1, 1], np.int64)
    got = sssp(_edges(src, dst, w), source=0, rounds=2).to_pandas()
    assert _as_dict(got, "dist") == {0: 0, 1: 1 << 62, 2: i64_max}
    with pytest.raises(OverflowError, match="overflows int64"):
        sssp(_edges(src, dst, w), source=0, rounds=3).to_pandas()


@pytest.mark.parametrize("num_shards", [None, 2])
def test_sssp_table_input_keeps_its_edge_cases(ray_session, num_shards):
    """A ``pa.Table`` input takes the driver path with the same rules:
    ``rounds=0`` is the source alone, and an int64 overflow raises."""
    from commons_codec_ray.stages.graph import bfs_levels, sssp

    src, dst, w = _random_weighted(31)
    tbl = pa.table({"src": src, "dst": dst, "w": w})
    got = sssp(tbl, source=7, rounds=0, num_shards=num_shards)
    assert isinstance(got, pa.Table) and _as_dict(got.to_pandas(), "dist") == {7: 0}
    got = sssp(tbl, source=7, rounds=5, num_shards=num_shards).to_pandas()
    assert _as_dict(got, "dist") == _python_bellman_ford(src, dst, w, 7, 5)
    got = bfs_levels(tbl.select(["src", "dst"]), source=7, max_levels=5)
    assert _as_dict(got.to_pandas(), "level") == _python_bfs(src, dst, 7, 5)
    big = pa.table({"src": [0, 1], "dst": [1, 2], "w": [1 << 62, 1 << 62]})
    with pytest.raises(OverflowError, match="overflows int64"):
        sssp(big, source=0, rounds=3, num_shards=num_shards)

"""Distributed fixed-point PageRank (stages/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from commons_codec_ray.stages.graph import SCALE, pagerank


def _edges(pairs):
    return rd.from_arrow(
        pa.table(
            {
                "src": pa.array([p[0] for p in pairs], pa.int64()),
                "dst": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )
    )


def _reference(pairs, iterations, seeds=None):
    """Single-process replay of the exact integer update rule; with
    ``seeds``, the personalized rule (teleport only to the live seeds)."""
    edges = sorted(set(pairs))
    nodes = sorted({v for e in edges for v in e})
    live = set(nodes) if seeds is None else set(seeds) & set(nodes)
    deg = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    s0 = SCALE // len(live)
    base = 15 * s0 // 100
    score = {v: s0 if v in live else 0 for v in nodes}
    for _ in range(iterations):
        inc = {v: 0 for v in nodes}
        for s, d in edges:
            inc[d] += score[s] // deg[s]
        score = {v: (base if v in live else 0) + 85 * inc[v] // 100 for v in nodes}
    return score


class TestPagerank:
    PAIRS = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 1), (5, 5), (1, 2)]  # dup + self-loop

    def test_matches_reference_replay(self, ray_session):
        out = pagerank(_edges(self.PAIRS), iterations=3).to_pandas()
        want = _reference(self.PAIRS, 3)
        got = dict(zip(out["node"], out["score"]))
        assert got == want

    def test_sink_node_keeps_base_score(self, ray_session):
        # node 3 has no in-edges after: 1→2, 2→1, 3→1 (3 is a source only)
        pairs = [(1, 2), (2, 1), (3, 1)]
        out = pagerank(_edges(pairs), iterations=2).to_pandas()
        want = _reference(pairs, 2)
        assert dict(zip(out["node"], out["score"])) == want

    def test_bucket_count_invariance(self, ray_session):
        a = pagerank(_edges(self.PAIRS), iterations=2, num_buckets=4).to_pandas()
        b = pagerank(_edges(self.PAIRS), iterations=2, num_buckets=64).to_pandas()
        da = dict(zip(a["node"], a["score"]))
        db = dict(zip(b["node"], b["score"]))
        assert da == db

    def test_total_mass_bounded(self, ray_session):
        out = pagerank(_edges(self.PAIRS), iterations=5).to_pandas()
        assert out["score"].sum() <= SCALE
        assert (out["score"] > 0).all()

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_sharded_matches_reference_uniform_and_seeded(self, ray_session, num_shards):
        # uniform and personalized runs on one shard (in the driver) and
        # on three spawned shards replay the same fixed-point rule
        from commons_codec_ray.stages.graph import personalized_pagerank

        rng = np.random.RandomState(5)
        pairs = self.PAIRS + list(zip(rng.randint(0, 30, 120).tolist(), rng.randint(0, 30, 120).tolist()))
        a = pagerank(_edges(pairs), iterations=3, num_shards=num_shards).to_pandas()
        assert dict(zip(a["node"], a["score"])) == _reference(pairs, 3)
        seeds = [1, 4, 17, 999]  # 999 is not in the graph: ignored
        b = personalized_pagerank(_edges(pairs), seeds=seeds, iterations=3, num_shards=num_shards)
        b = b.to_pandas()
        assert dict(zip(b["node"], b["score"])) == _reference(pairs, 3, seeds)

    def test_shard_count_invariance(self, ray_session):
        a = pagerank(_edges(self.PAIRS), iterations=2, num_shards=1).to_pandas()
        b = pagerank(_edges(self.PAIRS), iterations=2, num_shards=5).to_pandas()
        assert dict(zip(a["node"], a["score"])) == dict(zip(b["node"], b["score"]))

    @pytest.mark.parametrize("num_shards", [None, 2])
    def test_empty_edge_set_gives_empty_result(self, ray_session, num_shards):
        # the oracle's node CTE is empty, so it returns no rows; a seeded
        # run keeps its no-live-seed error
        from commons_codec_ray.stages.graph import personalized_pagerank

        out = pagerank(_edges([]), iterations=3, num_shards=num_shards)
        assert out.count() == 0
        assert out.schema().names == ["node", "score"]
        assert out.schema().types == [pa.int64(), pa.int64()]
        with pytest.raises(ValueError, match="no seed"):
            personalized_pagerank(_edges([]), seeds=[1], num_shards=num_shards)


def test_triangle_count_vs_bruteforce(ray_session):
    import itertools

    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.stages.graph import triangle_count

    rng = np.random.RandomState(17)
    # multi-edges, self-loops, both orientations of the same edge
    a = rng.randint(0, 40, 1500).astype("int64")
    b = rng.randint(0, 40, 1500).astype("int64")
    ds = rd.from_arrow(
        pa.table({"src": pa.array(a), "dst": pa.array(b)})
    ).repartition(6)
    got = triangle_count(ds).to_pandas()

    eset = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
    adj = {}
    for u, v in eset:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    tri = 0
    for u, v in eset:
        tri += len(adj[u] & adj[v] - {u, v})
    assert got["n_edges"].iloc[0] == len(eset)
    assert got["n_triangles"].iloc[0] == tri // 3


class TestComponentsSharded:
    @staticmethod
    def _pairs_table(pairs):
        return pa.table(
            {
                "id_a": pa.array([p[0] for p in pairs], pa.int64()),
                "id_b": pa.array([p[1] for p in pairs], pa.int64()),
            }
        )

    @classmethod
    def _pairs_ds(cls, pairs):
        return rd.from_arrow(cls._pairs_table(pairs))

    @staticmethod
    def _reference(pairs):
        # union-find ground truth: min id per component
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        return {x: find(x) for x in parent}

    def test_path_graph_exercises_jumps(self, ray_session):
        # one long path: diameter 40, so convergence inside the 64-round
        # cap requires the pointer-jump phase to actually shorten chains
        from commons_codec_ray.stages.graph import components_sharded

        pairs = [(i + 1, i) for i in range(40)]
        out = components_sharded(
            self._pairs_ds(pairs), num_shards=3, max_rounds=16
        ).to_pandas()
        want = self._reference(pairs)
        assert dict(zip(out["node"], out["cluster_id"])) == want

    def test_random_graph_matches_dataset_variant(self, ray_session):
        # spawned shards on a Dataset and one driver shard on a table
        from commons_codec_ray.stages.graph import components_sharded

        rng = np.random.RandomState(23)
        pairs = [
            (int(a), int(b))
            for a, b in zip(rng.randint(0, 300, 500), rng.randint(0, 300, 500))
        ]
        a = components_sharded(self._pairs_ds(pairs), num_shards=4).to_pandas()
        b = components_sharded(self._pairs_table(pairs)).to_pandas()
        got_a = dict(zip(a["node"], a["cluster_id"]))
        got_b = dict(zip(b["node"], b["cluster_id"]))
        assert got_a == got_b == self._reference(pairs)

    def test_shard_count_invariance(self, ray_session):
        from commons_codec_ray.stages.graph import components_sharded

        pairs = [(1, 2), (2, 3), (9, 9), (7, 4), (4, 11), (20, 3)]
        a = components_sharded(self._pairs_ds(pairs), num_shards=1).to_pandas()
        b = components_sharded(self._pairs_ds(pairs), num_shards=5).to_pandas()
        assert dict(zip(a["node"], a["cluster_id"])) == dict(
            zip(b["node"], b["cluster_id"])
        )


class TestKCore:
    """kcore: simultaneous peel — known graphs + layout invariance."""

    @staticmethod
    def _run(src, dst, k, blocks=5, max_rounds=12):
        """The k-core of the edges, which must come out the same on a
        Dataset of ``blocks`` blocks and on a table, at the default pool
        and on 3 spawned shards."""
        from commons_codec_ray.stages.graph import kcore_sharded

        t = pa.table(
            {
                "src": pa.array(np.asarray(src, np.int64)),
                "dst": pa.array(np.asarray(dst, np.int64)),
            }
        )
        cores = []
        for data in (rd.from_arrow(t).repartition(blocks), t):
            for n in (None, 3):
                got = kcore_sharded(data, k=k, max_rounds=max_rounds, num_shards=n).to_pandas()
                # zero-row to_pandas drops columns in Ray Data
                cores.append(
                    {} if got.empty else dict(zip(got["node"].astype(int), got["deg"].astype(int)))
                )
        assert all(c == cores[0] for c in cores), cores
        return cores[0]

    def test_clique_with_pendant_chain(self, ray_session):
        # K5 on 0..4 plus chain 4-10-11-12: k=3 keeps exactly the clique,
        # and the peel must cascade down the chain (not just one round)
        src = [u for u in range(5) for v in range(u + 1, 5)] + [4, 10, 11]
        dst = [v for u in range(5) for v in range(u + 1, 5)] + [10, 11, 12]
        core = self._run(src, dst, k=3)
        assert core == {i: 4 for i in range(5)}

    def test_two_core_of_cycle_survives(self, ray_session):
        # cycle 0..5 with one pendant: 2-core = the cycle, pendant gone
        src = [0, 1, 2, 3, 4, 5, 3]
        dst = [1, 2, 3, 4, 5, 0, 99]
        core = self._run(src, dst, k=2)
        assert core == {i: 2 for i in range(6)}

    def test_multi_edges_and_self_loops_collapse(self, ray_session):
        # duplicated edges + self loops must not inflate degrees
        src = [0, 0, 0, 1, 1, 2, 7]
        dst = [1, 1, 2, 2, 0, 0, 7]
        core = self._run(src, dst, k=2)
        assert core == {0: 2, 1: 2, 2: 2}

    def test_block_layout_invariance(self, ray_session):
        rng = np.random.RandomState(4)
        src = rng.randint(0, 60, 400)
        dst = rng.randint(0, 60, 400)
        a = self._run(src, dst, k=4, blocks=2)
        b = self._run(src, dst, k=4, blocks=11)
        assert a == b

    def test_empty_core(self, ray_session):
        # a tree has empty 2-core
        src = [0, 0, 1, 1]
        dst = [1, 2, 3, 4]
        assert self._run(src, dst, k=2) == {}


class TestKCoreSharded:
    @staticmethod
    def _edges(seed, n_nodes=80, n_edges=500):
        rng = np.random.RandomState(seed)
        t = pa.table(
            {
                "src": pa.array(rng.randint(0, n_nodes, n_edges).astype(np.int64)),
                "dst": pa.array(rng.randint(0, n_nodes, n_edges).astype(np.int64)),
            }
        )
        return rd.from_arrow(t).repartition(6)

    @staticmethod
    def _as_dict(ds):
        df = ds.to_pandas()
        if df.empty:
            return {}
        return dict(zip(df["node"].astype(int), df["deg"].astype(int)))

    @staticmethod
    def _kcore_reference(ds, k):
        """Pure-Python simultaneous peel: every round removes each node
        of degree < k in the pre-round graph, until none is removed."""
        df = ds.to_pandas()
        adj: dict = {}
        for a, b in zip(df["src"].astype(int), df["dst"].astype(int)):
            if a != b:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
        while True:
            dead = {u for u, nbrs in adj.items() if len(nbrs) < k}
            if not dead:
                return {u: len(nbrs) for u, nbrs in adj.items()}
            adj = {u: nbrs - dead for u, nbrs in adj.items() if u not in dead}

    def test_matches_dataset_variant(self, ray_session):
        # the name is historical: the reference is a pure-Python peel
        from commons_codec_ray.stages.graph import kcore_sharded

        for seed, k in ((1, 3), (2, 6), (3, 12)):
            want = self._kcore_reference(self._edges(seed), k)
            got = self._as_dict(kcore_sharded(self._edges(seed), k=k))
            assert got == want, (seed, k)

    def test_shard_count_invariance(self, ray_session):
        from commons_codec_ray.stages.graph import kcore_sharded

        a = self._as_dict(kcore_sharded(self._edges(7), k=5, num_shards=1))
        b = self._as_dict(kcore_sharded(self._edges(7), k=5, num_shards=4))
        assert a == b and a

    def test_deep_peel_chain(self, ray_session):
        from commons_codec_ray.stages.graph import kcore_sharded

        # K4 with a 30-node pendant chain: the chain must cascade away
        # over many rounds, core = the K4
        src = [u for u in range(4) for v in range(u + 1, 4)] + [3] + list(range(100, 129))
        dst = [v for u in range(4) for v in range(u + 1, 4)] + [100] + list(range(101, 130))
        t = pa.table(
            {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
        )
        got = self._as_dict(kcore_sharded(rd.from_arrow(t).repartition(3), k=2, num_shards=3))
        assert got == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_empty_core_schema(self, ray_session):
        from commons_codec_ray.stages.graph import kcore_sharded

        t = pa.table(
            {"src": pa.array([0, 1], pa.int64()), "dst": pa.array([1, 2], pa.int64())}
        )
        ds = kcore_sharded(rd.from_arrow(t), k=2, num_shards=2)
        assert ds.count() == 0
        assert [f.name for f in ds.schema().base_schema] == ["node", "deg"]


def test_kcore_and_densest_take_full_int64_ids(ray_session):
    from commons_codec_ray.stages.graph import densest_subgraph, kcore_sharded

    big = 1 << 32
    t = pa.table(
        {
            "src": pa.array([big, big, big + 1], pa.int64()),
            "dst": pa.array([big + 1, big + 2, big + 2], pa.int64()),
        }
    )
    # the triangle is a 2-core, and the whole triangle is the densest round
    got = kcore_sharded(rd.from_arrow(t), k=2, num_shards=2).to_pandas()
    assert sorted(got["node"].astype(int)) == [big, big + 1, big + 2]
    for data, n in ((rd.from_arrow(t), 2), (t, None)):
        got = densest_subgraph(data, num_shards=n)
        got = got if isinstance(got, pa.Table) else pa.Table.from_pandas(got.to_pandas())
        assert sorted(got.to_pylist(), key=lambda r: r["node"]) == [
            {"node": x, "r": 0, "v_count": 3, "e_count": 3} for x in (big, big + 1, big + 2)
        ]


def test_kcore_ids_in_upper_32bit_range_work(ray_session):
    # ids in [2^31, 2^32) are ordinary node ids: nothing packs them
    from commons_codec_ray.stages.graph import kcore_sharded

    base = (1 << 31) + 5
    src = [base, base, base + 1]
    dst = [base + 1, base + 2, base + 2]
    t = pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    for data in (rd.from_arrow(t), t):
        got = kcore_sharded(data, k=2).to_pandas()
        assert sorted(got["node"].astype(int)) == [base, base + 1, base + 2]
        assert (got["deg"] == 2).all()


def _path_edges(n):
    return pa.table({"src": pa.array(range(n - 1), pa.int64()), "dst": pa.array(range(1, n), pa.int64())})


def test_kcore_raises_on_round_exhaustion(ray_session):
    # path graph, k=2: only the two endpoints peel per round, so
    # fixpoint needs ~n/2 rounds — an insufficient cap must RAISE, not
    # return a wrong intermediate "core"
    import pytest

    from commons_codec_ray.stages.graph import kcore_sharded

    t = _path_edges(30)
    for data in (rd.from_arrow(t).repartition(3), t):
        with pytest.raises(RuntimeError, match="fixpoint"):
            kcore_sharded(data, k=2, max_rounds=3)
    # the default cap converges (empty 2-core of a path)
    assert kcore_sharded(rd.from_arrow(t).repartition(3), k=2).count() == 0


def test_kcore_sharded_raises_on_round_exhaustion(ray_session):
    # the same contract on spawned shards
    import pytest

    from commons_codec_ray.stages.graph import kcore_sharded

    with pytest.raises(RuntimeError, match="fixpoint"):
        kcore_sharded(rd.from_arrow(_path_edges(100)).repartition(3), k=2, max_rounds=5, num_shards=3)


def test_components_sharded_raises_on_round_exhaustion(ray_session):
    # a 1000-node path needs 10 hop + pointer-jump rounds: a cap of 8
    # must RAISE, not return labels that are not component minima
    import pytest

    from commons_codec_ray.stages.graph import components_sharded

    n = 1000
    t = pa.table({"id_a": pa.array(range(n - 1), pa.int64()), "id_b": pa.array(range(1, n), pa.int64())})
    with pytest.raises(RuntimeError, match="fixpoint"):
        components_sharded(t, max_rounds=8)
    with pytest.raises(RuntimeError, match="fixpoint"):
        components_sharded(rd.from_arrow(t).repartition(3), max_rounds=8, num_shards=3)


class TestDensestSubgraph:
    @staticmethod
    def _run(src, dst, **kw):
        from commons_codec_ray.stages.graph import densest_subgraph

        t = pa.table(
            {
                "src": pa.array(np.asarray(src, np.int64)),
                "dst": pa.array(np.asarray(dst, np.int64)),
            }
        )
        df = densest_subgraph(rd.from_arrow(t).repartition(4), **kw).to_pandas()
        if df.empty:
            return set(), None
        return set(df["node"].astype(int)), (
            int(df["r"].iloc[0]),
            int(df["v_count"].iloc[0]),
            int(df["e_count"].iloc[0]),
        )

    @staticmethod
    def _reference(src, dst):
        a = np.asarray(src, np.int64)
        b = np.asarray(dst, np.int64)
        keep = a != b
        u = np.minimum(a[keep], b[keep])
        v = np.maximum(a[keep], b[keep])
        uv = np.unique(u << 32 | v)
        u, v = uv >> 32, uv & 0xFFFFFFFF
        su, sv = np.concatenate([u, v]), np.concatenate([v, u])
        stats, sets = [], []
        r = 0
        while len(su):
            nodes, inv = np.unique(su, return_inverse=True)
            deg = np.bincount(inv)
            V, E2 = len(nodes), len(su)
            stats.append((r, V, E2 // 2))
            sets.append(set(nodes.tolist()))
            rm = deg * V <= E2
            kp = ~(rm[inv] | rm[np.searchsorted(nodes, sv)])
            su, sv = su[kp], sv[kp]
            r += 1
        best_i = 0
        for i in range(1, len(stats)):
            _, V, E = stats[i]
            _, bv, be = stats[best_i]
            if E * bv > be * V:
                best_i = i
        return sets[best_i], stats[best_i]

    def test_isolates_planted_clique(self, ray_session):
        # K8 on 100..107 + a long sparse path: the clique (density 3.5)
        # must be the winning prefix
        src = [100 + i for i in range(8) for j in range(i + 1, 8)]
        dst = [100 + j for i in range(8) for j in range(i + 1, 8)]
        src += list(range(40))
        dst += list(range(1, 41))
        nodes, (r, v, e) = self._run(src, dst)
        assert nodes == {100 + i for i in range(8)}
        assert (v, e) == (8, 28)

    def test_matches_reference_replay(self, ray_session):
        rng = np.random.RandomState(6)
        for seed in (1, 2):
            rng = np.random.RandomState(seed)
            src = rng.randint(0, 70, 400)
            dst = rng.randint(0, 70, 400)
            got_nodes, got_stats = self._run(src, dst)
            want_nodes, want_stats = self._reference(src, dst)
            assert got_nodes == want_nodes and got_stats == want_stats, seed

    def test_empty_graph(self, ray_session):
        nodes, stats = self._run([5], [5])  # only a self-loop -> empty
        assert nodes == set() and stats is None


def test_clustering_coeff_vs_bruteforce(ray_session):
    from commons_codec_ray.stages.graph import clustering_coeff

    rng = np.random.RandomState(13)
    a = rng.randint(0, 35, 700).astype("int64")
    b = rng.randint(0, 35, 700).astype("int64")
    ds = rd.from_arrow(
        pa.table({"src": pa.array(a), "dst": pa.array(b)})
    ).repartition(5)
    got = clustering_coeff(ds).to_pandas().set_index("node")

    eset = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
    adj: dict = {}
    for u, v in eset:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for n, nbrs in adj.items():
        tri = sum(
            1
            for x in nbrs
            for y in nbrs
            if x < y and (min(x, y), max(x, y)) in eset
        )
        d = len(nbrs)
        want_cc = (2_000_000 * tri) // (d * (d - 1)) if d >= 2 else 0
        row = got.loc[n]
        assert int(row["deg"]) == d and int(row["triangles"]) == tri, n
        assert int(row["cc_ppm"]) == want_cc, n
    assert set(got.index) == set(adj)


def _assortativity_sql(t: pa.Table) -> float:
    """DuckDB's corr of the endpoint degrees over the symmetric distinct
    edges of ``t`` (the catalog oracle's formula)."""
    import duckdb

    con = duckdb.connect()
    con.register("edges_in", t)
    return con.execute(
        """
WITH e AS (SELECT DISTINCT least(src, dst) u, greatest(src, dst) v FROM edges_in WHERE src <> dst),
sym AS (SELECT u, v FROM e UNION ALL SELECT v, u FROM e),
deg AS (SELECT u AS n, count(*) d FROM sym GROUP BY u)
SELECT corr(CAST(du.d AS DOUBLE), CAST(dv.d AS DOUBLE))
FROM sym s JOIN deg du ON du.n = s.u JOIN deg dv ON dv.n = s.v
"""
    ).fetchone()[0]


def test_assortativity_signs(ray_session):
    """The engine's r against DuckDB's corr: a star is maximally
    disassortative (r = −1), and a random multigraph gives the same r
    and pair count at every shard count, from a Dataset, and with ids
    past 2^32 (nothing packs a pair)."""
    from commons_codec_ray.stages.graph import assortativity

    # star: center 0 with 6 leaves — all edges pair deg 6 with deg 1
    star = pa.table(
        {"src": pa.array([0] * 6, pa.int64()), "dst": pa.array(list(range(1, 7)), pa.int64())}
    )
    assert assortativity(star).to_pylist() == [{"assortativity": -1.0, "n_pairs": 12}]
    assert abs(_assortativity_sql(star) - (-1.0)) < 1e-9

    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 60, 400), rng.integers(0, 60, 400)  # self-loops, multi-edges
    t = pa.table({"src": pa.array(a), "dst": pa.array(b)})
    want = assortativity(t).to_pylist()
    assert abs(want[0]["assortativity"] - _assortativity_sql(t)) < 1e-12
    for n in (1, 2, 3):
        assert assortativity(t, num_shards=n).to_pylist() == want, n
    assert assortativity(rd.from_arrow(t).repartition(4)).to_pylist() == want
    big = pa.table({"src": pa.array(a + (1 << 40)), "dst": pa.array(b + (1 << 40))})
    for n in (None, 2):
        assert assortativity(big, num_shards=n).to_pylist() == want, n


def test_assortativity_of_no_edge_is_nan(ray_session):
    from commons_codec_ray.stages.graph import assortativity

    empty = pa.table({"src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64())})
    for data in (empty, rd.from_arrow(empty)):
        for n in (None, 2):
            out = assortativity(data, num_shards=n).to_pylist()
            assert out[0]["n_pairs"] == 0 and np.isnan(out[0]["assortativity"]), n


def test_assortativity_moment_guard():
    """Every moment sum is bounded by n·max(x, y)², checked before any
    int64 product or sum is taken."""
    from commons_codec_ray.stages.graph import _moment_sums

    x = np.array([1 << 31], np.int64)
    assert _moment_sums(x, x) == (1, 1 << 31, 1 << 31, 1 << 62, 1 << 62, 1 << 62)
    with pytest.raises(OverflowError, match="int64"):
        _moment_sums(np.repeat(x, 2), np.array([1, 1], np.int64))
    assert _moment_sums(np.empty(0, np.int64), np.empty(0, np.int64)) == (0,) * 6


def _lp_reference(a, b, top_k, score="jaccard"):
    """Brute-force top-k link prediction: every non-adjacent pair with a
    common neighbor, scored and ordered as ``link_prediction`` does."""
    from commons_codec_ray.stages.graph import RA_SCALE

    eset = {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}
    adj: dict = {}
    for u, v in eset:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    want = []
    nodes = sorted(adj)
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            if (x, y) in eset:
                continue
            common = adj[x] & adj[y]
            if not common:
                continue
            cn = len(common)
            if score == "jaccard":
                sc = (1_000_000 * cn) // (len(adj[x]) + len(adj[y]) - cn)
            else:
                sc = sum(RA_SCALE // len(adj[c]) for c in common)
            want.append((x, y, cn, sc))
    want.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
    return want[:top_k]


def _lp_rows(table):
    return [tuple(int(v) for v in r.values()) for r in table.to_pylist()]


def _edge_blocks(a, b, blocks=5):
    t = pa.table({"src": pa.array(np.asarray(a, np.int64)), "dst": pa.array(np.asarray(b, np.int64))})
    return rd.from_arrow(t).repartition(blocks)


def test_link_prediction_vs_bruteforce(ray_session):
    from commons_codec_ray.stages.graph import link_prediction

    rng = np.random.RandomState(29)
    a = rng.randint(0, 30, 400).astype("int64")
    b = rng.randint(0, 30, 400).astype("int64")
    got = link_prediction(_edge_blocks(a, b), top_k=25)
    assert got.column_names == ["a", "b", "cn", "jaccard_ppm"]
    assert _lp_rows(got) == _lp_reference(a, b, 25)


def test_link_prediction_bucket_invariance_and_edges(ray_session):
    from commons_codec_ray.stages.graph import link_prediction

    # path 1-2-3-4 plus dup/self-loop noise: open pairs (1,3), (2,4)
    ds = _edges([(1, 2), (2, 3), (3, 4), (2, 1), (3, 3), (2, 3)])
    got = link_prediction(ds, top_k=10).to_pandas()
    rows = {(int(r.a), int(r.b)): (int(r.cn), int(r.jaccard_ppm))
            for r in got.itertuples()}
    # CN(1,3) = {2}; deg(1)=1, deg(3)=2 → jac = 1e6 // 2
    # CN(2,4) = {3}; deg(2)=2, deg(4)=1 → jac = 1e6 // 2
    assert rows == {(1, 3): (1, 500_000), (2, 4): (1, 500_000)}
    samebuckets = link_prediction(ds, top_k=10, num_buckets=256).to_pandas()
    assert got.equals(samebuckets)

    # a single edge has no open wedge pairs → empty with full schema
    empty = link_prediction(_edges([(1, 2)]), top_k=5)
    assert empty.num_rows == 0
    assert empty.column_names == ["a", "b", "cn", "jaccard_ppm"]


def test_link_prediction_resource_allocation_vs_bruteforce(ray_session):
    from commons_codec_ray.stages.graph import link_prediction

    rng = np.random.RandomState(31)
    a = rng.randint(0, 30, 400).astype("int64")
    b = rng.randint(0, 30, 400).astype("int64")
    ds = _edge_blocks(a, b)
    got = link_prediction(ds, top_k=25, score="resource_allocation")
    assert got.column_names == ["a", "b", "cn", "ra"]
    assert _lp_rows(got) == _lp_reference(a, b, 25, "resource_allocation")
    with pytest.raises(ValueError, match="unknown link-prediction score"):
        link_prediction(ds, score="adamic_adar")


SCORES = ["jaccard", "resource_allocation"]


@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_link_prediction_shard_counts(ray_session, num_shards, score):
    from commons_codec_ray.stages.graph import link_prediction

    rng = np.random.RandomState(41)
    a = rng.randint(0, 40, 300)
    b = rng.randint(0, 40, 300)
    got = link_prediction(_edge_blocks(a, b, blocks=7), top_k=30, score=score, num_shards=num_shards)
    assert got.schema.types == [pa.int64()] * 4
    assert _lp_rows(got) == _lp_reference(a, b, 30, score)
    # a star 0 - {1..6} plus the edge 1-2: fifteen leaf pairs, and the
    # top-k cut falls inside a run of equal (score, cn), so (a, b) decides
    a = [0] * 6 + [1]
    b = list(range(1, 7)) + [2]
    got = link_prediction(_edge_blocks(a, b, blocks=3), top_k=6, score=score, num_shards=num_shards)
    want = _lp_reference(a, b, 6, score)
    assert _lp_rows(got) == want and want[4][2:] == want[5][2:]


@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("pairs", [[], [(3, 3), (7, 7), (3, 3)]], ids=["no-edges", "self-loops"])
def test_link_prediction_empty_results_keep_schema(ray_session, pairs, score):
    from commons_codec_ray.stages.graph import link_prediction

    for num_shards in (None, 2):
        got = link_prediction(_edges(pairs), score=score, num_shards=num_shards)
        assert got.num_rows == 0
        assert got.column_names == ["a", "b", "cn", "jaccard_ppm" if score == "jaccard" else "ra"]
        assert got.schema.types == [pa.int64()] * 4


@pytest.mark.parametrize("num_shards", [1, 2])
def test_link_prediction_hub_above_the_wedge_chunk(ray_session, num_shards):
    # one hub's wedges alone exceed WEDGE_CHUNK, so they are generated and
    # pre-reduced in more than one chunk
    from commons_codec_ray.stages.graph import WEDGE_CHUNK, link_prediction

    leaves = 1500
    assert leaves * (leaves - 1) // 2 > WEDGE_CHUNK
    a = [0] * leaves + [1, 2, 5, 9, 9]
    b = list(range(1, leaves + 1)) + [2, 3, 9, 700, 1400]
    for score in SCORES:
        got = link_prediction(_edge_blocks(a, b, blocks=4), top_k=40, score=score, num_shards=num_shards)
        assert _lp_rows(got) == _lp_reference(a, b, 40, score)


def test_link_prediction_small_chunks_match(ray_session, monkeypatch):
    # chunks of a few wedges split every center's run; a pool of one runs
    # in this process, so the patched constant applies
    from commons_codec_ray.stages import graph

    monkeypatch.setattr(graph, "WEDGE_CHUNK", 7)
    rng = np.random.RandomState(43)
    a = rng.randint(0, 25, 200)
    b = rng.randint(0, 25, 200)
    for score in SCORES:
        got = graph.link_prediction(_edge_blocks(a, b), top_k=20, score=score)
        assert _lp_rows(got) == _lp_reference(a, b, 20, score)


@pytest.mark.parametrize("bad", [1 << 31, -1], ids=["2^31", "-1"])
@pytest.mark.parametrize("op", ["triangle_count", "clustering_coeff", "link_prediction"])
def test_pair_packing_rejects_ids_beyond_31_bits(ray_session, op, bad):
    # the guard is a ValueError (an assert vanishes under python -O and
    # (u << 32) | v then wraps); inside a Ray Data task it surfaces
    # wrapped, with the original exception in the message
    from commons_codec_ray.stages import graph

    ds = _edges([(bad, 5), (5, 6), (6, bad)])
    with pytest.raises(Exception, match=r"ValueError: .*31 bits"):
        getattr(graph, op)(ds)


# --- the table path: Arrow tables in, Arrow tables out -----------------------
# The shard-pool operators take their edges as a pa.Table too (the graph
# queries pass one when the pool is one driver shard); each must return
# a table holding exactly what the same edges as a Dataset give.


def _table_ops():
    from commons_codec_ray.stages import graph

    return {
        "pagerank": lambda e, n: graph.pagerank(e, iterations=3, num_shards=n),
        "pagerank_seeded": lambda e, n: graph.personalized_pagerank(
            e, seeds=[1, 4, 17, 999], iterations=3, num_shards=n
        ),
        "components_sharded": lambda e, n: graph.components_sharded(
            e, id_a="src", id_b="dst", num_shards=n
        ),
        "kcore_sharded": lambda e, n: graph.kcore_sharded(e, k=3, num_shards=n),
        "sssp": lambda e, n: graph.sssp(e, source=1, rounds=4, num_shards=n),
        # bfs_levels takes no num_shards: its pool follows the input size
        "bfs_levels": lambda e, n: graph.bfs_levels(e, source=1, max_levels=4),
        "link_prediction": lambda e, n: graph.link_prediction(e, top_k=20, num_shards=n),
        "link_prediction_ra": lambda e, n: graph.link_prediction(
            e, top_k=20, score="resource_allocation", num_shards=n
        ),
        "hits": lambda e, n: graph.hits(e, iterations=2, num_shards=n),
        "densest_subgraph": lambda e, n: graph.densest_subgraph(e, num_shards=n),
        "triangle_count": lambda e, n: graph.triangle_count(e, num_shards=n),
        "clustering_coeff": lambda e, n: graph.clustering_coeff(e, num_shards=n),
        "assortativity": lambda e, n: graph.assortativity(e, num_shards=n),
    }


# these reduce to a driver-side table whatever they were given
TABLE_ALWAYS = (
    "link_prediction", "link_prediction_ra", "triangle_count", "clustering_coeff", "assortativity",
)


TABLE_CASES = [
    (op, n) for op in _table_ops() for n in (None, 2) if not (op == "bfs_levels" and n)
]


def _weighted(n_edges: int, seed: int = 13) -> pa.Table:
    rng = np.random.RandomState(seed)
    return pa.table(
        {
            "src": pa.array(rng.randint(0, 40, n_edges), pa.int64()),
            "dst": pa.array(rng.randint(0, 40, n_edges), pa.int64()),
            "w": pa.array(rng.randint(1, 10, n_edges), pa.int64()),
        }
    )


def _rows_of(out) -> tuple[list, list, list]:
    """Column names, types and sorted rows of a table or a Dataset."""
    if not isinstance(out, pa.Table):
        schema = out.schema()
        rows = out.take_all()
        return schema.names, schema.types, sorted(tuple(r[c] for c in schema.names) for r in rows)
    rows = out.to_pylist()
    return out.column_names, out.schema.types, sorted(tuple(r.values()) for r in rows)


@pytest.mark.parametrize("op,num_shards", TABLE_CASES)
def test_table_in_table_out_matches_the_dataset_path(ray_session, op, num_shards):
    call = _table_ops()[op]
    tbl = _weighted(300)
    got = call(tbl, num_shards)
    assert isinstance(got, pa.Table), type(got)
    want = call(rd.from_arrow(tbl).repartition(3), num_shards)
    assert isinstance(want, pa.Table) == (op in TABLE_ALWAYS)
    assert got.num_rows > 0
    assert _rows_of(got) == _rows_of(want)


# assortativity's one NaN row: test_assortativity_of_no_edge_is_nan
@pytest.mark.parametrize(
    "op,num_shards", [c for c in TABLE_CASES if c[0] not in ("pagerank_seeded", "assortativity")]
)
def test_empty_edge_table_keeps_the_full_schema(ray_session, op, num_shards):
    call = _table_ops()[op]
    got = call(_weighted(0), num_shards)
    assert isinstance(got, pa.Table), type(got)
    names, types, rows = _rows_of(got)
    assert (names, types, rows) == _rows_of(call(rd.from_arrow(_weighted(0)), num_shards))
    string_kind = [pa.int64(), pa.string(), pa.int64()]
    assert types == (string_kind if op == "hits" else [pa.int64()] * len(names))
    # the traversals still reach their source, at distance/level 0; the
    # triangle count is one row of zeros
    assert rows == {"sssp": [(1, 0)], "bfs_levels": [(1, 0)], "triangle_count": [(0, 0)]}.get(op, [])


@pytest.mark.parametrize("num_shards", [None, 2])
def test_seeded_pagerank_table_without_a_live_seed_raises(ray_session, num_shards):
    from commons_codec_ray.stages.graph import personalized_pagerank

    for tbl in (_weighted(0), _weighted(50)):
        with pytest.raises(ValueError, match="no seed"):
            personalized_pagerank(tbl, seeds=[999], num_shards=num_shards)

"""Distributed PageRank over an edge Dataset (Pregel-shaped, FUSED:
one integer-keyed exchange per iteration).

Scores are FIXED-POINT int64 (scale 10^12) with floor division at every
step: integer addition is exact and commutative, so the result is
bit-identical regardless of summation order, block layout or cluster
size — and a SQL oracle can replay the same iterations with unrolled
CTEs and match hash-exactly.  (Float PageRank would drift in the last
ulp between engines because reduction order differs.)

Semantics: distinct directed edges (multi-edges collapse, self-loops
allowed); damping d = 85/100; dangling-node mass is NOT redistributed
(it decays, same as the oracle).  Per iteration

    s'(v) = base + 85 · (Σ_{u→v} s(u) // outdeg(u)) // 100,
    base  = 15 · (SCALE // N) // 100

Scale shape (``pagerank``, the actor-sharded default): the edge list
(with per-source outdegree) is bucketed and routed to shard actors
ONCE — hash(src) and hash(v) land a node's out-edges and its score in
the SAME shard, so the classic Pregel round's two exchanges (scores →
source for the scatter join, contributions → destination for the
gather sum) fuse into one.  Per iteration only the (node, contribution)
stream crosses shards, as direct plasma objects between actors; the
driver forwards A² object refs per round and never touches data.  The
static edge table never moves after setup.  Round-0 contributions come
straight off the shard-local edges (no exchange); per-round state is
one int64 per node.  ``personalized_pagerank`` is the same shards with
the teleport restricted to a seed set.

The same actor shape carries ``components_sharded``, ``kcore_sharded``,
``sssp`` (hence ``bfs_levels``) and ``link_prediction``: all five run
on one scaffold, :func:`_shard_pool`, which sizes the pool, routes the
static rows to the shards once, and kills every spawned shard on the
way out, however the call ends. Placement follows size: below
:data:`~commons_codec_ray.util.DRIVER_POOL_ROWS` setup rows the default
pool is ONE shard, a plain instance of the same shard class in the
driver, since a fresh shard process costs ~0.45 s against ~0.01 s of
supersteps at that size. Larger inputs, or ``num_shards`` ≥ 2, spawn
the shards as actors with one set of options (no CPU reserved).

These five take their edges as a Ray Dataset or as a ``pa.Table``, and
return the same kind (``link_prediction`` always returns a table). A
table is the low-latency form: the setup is built with one call in the
driver and no Ray Data execution runs at all, where a Dataset pays
~0.1 s of executor start-up for a one-block read (PERF.md "Small graph
queries skip Ray Data"). A table is ONE setup block, so its default
pool is one driver shard at any size: the caller already holds the
whole input in the driver, and only ``num_shards`` ≥ 2 spawns shards
for it. Inputs that should not pass through the driver are given as a
Dataset.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from commons_codec_ray.util import InDriver, adaptive_buckets, hash_bucket, pool_size, sized_pool

SCALE = 1_000_000_000_000


# --- shard scaffold: the actor-sharded operators' one driver shape ----------
# Static rows are routed ONCE to the shard owning their ``_b``
# (``bucket % A``); afterwards each superstep moves only messages, as
# direct plasma objects between shards, and the driver forwards A² refs
# per superstep, never data.


@ray.remote
def _route_to_shards(tbl: pa.Table, num_shards: int) -> list[pa.Table] | pa.Table:
    """Split one setup block by owning shard (``_b % num_shards``) so
    each row moves to its shard actor exactly once (plasma → actor,
    never via the driver)."""
    if not tbl.num_rows:  # an empty block skips map_batches: it has no ``_b``
        return _returns([tbl] * num_shards)
    owner = tbl["_b"].to_numpy(zero_copy_only=False) % num_shards
    order = np.argsort(owner, kind="stable")
    t = tbl.take(pa.array(order))
    bounds = np.searchsorted(owner[order], np.arange(num_shards + 1))
    return _returns(
        [t.slice(bounds[o], bounds[o + 1] - bounds[o]) for o in range(num_shards)]
    )


# stages/dedup.py routes its LSH setup blocks through the old name
_pagerank_route = _route_to_shards


def _returns(outs: list):
    """The value of a ``num_returns=len(outs)`` call: Ray stores a
    single return whole, so one outbox goes back bare."""
    return outs if len(outs) > 1 else outs[0]


def _fan_out(method, A: int, *args) -> list:
    """Call a task or shard method that returns one table per owner
    shard; always a list of ``A`` refs."""
    refs = method.options(num_returns=A).remote(*args)
    return [refs] if A == 1 else refs


def _inbox(outs: list, o: int) -> list:
    """Shard ``o``'s inbox: its slice of every shard's outboxes."""
    return [out[o] for out in outs]


@functools.cache
def _shard_actor(shard_cls):
    """``shard_cls`` as an actor class with the options every shard gets:
    SPREAD placement and no CPU reservation, so the tasks the driver
    still needs (routing, ``from_arrow_refs``) find a slot even on a
    one-CPU cluster."""
    return ray.remote(shard_cls).options(num_cpus=0, scheduling_strategy="SPREAD")


def map_rows(data, fn):
    """``fn`` over the rows of ``data``: called once on a ``pa.Table``,
    mapped over a Dataset's batches (lazily, as ``map_batches``)."""
    if isinstance(data, pa.Table):
        return fn(data)
    return data.map_batches(fn, batch_format="pyarrow")


@contextmanager
def _shard_pool(shard_cls, setup, num_shards: int | None, *init_args):
    """Yield ``A`` shards ``shard_cls(A, *init_args)`` that hold the rows
    of ``setup`` (a Dataset or a ``pa.Table`` with the ``_b`` owner
    bucket), each row routed once to its owner.

    ``A`` is ``num_shards``, or by :func:`~commons_codec_ray.util.sized_pool`
    one below the driver crossover, else one per setup block up to the
    :func:`pool_size` clamp. A table is one block, so its default pool
    is one shard at ANY size. A pool of one is an :class:`InDriver`
    handle on a plain ``shard_cls`` in the driver, and a table setup
    then goes to it as is: no ``ray.put``, no Ray Data.
    Larger pools are actors, and every one spawned is killed on the way
    out, however the body leaves.
    """
    if isinstance(setup, pa.Table):
        A = sized_pool(num_shards, setup.num_rows, 1)
        blocks = [setup if A == 1 else ray.put(setup)]
    else:
        setup = setup.materialize()
        blocks = setup.to_arrow_refs()
        A = sized_pool(num_shards, setup.count(), pool_size(max(1, len(blocks))))
    spawned = []
    try:
        if A == 1:
            shards = [InDriver(shard_cls(1, *init_args))]
        else:
            for _ in range(A):
                spawned.append(_shard_actor(shard_cls).remote(A, *init_args))
            shards = spawned
        acks = []
        for blk in blocks:
            parts = [blk] if A == 1 else _fan_out(_route_to_shards, A, blk, A)
            acks.extend(w.add_static.remote(p) for w, p in zip(shards, parts))
        ray.get(acks)
        yield shards
    finally:
        for w in spawned:
            ray.kill(w, no_restart=True)


def _collect(refs: list, like):
    """The shards' result tables as the kind of data the operator was
    given (``like``): one ``pa.Table`` for a table, else a Dataset.
    Called inside the pool: the results are computed before any spawned
    shard dies, and a Dataset's stay in the object store after. All-empty
    results keep their schema."""
    if isinstance(like, pa.Table):
        return pa.concat_tables(ray.get(refs))
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    ds = rd.from_arrow_refs(refs)
    return ds if ds.count() else rd.from_arrow(ray.get(refs[0]))


def _cat(inboxes, col: str) -> np.ndarray:
    """One int64 column of every inbox table, concatenated."""
    parts = [t[col].to_numpy(zero_copy_only=False) for t in inboxes]
    return np.concatenate(parts).astype(np.int64, copy=False) if parts else np.empty(0, np.int64)


def _find(sorted_keys: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``q`` sits in ``sorted_keys``, and which are there."""
    pos = np.searchsorted(sorted_keys, q)
    hit = np.zeros(len(q), bool)
    inside = pos < len(sorted_keys)
    hit[inside] = sorted_keys[pos[inside]] == q[inside]
    return pos, hit


def _firsts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first row of every run of equal ``keys`` (sorted)."""
    new = np.zeros(len(keys[0]), bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new


class _Shard:
    """What every shard shares: the static rows routed to it, and the
    owner of a node (``hash_bucket(node) % A``, the routing rule). The
    shard classes are plain; :func:`_shard_pool` runs a pool of one in
    the driver and spawns larger pools as actors."""

    def __init__(self, num_shards: int, nb: int):
        self.A = num_shards
        self.nb = nb
        self._parts: list[pa.Table] = []

    def add_static(self, tbl: pa.Table) -> None:
        if tbl.num_rows:
            self._parts.append(tbl)

    def _static(self, *cols: str) -> list[np.ndarray]:
        """The routed rows' columns as int64 arrays; frees the parts."""
        t = pa.concat_tables(self._parts) if self._parts else None
        self._parts = []
        return [
            t[c].to_numpy(zero_copy_only=False).astype(np.int64)
            if t is not None
            else np.empty(0, np.int64)
            for c in cols
        ]

    def _adjacency(self) -> np.ndarray:
        """CSR of the routed (key, peer) rows, duplicates dropped: the
        owned nodes ``v``, their degrees ``counts``, the ``peer`` of each
        edge and its owner. Returns each node's first edge."""
        k, p = self._static("key", "peer")
        order = np.lexsort((p, k))
        k, p = k[order], p[order]
        keep = _firsts(k, p)
        k, self.peer = k[keep], p[keep]
        starts = np.flatnonzero(_firsts(k))
        self.v = k[starts]
        self.counts = np.diff(np.r_[starts, len(k)])
        self.p_owner = self._owner(self.peer)
        return starts

    def _owner(self, keys: np.ndarray) -> np.ndarray:
        return hash_bucket(keys, self.nb).to_numpy(zero_copy_only=False) % self.A

    def _slices(self, bounds, **cols: np.ndarray) -> list[pa.Table]:
        """Rows ``bounds[o]:bounds[o+1]`` of ``cols`` for each shard o."""
        return [
            pa.table({c: pa.array(v[bounds[o]:bounds[o + 1]]) for c, v in cols.items()})
            for o in range(self.A)
        ]

    def _split(self, owners: np.ndarray, **cols: np.ndarray) -> list[pa.Table]:
        """One table of ``cols`` per owner shard."""
        order = np.argsort(owners, kind="stable")
        bounds = np.searchsorted(owners[order], np.arange(self.A + 1))
        return self._slices(bounds, **{c: v[order] for c, v in cols.items()})


class _PagerankShard(_Shard):
    """One shard of the static PageRank state: the distinct out-edges of
    every node whose bucket this shard owns, plus the shard's node set.

    The static edge table is routed here ONCE; after :meth:`build` it
    never moves again. Per iteration only the (node, contribution)
    stream crosses shards. ``seeds`` (sorted ids, or ``None`` for the
    uniform teleport) picks the nodes that start with mass and receive
    the teleport term. All arithmetic is the exact fixed-point int64
    rule the unrolled-CTE SQL oracles replay.
    """

    def __init__(self, num_shards: int, nb: int, seeds: np.ndarray | None):
        super().__init__(num_shards, nb)
        self.seeds = seeds

    def build(self) -> int:
        """Dedupe edges, count outdegrees, freeze per-owner edge layout.
        Returns the shard-local count of teleport nodes (summed on the
        driver for the s0 denominator): its nodes, or its live seeds.
        """
        key, d, kind = self._static("key", "dst", "kind")
        e_sel = kind == 0
        v = np.unique(key[~e_sel])
        s, d = key[e_sel], d[e_sel]
        # distinct directed edges (multi-edges collapse, self-loops stay)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        keep = _firsts(s, d)
        s, d = s[keep], d[keep]
        # outdegree per source over the distinct edges (every edge of
        # a source lives in this shard — routing keys on hash(src))
        counts = np.diff(np.r_[np.flatnonzero(_firsts(s)), len(s)])
        deg = np.repeat(counts, counts)
        self.v = v
        self.teleport = np.ones(len(v), bool) if self.seeds is None else np.isin(v, self.seeds)
        # freeze the per-owner layout: reorder edges by the owner of
        # their destination so each iteration's outbox is a pure slice
        owner = self._owner(d)
        order = np.argsort(owner, kind="stable")
        self.dst = d[order]
        self.deg = deg[order].astype(np.int64)
        self.src_pos = np.searchsorted(v, s[order])
        self.bounds = np.searchsorted(owner[order], np.arange(self.A + 1))
        return int(self.teleport.sum())

    def _outbox(self, c_edge: np.ndarray):
        dst, bounds = self.dst, self.bounds
        if self.seeds is not None:
            # personalized mass stays sparse for the first rounds:
            # dropping exact-zero contributions changes no sum
            nz = c_edge > 0
            dst, c_edge, bounds = dst[nz], c_edge[nz], np.r_[0, np.cumsum(nz)][bounds]
        return _returns(self._slices(bounds, key=dst, c=c_edge))

    def contrib0(self, s0: int):
        return self._outbox(np.where(self.teleport, s0, 0)[self.src_pos] // self.deg)

    def step(self, last: bool, base: int, *inboxes: pa.Table):
        tot = np.zeros(len(self.v), np.int64)
        keys, cs = _cat(inboxes, "key"), _cat(inboxes, "c")
        if len(keys):
            pos = np.searchsorted(self.v, keys)
            order = np.argsort(pos, kind="stable")
            ps, csv = pos[order], cs[order]
            starts = np.flatnonzero(_firsts(ps))
            # int64 reduceat is exact — summation order can't drift
            tot[ps[starts]] = np.add.reduceat(csv, starts)
        score = np.where(self.teleport, base, 0) + 85 * tot // 100
        if last:
            return pa.table({"node": pa.array(self.v), "score": pa.array(score)})
        return self._outbox(score[self.src_pos] // self.deg)


def pagerank(
    edges_ds,
    iterations: int = 5,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int | None = None,
    num_shards: int | None = None,
    seeds: "np.ndarray | None" = None,
):
    """(node:int64, score:int64) after ``iterations`` rounds — the
    actor-sharded default.

    The static state (distinct edges + outdegree at hash(src), node
    sentinels at hash(v)) is built and routed to shard actors ONCE;
    each iteration moves only the (node, contribution) stream between
    shards as direct plasma objects (the driver forwards ``A²`` object
    REFS per round, never data). Exact fixed-point arithmetic, hence
    bit-identical results at any shard or bucket count.

    ``seeds`` switches to PERSONALIZED PageRank (see
    :func:`personalized_pagerank`): with S the seeds present in the
    graph,

        s0      = SCALE // |S ∩ V|
        p0(v)   = s0 if v ∈ S else 0
        base(v) = 15·s0//100 if v ∈ S else 0
        p'(v)   = base(v) + 85·(Σ_{u→v} p(u) // outdeg(u)) // 100

    The seed array is query-sized (user/topic sets, not corpus-sized)
    and rides to every shard as an init argument. An empty edge set
    gives an empty result, as the SQL oracle does; seeded, it raises
    like any graph without a live seed.

    ``edges_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    if iterations < 1:
        raise ValueError(f"pagerank needs iterations >= 1, got {iterations}")
    nb = num_buckets or adaptive_buckets()
    if seeds is not None:
        seeds = np.unique(np.asarray(seeds, np.int64))

    def explode_setup(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.unique(np.concatenate([s, d]))  # batch-local candidates
        ne, nv = len(s), len(v)
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "_b": hash_bucket(s, nb),
                        "key": pa.array(s),
                        "dst": pa.array(d),
                        "kind": pa.array(np.zeros(ne, np.int8)),
                    }
                ),
                pa.table(
                    {
                        "_b": hash_bucket(v, nb),
                        "key": pa.array(v),
                        "dst": pa.array(np.zeros(nv, np.int64)),
                        "kind": pa.array(np.ones(nv, np.int8)),
                    }
                ),
            ]
        )

    setup = map_rows(edges_ds, explode_setup)
    with _shard_pool(_PagerankShard, setup, num_shards, nb, seeds) as shards:
        A = len(shards)
        n_init = sum(ray.get([w.build.remote() for w in shards]))
        if seeds is not None and n_init == 0:
            raise ValueError("personalized pagerank: no seed is present in the graph")
        if n_init == 0:  # no edges, no nodes: the oracle's empty result
            empty = pa.table({"node": pa.array([], pa.int64()), "score": pa.array([], pa.int64())})
            return _collect([ray.put(empty)], edges_ds)
        s0 = SCALE // n_init
        base = 15 * s0 // 100
        outs = [_fan_out(w.contrib0, A, s0) for w in shards]
        for _ in range(iterations - 1):
            outs = [
                _fan_out(w.step, A, False, base, *_inbox(outs, o))
                for o, w in enumerate(shards)
            ]
        return _collect(
            [w.step.remote(True, base, *_inbox(outs, o)) for o, w in enumerate(shards)],
            edges_ds,
        )


def personalized_pagerank(
    edges_ds,
    seeds,
    iterations: int = 4,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int | None = None,
    num_shards: int | None = None,
):
    """Personalized PageRank from a seed set — teleport mass restricted
    to ``seeds`` (Page et al. 1999 §6; see :func:`pagerank` for the
    exact integer update). The graph-retrieval primitive: scores
    measure proximity to the seed set, e.g. seed = a user's clicked
    docs, result = expansion candidates. Seeds absent from the graph
    are ignored (the oracle derives its seed CTE from the node set);
    ``ValueError`` when none is present. Runs on the same shards as
    :func:`pagerank`: only seeds contribute in round 0, and exact-zero
    contributions are dropped in flight."""
    return pagerank(
        edges_ds,
        iterations=iterations,
        src=src,
        dst=dst,
        num_buckets=num_buckets,
        num_shards=num_shards,
        seeds=seeds,
    )


def _orient_by_exchange(edges, deg_partial, pack_sb, nb):
    """Attach deg(u) then deg(v) via two node-keyed exchanges — the
    degree table stays sharded (never collected, never broadcast).
    Each exchange co-buckets per-batch degree partials with the edge
    rows keyed on that endpoint; the bucket merge sums the partials and
    gathers the degree onto each edge row."""
    from commons_codec_ray.util import hash_bucket

    def deg_rows(t: pa.Table) -> pa.Table:
        d = deg_partial(t)
        n = d["n"].to_numpy(zero_copy_only=False)
        z = np.zeros(len(n), np.int64)
        return pa.table(
            {
                "_nb": hash_bucket(n, nb),
                "n": d["n"],
                "c": d["c"],
                "o": pa.array(z, pa.int64()),
                "w": pa.array(z, pa.int64()),
                "is_deg": pa.array(np.ones(len(n), bool)),
            }
        )

    def edge_by_u(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        z = np.zeros(len(u), np.int64)
        return pa.table(
            {
                "_nb": hash_bucket(u, nb),
                "n": pa.array(u, pa.int64()),
                "c": pa.array(z, pa.int64()),
                "o": pa.array(v, pa.int64()),
                "w": pa.array(z, pa.int64()),
                "is_deg": pa.array(np.zeros(len(u), bool)),
            }
        )

    def attach_du(df: pd.DataFrame) -> pd.DataFrame:
        deg = df.loc[df["is_deg"]].groupby("n")["c"].sum()
        e = df.loc[~df["is_deg"]]
        return pd.DataFrame(
            {
                "u": e["n"].to_numpy(np.int64),
                "v": e["o"].to_numpy(np.int64),
                "du": deg.loc[e["n"]].to_numpy(np.int64),
            }
        )

    with_du = (
        edges.map_batches(deg_rows, batch_format="pyarrow")
        .union(edges.map_batches(edge_by_u, batch_format="pyarrow"))
        .groupby("_nb")
        .map_groups(attach_du, batch_format="pandas")
    )

    def edge_by_v(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_nb": hash_bucket(v, nb),
                "n": pa.array(v, pa.int64()),
                "c": pa.array(np.zeros(len(v), np.int64), pa.int64()),
                "o": t["u"].cast(pa.int64()),
                "w": t["du"].cast(pa.int64()),
                "is_deg": pa.array(np.zeros(len(v), bool)),
            }
        )

    def attach_dv_and_orient(df: pd.DataFrame) -> pa.Table:
        deg = df.loc[df["is_deg"]].groupby("n")["c"].sum()
        e = df.loc[~df["is_deg"]]
        u = e["o"].to_numpy(np.int64)
        v = e["n"].to_numpy(np.int64)
        du = e["w"].to_numpy(np.int64)
        dv = deg.loc[e["n"]].to_numpy(np.int64)
        # total order (deg, id): u first iff du <= dv (u < v by canon)
        u_first = du <= dv
        x = np.where(u_first, u, v)
        y = np.where(u_first, v, u)
        return pack_sb(x, y)

    return (
        edges.map_batches(deg_rows, batch_format="pyarrow")
        .union(with_du.map_batches(edge_by_v, batch_format="pyarrow"))
        .groupby("_nb")
        .map_groups(attach_dv_and_orient, batch_format="pandas")
    )


def _check_pair_ids(ids: np.ndarray, op_name: str) -> None:
    """Raise ``ValueError`` unless every id is in [0, 2^31): a pair then
    packs as ``(u << 32) | v`` into one non-negative int64 key, and
    ``p >> 32`` / ``p & 0x7FFFFFFF`` unpack it. An explicit raise, not an
    ``assert``, so ``python -O`` cannot turn it into a silent wrap."""
    if len(ids) and (int(ids.min()) < 0 or int(ids.max()) >= 1 << 31):
        raise ValueError(
            f"{op_name} packs (u, v) into one int64: node ids must fit "
            "31 bits, in [0, 2**31)"
        )


def _canon_pair_edges(edges_ds, src: str, dst: str, nb: int, op_name: str):
    """Canonical distinct (u < v) edge table via PAIR-keyed bucket
    dedupe — shared by triangle_count and clustering_coeff. Node ids
    must fit 31 bits so a pair packs into one int64 key
    (:func:`_check_pair_ids`)."""

    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        _check_pair_ids(u, op_name)
        _check_pair_ids(v, op_name)
        pack = (u << 32) | v
        return pa.table(
            {
                "_pb": hash_bucket(pack, nb),
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("_pb")
        .map_groups(
            lambda df: df.drop_duplicates(["u", "v"])[["u", "v"]],
            batch_format="pandas",
        )
        .materialize()
    )


def _pair_deg_partial(t: pa.Table) -> pa.Table:
    """Per-batch degree partials over a distinct (u, v) edge table."""
    nodes = np.concatenate(
        [
            t["u"].to_numpy(zero_copy_only=False),
            t["v"].to_numpy(zero_copy_only=False),
        ]
    )
    uniq, cnt = np.unique(nodes, return_counts=True)
    return pa.table(
        {"n": pa.array(uniq, pa.int64()), "c": pa.array(cnt, pa.int64())}
    )


def _run_reps(x_sorted: np.ndarray) -> np.ndarray:
    """For each position of a sorted array, how many later positions
    its equal-x run holds: the wedges it opens as LEFT end."""
    starts = np.flatnonzero(_firsts(x_sorted))
    counts = np.diff(np.r_[starts, len(x_sorted)])
    return np.repeat(starts + counts, counts) - np.arange(len(x_sorted)) - 1


def _wedge_index_pairs(reps: np.ndarray, lo: int = 0):
    """Fully vectorized wedge generation: position ``lo + i`` pairs as
    LEFT with the ``reps[i]`` positions after it (``reps`` a slice of
    :func:`_run_reps`), returned as (lefts, rights) POSITION arrays —
    the O(Σ deg²) core shared by triangle_count, clustering_coeff and
    the link-prediction shards, which pass one chunk of positions at a
    time."""
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lefts = np.repeat(np.arange(lo, lo + len(reps)), reps)
    block_base = np.repeat(np.cumsum(reps) - reps, reps)
    rights = lefts + 1 + (np.arange(total) - block_base)
    return lefts, rights


def triangle_count(edges_ds, src: str = "src", dst: str = "dst",
                   num_buckets: int | None = None,
                   degree_mode: str = "broadcast"):
    """Exact distributed triangle count (engine-added; the classic
    MapReduce shape of Suri & Vassilvitskii's MR-NodeIterator++):

    1. canonicalize (u < v, self-loops dropped) and dedupe multi-edges
       in PAIR-keyed buckets — one exchange;
    2. orient every edge from its (degree, id)-smaller endpoint — the
       total order caps every out-degree at O(√m), which bounds the
       wedge blow-up;
    3. generate wedges (pairs of out-neighbors) per source, vectorized
       (triu indices per source run), and meet them with the edge set
       in PAIR-keyed buckets — membership count = triangles, each
       counted exactly once.

    ``degree_mode="broadcast"`` (default) rides degrees on a ``ray.put``
    broadcast (nodes ≪ edges — the usual graph regime).
    ``degree_mode="exchange"`` never materializes the degree table
    anywhere: deg(u) then deg(v) are attached by two node-keyed
    exchanges (degree partials and edge rows co-bucketed on the node,
    merged per bucket) — the billion-node path where even the node set
    exceeds driver memory.  Both modes produce identical counts (the
    orientation order is a pure function of (deg, id)).  Node ids must
    fit 31 bits so a (u, v) pair packs into one int64 bucket key — a
    ``ValueError``, never a silent wrap.

    Returns a one-row table ``(n_edges, n_triangles)``.
    """
    import ray

    from commons_codec_ray.util import adaptive_buckets, hash_bucket

    nb = num_buckets or adaptive_buckets()

    edges = _canon_pair_edges(edges_ds, src, dst, nb, "triangle_count")
    n_edges = edges.count()
    deg_partial = _pair_deg_partial

    def pack_sb(x: np.ndarray, y: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "_sb": hash_bucket(x, nb),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
            }
        )

    if degree_mode == "exchange":
        oriented = _orient_by_exchange(edges, deg_partial, pack_sb, nb)
    else:
        degp = edges.map_batches(deg_partial, batch_format="pyarrow").to_pandas()
        deg = degp.groupby("n")["c"].sum()
        deg_nodes = deg.index.to_numpy(np.int64)
        deg_vals = deg.to_numpy(np.int64)
        dref = ray.put((deg_nodes, deg_vals))

        def orient(t: pa.Table) -> pa.Table:
            nodes_s, degs = ray.get(dref)
            u = t["u"].to_numpy(zero_copy_only=False)
            v = t["v"].to_numpy(zero_copy_only=False)
            du = degs[np.searchsorted(nodes_s, u)]
            dv = degs[np.searchsorted(nodes_s, v)]
            # total order (deg, id): u first iff (du, u) < (dv, v); u < v always
            u_first = (du < dv) | (du == dv)
            x = np.where(u_first, u, v)
            y = np.where(u_first, v, u)
            return pack_sb(x, y)

        oriented = edges.map_batches(orient, batch_format="pyarrow")

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["x", "y"], kind="mergesort")
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        lefts, rights = _wedge_index_pairs(_run_reps(x))
        if not len(lefts):
            return pd.DataFrame({"a": [], "b": []}).astype("int64")
        ya, yb = y[lefts], y[rights]
        return pd.DataFrame({"a": np.minimum(ya, yb), "b": np.maximum(ya, yb)})

    def wedge_bucket(df: pd.DataFrame) -> pa.Table:
        pack = (df["a"].to_numpy(np.int64) << 32) | df["b"].to_numpy(np.int64)
        return pa.table(
            {
                "_pb": hash_bucket(pack, nb),
                "p": pa.array(pack, pa.int64()),
                "is_edge": pa.array(np.zeros(len(df), dtype=bool)),
            }
        )

    def edge_rows(t: pa.Table) -> pa.Table:
        pack = (
            t["u"].to_numpy(zero_copy_only=False) << 32
        ) | t["v"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_pb": hash_bucket(pack, nb),
                "p": pa.array(pack, pa.int64()),
                "is_edge": pa.array(np.ones(t.num_rows, dtype=bool)),
            }
        )

    tagged = (
        oriented.groupby("_sb")
        .map_groups(wedges, batch_format="pandas")
        .map_batches(wedge_bucket, batch_format="pandas")
        .union(edges.map_batches(edge_rows, batch_format="pyarrow"))
    )

    def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
        eset = df.loc[df["is_edge"], "p"]
        w = df.loc[~df["is_edge"], "p"]
        return pd.DataFrame({"tri": [int(w.isin(eset).sum())]})

    tri = (
        tagged.groupby("_pb")
        .map_groups(count_bucket, batch_format="pandas")
        .to_pandas()["tri"]
        .sum()
    )
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_triangles": pa.array([int(tri)], pa.int64()),
        }
    )


class _CCShard(_Shard):
    """One shard of static connected-components state: the symmetric
    adjacency (CSR) of every node whose hash bucket this shard owns,
    plus the node's current min-reachable label.

    The adjacency is routed here ONCE (same setup path as
    :class:`_PagerankShard`); afterwards only label messages cross
    shards — a *hop* phase (changed labels flow along edges, classic
    delta min-label propagation) alternating with a *pointer-jump*
    phase (label <- label[label], a query/answer pair keyed by the
    label's owner), so rounds ≈ log2(component diameter) instead of
    diameter. Labels are component member ids, hence always resolvable
    at hash(label)'s owner. Compare
    :func:`~commons_codec_ray.stages.dedup.dedup_clusters_distributed`,
    the pure-Dataset variant that re-unions the edge table into a sort
    every round; results are identical (min id per component).
    """

    def build(self) -> int:
        starts = self._adjacency()
        # local head start: min over own id and direct neighbors
        self.label = np.minimum(self.v, np.minimum.reduceat(self.peer, starts))
        self.changed = np.ones(len(self.v), bool)
        return int(len(self.v))

    def _route(self, keys: np.ndarray, labs: np.ndarray, owners: np.ndarray):
        return _returns(self._split(owners, key=keys, lab=labs))

    def hop(self):
        """Emit (peer, label[u]) for every node u whose label changed
        since the last hop, deduped to the min label per peer; a
        message is dropped when label[u] >= peer (then label[peer] <=
        peer <= label[u], it cannot improve)."""
        e_sel = np.repeat(self.changed, self.counts)
        self.changed[:] = False
        peers = self.peer[e_sel]
        labs = np.repeat(self.label, self.counts)[e_sel]
        owners = self.p_owner[e_sel]
        imp = labs < peers
        peers, labs, owners = peers[imp], labs[imp], owners[imp]
        order = np.lexsort((labs, peers))
        first = order[_firsts(peers[order])]
        return self._route(peers[first], labs[first], owners[first])

    def jump_query(self):
        """Emit (u, label[u]) to the shard owning node label[u] for
        every non-root node: the pointer-jump read of label[label[u]]."""
        sel = self.label != self.v
        q, l = self.v[sel], self.label[sel]
        return self._route(q, l, self._owner(l))

    def jump_answer(self, *inboxes: pa.Table):
        """Answer pointer-jump queries: (u, l) -> (u, label[l]) routed
        back to u's owner, dropping non-improving answers."""
        q, l = _cat(inboxes, "key"), _cat(inboxes, "lab")
        ans = self.label[np.searchsorted(self.v, l)]
        imp = ans < l
        q, ans = q[imp], ans[imp]
        return self._route(q, ans, self._owner(q))

    def apply(self, *inboxes: pa.Table) -> int:
        """Fold incoming (node, label) messages with min; returns the
        number of labels that improved (drives driver-side convergence)."""
        keys, labs = _cat(inboxes, "key"), _cat(inboxes, "lab")
        if not len(keys):
            return 0
        pos = np.searchsorted(self.v, keys)
        order = np.argsort(pos, kind="stable")
        ps, ls = pos[order], labs[order]
        starts = np.flatnonzero(_firsts(ps))
        mn = np.minimum.reduceat(ls, starts)
        idx = ps[starts]
        imp = mn < self.label[idx]
        upd = idx[imp]
        self.label[upd] = mn[imp]
        self.changed[upd] = True
        return int(len(upd))

    def result(self) -> pa.Table:
        return pa.table(
            {"node": pa.array(self.v), "cluster_id": pa.array(self.label)}
        )


def components_sharded(
    pairs_ds,
    id_a: str = "id_a",
    id_b: str = "id_b",
    num_buckets: int | None = None,
    num_shards: int | None = None,
    max_rounds: int = 64,
):
    """(node:int64, cluster_id:int64) = min node id per connected
    component — the actor-sharded variant.

    The symmetric adjacency is bucketed by hash(node) and routed to
    shard actors ONCE; each round exchanges only label messages as
    direct plasma objects (the driver forwards A² refs and two int
    counters per round, never data). A round = one hop phase (delta
    min-label propagation along edges) + one pointer-jump phase
    (label <- label[label]), so rounds ≈ log2(diameter); the loop stops
    at the first round with zero improvements anywhere. Identical
    output to ``dedup_clusters_distributed`` at any shard count.
    ``pairs_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    nb = num_buckets or adaptive_buckets()

    def explode_setup(t: pa.Table) -> pa.Table:
        a = t[id_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[id_b].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.concatenate([a, b])
        p = np.concatenate([b, a])
        return pa.table(
            {"_b": hash_bucket(k, nb), "key": pa.array(k), "peer": pa.array(p)}
        )

    setup = map_rows(pairs_ds, explode_setup)
    with _shard_pool(_CCShard, setup, num_shards, nb) as shards:
        A = len(shards)
        ray.get([w.build.remote() for w in shards])

        def apply(outs) -> int:
            return sum(ray.get([w.apply.remote(*_inbox(outs, o)) for o, w in enumerate(shards)]))

        for _ in range(max_rounds):
            changed = apply([_fan_out(w.hop, A) for w in shards])
            qouts = [_fan_out(w.jump_query, A) for w in shards]
            changed += apply(
                [_fan_out(w.jump_answer, A, *_inbox(qouts, o)) for o, w in enumerate(shards)]
            )
            if changed == 0:
                break
        return _collect([w.result.remote() for w in shards], pairs_ds)


def _sym_edges(edges_ds, src: str, dst: str, op_name: str = "graph op"):
    """Canonical symmetric simple-graph edge table (u, v) + (v, u):
    self-loops dropped, multi-edges collapsed via a packed-int64 dedupe
    exchange with COARSE hash buckets (same packed edge → same bucket,
    so per-bucket ``np.unique`` is globally exact — one vectorized UDF
    call per bucket, not one per distinct edge). Node ids must lie in
    [0, 2^32): the pack is done in unsigned space (an id at 2^31 would
    wrap the int64 sign bit under a signed shift)."""

    def canon(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        if len(u) and (int(u.min()) < 0 or int(v.max()) >= 1 << 32):
            raise ValueError(
                f"{op_name} packs (u, v) into one int64: node ids must be "
                "in [0, 2**32); use the sharded variants for full-int64 ids"
            )
        packed = (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)
        packed = packed.view(np.int64)
        return pa.table(
            {
                "_db": hash_bucket(packed, adaptive_buckets()),
                "_uv": pa.array(packed, pa.int64()),
            }
        )

    def uniq(t: pa.Table) -> pa.Table:
        uv = np.unique(
            t["_uv"].to_numpy(zero_copy_only=False).astype(np.int64)
        ).view(np.uint64)
        u = (uv >> np.uint64(32)).astype(np.int64)
        v = (uv & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "u": pa.array(np.concatenate([u, v]), pa.int64()),
                "v": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("_db")
        .map_groups(uniq, batch_format="pyarrow")
        .materialize()
    )


def kcore(edges_ds, k: int = 3, max_rounds: int = 64, src: str = "src", dst: str = "dst"):
    """k-core decomposition by simultaneous peeling (the classic
    Matula–Beck coreness peel, distributed as in Montresor et al.'s
    message-passing formulation): repeatedly delete EVERY node whose
    current degree is < k, until fixpoint; returns the (unique,
    maximal) k-core as ``(node, deg)`` with each survivor's in-core
    degree.

    Semantics: undirected simple graph — multi-edges collapse,
    self-loops drop. Each peel round is TWO node-keyed exchanges over
    the symmetric edge table (attach deg(u), then deg(v) — both
    degrees must come from the SAME pre-round snapshot for the peel to
    be simultaneous, which is what makes the result order- and
    layout-invariant) plus a vectorized filter; rounds stop early when
    the edge count reaches fixpoint. Peel depth is data-dependent
    (worst case O(n) on a path with k=2); at 100 TB scale the
    escalation path is the actor-sharded message engine (`_CCShard` /
    `_PagerankShard` pattern) where the adjacency is routed once and
    only degree deltas move per round.

    An unrolled-CTE SQL oracle replays the same rounds exactly
    (degree = COUNT(*) per node over the symmetric table, join-filter
    both endpoints, repeat); any rounds past fixpoint are no-ops on
    both sides, so a fixed unroll ≥ the actual peel depth matches the
    early-stopped engine bit-for-bit.
    """

    sym = _sym_edges(edges_ds, src, dst, op_name="kcore")

    def attach(col: str, out: str):
        def body(g: pa.Table) -> pa.Table:
            return g.append_column(
                out, pa.array(np.full(g.num_rows, g.num_rows, np.int64))
            )

        return body

    n_prev = sym.count()
    converged = n_prev == 0
    for _ in range(max_rounds):
        if n_prev == 0:
            break
        peeled = (
            sym.groupby("u")
            .map_groups(attach("u", "du"), batch_format="pyarrow")
            .groupby("v")
            .map_groups(attach("v", "dv"), batch_format="pyarrow")
        )

        def keep_core(t: pa.Table, _k=k) -> pa.Table:
            du = t["du"].to_numpy(zero_copy_only=False)
            dv = t["dv"].to_numpy(zero_copy_only=False)
            m = (du >= _k) & (dv >= _k)
            return t.select(["u", "v"]).filter(pa.array(m))

        sym = peeled.map_batches(keep_core, batch_format="pyarrow").materialize()
        n = sym.count()
        if n == n_prev:
            converged = True
            break
        n_prev = n
    if not converged and n_prev != 0:
        # returning the intermediate edge set would be a silently wrong
        # "core" (it still contains sub-k-degree nodes)
        raise RuntimeError(
            f"kcore did not reach fixpoint within max_rounds={max_rounds}; "
            "raise max_rounds (peel depth is data-dependent, worst case "
            "O(n) on a path) or use kcore_sharded"
        )

    if n_prev == 0:  # empty core: keep the (node, deg) schema stable
        return rd.from_arrow(
            pa.table(
                {"node": pa.array([], pa.int64()), "deg": pa.array([], pa.int64())}
            )
        )

    def final_deg(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.array([g["u"][0].as_py()], pa.int64()),
                "deg": pa.array([g.num_rows], pa.int64()),
            }
        )

    return sym.groupby("u").map_groups(final_deg, batch_format="pyarrow")


class _KCoreShard(_Shard):
    """One shard of static k-core state: the deduped symmetric
    adjacency (CSR) of every node whose hash bucket this shard owns,
    plus each owned node's current alive-degree.

    The adjacency is routed here ONCE (same setup path as
    :class:`_CCShard`); afterwards the only cross-shard traffic is
    death notices — when node u is peeled, one (peer) message per
    incident edge tells the peer's owner to decrement. Every edge
    crosses shards at most once over the WHOLE run (when its first
    endpoint dies), so total message volume is ≤ 2|E| regardless of
    peel depth — vs the Dataset variant's two full-edge-table
    exchanges per round. Simultaneous-peel semantics are preserved
    because decrements emitted in round r are applied before round
    r+1's death check, exactly the Dataset variant's "degree from the
    pre-round snapshot" rule.
    """

    def __init__(self, num_shards: int, nb: int, k: int):
        super().__init__(num_shards, nb)
        self.k = k

    def build(self) -> int:
        self._adjacency()
        self.deg = self.counts.copy()
        self.alive = np.ones(len(self.v), bool)
        return int(len(self.v))

    def peel(self):
        """Mark every alive node with deg < k dead; emit one (peer)
        death notice per incident edge, routed to the peer's owner.
        Returns A message tables + the local death count."""
        dead = self.alive & (self.deg < self.k)
        self.alive[dead] = False
        e_sel = np.repeat(dead, self.counts)
        return (
            *self._split(self.p_owner[e_sel], key=self.peer[e_sel]),
            int(dead.sum()),
        )

    def decrement(self, *inboxes: pa.Table) -> None:
        """Apply death notices: each occurrence of an owned node means
        one of its neighbors died this round."""
        np.subtract.at(self.deg, np.searchsorted(self.v, _cat(inboxes, "key")), 1)

    def result(self) -> pa.Table:
        sel = self.alive
        return pa.table(
            {
                "node": pa.array(self.v[sel], pa.int64()),
                "deg": pa.array(self.deg[sel], pa.int64()),
            }
        )


def kcore_sharded(
    edges_ds,
    k: int = 3,
    src: str = "src",
    dst: str = "dst",
    num_buckets: int | None = None,
    num_shards: int | None = None,
    max_rounds: int = 64,
):
    """k-core decomposition, actor-sharded — the 100 TB shape of
    :func:`kcore`: the deduped symmetric adjacency is hash-routed to
    shard actors ONCE; each peel round moves only death notices (one
    message per edge incident to a just-peeled node, so ≤ 2|E| message
    bytes over the entire run), while the Dataset variant re-exchanges
    the full edge table twice per round. Identical (node, deg) output
    at any shard count; rounds = peel depth, same early stop.
    ``edges_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    nb = num_buckets or adaptive_buckets()

    def explode_setup(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        kk = np.concatenate([a, b])
        p = np.concatenate([b, a])
        return pa.table(
            {"_b": hash_bucket(kk, nb), "key": pa.array(kk), "peer": pa.array(p)}
        )

    setup = map_rows(edges_ds, explode_setup)
    with _shard_pool(_KCoreShard, setup, num_shards, nb, k) as shards:
        A = len(shards)
        ray.get([w.build.remote() for w in shards])
        for _ in range(max_rounds):
            # peel returns A message tables + the local death count
            pouts = [w.peel.options(num_returns=A + 1).remote() for w in shards]
            if sum(ray.get([p[A] for p in pouts])) == 0:
                break
            ray.get([w.decrement.remote(*_inbox(pouts, o)) for o, w in enumerate(shards)])
        else:
            # same contract as kcore: an intermediate state still contains
            # sub-k-degree nodes — raising beats a silently wrong "core"
            raise RuntimeError(
                f"kcore_sharded did not reach fixpoint within "
                f"max_rounds={max_rounds}; raise max_rounds (peel depth is "
                "data-dependent, worst case O(n) on a path)"
            )
        return _collect([w.result.remote() for w in shards], edges_ds)


def densest_subgraph(
    edges_ds, max_rounds: int = 32, src: str = "src", dst: str = "dst"
):
    """Densest-subgraph 2-approximation by iterated average-degree
    peeling — Bahmani, Kumar & Vassilvitskii's published MapReduce
    algorithm (VLDB 2012), ε = 0 variant: each round removes EVERY
    node whose degree is ≤ the current average (the exact integer test
    ``deg·V ≤ 2·E`` — no floats anywhere), records the pre-removal
    (V, E), and the answer is the round whose prefix subgraph maximizes
    density E/V (exact cross-product rational compare; ties → earliest
    round). At least every minimum-degree node is removed each round,
    so the peel always terminates; on real graphs rounds ≈ log V.

    Engine shape per round: two node-keyed exchanges over the current
    symmetric edge table (attach deg(u) then deg(v) — same snapshot
    discipline as :func:`kcore`) plus a kilobyte (V, E) stat partial;
    per-round survivor tables stay materialized in the object store so
    the winning round's node set is read back without re-peeling
    (total retained ≤ the sum of shrinking rounds < 2·|E| rows).
    Returns ``(node, r, v_count, e_count)`` — the winning round's
    nodes with its round index and exact size stats.
    """
    sym = _sym_edges(edges_ds, src, dst, op_name="densest_subgraph")

    def attach_first(g: pa.Table) -> pa.Table:
        flag = np.zeros(g.num_rows, bool)
        flag[0] = True
        return g.append_column(
            "du", pa.array(np.full(g.num_rows, g.num_rows, np.int64))
        ).append_column("first_u", pa.array(flag))

    def attach_v(g: pa.Table) -> pa.Table:
        return g.append_column(
            "dv", pa.array(np.full(g.num_rows, g.num_rows, np.int64))
        )

    def stat_partial(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "v": pa.array(
                    [int(t["first_u"].to_numpy(zero_copy_only=False).sum())]
                ),
                "e2": pa.array([t.num_rows]),
            }
        )

    stats: list[tuple[int, int, int]] = []
    rounds: list = []  # per-round NODE tables only (V rows each — the
    # full deg-attached edge tables would hold ~2|E| rows per round in
    # the object store for the whole call; the winner readback needs
    # just the node set)
    for r in range(max_rounds + 1):
        if sym.count() == 0:
            break
        t1 = sym.groupby("u").map_groups(attach_first, batch_format="pyarrow")
        t1 = t1.materialize()
        parts = t1.map_batches(stat_partial, batch_format="pyarrow").take_all()
        V = sum(int(p["v"]) for p in parts)
        E2 = sum(int(p["e2"]) for p in parts)
        stats.append((r, V, E2 // 2))
        rounds.append(
            t1.map_batches(
                lambda t: t.filter(t["first_u"]).select(["u"]),
                batch_format="pyarrow",
            ).materialize()
        )

        def keep_dense(t: pa.Table, _V=V, _E2=E2) -> pa.Table:
            du = t["du"].to_numpy(zero_copy_only=False)
            dv = t["dv"].to_numpy(zero_copy_only=False)
            m = (du * _V > _E2) & (dv * _V > _E2)
            return t.select(["u", "v"]).filter(pa.array(m))

        sym = (
            t1.groupby("v")
            .map_groups(attach_v, batch_format="pyarrow")
            .map_batches(keep_dense, batch_format="pyarrow")
            .materialize()
        )
    else:
        raise RuntimeError(
            f"densest_subgraph did not terminate within max_rounds="
            f"{max_rounds} (every round removes at least the min-degree "
            "nodes, so this indicates max_rounds set below log-depth)"
        )

    if not stats:  # empty graph
        return rd.from_arrow(
            pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "r": pa.array([], pa.int64()),
                    "v_count": pa.array([], pa.int64()),
                    "e_count": pa.array([], pa.int64()),
                }
            )
        )

    # exact rational argmax of E/V: a beats b iff E_a·V_b > E_b·V_a
    best_r, best_v, best_e = stats[0]
    for r, V, E in stats[1:]:
        if E * best_v > best_e * V:
            best_r, best_v, best_e = r, V, E

    def winner_nodes(t: pa.Table, _r=best_r, _v=best_v, _e=best_e) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "node": t["u"].cast(pa.int64()),
                "r": pa.array(np.full(n, _r, np.int64)),
                "v_count": pa.array(np.full(n, _v, np.int64)),
                "e_count": pa.array(np.full(n, _e, np.int64)),
            }
        )

    return rounds[best_r].map_batches(winner_nodes, batch_format="pyarrow")


def clustering_coeff(edges_ds, src: str = "src", dst: str = "dst",
                     num_buckets: int | None = None):
    """Per-node triangle counts and LOCAL clustering coefficient —
    the node-resolved variant of :func:`triangle_count` (same
    Suri–Vassilvitskii oriented-wedge shape, but every wedge row
    carries its CENTER so a closed wedge credits all three corners):

    cc(v) = 2·tri(v) / (deg(v)·(deg(v)−1)), emitted as the exact
    integer ``cc_ppm = 2_000_000·tri // (deg·(deg−1))`` (0 when
    deg < 2) so the SQL oracle matches bit-for-bit.

    Scale shape: one pair-keyed dedupe exchange, one oriented wedge
    generation (out-degrees capped at O(√m) by the (deg, id) order),
    one pair-keyed meet; degrees and the final per-node reduction ride
    the driver under the same nodes ≪ edges assumption as
    triangle_count's broadcast mode (the `_orient_by_exchange`
    machinery is the escalation path). Returns
    ``(node, deg, triangles, cc_ppm)`` for every node with an edge.
    """
    import ray

    from commons_codec_ray.util import adaptive_buckets, hash_bucket

    nb = num_buckets or adaptive_buckets()

    edges = _canon_pair_edges(edges_ds, src, dst, nb, "clustering_coeff")

    degp = edges.map_batches(_pair_deg_partial, batch_format="pyarrow").to_pandas()
    deg = degp.groupby("n")["c"].sum()
    deg_nodes = deg.index.to_numpy(np.int64)
    deg_vals = deg.to_numpy(np.int64)
    dref = ray.put((deg_nodes, deg_vals))

    def orient(t: pa.Table) -> pa.Table:
        nodes_s, degs = ray.get(dref)
        u = t["u"].to_numpy(zero_copy_only=False)
        v = t["v"].to_numpy(zero_copy_only=False)
        du = degs[np.searchsorted(nodes_s, u)]
        dv = degs[np.searchsorted(nodes_s, v)]
        u_first = (du < dv) | (du == dv)
        x = np.where(u_first, u, v)
        y = np.where(u_first, v, u)
        return pa.table(
            {
                "_sb": hash_bucket(x, nb),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
            }
        )

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["x", "y"], kind="mergesort")
        x = g["x"].to_numpy()
        y = g["y"].to_numpy()
        lefts, rights = _wedge_index_pairs(_run_reps(x))
        if not len(lefts):
            return pd.DataFrame(
                {"a": [], "b": [], "center": []}
            ).astype("int64")
        ya, yb = y[lefts], y[rights]
        return pd.DataFrame(
            {
                "a": np.minimum(ya, yb),
                "b": np.maximum(ya, yb),
                "center": x[lefts],
            }
        )

    def wedge_rows(df: pd.DataFrame) -> pa.Table:
        pack = (df["a"].to_numpy(np.int64) << 32) | df["b"].to_numpy(np.int64)
        return pa.table(
            {
                "_pb": hash_bucket(pack, nb),
                "p": pa.array(pack, pa.int64()),
                "center": pa.array(df["center"].to_numpy(np.int64), pa.int64()),
                "is_edge": pa.array(np.zeros(len(df), dtype=bool)),
            }
        )

    def edge_rows(t: pa.Table) -> pa.Table:
        pack = (
            t["u"].to_numpy(zero_copy_only=False) << 32
        ) | t["v"].to_numpy(zero_copy_only=False)
        n = len(pack)
        return pa.table(
            {
                "_pb": hash_bucket(pack, nb),
                "p": pa.array(pack, pa.int64()),
                "center": pa.array(np.full(n, -1, np.int64)),
                "is_edge": pa.array(np.ones(n, dtype=bool)),
            }
        )

    def meet(df: pd.DataFrame) -> pd.DataFrame:
        closed = df.loc[df["is_edge"], "p"]
        w = df[~df["is_edge"]]
        hit = w[w["p"].isin(closed)]
        if not len(hit):
            return pd.DataFrame({"node": [], "t": []}).astype("int64")
        p = hit["p"].to_numpy(np.int64)
        nodes = np.concatenate(
            [hit["center"].to_numpy(np.int64), p >> 32, p & 0x7FFFFFFF]
        )
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": uniq, "t": cnt.astype(np.int64)})

    oriented = edges.map_batches(orient, batch_format="pyarrow")
    tri_parts = (
        oriented.groupby("_sb")
        .map_groups(wedges, batch_format="pandas")
        .map_batches(wedge_rows, batch_format="pandas")
        .union(edges.map_batches(edge_rows, batch_format="pyarrow"))
        .groupby("_pb")
        .map_groups(meet, batch_format="pandas")
        .to_pandas()
    )
    tri = (
        tri_parts.groupby("node")["t"].sum()
        if len(tri_parts)
        else pd.Series(dtype=np.int64)
    )
    tri_map = tri.to_dict()
    t_arr = np.array([int(tri_map.get(int(n), 0)) for n in deg_nodes], np.int64)
    d = deg_vals
    cc = np.where(d >= 2, (2_000_000 * t_arr) // np.maximum(d * (d - 1), 1), 0)
    return pa.table(
        {
            "node": pa.array(deg_nodes, pa.int64()),
            "deg": pa.array(d, pa.int64()),
            "triangles": pa.array(t_arr, pa.int64()),
            "cc_ppm": pa.array(cc.astype(np.int64), pa.int64()),
        }
    )


RA_SCALE = 1_000_000_000  # fixed-point scale for resource-allocation scores

# Wedges one _LinkShard.wedges chunk generates and pre-reduces at a time.
# A chunk's transient arrays take ~85-100 B a wedge; unchunked they take
# that for every wedge of the shard, Σ deg² (the sf0.1 bipartite graph
# saturates at ~20M wedges). The pre-reduced pairs stay: one row per
# distinct candidate pair (184k at sf0.1, but close to the wedge count
# where few pairs share two neighbours), plus up to a fold's worth
# waiting. Driver VmHWM growth / wall time of one sf0.1
# q_link_prediction call (jaccard; ra) in a fresh process, 2 Ray CPUs,
# shared 4-vCPU VM, medians of 3 (PERF.md "link_prediction on the shard
# scaffold"):
#   unchunked  784 MB / 1.21 s;  941 MB / 1.12 s
#   256Ki       54 MB / 1.02 s;   67 MB / 1.14 s
#   1Mi        120 MB / 0.81 s;  162 MB / 0.75 s
#   4Mi        217 MB / 0.94 s;  255 MB / 0.94 s
WEDGE_CHUNK = 1 << 20

_LINK_ORDER = [("cn", "descending"), ("a", "ascending"), ("b", "ascending")]


class _LinkShard(_Shard):
    """One shard of link prediction: the deduped symmetric adjacency
    (CSR) of every node whose hash bucket this shard owns.

    :meth:`wedges` turns each pair of neighbors (a < b) of an owned
    center c into one wedge, weighted ``RA_SCALE // deg(c)`` for the
    resource-allocation score, pre-reduces them to (pair, cn, w) and
    sends each pair to owner(a). :meth:`score` sums its inboxes, drops
    the pairs that are edges, scores the rest and keeps its top-k. A
    node's degree is local where it is owned; the Jaccard score's
    deg(b) comes from the driver's broadcast of every shard's degrees.
    """

    def __init__(self, num_shards: int, nb: int, ra: bool):
        super().__init__(num_shards, nb)
        self.ra = ra

    def build(self) -> pa.Table:
        """Freeze the CSR; returns the owned (node, deg) rows."""
        self._adjacency()
        return pa.table({"node": pa.array(self.v), "deg": pa.array(self.counts)})

    def wedges(self):
        """All wedges of the owned centers, generated and pre-reduced
        :data:`WEDGE_CHUNK` at a time (chunks of left endpoints, so
        even one hub's wedges are split), as A outboxes of
        (p = a << 32 | b, cn[, w]) by owner of a."""
        reps = _run_reps(np.repeat(np.arange(len(self.v)), self.counts))
        w_pos = np.repeat(RA_SCALE // self.counts, self.counts) if self.ra else None
        before = np.r_[0, np.cumsum(reps)]  # wedges opened before each position
        acc, pending = [np.empty(0, np.int64)] * (3 if self.ra else 2), []
        lo = 0
        while lo < len(reps):
            hi = max(lo + 1, int(np.searchsorted(before, before[lo] + WEDGE_CHUNK, "right")) - 1)
            lefts, rights = _wedge_index_pairs(reps[lo:hi], lo)
            lo = hi
            if not len(lefts):
                continue
            # peers are sorted within a center, so peer[left] < peer[right]
            p = (self.peer[lefts] << 32) | self.peer[rights]
            vals = [np.ones(len(p), np.int64)] + ([w_pos[lefts]] if self.ra else [])
            del lefts, rights
            pending.append(_sum_by(p, *vals))
            # fold once the pending pairs outnumber the folded ones: each
            # pair is re-merged O(log) times, not once per chunk
            if sum(len(c[0]) for c in pending) >= max(len(acc[0]), WEDGE_CHUNK):
                acc, pending = _fold(acc, *pending), []
        cols = dict(zip(("p", "cn", "w"), _fold(acc, *pending)))
        return _returns(self._split(self._owner(cols["p"] >> 32), **cols))

    def score(self, top_k: int, deg, *inboxes: pa.Table) -> pa.Table:
        """Sum the inbox pairs (a is owned here), drop the pairs that are
        edges, score the rest; the local top-k. ``deg`` is the driver's
        sorted (node, deg) broadcast, or ``None`` in a pool of one."""
        cols = ("p", "cn", "w") if self.ra else ("p", "cn")
        p, cn, *w = _sum_by(*(_cat(inboxes, c) for c in cols))
        # the owned adjacency packed the same way is sorted: one lookup
        _, is_edge = _find((np.repeat(self.v, self.counts) << 32) | self.peer, p)
        p, cn = p[~is_edge], cn[~is_edge]
        a, b = p >> 32, p & 0x7FFFFFFF
        if self.ra:
            name, sc = "ra", w[0][~is_edge]
        else:
            nodes, degs = (self.v, self.counts) if deg is None else deg
            da = self.counts[np.searchsorted(self.v, a)]
            db = degs[np.searchsorted(nodes, b)]
            name, sc = "jaccard_ppm", (1_000_000 * cn) // (da + db - cn)
        return _top_k({"a": a, "b": b, "cn": cn, name: sc}, top_k)


def _top_k(cols: dict[str, np.ndarray], top_k: int) -> pa.Table:
    """The first ``top_k`` rows of ``cols`` by (score DESC, cn DESC, a,
    b), the score being the last column. Only the rows scoring at least
    the k-th largest score are sorted; the partition that finds it is
    linear, where sorting all of a random graph's millions of candidate
    pairs by four keys took most of the call."""
    name = list(cols)[-1]
    sc = cols[name]
    if len(sc) > top_k > 0:
        keep = sc >= np.partition(sc, len(sc) - top_k)[len(sc) - top_k]
        cols = {c: v[keep] for c, v in cols.items()}
    return pa.table(cols).sort_by([(name, "descending"), *_LINK_ORDER]).slice(0, top_k)


def _fold(*parts: list[np.ndarray]) -> list[np.ndarray]:
    """:func:`_sum_by` over several (keys, sums...) results at once."""
    return _sum_by(*(np.concatenate(c) for c in zip(*parts)))


def _sum_by(keys: np.ndarray, *vals: np.ndarray) -> list[np.ndarray]:
    """The distinct ``keys``, sorted, and the int64 sum of each of
    ``vals`` over every key (exact in any order). A center's wedges
    come out sorted by pair, so wedge keys arrive as a few presorted
    runs, which a stable sort (timsort) merges: the sf0.1 wedge sorts
    take 0.05 s instead of quicksort's 0.33 s."""
    order = np.argsort(keys, kind="stable")
    k = keys[order]
    starts = np.flatnonzero(_firsts(k))
    return [k[starts], *(np.add.reduceat(v[order], starts) for v in vals)]


def link_prediction(edges_ds, src: str = "src", dst: str = "dst",
                    top_k: int = 50, num_buckets: int | None = None,
                    score: str = "jaccard", num_shards: int | None = None):
    """Top-k link prediction by common-neighbor count + an exact
    integer overlap score (engine-added; the classic
    neighborhood-overlap predictors of Liben-Nowell & Kleinberg 2003)
    — all-integer, so bit-identical at any cluster size and
    SQL-replayable. Runs on :func:`_shard_pool` (:class:`_LinkShard`):

    1. setup: each edge in both directions, self-loops dropped, routed
       once to the owner of hash(x); each shard dedupes its symmetric
       CSR and reports its (node, deg) rows, which the driver
       broadcasts once with ``ray.put`` (nodes ≪ edges; a pool of one
       needs no broadcast);
    2. wedges over the SYMMETRIC adjacency (center = every node, pairs
       of its neighbors): each common neighbor c of (a, b) contributes
       exactly one wedge centered at c, so the per-pair wedge count IS
       CN(a, b). Unlike triangle counting, no orientation — an oriented
       wedge set would undercount CN. Cost is O(Σ deg²) wedges,
       inherent to exact all-pairs CN; they are generated and
       pre-reduced :data:`WEDGE_CHUNK` at a time, which bounds the
       transient memory (the pre-reduced pairs remain, one row per
       distinct candidate pair);
    3. ONE exchange: the pre-reduced (pair, cn, w) rows go to owner(a);
    4. the owner sums them, drops the pairs that ARE edges (we predict
       absent links; a is owned, so one lookup in its own adjacency),
       scores the rest and keeps its top-k;
    5. one driver-side merge of ``shards × k`` kilobyte rows — exact,
       since every global winner is in its shard's top-k.

    ``score="jaccard"`` (default) ranks by
    ``jaccard_ppm = (10^6·cn) // (deg(a)+deg(b)-cn)``.
    ``score="resource_allocation"`` ranks by the RA index of Zhou, Lü
    & Zhang 2009 — each common neighbor c contributes ``1/deg(c)``,
    here the exact integer ``RA_SCALE // deg(c)`` attached to the
    wedge at generation (c is owned there), summed per pair — the
    hub-discounting predictor that beats plain CN on skewed graphs.
    Node ids must fit 31 bits (one int64 per pair); others raise
    ``ValueError``.

    Returns a ``pa.Table`` ``(a, b, cn, <score_col>)`` where
    ``<score_col>`` is ``jaccard_ppm`` or ``ra``, all int64, ordered by
    (score DESC, cn DESC, a, b), at most ``top_k`` rows. A ``pa.Table``
    ``edges_ds`` runs on one driver shard unless ``num_shards`` is given.
    """
    if score not in ("jaccard", "resource_allocation"):
        raise ValueError(f"unknown link-prediction score: {score!r}")
    nb = num_buckets or adaptive_buckets()

    def explode_setup(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        k = np.concatenate([a[keep], b[keep]])
        _check_pair_ids(k, "link_prediction")
        p = np.concatenate([b[keep], a[keep]])
        return pa.table({"_b": hash_bucket(k, nb), "key": pa.array(k), "peer": pa.array(p)})

    setup = map_rows(edges_ds, explode_setup)
    ra = score == "resource_allocation"
    scol = "ra" if ra else "jaccard_ppm"
    with _shard_pool(_LinkShard, setup, num_shards, nb, ra) as shards:
        A = len(shards)
        degs = ray.get([w.build.remote() for w in shards])
        deg = None
        if A > 1:
            t = pa.concat_tables(degs).sort_by("node")
            deg = ray.put((t["node"].to_numpy(), t["deg"].to_numpy()))
        outs = [_fan_out(w.wedges, A) for w in shards]
        tops = ray.get(
            [w.score.remote(top_k, deg, *_inbox(outs, o)) for o, w in enumerate(shards)]
        )
    return pa.concat_tables(tops).sort_by([(scol, "descending"), *_LINK_ORDER]).slice(0, top_k)


def hits(edges_ds, iterations: int = 2, src: str = "src", dst: str = "dst",
         num_buckets: int | None = None):
    """Exact-integer HITS (Kleinberg, JACM 1999): ``iterations`` rounds
    of the alternating power iteration, long-format output —
    ``(node:int64, kind:'auth'|'hub', score:int64)``.

        h_0(u) = 1
        a_k(v) = Σ_{(u,v)∈E} h_{k-1}(u)
        h_k(u) = Σ_{(u,v)∈E} a_k(v)

    over DISTINCT directed edges (multi-edges collapse, self-loops
    allowed); nodes with no in-edges (no out-edges) report authority
    (hub) 0. The textbook per-round L2 normalization only rescales —
    in exact arithmetic the rankings and score *ratios* are unchanged —
    so it is SKIPPED: every score stays an exact int64 and a SQL oracle
    replays the rounds with unrolled CTE joins, bit-for-bit at any
    cluster size. Growth is bounded instead by a guard: scores are
    checked against 2^44 each round (one more round multiplies by at
    most the max degree, so int64 cannot wrap silently); callers with
    hotter graphs lower ``iterations`` or rescale inputs.

    Scale shape: the unioned-exchange Pregel shape (the static edges
    unioned into every round's exchange, alternating key sides). Setup is
    ONE exchange that dedupes edges and node sentinels into TWO keyed
    copies — hash(src) buckets ``[0, nb)`` for the hub phase, hash(dst)
    buckets ``[nb, 2nb)`` for the authority phase (disjoint bucket-id
    namespaces, so a single groupby routes both). Each half-iteration
    is then one ``union + groupby`` exchange in which the sums AND the
    next phase's per-edge contributions are emitted in the same group
    pass. Because HITS alternates key sides every half-round, the
    static edge copies do ride each exchange (the documented cost of
    the zero-actor variant; the actor-sharded fix is the same
    :class:`_PagerankShard` machinery with both copies pinned — edges
    move at setup only — left as the >billion-edge path).
    """
    nb = num_buckets or adaptive_buckets()
    kinds = {"edge": np.int8(0), "sentinel": np.int8(1), "contrib": np.int8(2),
             "score": np.int8(3)}

    def explode_setup(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.unique(np.concatenate([s, d]))  # batch-local node candidates
        ne, nv = len(s), len(v)
        b_src = hash_bucket(s, nb).to_numpy(zero_copy_only=False)
        b_dst = hash_bucket(d, nb).to_numpy(zero_copy_only=False) + nb
        b_v0 = hash_bucket(v, nb).to_numpy(zero_copy_only=False)
        zero_e = np.zeros(ne, np.int64)
        zero_v = np.zeros(nv, np.int64)
        return pa.table(
            {
                "_b": pa.array(np.concatenate([b_src, b_dst, b_v0, b_v0 + nb])),
                "key": pa.array(np.concatenate([s, d, v, v])),
                "other": pa.array(np.concatenate([d, s, zero_v, zero_v])),
                "c": pa.array(np.concatenate([zero_e, zero_e, zero_v, zero_v])),
                "kind": pa.array(
                    np.concatenate(
                        [
                            np.zeros(2 * ne, np.int8),
                            np.ones(2 * nv, np.int8),
                        ]
                    )
                ),
            }
        )

    def setup_group(g: pd.DataFrame) -> pa.Table:
        e = g[g["kind"] == kinds["edge"]].drop_duplicates(["key", "other"])
        v = np.unique(g.loc[g["kind"] == kinds["sentinel"], "key"].to_numpy(np.int64))
        bucket = np.int64(g["_b"].iloc[0])
        ne, nv = len(e), len(v)
        return pa.table(
            {
                "_b": pa.array(np.full(ne + nv, bucket)),
                "key": pa.array(
                    np.concatenate([e["key"].to_numpy(np.int64), v])
                ),
                "other": pa.array(
                    np.concatenate([e["other"].to_numpy(np.int64), np.zeros(nv, np.int64)])
                ),
                "c": pa.array(np.zeros(ne + nv, np.int64)),
                "kind": pa.array(
                    np.concatenate([np.zeros(ne, np.int8), np.ones(nv, np.int8)])
                ),
            }
        )

    static = (
        edges_ds.map_batches(explode_setup, batch_format="pyarrow")
        .groupby("_b")
        .map_groups(setup_group, batch_format="pandas")
        .materialize()
    )

    def side(lo: int, hi: int):
        def pick(t: pa.Table) -> pa.Table:
            b = t["_b"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((b >= lo) & (b < hi)))

        return pick

    # round-0 contributions (h0 = 1) fall straight out of the dst-keyed
    # static edges: each distinct edge (u,v) contributes 1 at hash(v)
    def contrib0(t: pa.Table) -> pa.Table:
        b = t["_b"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False)
        sel = (b >= nb) & (k == kinds["edge"])
        n = int(sel.sum())
        return pa.table(
            {
                "_b": pa.array(b[sel]),
                "key": pa.array(t["key"].to_numpy(zero_copy_only=False)[sel]),
                "other": pa.array(np.zeros(n, np.int64)),
                "c": pa.array(np.ones(n, np.int64)),
                "kind": pa.array(np.full(n, kinds["contrib"], np.int8)),
            }
        )

    _GUARD = np.int64(1) << np.int64(44)

    def _rows(b, key, other, c, kind) -> pa.Table:
        return pa.table(
            {
                "_b": pa.array(np.asarray(b, np.int64)),
                "key": pa.array(np.asarray(key, np.int64)),
                "other": pa.array(np.asarray(other, np.int64)),
                "c": pa.array(np.asarray(c, np.int64)),
                "kind": pa.array(np.asarray(kind, np.int8)),
            }
        )

    def half_step(out_label: str | None, next_lo: int, emit_contribs: bool = True):
        """One half-iteration: sum contribs per key (sentinels keep the
        zero-score nodes), emit next-phase contributions per edge; when
        ``out_label`` is set also emit tagged score rows (kind=3), which
        every later exchange passes through untouched. Returns ARROW
        tables — the output unions with arrow static blocks and Ray's
        sort sampler requires one block type."""

        def step(g: pd.DataFrame) -> pa.Table:
            passthru = g[g["kind"] == kinds["score"]]
            cont = g[g["kind"] == kinds["contrib"]]
            v = np.unique(
                g.loc[g["kind"] == kinds["sentinel"], "key"].to_numpy(np.int64)
            )
            # pre-SUM guard (exact python ints): max contribution × bucket
            # rows bounds every per-key sum, so the int64 groupby below can
            # never wrap silently — the post-sum 2^44 check alone would miss
            # a wrap on a >2^19-degree hub whose addends each passed it
            if len(cont):
                m = int(cont["c"].max())
                if m and m * len(cont) >= (1 << 62):
                    raise OverflowError(
                        "hits(): contribution sum may exceed int64 "
                        "(max contribution x bucket rows >= 2^62); "
                        "lower iterations or rescale"
                    )
            tot = cont.groupby("key")["c"].sum()
            score = pd.Series(np.zeros(len(v), np.int64), index=v)
            score.loc[tot.index] = tot.to_numpy(np.int64)
            if len(score) and int(score.max()) >= int(_GUARD):
                raise OverflowError(
                    "hits(): score exceeded 2^44; lower iterations or rescale"
                )
            outs = [
                _rows(
                    passthru["_b"].to_numpy(np.int64),
                    passthru["key"].to_numpy(np.int64),
                    passthru["other"].to_numpy(np.int64),
                    passthru["c"].to_numpy(np.int64),
                    passthru["kind"].to_numpy(np.int8),
                )
            ]
            e = g[g["kind"] == kinds["edge"]]
            if emit_contribs and len(e):
                u = e["other"].to_numpy(np.int64)  # opposite endpoint
                c = score.loc[e["key"].to_numpy(np.int64)].to_numpy(np.int64)
                outs.append(
                    _rows(
                        hash_bucket(u, nb).to_numpy(zero_copy_only=False) + next_lo,
                        u,
                        np.zeros(len(u), np.int64),
                        c,
                        np.full(len(u), kinds["contrib"], np.int8),
                    )
                )
            if out_label is not None:
                outs.append(
                    _rows(
                        np.full(len(v), -1 if out_label == "auth" else -2, np.int64),
                        score.index.to_numpy(np.int64),
                        np.zeros(len(v), np.int64),
                        score.to_numpy(np.int64),
                        np.full(len(v), kinds["score"], np.int8),
                    )
                )
            return pa.concat_tables(outs)

        return step

    stream = static.map_batches(contrib0, batch_format="pyarrow")
    for k in range(iterations):
        last = k == iterations - 1
        # authority phase: dst-keyed buckets [nb, 2nb)
        stream = (
            static.map_batches(side(nb, 2 * nb), batch_format="pyarrow")
            .union(stream)
            .groupby("_b")
            .map_groups(half_step("auth" if last else None, 0), batch_format="pandas")
        )
        # hub phase: src-keyed buckets [0, nb); the final half-step has
        # no next phase, so it skips the contribution emission
        stream = (
            static.map_batches(side(0, nb), batch_format="pyarrow")
            .union(stream)
            .groupby("_b")
            .map_groups(
                half_step("hub" if last else None, nb, emit_contribs=not last),
                batch_format="pandas",
            )
        )

    def finalize(t: pa.Table) -> pa.Table:
        k = t["kind"].to_numpy(zero_copy_only=False)
        sel = k == kinds["score"]
        b = t["_b"].to_numpy(zero_copy_only=False)[sel]
        return pa.table(
            {
                "node": pa.array(t["key"].to_numpy(zero_copy_only=False)[sel]),
                "kind": pa.array(np.where(b == -1, "auth", "hub")),
                "score": pa.array(t["c"].to_numpy(zero_copy_only=False)[sel]),
            }
        )

    return stream.map_batches(finalize, batch_format="pyarrow")


def bfs_levels(edges_ds, source: int, max_levels: int = 6,
               src: str = "src", dst: str = "dst",
               num_buckets: int | None = None):
    """Single-source BFS levels — ``(node:int64, level:int64)`` for every
    node whose shortest DIRECTED hop distance from ``source`` is
    ≤ ``max_levels`` (the traversal primitive pagerank/components don't
    cover: reachability with exact hop counts, e.g. link-depth crawl
    frontiers or citation-hop cuts).

    The hop count IS the min-plus distance under unit weights, so this
    is a named entry point over :func:`sssp` with ``w = 1``: the
    adjacency is routed to shard actors once, and each level is one
    superstep in which only newly-reached (improved) nodes expand —
    exactly the level-synchronous frontier. See :func:`sssp` for the
    superstep shape and exactness notes. ``edges_ds`` may be a
    ``pa.Table``; the result is then a table, from one driver shard.
    """

    def unit(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                src: t[src],
                dst: t[dst],
                "_w1": pa.array(np.ones(t.num_rows, np.int64)),
            }
        )

    out = sssp(
        map_rows(edges_ds, unit),
        source=source,
        rounds=max_levels,
        src=src,
        dst=dst,
        weight="_w1",
        num_buckets=num_buckets,
    )
    return map_rows(out, lambda t: pa.table({"node": t["node"], "level": t["dist"]}))


class _SSSPShard(_Shard):
    """One shard of single-source shortest-path state: the distinct
    out-edges (CSR by source; a multi-edge keeps its MIN weight, the
    only one a shortest path can use) of every node whose hash bucket
    this shard owns, and the best distance found so far for each owned
    node already reached, as node-sorted int64 arrays.

    The edges are routed here ONCE. A superstep folds the inbox's
    (node, dist) candidates into the state and relaxes the out-edges of
    the nodes whose distance improved; only those candidates cross
    shards.
    """

    def build(self) -> int:
        s, d, w = self._static("key", "dst", "w")
        order = np.lexsort((w, d, s))
        s, d, w = s[order], d[order], w[order]
        keep = _firsts(s, d)  # the min-weight copy of each (src, dst)
        s, self.dst, self.w = s[keep], d[keep], w[keep]
        starts = np.flatnonzero(_firsts(s))
        self.src = s[starts]
        self.off = np.r_[starts, len(s)]
        self.d_owner = self._owner(self.dst)
        self.node = np.empty(0, np.int64)
        self.dist = np.empty(0, np.int64)
        return int(len(s))

    def _fold(self, inboxes) -> tuple[np.ndarray, np.ndarray]:
        """Fold (key, dist) candidates into the state with min; returns
        the improved nodes and their new distances, sorted by node. The
        state join is an int64 ``searchsorted``: no pandas, no float."""
        keys, ds = _cat(inboxes, "key"), _cat(inboxes, "dist")
        order = np.lexsort((ds, keys))
        first = order[_firsts(keys[order])]
        keys, ds = keys[first], ds[first]
        pos, hit = _find(self.node, keys)
        imp = ~hit
        imp[hit] = ds[hit] < self.dist[pos[hit]]
        lower = hit & imp
        self.dist[pos[lower]] = ds[lower]
        self.node = np.insert(self.node, pos[~hit], keys[~hit])
        self.dist = np.insert(self.dist, pos[~hit], ds[~hit])
        return keys[imp], ds[imp]

    def step(self, *inboxes: pa.Table):
        """One superstep: fold the inbox, relax the improved nodes'
        out-edges. Returns A outboxes (by owner of dst) and the number
        of candidates sent. ``dist + w`` past int64 raises, as a BIGINT
        add does in SQL, instead of wrapping."""
        u, du = self._fold(inboxes)
        i, has = _find(self.src, u)
        lo, du = self.off[i[has]], du[has]
        n = self.off[i[has] + 1] - lo
        e = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        du, w = np.repeat(du, n), self.w[e]
        cand = du + w
        over = ((du ^ cand) & (w ^ cand)) < 0  # the sum's sign flipped: it wrapped
        if over.any():
            j = np.flatnonzero(over)[0]
            raise OverflowError(f"sssp: distance {du[j]} + weight {w[j]} overflows int64")
        return (
            *self._split(self.d_owner[e], key=self.dst[e], dist=cand),
            int(len(e)),
        )

    def result(self, *inboxes: pa.Table) -> pa.Table:
        """The last superstep: fold the inbox, return (node, dist)."""
        self._fold(inboxes)
        return pa.table({"node": pa.array(self.node), "dist": pa.array(self.dist)})


def sssp(edges_ds, source: int, rounds: int = 6,
         src: str = "src", dst: str = "dst", weight: str = "w",
         num_buckets: int | None = None, num_shards: int | None = None):
    """Single-source shortest paths, ``rounds`` Bellman–Ford
    relaxation rounds — ``(node:int64, dist:int64)`` for every node
    reachable from ``source`` by a path of ≤ ``rounds`` edges, with the
    exact min-plus distance over int64 weights (the WEIGHTED traversal
    member; :func:`bfs_levels` is the hop-count special case).

    The ``(src, dst, w)`` rows are routed ONCE to shard actors by
    hash(src) (:class:`_SSSPShard`), which keep the adjacency and the
    per-node best distances. The driver seeds ``(source, 0)`` at its
    owner, then runs ``rounds + 1`` supersteps: each folds the incoming
    candidates into the state and relaxes only the IMPROVED nodes'
    out-edges (the last one just folds). That is bit-identical to the
    textbook d_k(v) = min(d_{k-1}(v), min_{(u,v,w)} d_{k-1}(u)+w)
    recurrence — an unimproved node's relaxations were folded one
    superstep earlier — which is what the oracle's unrolled min-CTEs
    replay. A superstep that sends nothing ends the loop early: the
    later ones would fold nothing. Exact integer arithmetic throughout,
    and ``dist + w`` past int64 raises ``OverflowError``; weights must
    be ≥ 0 for the ≤-rounds-edges truncation to bound true distances.
    ``edges_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    nb = num_buckets or adaptive_buckets()

    def explode(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        w = t[weight].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"_b": hash_bucket(s, nb), "key": pa.array(s), "dst": pa.array(d), "w": pa.array(w)}
        )

    seed = pa.table({"key": pa.array([source], pa.int64()), "dist": pa.array([0], pa.int64())})
    setup = map_rows(edges_ds, explode)
    with _shard_pool(_SSSPShard, setup, num_shards, nb) as shards:
        A = len(shards)
        owner = hash_bucket(np.array([source], np.int64), nb)[0].as_py() % A
        ray.get([w.build.remote() for w in shards])
        inboxes = [[seed] if o == owner else [] for o in range(A)]
        for _ in range(rounds):
            outs = [
                w.step.options(num_returns=A + 1).remote(*inboxes[o])
                for o, w in enumerate(shards)
            ]
            sent = sum(ray.get([out[A] for out in outs]))
            inboxes = [_inbox(outs, o) for o in range(A)]
            if not sent:
                break
        return _collect([w.result.remote(*inboxes[o]) for o, w in enumerate(shards)], edges_ds)

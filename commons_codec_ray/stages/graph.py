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

The same actor shape carries every operator of this module:
``components_sharded``, ``kcore_sharded`` and ``densest_subgraph``
(one peel, per-round thresholds), ``sssp`` (hence ``bfs_levels``),
``hits``, ``triangle_count`` and ``clustering_coeff`` (one triangle
shard), and ``link_prediction``. All run on one scaffold,
:func:`_shard_pool`, which sizes the pool, routes the static rows to
the shards once, and kills every spawned shard on the way out, however
the call ends. Placement follows size: below
:data:`~commons_codec_ray.util.DRIVER_POOL_ROWS` setup rows the default
pool is ONE shard, a plain instance of the same shard class in the
driver, since a fresh shard process costs ~0.45 s against ~0.01 s of
supersteps at that size. Larger inputs, or ``num_shards`` ≥ 2, spawn
the shards as actors with one set of options (no CPU reserved). Each
operator has this one implementation: the Dataset-shuffle variants,
which re-exchanged the whole edge table every round, were 10-50×
slower on the catalog (PERF.md "One components and one k-core engine",
"One graph substrate").

They take their edges as a Ray Dataset or as a ``pa.Table``, and
return the same kind (``link_prediction``, ``triangle_count`` and
``clustering_coeff``, reduced in the driver, always return a table). A
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


def _distinct_pairs(k: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (k, p) pairs, sorted by k, then p."""
    order = np.lexsort((p, k))
    k, p = k[order], p[order]
    keep = _firsts(k, p)
    return k[keep], p[keep]


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
        k, self.peer = _distinct_pairs(*self._static("key", "peer"))
        starts = np.flatnonzero(_firsts(k))
        self.v = k[starts]
        self.counts = np.diff(np.r_[starts, len(k)])
        self.p_owner = self._owner(self.peer)
        return starts

    def _owner(self, keys: np.ndarray) -> np.ndarray:
        return hash_bucket(keys, self.nb).to_numpy(zero_copy_only=False) % self.A

    def _layout(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The order that groups ``keys`` by owner shard, and each
        owner's bounds in it: a frozen layout makes every outbox a pure
        slice."""
        owner = self._owner(keys)
        order = np.argsort(owner, kind="stable")
        return order, np.searchsorted(owner[order], np.arange(self.A + 1))

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


def _sym_rows(t: pa.Table, src: str, dst: str, nb: int) -> pa.Table:
    """Setup rows of the undirected simple graph on ``t``'s edges: each
    edge once per direction as (key, peer), owned by hash(key), with
    self-loops dropped. The shards drop the multi-edges
    (:meth:`_Shard._adjacency`)."""
    a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
    b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = a != b
    k = np.concatenate([a[keep], b[keep]])
    p = np.concatenate([b[keep], a[keep]])
    return pa.table({"_b": hash_bucket(k, nb), "key": pa.array(k), "peer": pa.array(p)})


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
        # distinct directed edges (multi-edges collapse, self-loops stay)
        s, d = _distinct_pairs(key[e_sel], d[e_sel])
        # outdegree per source over the distinct edges (every edge of
        # a source lives in this shard — routing keys on hash(src))
        counts = np.diff(np.r_[np.flatnonzero(_firsts(s)), len(s)])
        deg = np.repeat(counts, counts)
        self.v = v
        self.teleport = np.ones(len(v), bool) if self.seeds is None else np.isin(v, self.seeds)
        # reorder edges by the owner of their destination
        order, self.bounds = self._layout(d)
        self.dst = d[order]
        self.deg = deg[order].astype(np.int64)
        self.src_pos = np.searchsorted(v, s[order])
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


def _pair_rows(t: pa.Table, src: str, dst: str, nb: int, op_name: str) -> pa.Table:
    """:func:`_sym_rows` for the operators that pack a node pair into
    one int64 (:func:`_check_pair_ids`)."""
    rows = _sym_rows(t, src, dst, nb)
    _check_pair_ids(rows["key"].to_numpy(), op_name)
    return rows


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
    the O(Σ deg²) core of the triangle and link-prediction shards."""
    total = int(reps.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    lefts = np.repeat(np.arange(lo, lo + len(reps)), reps)
    block_base = np.repeat(np.cumsum(reps) - reps, reps)
    rights = lefts + 1 + (np.arange(total) - block_base)
    return lefts, rights


def _wedge_chunks(reps: np.ndarray):
    """Position ranges (lo, hi) that split the wedges of ``reps`` into
    chunks of about :data:`WEDGE_CHUNK` (ranges of left positions, so
    even one hub's wedges are split), for :func:`_wedge_index_pairs`;
    ranges that open no wedge are skipped."""
    before = np.r_[0, np.cumsum(reps)]  # wedges opened before each position
    lo = 0
    while lo < len(reps):
        hi = max(lo + 1, int(np.searchsorted(before, before[lo] + WEDGE_CHUNK, "right")) - 1)
        if before[hi] > before[lo]:
            yield lo, hi
        lo = hi


class _WedgeShard(_Shard):
    """A shard of the deduped symmetric adjacency (CSR) of every node
    whose hash bucket it owns, for the operators that pair two
    neighbours of a center (wedges). Node ids fit 31 bits, so a pair
    packs into one int64."""

    def build(self) -> pa.Table:
        """Freeze the CSR; returns the owned (node, deg) rows."""
        self._adjacency()
        return pa.table({"node": pa.array(self.v), "deg": pa.array(self.counts)})

    def _is_edge(self, p: np.ndarray) -> np.ndarray:
        """Which packed pairs ``a << 32 | b`` (a owned here) are edges:
        the owned adjacency packed the same way is sorted, one lookup."""
        return _find((np.repeat(self.v, self.counts) << 32) | self.peer, p)[1]


def _degrees(shards) -> tuple[np.ndarray, np.ndarray, object]:
    """Build the wedge shards; returns every node's degree as sorted
    (nodes, degs) arrays and their ``ray.put`` broadcast, or ``None`` in
    a pool of one, whose shard holds every degree (nodes ≪ edges)."""
    t = pa.concat_tables(ray.get([w.build.remote() for w in shards])).sort_by("node")
    nodes, degs = t["node"].to_numpy(), t["deg"].to_numpy()
    return nodes, degs, ray.put((nodes, degs)) if len(shards) > 1 else None


class _TriangleShard(_WedgeShard):
    """One shard of triangle counting. Every edge is oriented from its
    (deg, id)-smaller end, a total order that caps every out-degree at
    O(√m) and so bounds the wedges. :meth:`wedges` pairs the
    out-neighbours a < b of each owned center c and sends (c, a, b) to
    owner(a); :meth:`meet` closes it against a's own adjacency. A
    triangle is exactly one closed wedge, at its smallest corner."""

    def wedges(self, deg):
        """The oriented wedges of the owned centers, generated
        :data:`WEDGE_CHUNK` at a time, as A outboxes of
        (p = a << 32 | b, c) by owner of a. ``deg`` is the driver's
        sorted (node, deg) broadcast, or ``None`` in a pool of one."""
        nodes, degs = (self.v, self.counts) if deg is None else deg
        c = np.repeat(self.v, self.counts)
        dc = np.repeat(self.counts, self.counts)
        dp = degs[np.searchsorted(nodes, self.peer)]
        out = (dc < dp) | ((dc == dp) & (c < self.peer))
        c, y = c[out], self.peer[out]
        ps, cs = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        reps = _run_reps(c)
        for lo, hi in _wedge_chunks(reps):
            lefts, rights = _wedge_index_pairs(reps[lo:hi], lo)
            # peers are sorted within a center, so y[left] < y[right]
            ps.append((y[lefts] << 32) | y[rights])
            cs.append(c[lefts])
        p, c = np.concatenate(ps), np.concatenate(cs)
        return _returns(self._split(self._owner(p >> 32), p=p, c=c))

    def meet(self, *inboxes: pa.Table) -> pa.Table:
        """Credit each corner of every closed inbox wedge once: the
        (node, t) rows, summed by node."""
        p, c = _cat(inboxes, "p"), _cat(inboxes, "c")
        closed = self._is_edge(p)
        p, c = p[closed], c[closed]
        corners = np.concatenate([c, p >> 32, p & 0x7FFFFFFF])
        node, t = _sum_by(corners, np.ones(len(corners), np.int64))
        return pa.table({"node": pa.array(node), "t": pa.array(t)})


def _triangles(edges_ds, src, dst, num_buckets, num_shards, op_name: str):
    """Every node's degree and triangle count over the undirected simple
    graph of ``edges_ds``: sorted (nodes, degs) of the nodes with an
    edge, and the (node, t) sums of the nodes in a triangle."""
    nb = num_buckets or adaptive_buckets()
    setup = map_rows(edges_ds, lambda t: _pair_rows(t, src, dst, nb, op_name))
    with _shard_pool(_TriangleShard, setup, num_shards, nb) as shards:
        A = len(shards)
        nodes, degs, deg = _degrees(shards)
        outs = [_fan_out(w.wedges, A, deg) for w in shards]
        credits = ray.get([w.meet.remote(*_inbox(outs, o)) for o, w in enumerate(shards)])
    return nodes, degs, *_sum_by(_cat(credits, "node"), _cat(credits, "t"))


def triangle_count(edges_ds, src: str = "src", dst: str = "dst",
                   num_buckets: int | None = None, num_shards: int | None = None):
    """Exact triangle count (engine-added; the oriented-wedge shape of
    Suri & Vassilvitskii's MR-NodeIterator++) on :func:`_shard_pool`
    (:class:`_TriangleShard`):

    1. setup: each edge in both directions, self-loops dropped, routed
       once to the owner of hash(x); each shard dedupes its symmetric
       CSR and reports its (node, deg) rows, which the driver
       broadcasts once (a pool of one needs no broadcast);
    2. every edge is oriented from its (degree, id)-smaller end, and
       each owned center's pairs of out-neighbours (a < b) become
       wedges, generated :data:`WEDGE_CHUNK` at a time;
    3. ONE exchange: each wedge goes to owner(a), which credits its
       three corners once if (a, b) is an edge;
    4. the driver sums the per-node credits: every triangle is credited
       three times, once per corner.

    Node ids must fit 31 bits so a (u, v) pair packs into one int64 —
    a ``ValueError``, never a silent wrap. Returns a one-row
    ``pa.Table`` ``(n_edges, n_triangles)``; ``n_edges`` counts the
    distinct undirected edges.
    """
    _, degs, _, t = _triangles(edges_ds, src, dst, num_buckets, num_shards, "triangle_count")
    return pa.table(
        {
            "n_edges": pa.array([int(degs.sum()) // 2], pa.int64()),
            "n_triangles": pa.array([int(t.sum()) // 3], pa.int64()),
        }
    )


def clustering_coeff(edges_ds, src: str = "src", dst: str = "dst",
                     num_buckets: int | None = None, num_shards: int | None = None):
    """Per-node triangle counts and LOCAL clustering coefficient — the
    node-resolved :func:`triangle_count` (the same shards and wedges;
    each node reports its own credit sum):

    cc(v) = 2·tri(v) / (deg(v)·(deg(v)−1)), emitted as the exact
    integer ``cc_ppm = 2_000_000·tri // (deg·(deg−1))`` (0 when
    deg < 2) so the SQL oracle matches bit-for-bit. Node ids must fit
    31 bits. Returns a ``pa.Table`` ``(node, deg, triangles, cc_ppm)``
    for every node with an edge.
    """
    nodes, d, tn, t = _triangles(edges_ds, src, dst, num_buckets, num_shards, "clustering_coeff")
    tri = np.zeros(len(nodes), np.int64)
    tri[np.searchsorted(nodes, tn)] = t
    cc = np.where(d >= 2, (2_000_000 * tri) // np.maximum(d * (d - 1), 1), 0)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "deg": pa.array(d, pa.int64()),
            "triangles": pa.array(tri, pa.int64()),
            "cc_ppm": pa.array(cc, pa.int64()),
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
    at hash(label)'s owner.
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
    component: the engine's one connected-components implementation
    (the ``components`` and ``components_sharded`` entries, and
    ``near_dedup``'s clusters).

    The symmetric adjacency is bucketed by hash(node) and routed to
    shard actors ONCE; each round exchanges only label messages as
    direct plasma objects (the driver forwards A² refs and two int
    counters per round, never data). A round = one hop phase (delta
    min-label propagation along edges) + one pointer-jump phase
    (label <- label[label]), so rounds ≈ log2(diameter); the loop stops
    at the first round with zero improvements anywhere, and raises
    ``RuntimeError`` if ``max_rounds`` runs out first (the labels would
    not be component minima yet). Identical output at any shard count.
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
        else:
            # unconverged labels are not component minima
            raise RuntimeError(
                f"components_sharded did not reach fixpoint within "
                f"max_rounds={max_rounds}; raise max_rounds (rounds grow "
                "with log2 of the component diameter)"
            )
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
                "in [0, 2**32); kcore_sharded and components_sharded take "
                "full-int64 ids"
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
    peel depth. The peel is simultaneous: decrements emitted in round r
    are applied before round r+1's death check, so every round's
    deaths are judged on the degrees of the pre-round snapshot. The
    threshold is the caller's per round: fixed for :func:`kcore_sharded`,
    the round's average degree for :func:`densest_subgraph`.
    """

    def build(self) -> int:
        self._adjacency()
        self.deg = self.counts.copy()
        self.alive = np.ones(len(self.v), bool)
        self.last = np.full(len(self.v), -1, np.int64)
        return int(len(self.v))

    def peel(self, k: int):
        """Mark every alive node with deg < k dead; emit one (peer)
        death notice per incident edge, routed to the peer's owner.
        Returns A message tables + the local death count."""
        dead = self.alive & (self.deg < k)
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

    def density(self, r: int) -> tuple[int, int]:
        """Round ``r``'s share of the alive subgraph: its nodes with an
        alive edge (V) and their degree sum (2E). Each of them records
        ``r`` as the last round it was counted in."""
        counted = self.alive & (self.deg > 0)
        self.last[counted] = r
        return int(counted.sum()), int(self.deg[counted].sum())

    def result(self) -> pa.Table:
        sel = self.alive
        return pa.table(
            {
                "node": pa.array(self.v[sel], pa.int64()),
                "deg": pa.array(self.deg[sel], pa.int64()),
            }
        )

    def densest(self, r: int, v_count: int, e_count: int) -> pa.Table:
        """The owned nodes of round ``r``'s subgraph, with its stats."""
        node = self.v[self.last >= r]
        n = len(node)
        return pa.table(
            {
                "node": pa.array(node, pa.int64()),
                "r": pa.array(np.full(n, r, np.int64)),
                "v_count": pa.array(np.full(n, v_count, np.int64)),
                "e_count": pa.array(np.full(n, e_count, np.int64)),
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
    """k-core decomposition by simultaneous peeling (the classic
    Matula–Beck coreness peel, in Montresor et al.'s message-passing
    form): repeatedly delete EVERY node whose current degree is < k,
    until fixpoint; returns the (unique, maximal) k-core as
    ``(node, deg)`` with each survivor's in-core degree. Undirected
    simple graph: multi-edges collapse, self-loops drop. The engine's
    one k-core implementation (the ``kcore`` and ``kcore_sharded``
    entries).

    The deduped symmetric adjacency is hash-routed to shards ONCE;
    each peel round moves only death notices (one message per edge
    incident to a just-peeled node, so ≤ 2|E| message bytes over the
    entire run). Identical (node, deg) output at any shard count;
    rounds = peel depth, stopping at the first round with no death,
    and ``RuntimeError`` if ``max_rounds`` runs out first. An
    unrolled-CTE SQL oracle replays the same rounds exactly; rounds
    past fixpoint are no-ops on both sides.
    ``edges_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    nb = num_buckets or adaptive_buckets()
    setup = map_rows(edges_ds, lambda t: _sym_rows(t, src, dst, nb))
    with _shard_pool(_KCoreShard, setup, num_shards, nb) as shards:
        A = len(shards)
        ray.get([w.build.remote() for w in shards])
        for _ in range(max_rounds):
            # peel returns A message tables + the local death count
            pouts = [w.peel.options(num_returns=A + 1).remote(k) for w in shards]
            if sum(ray.get([p[A] for p in pouts])) == 0:
                break
            ray.get([w.decrement.remote(*_inbox(pouts, o)) for o, w in enumerate(shards)])
        else:
            # an intermediate state still contains sub-k-degree nodes:
            # raising beats a silently wrong "core"
            raise RuntimeError(
                f"kcore_sharded did not reach fixpoint within "
                f"max_rounds={max_rounds}; raise max_rounds (peel depth is "
                "data-dependent, worst case O(n) on a path)"
            )
        return _collect([w.result.remote() for w in shards], edges_ds)


def densest_subgraph(
    edges_ds, max_rounds: int = 32, src: str = "src", dst: str = "dst",
    num_shards: int | None = None,
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

    Runs as the :func:`kcore_sharded` peel (:class:`_KCoreShard`) with
    a per-round threshold ``k_r = 2E // V + 1``, since
    ``deg·V ≤ 2E ⇔ deg < k_r``. V counts the alive nodes with an alive
    edge and 2E is their degree sum, both summed from the shards each
    round; each node keeps the last round it was counted in, so the
    winning round's node set is read back without a second peel. Node
    ids are full int64. ``RuntimeError`` if edges remain after
    ``max_rounds`` + 1 rounds. Returns ``(node, r, v_count, e_count)``
    — the winning round's nodes with its round index and exact size
    stats. ``edges_ds`` may be a ``pa.Table``; the result is then a
    table, and the pool one driver shard unless ``num_shards`` is given.
    """
    nb = adaptive_buckets()
    setup = map_rows(edges_ds, lambda t: _sym_rows(t, src, dst, nb))
    with _shard_pool(_KCoreShard, setup, num_shards, nb) as shards:
        A = len(shards)
        ray.get([w.build.remote() for w in shards])
        stats: list[tuple[int, int, int]] = []
        for r in range(max_rounds + 1):
            V, E2 = (sum(c) for c in zip(*ray.get([w.density.remote(r) for w in shards])))
            if E2 == 0:
                break
            stats.append((r, V, E2 // 2))
            pouts = [w.peel.options(num_returns=A + 1).remote(E2 // V + 1) for w in shards]
            ray.get([w.decrement.remote(*_inbox(pouts, o)) for o, w in enumerate(shards)])
        else:
            raise RuntimeError(
                f"densest_subgraph did not terminate within max_rounds="
                f"{max_rounds} (every round removes at least the min-degree "
                "nodes, so this indicates max_rounds set below log-depth)"
            )
        if not stats:  # no edges: an empty result
            return _collect([w.densest.remote(0, 0, 0) for w in shards], edges_ds)
        # exact rational argmax of E/V: a beats b iff E_a·V_b > E_b·V_a
        best_r, best_v, best_e = stats[0]
        for r, V, E in stats[1:]:
            if E * best_v > best_e * V:
                best_r, best_v, best_e = r, V, E
        return _collect([w.densest.remote(best_r, best_v, best_e) for w in shards], edges_ds)


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


class _LinkShard(_WedgeShard):
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

    def wedges(self):
        """All wedges of the owned centers, generated and pre-reduced
        :data:`WEDGE_CHUNK` at a time, as A outboxes of
        (p = a << 32 | b, cn[, w]) by owner of a."""
        reps = _run_reps(np.repeat(np.arange(len(self.v)), self.counts))
        w_pos = np.repeat(RA_SCALE // self.counts, self.counts) if self.ra else None
        acc, pending = [np.empty(0, np.int64)] * (3 if self.ra else 2), []
        for lo, hi in _wedge_chunks(reps):
            lefts, rights = _wedge_index_pairs(reps[lo:hi], lo)
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
        is_edge = self._is_edge(p)
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

    setup = map_rows(edges_ds, lambda t: _pair_rows(t, src, dst, nb, "link_prediction"))
    ra = score == "resource_allocation"
    scol = "ra" if ra else "jaccard_ppm"
    with _shard_pool(_LinkShard, setup, num_shards, nb, ra) as shards:
        A = len(shards)
        deg = _degrees(shards)[2]
        outs = [_fan_out(w.wedges, A) for w in shards]
        tops = ray.get(
            [w.score.remote(top_k, deg, *_inbox(outs, o)) for o, w in enumerate(shards)]
        )
    return pa.concat_tables(tops).sort_by([(scol, "descending"), *_LINK_ORDER]).slice(0, top_k)


class _HitsShard(_Shard):
    """One shard of HITS: the distinct in-edges and out-edges of every
    node whose bucket this shard owns, both keyed on the owned end, and
    the nodes' authority and hub scores.

    A half-step folds the inbox into one score and sends it along one
    side's edge copies: authorities along the in-edges (to the
    source's owner, forming hubs), hubs along the out-edges (to the
    destination's owner, forming authorities). Only the contributions
    move; the edges never leave the shard after setup.
    """

    def build(self) -> None:
        key, peer, inward = self._static("key", "peer", "inward")
        self.v = np.unique(key)
        # scores[0] authority, scores[1] hub (h_0 = 1); sides[s] sends scores[s]
        self.scores = [np.zeros(len(self.v), np.int64), np.ones(len(self.v), np.int64)]
        self.sides = []
        for sel in (inward == 1, inward == 0):
            k, p = _distinct_pairs(key[sel], peer[sel])  # distinct directed edges
            order, bounds = self._layout(p)
            self.sides.append((np.searchsorted(self.v, k[order]), p[order], bounds))

    def _outbox(self, s: int):
        pos, peer, bounds = self.sides[s]
        return _returns(self._slices(bounds, key=peer, c=self.scores[s][pos]))

    def contrib0(self):
        """h_0 = 1 along the out-edges."""
        return self._outbox(1)

    def step(self, s: int, last: bool, *inboxes: pa.Table):
        """Fold the inbox into ``scores[s]`` (a node with no incoming
        contribution scores 0), then send it on, or on the ``last``
        half-step return the (node, kind, score) rows."""
        keys, cs = _cat(inboxes, "key"), _cat(inboxes, "c")
        # pre-sum guard (exact python ints): max contribution × inbox
        # rows bounds every per-node sum, so the int64 sums below can
        # never wrap silently — the 2^44 check alone would miss a wrap
        # on a >2^19-degree hub whose addends each passed it
        if len(cs) and int(cs.max()) * len(cs) >= 1 << 62:
            raise OverflowError(
                "hits(): contribution sum may exceed int64 "
                "(max contribution x inbox rows >= 2^62); lower iterations or rescale"
            )
        score = np.zeros(len(self.v), np.int64)
        k, tot = _sum_by(keys, cs)
        score[np.searchsorted(self.v, k)] = tot
        if len(score) and int(score.max()) >= 1 << 44:
            raise OverflowError("hits(): score exceeded 2^44; lower iterations or rescale")
        self.scores[s] = score
        if not last:
            return self._outbox(s)
        n = len(self.v)
        return pa.table(
            {
                "node": pa.array(np.concatenate([self.v, self.v])),
                "kind": pa.array(np.repeat(["auth", "hub"], n), pa.string()),
                "score": pa.array(np.concatenate(self.scores)),
            }
        )


def hits(edges_ds, iterations: int = 2, src: str = "src", dst: str = "dst",
         num_buckets: int | None = None, num_shards: int | None = None):
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
    checked against 2^44 each half-step (one more round multiplies by
    at most the max degree, so int64 cannot wrap silently), and every
    sum is checked before it is taken; callers with hotter graphs lower
    ``iterations`` or rescale inputs.

    Runs on :func:`_shard_pool` (:class:`_HitsShard`): each edge is
    routed once to the owner of its source (out-edge copy) and once to
    the owner of its destination (in-edge copy), two setup rows per
    edge; each half-step is then one contribution exchange as direct
    plasma objects between shards, with the static edges pinned.
    ``edges_ds`` may be a ``pa.Table``; the result is then a table, and
    the pool one driver shard unless ``num_shards`` is given.
    """
    if iterations < 1:
        raise ValueError(f"hits needs iterations >= 1, got {iterations}")
    nb = num_buckets or adaptive_buckets()

    def explode_setup(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.concatenate([s, d])
        return pa.table(
            {
                "_b": hash_bucket(k, nb),
                "key": pa.array(k),
                "peer": pa.array(np.concatenate([d, s])),
                "inward": pa.array(np.repeat(np.array([0, 1], np.int8), len(s))),
            }
        )

    setup = map_rows(edges_ds, explode_setup)
    with _shard_pool(_HitsShard, setup, num_shards, nb) as shards:
        A = len(shards)
        ray.get([w.build.remote() for w in shards])
        outs = [_fan_out(w.contrib0, A) for w in shards]
        # half-steps alternate authority (s = 0) and hub (s = 1)
        for half in range(2 * iterations - 1):
            outs = [
                _fan_out(w.step, A, half % 2, False, *_inbox(outs, o))
                for o, w in enumerate(shards)
            ]
        return _collect(
            [w.step.remote(1, True, *_inbox(outs, o)) for o, w in enumerate(shards)],
            edges_ds,
        )


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

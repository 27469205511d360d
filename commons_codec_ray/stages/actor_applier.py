"""Stateful applier pool — the one code path that applies CDC ops to a lake.

``replay``/``poll``/``watch`` (epochs sliced from an envelope log),
``run_epoch`` and dead-letter replay (a Dataset of envelopes), the full
load (a Dataset of ops) and the query catalog's CDC replays (one epoch
into a temp lake, ``pipelines/queries.py::_apply_via_pipeline``) all
run through it. Its shape (SURVEY.md §2.4/§3.4; the north star's
"stateful actor-pool appliers … in-actor Arrow-backed state table"):

- ``A`` **appliers**, each owning the fixed partition set
  ``{pid : pid % A == actor_id}``; partition state (transcript rows +
  ``_lsn``) lives in applier memory across epochs, loaded from the last
  checkpoint once at start. Placement follows size: a replay whose
  envelope range plus committed lake holds fewer rows than
  :data:`~commons_codec_ray.util.DRIVER_POOL_ROWS` gets ONE applier, a
  plain :class:`Applier` in the driver process, because a fresh worker
  process costs more than such a replay's whole merge and write work.
  Larger replays, or an explicit ``num_actors`` ≥ 2, spawn ``A``
  :class:`PartitionApplier` actors;
- ``K`` **decode tasks** per epoch (raw ``@ray.remote``), each reading a
  row-group slice of the envelope log (or taking a row range of a
  Dataset block), decoding, LWW-combining within the slice, and
  hash-splitting its output into ``A`` sub-tables returned as separate
  objects (``num_returns=A + 1``) — an explicit hash exchange through
  the object store, no sampling, no sort;
- the decode tasks' trailing objects carry the slice's schema-change
  and dead-letter rows, so the log is read once per epoch: the driver
  applies the epoch's control events to the registry in lsn order and
  hands the evolved columns to the appliers before they flush. If the
  controls change the OBJECT/MAP column set the decode itself depends
  on, the appliers drop the epoch's pending ops and it is decoded again;
- epochs are pipelined one deep: the next epoch's decode tasks are
  submitted once this epoch's controls are applied, before it flushes,
  so the CPUs decode epoch N+1 while the appliers merge and write epoch
  N. Its decoder is built from the registry the serial order would use,
  and its sub-tables reach the appliers only after N's flush, so the
  epoch boundary and the ingest order are unchanged;
- each applier merges its ``K`` sub-tables into its state, writes its
  partition files for the epoch (tmp + atomic rename), and returns
  lineage rows; the driver writes the dead letters and commits the
  manifest + checkpoint, one epoch after another.

This is one of the few places the engine drops below the Dataset API —
justified because the exchange key space is small and static (``P``
partitions), which Ray's generic sort/hash shuffles cannot exploit, and
because applier state must persist across epochs.

Failure semantics: tasks/actors are deterministic given (checkpoint,
epoch op set); any failure aborts the epoch and drops the pool, which
cancels the next epoch's decode tasks, and a rerun resumes from the last
committed checkpoint (fresh appliers reload base state). The commit
protocol in :mod:`commons_codec_ray.sink.manifest` is unchanged.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.schemas import OP_DEAD, OP_SCHEMA_CHANGE, empty_ops_table
from commons_codec_ray.stages.applier import apply_ops_to_base
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes, object_columns
from commons_codec_ray.util import InDriver, sized_pool


_SPECIAL_COLUMNS = ["op", "lsn", "source_offset", "aux", "error"]


def split_by_owner(data: pa.Table, num_actors: int) -> list[pa.Table]:
    """Split data ops into one sub-table per owning applier
    (``partition_id % num_actors``), each in its input order."""
    # one stable sort by owning actor, then contiguous slices: O(N log N)
    # instead of one boolean-mask pass over the table per actor
    owner = data["partition_id"].to_numpy(zero_copy_only=False) % num_actors
    order = np.argsort(owner, kind="stable")
    data = data.take(pa.array(order))
    bounds = np.searchsorted(owner[order], np.arange(num_actors + 1))
    return [data.slice(bounds[a], bounds[a + 1] - bounds[a]) for a in range(num_actors)]


@ray.remote
def decode_split_task(
    source: list[tuple[str, list[int]]] | pa.Table,
    lo: int,
    hi: int,
    decode: DecodeEnvelopes | None,
    num_actors: int,
) -> Any:
    """Decode one slice of envelopes and split it by ``pid % num_actors``.

    ``source`` is either row groups of the envelope log, of which only the
    rows with offsets in ``[lo, hi)`` are read, or one Arrow block of a
    Dataset, of which rows ``[lo, hi)`` are taken. ``decode`` is built
    once in the driver, so dialects registered there reach every task;
    None means the block already holds ops (a full load).

    Returns ``num_actors + 1`` objects: one ops sub-table per actor plus
    a trailing table of the slice's schema-change and dead-letter rows
    (``op``, ``lsn``, ``source_offset``, ``aux``, ``error``), kept
    separate so appliers stay on the data-only fast path.
    """
    if isinstance(source, pa.Table):
        source = source.slice(lo, hi - lo)
    if decode is None:
        return (*split_by_owner(source, num_actors), empty_ops_table().select(_SPECIAL_COLUMNS))
    if isinstance(source, pa.Table):
        envelopes = [source]
    else:
        envelopes = []
        for path, row_groups in source:
            tbl = pq.ParquetFile(path).read_row_groups(row_groups)
            off = tbl["source_offset"]
            mask = pc.and_(pc.greater_equal(off, pa.scalar(lo)), pc.less(off, pa.scalar(hi)))
            envelopes.append(tbl.filter(mask))
    parts = [decode(t) for t in envelopes if t.num_rows]
    ops = pa.concat_tables(parts) if parts else empty_ops_table()

    special_mask = pc.greater_equal(ops["op"], pa.scalar(OP_SCHEMA_CHANGE, pa.int8()))
    special = ops.filter(special_mask).select(_SPECIAL_COLUMNS)
    return (*split_by_owner(ops.filter(pc.invert(special_mask)), num_actors), special)


class Applier:
    """Owns ``{pid : pid % A == actor_id}``; state lives across epochs.

    A plain class: a pool of one runs it in the driver, larger pools
    spawn it as the :data:`PartitionApplier` actor."""

    def __init__(
        self,
        actor_id: int,
        num_actors: int,
        lake_root: str,
        base_partitions: dict[str, Any],
        extra_columns_json: str,
        sink_mode: str = "rewrite",
        compact_ratio: float = 0.5,
        compact_max_deltas: int = 8,
        state_budget_bytes: int | None = None,
        emit_changes: bool = False,
    ):
        from collections import OrderedDict

        from commons_codec_ray.sink.manifest import entry_files

        self.actor_id = actor_id
        self.num_actors = num_actors
        self.lake_root = Path(lake_root)
        self._pending: list[pa.Table] = []
        self._pending_rows = 0
        self.sink_mode = sink_mode
        self.compact_ratio = compact_ratio
        self.compact_max_deltas = compact_max_deltas
        self.state_budget_bytes = state_budget_bytes
        self.emit_changes = emit_changes
        self.extra_columns = [
            (n, _type_from_str(t)) for n, t in json.loads(extra_columns_json)
        ]
        # In-memory partition state is an LRU over (table, pid); each
        # entry is reconstructible from `state_files` (base + deltas on
        # disk), so eviction is always safe. With no budget, partitions
        # are loaded eagerly here (fastest steady-state); with a budget
        # they load lazily on first touch.
        self.state: "OrderedDict[tuple[str, int], pa.Table]" = OrderedDict()
        self.state_bytes = 0
        self.state_files: dict[tuple[str, int], tuple[str | None, list[str]]] = {}
        self.delta_info: dict[tuple[str, int], list[int]] = {}  # [n_deltas, delta_rows]
        # base FILE row counts — the compaction trigger compares against
        # these (NOT the merged in-memory state), so it depends on the
        # committed files alone: resident, evicted and reloaded
        # partitions, and a resumed replay, decide alike
        self.base_rows: dict[tuple[str, int], int] = {}
        for key, entry in base_partitions.items():
            table, _, pid_s = key.partition("#")
            pid = int(pid_s)
            if pid % num_actors != actor_id:
                continue
            base_rel, delta_rels = entry_files(entry)
            if base_rel is None and not delta_rels:
                continue
            self.state_files[(table, pid)] = (base_rel, list(delta_rels))
            if base_rel:
                self.base_rows[(table, pid)] = pq.read_metadata(
                    self.lake_root / base_rel
                ).num_rows
            if delta_rels:
                drows = sum(
                    pq.ParquetFile(self.lake_root / d).metadata.num_rows for d in delta_rels
                )
                self.delta_info[(table, pid)] = [len(delta_rels), drows]
            if self.state_budget_bytes is None:
                self._load_state(table, pid)

    def _load_state(self, table: str, pid: int) -> pa.Table | None:
        """Load (and cache) a partition's current state from its files."""
        from commons_codec_ray.stages.applier import merge_base_with_deltas

        key = (table, pid)
        files = self.state_files.get(key)
        if files is None:
            return None
        base_rel, delta_rels = files
        base = pq.read_table(self.lake_root / base_rel) if base_rel else None
        if delta_rels:
            deltas = [pq.read_table(self.lake_root / d) for d in delta_rels]
            tbl = merge_base_with_deltas(base, deltas, self.extra_columns)
        elif base is not None:
            tbl = base
        else:
            return None
        self._put_state(key, tbl)
        return tbl

    def _get_state(self, table: str, pid: int) -> pa.Table | None:
        key = (table, pid)
        if key in self.state:
            self.state.move_to_end(key)  # LRU touch
            return self.state[key]
        return self._load_state(table, pid)

    def _put_state(self, key: tuple[str, int], tbl: pa.Table) -> None:
        old = self.state.pop(key, None)
        if old is not None:
            self.state_bytes -= old.nbytes
        self.state[key] = tbl
        self.state_bytes += tbl.nbytes
        self._evict()

    def _evict(self) -> None:
        """Drop cold partitions until under budget; they reload from
        their committed/epoch files on next touch."""
        if self.state_budget_bytes is None:
            return
        # may drop the final partition too (pathological budgets where a
        # single partition exceeds it) — correctness unaffected, it
        # simply reloads on next touch
        while self.state_bytes > self.state_budget_bytes and self.state:
            _, tbl = self.state.popitem(last=False)
            self.state_bytes -= tbl.nbytes

    def set_extra_columns(self, extra_columns_json: str) -> None:
        self.extra_columns = [
            (n, _type_from_str(t)) for n, t in json.loads(extra_columns_json)
        ]

    def ingest(self, *op_tables: pa.Table) -> None:
        """Accumulate a decode task's output for this applier.

        Called once per decode task. On an actor, Ray queues the calls
        and runs each as its task's result becomes available, so merging
        overlaps the rest of the decode stage instead of waiting for a
        global barrier. In the driver the calls run one at a time in
        submission order, each blocking until its decode task is done.
        The next epoch's decode tasks are submitted once this epoch's
        controls are applied, before it flushes, but their ``ingest``
        calls are issued only after this epoch's ``flush_epoch``, so an
        applier never holds ops of two epochs. A rolling LWW pre-reduce
        bounds memory: pending ops never exceed ~2× the combine threshold
        regardless of epoch size.
        """
        from commons_codec_ray.stages.applier import lww_reduce

        for t in op_tables:
            if t.num_rows:
                self._pending.append(t)
                self._pending_rows += t.num_rows
        if self._pending_rows > 2_000_000:
            reduced = lww_reduce(pa.concat_tables(self._pending, promote_options="permissive"))
            self._pending = [reduced]
            self._pending_rows = reduced.num_rows

    def discard_pending(self) -> None:
        """Drop the epoch's ingested ops; it is being decoded again."""
        self._pending, self._pending_rows = [], 0

    def flush_epoch(self, epoch: int, watermark_us: int | None = None) -> list[dict[str, Any]]:
        ops = (
            pa.concat_tables(self._pending, promote_options="permissive")
            if self._pending
            else None
        )
        self._pending, self._pending_rows = [], 0
        return self._apply(epoch, ops, watermark_us)

    def _apply(
        self, epoch: int, ops: pa.Table | None, watermark_us: int | None = None
    ) -> list[dict[str, Any]]:
        from commons_codec_ray.pipelines.cdc import safe_table_dir

        lineage: list[dict[str, Any]] = []
        if ops is None or ops.num_rows == 0:
            return lineage
        if "table_name" not in ops.column_names:
            ops = ops.append_column(
                "table_name", pa.array(["transcripts"] * ops.num_rows, pa.string())
            )
        from commons_codec_ray.stages.applier import epoch_delta

        # integer-coded (table, pid) split: dictionary codes + numpy masks —
        # per-pair string-equality scans measurably slow large epochs
        tcol = ops["table_name"].combine_chunks()
        tdict = tcol if pa.types.is_dictionary(tcol.type) else tcol.dictionary_encode()
        tcodes = tdict.indices.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        tnames = tdict.dictionary.to_pylist()
        pid_np = ops["partition_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        combo = (tcodes << 32) | pid_np
        for key in np.unique(combo):
            code, pid = int(key >> 32), int(key & 0xFFFFFFFF)
            table = tnames[code] or "transcripts"
            group = ops.filter(pa.array(combo == key))
            base = self._get_state(table, pid)
            from commons_codec_ray.pipelines.cdc import _watermark_stats

            wm_max, wm_late = _watermark_stats(group, watermark_us)
            out = apply_ops_to_base(base, group, self.extra_columns)

            # change feed: the applier already holds base state in memory,
            # so feed emission costs one vectorized merge — no file reads
            # in either sink mode
            n_changes = 0
            if self.emit_changes:
                from commons_codec_ray.stages.applier import change_feed

                cf = change_feed(base, group, self.extra_columns)
                n_changes = cf.num_rows
                if n_changes:
                    ch_dir = (
                        self.lake_root / "changes" / f"epoch-{epoch:08d}" / safe_table_dir(table)
                    )
                    ch_dir.mkdir(parents=True, exist_ok=True)
                    cpath = ch_dir / f"changes-{pid:04d}.parquet"
                    ctmp = cpath.with_suffix(f".tmp-{os.getpid()}")
                    pq.write_table(cf, ctmp)
                    os.replace(ctmp, cpath)

            # choose what to WRITE: full state, or just this epoch's delta
            kind = "full"
            write_tbl = out
            if self.sink_mode == "delta" and base is not None:
                n_deltas, drows = self.delta_info.get((table, pid), [0, 0])
                delta_tbl = epoch_delta(group, self.extra_columns)
                # compare against the base FILE's row count (tracked in
                # self.base_rows), not the merged in-memory state's rows
                base_file_rows = self.base_rows.get((table, pid), 0)
                compact = (
                    n_deltas + 1 > self.compact_max_deltas
                    or (drows + delta_tbl.num_rows)
                    > self.compact_ratio * max(base_file_rows, 1)
                )
                if not compact:
                    kind = "delta"
                    write_tbl = delta_tbl
                    self.delta_info[(table, pid)] = [n_deltas + 1, drows + delta_tbl.num_rows]
                else:
                    self.delta_info[(table, pid)] = [0, 0]

            epoch_dir = (
                self.lake_root / "epochs" / f"epoch-{epoch:08d}" / safe_table_dir(table)
            )
            epoch_dir.mkdir(parents=True, exist_ok=True)
            name = f"part-{pid:04d}.delta.parquet" if kind == "delta" else f"part-{pid:04d}.parquet"
            path = epoch_dir / name
            tmp = path.with_suffix(f".tmp-{os.getpid()}")
            pq.write_table(write_tbl, tmp)
            os.replace(tmp, path)
            # record the files that reconstruct this partition's state so
            # the LRU can evict it and reload on next touch
            rel = str(path.relative_to(self.lake_root))
            if kind == "delta":
                base_rel, delta_rels = self.state_files.get((table, pid), (None, []))
                self.state_files[(table, pid)] = (base_rel, [*delta_rels, rel])
            else:
                self.state_files[(table, pid)] = (rel, [])
                self.base_rows[(table, pid)] = write_tbl.num_rows
            self._put_state((table, pid), out)
            lineage.append(
                {
                    "table": table,
                    "partition_id": pid,
                    "path": str(path.relative_to(self.lake_root)),
                    "rows": write_tbl.num_rows,
                    "max_lsn": int(pc.max(group["lsn"]).as_py()),
                    "ops_applied": group.num_rows,
                    "n_dead": 0,
                    "kind": kind,
                    "max_event_ts_us": wm_max,
                    "late_events": wm_late,
                    "n_changes": n_changes,
                }
            )
        return lineage

    def state_stats(self) -> dict[str, int]:
        """Observability for the LRU: resident partitions/bytes vs known."""
        return {
            "resident_partitions": len(self.state),
            "resident_bytes": self.state_bytes,
            "known_partitions": len(self.state_files),
        }

    def ping(self) -> int:
        return self.actor_id


PartitionApplier = ray.remote(Applier)


def _type_from_str(s: str) -> pa.DataType:
    from commons_codec_ray.config import resolve_logical_type

    return resolve_logical_type(s)


def _row_group_stats(path: str, meta_cache: dict | None) -> list[tuple[int | None, int | None, int]]:
    """[(min_offset, max_offset, rows)] per row group, footer read once
    per file when a cache is supplied (envelope logs are append-only:
    existing files never mutate, so cached footers stay valid)."""
    if meta_cache is not None and path in meta_cache:
        return meta_cache[path]
    md = pq.ParquetFile(path).metadata
    idx = {md.schema.column(i).name: i for i in range(md.num_columns)}["source_offset"]
    out = []
    for rg in range(md.num_row_groups):
        stats = md.row_group(rg).column(idx).statistics
        if stats is None or not stats.has_min_max:
            out.append((None, None, md.row_group(rg).num_rows))
        else:
            out.append((stats.min, stats.max, md.row_group(rg).num_rows))
    if meta_cache is not None:
        meta_cache[path] = out
    return out


def _row_groups(
    envelope_files: list[str], lo: int, hi: int, meta_cache: dict | None
) -> list[tuple[str, int, int]]:
    """(path, row_group, rows) of every row group overlapping [lo, hi)."""
    return [
        (p, rg, rows)
        for p in envelope_files
        for rg, (mn, mx, rows) in enumerate(_row_group_stats(p, meta_cache))
        if mn is None or (mx >= lo and mn < hi)
    ]


def log_rows(envelope_files: list[str], lo: int, hi: int, meta_cache: dict | None = None) -> int:
    """Rows of the row groups overlapping [lo, hi), from their statistics."""
    return sum(u[2] for u in _row_groups(envelope_files, lo, hi, meta_cache))


def plan_file_slices(
    envelope_files: list[str], lo: int, hi: int, num_tasks: int,
    meta_cache: dict | None = None,
) -> list[list[tuple[str, list[int]]]]:
    """Assign row groups overlapping [lo, hi) to ``num_tasks`` slices,
    using Parquet row-group statistics (no data read on the driver; with
    ``meta_cache`` the footer metadata is read once per file across the
    whole epoch/poll sequence instead of once per epoch)."""
    units = _row_groups(envelope_files, lo, hi, meta_cache)
    if not units:
        return []
    num_tasks = min(num_tasks, len(units))
    total_rows = sum(u[2] for u in units)
    per_task = max(1, total_rows // num_tasks)
    slices: list[list[tuple[str, list[int]]]] = []
    cur: dict[str, list[int]] = {}
    cur_rows = 0
    for path, rg, rows in units:
        cur.setdefault(path, []).append(rg)
        cur_rows += rows
        if cur_rows >= per_task and len(slices) < num_tasks - 1:
            slices.append(list(cur.items()))
            cur, cur_rows = {}, 0
    if cur:
        slices.append(list(cur.items()))
    return slices


def block_row_ranges(blocks: list[tuple[Any, int]], num_tasks: int) -> list[tuple[Any, int, int]]:
    """Cut Dataset blocks, given as (block ref, rows), into (ref, lo, hi)
    row ranges, ~``num_tasks`` in all: each block gets a share of the
    tasks in proportion to its rows, and at least one. A one-block epoch
    then decodes on ``num_tasks`` CPUs instead of one."""
    total = max(1, sum(rows for _, rows in blocks))
    units = []
    for ref, rows in blocks:
        k = max(1, min(rows, rows * num_tasks // total))
        cuts = [i * rows // k for i in range(k + 1)]
        units += [(ref, cuts[i], cuts[i + 1]) for i in range(k)]
    return units


def _extra_columns_json(config: PipelineConfig) -> str:
    """Evolved (non-static) columns of the configured table as JSON for
    actor construction — single definition of the static-column exclusion
    (shared with pipelines.cdc._extra_columns via _STATIC_COLUMNS)."""
    from commons_codec_ray.pipelines.cdc import _STATIC_COLUMNS

    return json.dumps(
        [
            (n, t)
            for n, t in config.registry.column_types.get(config.table, {}).items()
            if n not in _STATIC_COLUMNS
        ]
    )


def committed_rows(lake_root: str, base_partitions: dict[str, Any], limit: int) -> int:
    """Rows in the committed partition files, from their footers; stops
    opening footers once the count reaches ``limit``."""
    from commons_codec_ray.sink.manifest import entry_files

    rows = 0
    for entry in base_partitions.values():
        base, deltas = entry_files(entry)
        for rel in ([base] if base else []) + deltas:
            if rows >= limit:
                return rows
            rows += pq.read_metadata(Path(lake_root) / rel).num_rows
    return rows


class _Decoding(NamedTuple):
    """An epoch's submitted decode tasks: its offsets ``[lo, hi)``, each
    task's ``A + 1`` result refs, and the OBJECT/MAP column set their
    decoder was built with."""

    lo: int
    hi: int
    refs: list
    object_columns: frozenset[str]


class ActorPoolApplyRunner:
    """Drives decode tasks + the applier pool for a sequence of epochs.

    The pool is sized once, for ``rows`` rows to apply (envelope rows of a
    replay's offset range, or of a Dataset's blocks) plus the committed
    lake's rows, which decide between one applier in the driver and
    spawned actors (:func:`~commons_codec_ray.util.sized_pool`).
    ``meta_cache`` holds the envelope log's footer statistics (see
    :func:`plan_file_slices`)."""

    def __init__(
        self,
        lake_root: str,
        config: PipelineConfig,
        base_partitions: dict[str, Any],
        rows: int,
        num_actors: int | None = None,
        num_decode_tasks: int | None = None,
        meta_cache: dict | None = None,
    ):
        cpus = int(ray.cluster_resources().get("CPU", 8))
        self._meta_cache = {} if meta_cache is None else meta_cache
        if not num_actors:
            # only the comparison with DRIVER_POOL_ROWS matters
            rows += committed_rows(lake_root, base_partitions, util.DRIVER_POOL_ROWS - rows)
        # spawned: one applier per ~3 cores (at least 2, at most P); one
        # decode task per core (at least 4)
        self.num_actors = sized_pool(
            num_actors, rows, max(2, min(config.num_partitions, cpus // 3))
        )
        self.num_decode_tasks = num_decode_tasks or max(4, cpus)
        self.config = config
        self.lake_root = lake_root
        args = (
            self.num_actors,
            lake_root,
            base_partitions,
            _extra_columns_json(config),
            config.sink_mode,
            config.compact_ratio,
            config.compact_max_deltas,
            config.applier_state_budget_bytes,
            config.emit_changes,
        )
        self._ping_refs = None
        self._next: _Decoding | None = None  # the next epoch's decode tasks
        if self.num_actors == 1:
            self.appliers: str | int = "driver"
            self.actors = [InDriver(Applier(0, *args))]
            return
        self.appliers = self.num_actors
        # no CPU reservation: appliers are burst-shaped (idle while decode
        # streams, busy on ingest/flush), and a reserved slot would sit
        # idle through the decode stage — at one logical CPU the decode
        # tasks would never schedule at all
        self.actors = [
            PartitionApplier.options(num_cpus=0).remote(a, *args)
            for a in range(self.num_actors)
        ]
        # a spawn is ~0.5-1 s of fresh-process start and imports; don't
        # block here, the first run_epoch overlaps it with its decode tasks
        self._ping_refs = [a.ping.remote() for a in self.actors]

    def wait_ready(self) -> None:
        if self._ping_refs is not None:
            ray.get(self._ping_refs)
            self._ping_refs = None

    def _submit(self, source: list, lo: int, hi: int, decode: bool) -> _Decoding:
        """Submit one decode task per unit of the epoch (see ``run_epoch``
        for ``source``), with the registry and dialects as of now."""
        if source and isinstance(source[0], str):
            slices = plan_file_slices(source, lo, hi, self.num_decode_tasks, self._meta_cache)
            units = [(s, lo, hi) for s in slices]
        else:
            units = block_row_ranges(source, self.num_decode_tasks)
        A = self.num_actors
        # shipped once per epoch
        decoder = ray.put(DecodeEnvelopes(self.config, combine=True)) if decode else None
        refs = [
            decode_split_task.options(num_returns=A + 1).remote(src, u_lo, u_hi, decoder, A)
            for src, u_lo, u_hi in units
        ]
        return _Decoding(lo, hi, refs, object_columns(self.config))

    def _ingest(self, decoding: _Decoding) -> tuple[list, pa.Table]:
        """Queue each decode task's sub-tables on their appliers and wait
        for the tasks' trailing schema-change/dead-letter tables; returns
        (ingest refs, those rows)."""
        A = self.num_actors
        # incremental push: each actor ingests one decode task's slice as
        # soon as that task finishes (per-actor ordered queue) — the merge
        # overlaps the decode stage; flush_epoch is the only barrier. In
        # the driver each call blocks until its task is done.
        ingest_refs = [
            self.actors[a].ingest.remote(refs[a]) for refs in decoding.refs for a in range(A)
        ]
        return ingest_refs, pa.concat_tables(ray.get([refs[A] for refs in decoding.refs]))

    def run_epoch(
        self,
        source: list,
        epoch: int,
        lo: int,
        hi: int,
        on_control: Callable[[dict[str, Any]], None],
        watermark_us: int | None = None,
        decode: bool = True,
        next_range: tuple[int, int] | None = None,
    ) -> tuple[list[dict[str, Any]], pa.Table | None, list[dict[str, Any]], dict[str, float]]:
        """Decode, exchange and apply one epoch.

        ``source`` is the envelope log's files, of which the offsets in
        ``[lo, hi)`` make the epoch, or a Dataset's (Arrow block ref, rows)
        pairs, applied whole and cut into row ranges for
        ``num_decode_tasks`` decode tasks (:func:`block_row_ranges`).
        With ``decode=False`` the blocks already hold ops and are only
        split by owner.

        The epoch's schema-change rows come back from the decode tasks
        and are passed to ``on_control`` in lsn order before any actor
        flushes, so they take effect at this epoch's boundary. Then the
        decode tasks of ``next_range`` (the next epoch's offsets in the
        same ``source``) are submitted, before this epoch flushes; the
        next call, which must be for that range, ingests them. Returns
        (lineage rows, dead-letter table or None, schema-change rows,
        driver wait seconds: ``decode_wait_s`` on decode results and
        ingest, ``flush_s`` on the flush)."""
        decoding, self._next = self._next, None
        if decoding is None:
            decoding = self._submit(source, lo, hi, decode)
        assert (decoding.lo, decoding.hi) == (lo, hi), "run_epoch out of order"
        if not decoding.refs:
            return [], None, [], {"decode_wait_s": 0.0, "flush_s": 0.0}
        self.wait_ready()
        t = time.perf_counter()
        calls, special = self._ingest(decoding)
        decode_wait = time.perf_counter() - t
        control_mask = pc.equal(special["op"], pa.scalar(OP_SCHEMA_CHANGE, pa.int8()))
        controls = sorted(
            special.filter(control_mask).select(["lsn", "source_offset", "aux"]).to_pylist(),
            key=lambda r: r["lsn"],
        )
        if controls:
            for row in controls:
                on_control(row)
            if object_columns(self.config) != decoding.object_columns:
                # the epoch was decoded against the old OBJECT/MAP set:
                # drop what the actors hold and decode it again
                calls += [a.discard_pending.remote() for a in self.actors]
                t = time.perf_counter()
                ingest_refs, special = self._ingest(self._submit(source, lo, hi, decode))
                decode_wait += time.perf_counter() - t
                calls += ingest_refs
            # Ray runs one caller's calls to an actor in order, so the
            # new columns reach every actor before its flush
            extra = _extra_columns_json(self.config)
            calls += [a.set_extra_columns.remote(extra) for a in self.actors]
        if next_range is not None:
            # decoded against the registry as this epoch leaves it, while
            # the appliers flush this epoch
            self._next = self._submit(source, *next_range, decode)
        t = time.perf_counter()
        flush_futures = [a.flush_epoch.remote(epoch, watermark_us) for a in self.actors]
        lineage = [row for rows in ray.get(flush_futures) for row in rows]
        ray.get(calls)  # surface any ingest errors
        stages = {"decode_wait_s": decode_wait, "flush_s": time.perf_counter() - t}
        dead = special.filter(pc.equal(special["op"], pa.scalar(OP_DEAD, pa.int8())))
        dead = dead.select(["lsn", "source_offset", "aux", "error"]) if dead.num_rows else None
        return lineage, dead, controls, stages

    def shutdown(self) -> None:
        """Kill the appliers, and cancel the next epoch's decode tasks if
        an epoch failed while they ran."""
        if self._next is not None:
            for refs in self._next.refs:
                ray.cancel(refs[0])
            self._next = None
        if self.appliers != "driver":
            for a in self.actors:
                ray.kill(a)
        self.actors = []

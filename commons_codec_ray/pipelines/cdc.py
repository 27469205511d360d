"""The CDC ingest pipeline: epoch loop over an envelope log → Parquet lake.

Stage boundaries (SURVEY.md §3.4): driver (epoch plan, manifests) →
stateless decode tasks (one per row-group slice of the log, or per row
range of a Dataset's blocks) → ONE hash exchange on ``partition_id``
into the applier pool → per-partition LWW apply (partition state held
across epochs, merged, the new partition file written) → two-phase
commit (manifest + atomic checkpoint) → metrics/lineage. Every lake
write — ``replay``, ``poll``/``watch``, ``run_epoch``,
``replay_dead_letters``, ``bootstrap_full_load`` and the query
catalog's CDC replays — goes through that one path
(:mod:`commons_codec_ray.stages.actor_applier`).

Scale notes:
- an epoch is the checkpoint granularity; its op set is bounded by
  ``epoch_size``, never the whole log;
- partitions untouched by an epoch are carried forward without rewrite;
- the partition count P is fixed and independent of cluster size, so N-
  and 4N-worker runs produce byte-identical lakes;
- applier state that outgrows ``applier_state_budget_bytes`` is evicted
  and reloaded from the committed files;
- schema-evolution control events take effect at the epoch boundary they
  arrive in (full-row upserts + aux spill make this deterministic and
  safe for the whole epoch; the reference's order-sensitive registry,
  transform/aws_dms.py:140-144, is preserved at epoch granularity). The
  log is read once: the decode tasks hand each epoch's control events
  back to the driver before the appliers flush.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig, SchemaRegistry, resolve_logical_type
from commons_codec_ray.schemas import OP_SCHEMA_CHANGE, OP_UPSERT
from commons_codec_ray.sink.manifest import Checkpoint, LakeManifestStore
from commons_codec_ray.stages.actor_applier import ActorPoolApplyRunner, committed_rows, log_rows
from commons_codec_ray.stages.applier import final_state

_STATIC_COLUMNS = {"conv_id", "turn_idx", "role", "text", "tool", "ts"}

# in-band DDL markers across dialects: Debezium/DMS control records,
# Maxwell table-alter/table-create, Canal isDdl (read only by
# CDCPipeline._scan_control_events)
_CONTROL_MARKER_RE = (
    r'"record-type":\s*"control"'
    r'|"type":\s*"table-(alter|create|drop)"'
    r'|"isDdl":\s*true'
)

# MySQL-ish DDL type names → the registry's logical type vocabulary
# (config.py:LOGICAL_TO_ARROW). Parameterized forms (varchar(255),
# decimal(10,2)) are matched on the bare name.
_SQL_TYPE_MAP = {
    "tinyint": "INT8",
    "smallint": "INT16",
    "int": "INT32",
    "integer": "INT32",
    "mediumint": "INT32",
    "bigint": "INT64",
    "float": "REAL4",
    "double": "REAL8",
    "real": "REAL8",
    "decimal": "NUMERIC",
    "numeric": "NUMERIC",
    "bool": "BOOLEAN",
    "boolean": "BOOLEAN",
    "datetime": "DATETIME",
    "timestamp": "TIMESTAMP",
}


def _sql_type_to_logical(raw: str) -> str:
    base = re.match(r"\s*([a-zA-Z0-9_]+)", raw or "")
    return _SQL_TYPE_MAP.get(base.group(1).lower() if base else "", "STRING")


def _unquote_ident(name: str) -> str:
    name = name.strip().strip("`\"")
    return name.split(".")[-1].strip("`\"") if "." in name else name


def parse_mysql_ddl(sql: str) -> dict[str, Any] | None:
    """Tiny CREATE/DROP/ALTER grammar for in-band DDL strings (the Canal
    ``isDdl`` payload carries raw SQL; public MySQL dialect subset).
    Returns {"operation", "table", "columns", "primary_key"} or None for
    statements the registry has nothing to learn from. Parsing failures
    return None rather than raising — an unparseable DDL must never
    poison the replay (the registry just doesn't learn the new shape)."""
    if not sql:
        return None
    s = sql.strip().rstrip(";")
    m = re.match(r"(?is)^DROP\s+TABLE\s+(?:IF\s+EXISTS\s+)?([`\"\w.]+)", s)
    if m:
        return {"operation": "drop", "table": _unquote_ident(m.group(1))}
    m = re.match(
        r"(?is)^ALTER\s+TABLE\s+([`\"\w.]+)\s+ADD\s+(?:COLUMN\s+)?([`\"\w]+)\s+(\w+(?:\([\d,\s]*\))?)",
        s,
    )
    if m:
        return {
            "operation": "alter",
            "table": _unquote_ident(m.group(1)),
            "columns": {_unquote_ident(m.group(2)): _sql_type_to_logical(m.group(3))},
            "primary_key": [],
        }
    m = re.match(
        r"(?is)^CREATE\s+TABLE\s+(?:IF\s+NOT\s+EXISTS\s+)?([`\"\w.]+)\s*\((.*)\)\s*(?:ENGINE|DEFAULT|CHARSET|COMMENT|$)",
        s,
    )
    if m:
        table = _unquote_ident(m.group(1))
        body = m.group(2)
        # split on top-level commas (parameterized types carry inner commas)
        parts, depth, cur = [], 0, []
        for ch in body:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur))
                cur = []
            else:
                cur.append(ch)
        if cur:
            parts.append("".join(cur))
        columns: dict[str, str] = {}
        pk: list[str] = []
        for part in parts:
            p = part.strip()
            pm = re.match(r"(?is)^PRIMARY\s+KEY\s*\(([^)]*)\)", p)
            if pm:
                pk = [_unquote_ident(c) for c in pm.group(1).split(",") if c.strip()]
                continue
            if re.match(r"(?is)^(UNIQUE|KEY|INDEX|CONSTRAINT|FOREIGN)", p):
                continue
            cm = re.match(r"^([`\"\w]+)\s+(\w+(?:\([\d,\s]*\))?)", p)
            if cm:
                name = _unquote_ident(cm.group(1))
                columns[name] = _sql_type_to_logical(cm.group(2))
                if re.search(r"(?i)\bPRIMARY\s+KEY\b", p):
                    pk.append(name)
        if columns:
            return {
                "operation": "create",
                "table": table,
                "columns": columns,
                "primary_key": pk,
            }
    return None


def _extra_columns(registry: SchemaRegistry, table: str) -> list[tuple[str, pa.DataType]]:
    cols = registry.column_types.get(table, {})
    return [(n, resolve_logical_type(t)) for n, t in cols.items() if n not in _STATIC_COLUMNS]


def safe_table_dir(table: str) -> str:
    return table.replace("/", "_").replace("..", "_")


def _watermark_stats(group: pa.Table, watermark_us: int | None) -> tuple[int, int]:
    """(max event-time in µs, events older than the previous epoch's
    watermark). Late arrivals are safe under LWW — this only makes them
    OBSERVABLE (north star: per-partition lineage + metrics).

    Semantics note: this counts over the ops as they reach the applier,
    i.e. AFTER the engine's partial LWW reduces (the decode tasks'
    within-slice combine, the applier's rolling pre-reduce) — superseded
    duplicate deliveries don't count as late, and the reported max can
    sit slightly below the raw stream's max when a superseded op carried
    the newest event-time. Fine for an observability counter."""
    if group.num_rows == 0 or "ts" not in group.column_names:
        return -1, 0
    ts = group["ts"].cast(pa.int64())
    mx = pc.max(ts).as_py()
    late = 0
    if watermark_us is not None:
        late = pc.sum(pc.cast(pc.less(ts, watermark_us), pa.int64())).as_py() or 0
    return (mx if mx is not None else -1), int(late)


def _watermark_metrics(lineage: list[dict[str, Any]]) -> dict[str, Any]:
    max_ev = max((int(r.get("max_event_ts_us", -1) or -1) for r in lineage), default=-1)
    late = sum(int(r.get("late_events", 0) or 0) for r in lineage)
    out: dict[str, Any] = {"late_events": late}
    if max_ev >= 0:
        out["max_event_ts_us"] = max_ev
        # processing-time lag behind the newest event seen (negative for
        # replays of historical data — meaningful in tail mode)
        out["event_time_lag_s"] = round(time.time() - max_ev / 1e6, 3)
    return out


class CDCPipeline:
    def __init__(self, lake_dir: str | Path, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.store = LakeManifestStore(lake_dir)
        ckpt = self.store.read_checkpoint()
        if ckpt.registry_json and ckpt.registry_json != "{}":
            self.config.registry = SchemaRegistry.from_json(ckpt.registry_json)
        # cached tail-mode applier pool (see _release_runner); released
        # by close(), on epoch failure, by every commit that bypasses it,
        # or with the pipeline object
        self._runner = None

    # ------------------------------------------------------------------ bootstrap
    def bootstrap_full_load(self, snapshot_ds, lsn: int = -1) -> dict[str, Any]:
        """Initial snapshot load — the analog of the reference's full-load
        translators (DynamoDBFullLoadTranslator, transform/dynamodb.py:141-159;
        MongoDBFullLoadTranslator, transform/mongodb.py:239-269): a bulk
        table of rows becomes the lake's epoch 0, after which CDC replay
        starts at offset 0.

        ``snapshot_ds``: Dataset with the transcript columns. Rows get
        ``_lsn = lsn`` (default −1 → any CDC op wins over snapshot rows).
        Its blocks become upserts that skip decode and go straight to
        the appliers.
        """
        from commons_codec_ray.hashing import partition_ids_for

        if self.store.read_checkpoint().last_epoch >= 0:
            return {"epoch": 0, "skipped": True}
        cfg = self.config

        def to_ops(t: pa.Table) -> pa.Table:
            import numpy as np

            n = t.num_rows
            conv = t["conv_id"].cast(pa.string())
            return pa.table(
                {
                    "op": pa.array(np.full(n, OP_UPSERT, dtype=np.int8)),
                    "table_name": pa.array([cfg.table] * n, pa.string()),
                    "conv_id": conv,
                    "turn_idx": t["turn_idx"].cast(pa.int32()),
                    "role": t["role"].cast(pa.string()),
                    "text": t["text"].cast(pa.string()),
                    "tool": t["tool"].cast(pa.string()),
                    "ts": t["ts"].cast(pa.timestamp("us")),
                    "lsn": pa.array(np.full(n, lsn, dtype=np.int64)),
                    "partition_id": partition_ids_for(conv.combine_chunks(), cfg.num_partitions),
                }
            )

        ops = snapshot_ds.map_batches(to_ops, batch_format="pyarrow")
        return self._apply_dataset(ops, 0, (0, 0), decode=False, full_load=True)

    # ------------------------------------------------------------------ epoch
    def run_epoch(self, envelopes, epoch: int, offset_range: tuple[int, int]) -> dict[str, Any]:
        """Decode + apply + commit one epoch. ``envelopes`` is a Dataset of
        (lsn, source_offset, dialect, payload[, conv_id]) rows, applied
        whole: ``offset_range`` is what the epoch commits as consumed
        (dead-letter replay commits a zero-width one)."""
        if epoch <= self.store.read_checkpoint().last_epoch:
            return {"epoch": epoch, "skipped": True}  # already committed (resume)
        return self._apply_dataset(envelopes, epoch, offset_range)

    def _apply_dataset(
        self, ds, epoch: int, offset_range: tuple[int, int], decode: bool = True, **extra
    ) -> dict[str, Any]:
        """Apply and commit a Dataset's blocks as one epoch, on a pool
        sized for their rows plus the committed lake."""
        t0 = time.time()
        self._release_runner()  # its state goes stale with this commit
        ds = ds.materialize()
        rows = [md.num_rows for b in ds.iter_internal_ref_bundles() for _, md in b.blocks]
        runner = self._new_runner(sum(rows))
        try:
            return self._apply_epoch(
                runner, list(zip(ds.to_arrow_refs(), rows)), epoch, offset_range, t0,
                decode, **extra,
            )
        finally:
            runner.shutdown()

    def _apply_epoch(
        self,
        runner,
        source: list,
        epoch: int,
        offset_range: tuple[int, int],
        t0: float,
        decode: bool = True,
        next_range: tuple[int, int] | None = None,
        **extra,
    ) -> dict[str, Any]:
        """Run one epoch on ``runner`` (see ``ActorPoolApplyRunner.run_epoch``
        for ``source`` and ``next_range``, the next epoch's offsets, whose
        decode starts before this epoch flushes), write its dead letters,
        and commit it with its metrics; ``extra`` joins the metrics.

        ``metrics.stages`` holds the driver's seconds: ``decode_wait_s``
        blocked on the epoch's decode results and ingest, ``flush_s`` on
        its flush, and ``commit_s`` writing its dead letters. The
        manifest and checkpoint writes that follow (perfbench's
        ``sink.commit_s``) cannot be timed in the manifest they write."""
        self.store.ensure_dirs(epoch)
        prev_wm = self._last_watermark(self.store.read_checkpoint())
        lineage, dead, controls, stages = runner.run_epoch(
            source, epoch, *offset_range, self._apply_schema_event,
            watermark_us=prev_wm, decode=decode, next_range=next_range,
        )
        t = time.perf_counter()
        n_dead = 0
        if dead is not None:
            n_dead = dead.num_rows
            dl_dir = self.store.dead_letter_dir(epoch)
            dl_dir.mkdir(parents=True, exist_ok=True)
            pq.write_table(dead, dl_dir / "dead-0000.parquet")
        stages = {k: round(v, 4) for k, v in stages.items()}
        stages["commit_s"] = round(time.perf_counter() - t, 4)
        metrics = {
            "changes": sum(int(r.get("n_changes", 0) or 0) for r in lineage),
            "events": sum(r["ops_applied"] for r in lineage),
            "rows_out": sum(r["rows"] for r in lineage),
            "partitions_touched": len(lineage),
            "dead_letters": n_dead,
            "schema_events": len(controls),
            "duration_s": round(time.time() - t0, 3),
            "appliers": runner.appliers,
            "stages": stages,
            **_watermark_metrics(lineage),
            **extra,
        }
        self.store.commit_epoch(
            epoch, lineage, offset_range, self.config.registry.to_json(), metrics
        )
        return {"epoch": epoch, "skipped": False, **metrics}

    # unused by the engine; perfbench/run.py wraps it by name (cdc.prescan_s)
    def _scan_control_events(self, envelopes) -> list[dict[str, Any]]:
        """Cheap scan for in-band DDL: vectorized substring-regex over raw
        payloads (no per-row JSON parse), then decode only the matches.
        The marker regex covers every dialect that can carry DDL —
        Debezium/DMS control records, Maxwell table-alter/create, Canal
        isDdl — so a schema event reaches the registry regardless of
        which bus delivered it."""
        from commons_codec_ray.decode.dialects import DECODERS

        matches = envelopes.map_batches(
            lambda t: t.filter(
                pc.match_substring_regex(t["payload"], _CONTROL_MARKER_RE)
            ),
            batch_format="pyarrow",
        ).take_all()
        out: list[dict[str, Any]] = []
        for r in matches:
            try:
                decoded = DECODERS[r["dialect"]](json.loads(r["payload"]))
            except Exception:  # noqa: BLE001 — malformed control → dead-letters later
                continue
            for op, _rec, aux in decoded:
                if op == OP_SCHEMA_CHANGE:
                    out.append(
                        {
                            "lsn": r["lsn"],
                            "source_offset": r["source_offset"],
                            "aux": json.dumps(aux, default=str),
                        }
                    )
        out.sort(key=lambda r: r["lsn"])
        return out

    def _apply_schema_event(self, row: dict[str, Any]) -> None:
        """Interpret one control record against the registry. Three
        control grammars reach here (every schema-change row the decode
        tasks return): the Debezium/DMS control shape (``create-table`` /
        ``drop-table`` with a ``table-def``), Maxwell ``output_ddl``
        payloads (``table-create``/``table-alter`` carrying the full new
        definition in ``def``, ``table-drop``), and Canal ``isDdl`` rows
        carrying raw SQL (parsed by :func:`parse_mysql_ddl`)."""
        aux = json.loads(row["aux"] or "{}")
        registry = self.config.registry
        table = aux.get("table") or self.config.table
        operation = aux.get("operation")
        if operation == "create-table":
            control = aux.get("control", {})
            tdef = control.get("table-def", {})
            columns = {
                name: (spec.get("type", "STRING") if isinstance(spec, dict) else str(spec))
                for name, spec in tdef.get("columns", {}).items()
            }
            pk = tdef.get("primary-key", [])
            registry.apply_create_table(table, columns, pk)
        elif operation in ("drop-table", "table-drop"):
            registry.apply_drop_table(table)
        elif operation in ("table-create", "table-alter"):
            tdef = aux.get("def") or {}
            cols_spec = tdef.get("columns") or []
            columns = {
                c["name"]: _sql_type_to_logical(str(c.get("type", "")))
                for c in cols_spec
                if isinstance(c, dict) and c.get("name")
            }
            pk = tdef.get("primary-key") or []
            if isinstance(pk, str):
                pk = [pk]
            if columns or pk:
                # an alter without PK info keeps the table's current keys
                registry.apply_create_table(
                    table, columns, pk or registry.primary_keys.get(table, [])
                )
        elif operation == "ddl":
            parsed = parse_mysql_ddl(aux.get("sql") or "")
            if parsed is None:
                return  # unlearnable DDL: never poison the replay
            table = parsed.get("table") or table
            if parsed["operation"] == "drop":
                registry.apply_drop_table(table)
            else:  # create / alter-add-column
                registry.apply_create_table(
                    table,
                    parsed["columns"],
                    parsed["primary_key"] or registry.primary_keys.get(table, []),
                )

    # ------------------------------------------------------------------ replay
    def replay(
        self,
        envelopes_path: str,
        epoch_size: int | None = None,
        max_offset: int | None = None,
        mode: str = "actors",
        keep_actors: bool = False,
    ) -> list[dict[str, Any]]:
        """Replay an envelope log from the last checkpoint to its end.

        Epochs slice the log by ``source_offset`` ranges using Parquet
        row-group statistics — resume never rescans committed offsets.
        Partition state is held by the applier pool across epochs; its
        decode tasks exchange ops by hash and return each epoch's control
        events (see :mod:`commons_codec_ray.stages.actor_applier`). Epochs
        are pipelined one deep: the next epoch's decode tasks are
        submitted once this epoch's controls are applied, before it
        flushes, while the epochs still commit one after another. A
        small replay runs its one applier in the driver, a large one
        spawns applier actors; the epoch manifests record which
        (``metrics.appliers``). ``keep_actors`` keeps the pool for the
        next call (tail mode).

        ``mode`` takes only ``"actors"``, the one apply path.
        """
        if mode != "actors":
            raise ValueError(f"unknown replay mode {mode!r}: the only apply path is 'actors'")
        epoch_size = epoch_size or self.config.epoch_size
        if max_offset is None:
            max_offset = _max_column_value(envelopes_path, "source_offset")
        files = _parquet_files(envelopes_path)
        ckpt = self.store.read_checkpoint()
        start, epoch = ckpt.next_offset, ckpt.last_epoch + 1
        if start > max_offset:
            return []
        # a spawned pool does not block here, its process start overlaps
        # the first epoch's decode tasks
        runner = self._runner if keep_actors else None
        if runner is None:
            self._release_runner()
            footers: dict = {}
            rows = log_rows(files, start, max_offset + 1, footers)
            runner = self._new_runner(rows, footers)
            if keep_actors:
                self._runner = runner
        results = []
        try:
            lo = start
            while lo <= max_offset:
                # clamp to the known head: committing past it would skip
                # offsets that arrive later within the same range (tail mode)
                hi = min(lo + epoch_size, max_offset + 1)
                nxt = (hi, min(hi + epoch_size, max_offset + 1)) if hi <= max_offset else None
                results.append(
                    self._apply_epoch(runner, files, epoch, (lo, hi), time.time(), next_range=nxt)
                )
                epoch += 1
                lo = hi
        except BaseException:
            # epoch failed: applier state may be ahead of the checkpoint —
            # drop the pool (and the next epoch's decode tasks) so the
            # next run reloads committed state
            runner.shutdown()
            self._runner = None
            raise
        if not keep_actors:
            runner.shutdown()
        return results

    def _new_runner(self, rows: int, meta_cache: dict | None = None):
        """Applier pool over the committed lake, sized for ``rows`` more
        rows (one applier in the driver, or spawned actors)."""
        ckpt = self.store.read_checkpoint()
        return ActorPoolApplyRunner(
            str(self.store.root), self.config, dict(ckpt.partitions), rows,
            meta_cache=meta_cache,
        )

    def _release_runner(self) -> None:
        """Drop the cached tail-mode pool. A tail-mode pool persists
        across replay calls, sized by the first: a spawned pool would pay
        ~0.5-1 s of fresh-worker start per POLL otherwise, and an
        in-driver applier would reload its state from the lake. Its state
        is valid only while every commit goes through it, so an epoch
        failure and every other committing method release it."""
        if self._runner is not None:
            self._runner.shutdown()
            self._runner = None

    def close(self) -> None:
        """Release the cached tail-mode applier pool (if any)."""
        self._release_runner()

    def _last_watermark(self, ckpt) -> int | None:
        """Event-time watermark of the last committed epoch (µs), from its
        manifest metrics; None before any commit."""
        if ckpt.last_epoch < 0:
            return None
        try:
            m = self.store.read_manifest(ckpt.last_epoch)
        except FileNotFoundError:
            return None
        wm = m.get("metrics", {}).get("max_event_ts_us")
        return int(wm) if wm is not None and wm >= 0 else None

    # ------------------------------------------------------------------ tail
    def poll(self, envelopes_path: str) -> int:
        """One tail step: discover offsets beyond the checkpoint and
        ingest them; returns the number of NEW offsets committed.

        The distributed analog of the reference's blocking change-stream
        relay (examples/mongodb_cdc_cratedb.py:50-61): the "stream" is an
        append-only envelope log (files keep arriving); resumption comes
        free from the checkpoint — no extra state."""
        ckpt = self.store.read_checkpoint()
        head = _max_column_value(envelopes_path, "source_offset")
        if head < ckpt.next_offset:
            return 0
        # tail mode keeps the applier pool warm across polls (a spawned
        # pool's ~0.5-1 s process start, an in-driver applier's state
        # reload: per-poll latency otherwise)
        self.replay(envelopes_path, max_offset=head, keep_actors=True)
        return self.store.read_checkpoint().next_offset - ckpt.next_offset

    def watch(
        self,
        envelopes_path: str,
        poll_interval_s: float = 1.0,
        max_idle_polls: int | None = 3,
    ) -> dict[str, Any]:
        """Continuous tail: poll the log until ``max_idle_polls``
        consecutive polls find nothing new (None → forever)."""
        idle = 0
        polls = 0
        ingested = 0
        while max_idle_polls is None or idle < max_idle_polls:
            got = self.poll(envelopes_path)
            polls += 1
            if got > 0:
                ingested += got
                idle = 0
            else:
                idle += 1
                time.sleep(poll_interval_s)
        self.close()  # release the warm tail-mode applier pool
        return {"polls": polls, "offsets_ingested": ingested}

    # ------------------------------------------------------------------ reads
    def read_lake(self, with_lsn: bool = False, epoch: int | None = None, table: str | None = None):
        """Dataset over the lake's current state — or, with ``epoch=E``,
        its state as of committed epoch E (time travel): the manifests
        record every epoch's partition files, so any committed snapshot
        is reconstructible until :meth:`vacuum` removes it. ``table``
        selects one logical table (default: the config's table).

        Each partition's table is its base file, or base plus deltas
        merged by LWW (delta sink). The read is placed as the applier
        pool is: below :data:`~commons_codec_ray.util.DRIVER_POOL_ROWS`
        committed rows (counted from the file footers) the driver reads
        every partition with pyarrow and returns one Arrow block, since
        starting a Ray Data read costs more than reading a small lake.
        Above it, the same per-partition read runs as Ray Data tasks,
        one partition a task (PERF.md "Catalog replays on the
        Applier")."""
        from commons_codec_ray.sink.manifest import entry_files
        from commons_codec_ray.stages.applier import merge_base_with_deltas

        table = table or self.config.table
        if epoch is None:
            partitions = self.store.read_checkpoint().partitions
        else:
            partitions = self._partitions_at(epoch)
        partitions = {k: e for k, e in partitions.items() if k.split("#", 1)[0] == table}
        entries = [(b, d) for b, d in map(entry_files, partitions.values()) if b or d]
        if not entries:
            raise FileNotFoundError(f"empty lake at {self.store.root}")
        root = self.store.root
        extra = _extra_columns(self.config.registry, table)

        def read(entries) -> pa.Table:
            outs = []
            for base, deltas in entries:
                tbl = pq.read_table(root / base) if base else None
                if deltas:
                    tbl = merge_base_with_deltas(
                        tbl, [pq.read_table(root / d) for d in deltas], extra
                    )
                outs.append(final_state(tbl, with_lsn))
            return pa.concat_tables(outs, promote_options="permissive")

        limit = util.DRIVER_POOL_ROWS
        if committed_rows(str(root), partitions, limit) < limit:
            return rd.from_arrow(read(entries))
        # Kept for memory, not speed: on a 4M-row, 64-partition lake (4
        # Ray CPUs) the driver read took 1.2 s and this one 1.2-2.4 s, but
        # a streamed pass (iter_batches) raised the driver's peak RSS by
        # ~760 MB through the driver read and by ~40 MB through this one
        items = [{"base": b or "", "deltas": d} for b, d in entries]
        return rd.from_items(items).map_batches(
            lambda t: read(zip(t["base"].to_pylist(), t["deltas"].to_pylist())),
            batch_format="pyarrow", batch_size=1,
        )

    def replay_dead_letters(self) -> dict[str, Any]:
        """Re-ingest every committed dead letter through the (presumably
        fixed) decode path as ONE new epoch.

        Dead letters are self-describing ({dialect, payload} in ``aux``),
        so this needs no out-of-band bookkeeping. Re-decoded ops apply
        with their ORIGINAL lsn — LWW means an op that was superseded
        while it sat in the dead-letter queue correctly loses. Rows that
        still fail decode are dead-lettered again under the new epoch.
        The epoch commits with a zero-width offset range at the current
        high-water mark so the tail position never regresses."""
        root = self.store.root / "dead_letters"
        files = sorted(str(f) for f in root.glob("epoch-*/*.parquet")) if root.exists() else []
        ckpt = self.store.read_checkpoint()
        if not files:
            return {"epoch": ckpt.last_epoch, "events": 0, "skipped": True}

        def to_envelopes(t: pa.Table) -> pa.Table:
            auxes = t["aux"].to_pylist()
            dialects, payloads = [], []
            for a in auxes:
                try:
                    d = json.loads(a or "{}")
                    dialects.append(d.get("dialect") or "debezium")
                    payloads.append(d.get("payload") or "")
                except ValueError:  # pre-r3 dead letters stored the raw payload
                    dialects.append("debezium")
                    payloads.append(a or "")
            return pa.table(
                {
                    "lsn": t["lsn"],
                    "source_offset": t["source_offset"],
                    "dialect": pa.array(dialects, pa.string()),
                    "payload": pa.array(payloads, pa.string()),
                }
            )

        env = rd.read_parquet(files).map_batches(to_envelopes, batch_format="pyarrow")
        epoch = ckpt.last_epoch + 1
        hwm = ckpt.next_offset
        res = self.run_epoch(env, epoch=epoch, offset_range=(hwm, hwm))
        # the replayed letters are now applied (or re-dead-lettered under
        # the new epoch) — retire the consumed queue files
        for f in files:
            Path(f).unlink(missing_ok=True)
        return res

    def read_changes(self, epoch: int | None = None, table: str | None = None):
        """Read the COMMITTED change feed (``emit_changes=True`` runs) as
        a Ray Dataset — one epoch's feed or the whole history.

        Commit-gated like ``read_lake``: change files are written by
        apply tasks BEFORE the epoch commits, so a crashed epoch leaves
        orphan files on disk — only epochs ≤ the checkpoint's last
        committed epoch are served (a committed epoch's files are
        deterministic, so a retry rewrites identical bytes). Empty
        epochs (no changes) simply have no files."""
        table = table or self.config.table
        root = self.store.root / "changes"
        last = self.store.read_checkpoint().last_epoch
        if epoch is not None:
            if epoch > last:
                raise ValueError(f"epoch {epoch} not committed (last={last})")
            dirs = [root / f"epoch-{epoch:08d}" / safe_table_dir(table)]
        else:
            dirs = sorted(root.glob("epoch-*")) if root.exists() else []
            dirs = [
                d / safe_table_dir(table)
                for d in dirs
                if int(d.name.split("-")[1]) <= last
            ]
        files = [str(f) for d in dirs if d.exists() for f in sorted(d.glob("changes-*.parquet"))]
        if not files:
            # schema must match real feed files, including schema-evolved
            # extra columns — a consumer unioning per-epoch feeds would
            # otherwise crash only on quiet epochs
            empty = pa.table(
                {
                    "change": pa.array([], pa.string()),
                    "conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int32()),
                    "role": pa.array([], pa.string()),
                    "text": pa.array([], pa.string()),
                    "tool": pa.array([], pa.string()),
                    "ts": pa.array([], pa.timestamp("us")),
                    "lsn": pa.array([], pa.int64()),
                }
            )
            for name, typ in _extra_columns(self.config.registry, table):
                empty = empty.append_column(name, pa.array([], typ))
            return rd.from_arrow(empty)
        return rd.read_parquet(files)

    def _partitions_at(self, epoch: int) -> dict[str, str]:
        """partition → file mapping as of committed epoch ``epoch``."""
        ckpt = self.store.read_checkpoint()
        if epoch > ckpt.last_epoch:
            raise ValueError(f"epoch {epoch} not committed (last={ckpt.last_epoch})")
        from commons_codec_ray.sink.manifest import fold_entry

        partitions: dict[str, Any] = {}
        for e in range(0, epoch + 1):
            try:
                manifest = self.store.read_manifest(e)
            except FileNotFoundError:
                continue
            for pid, info in manifest["files"].items():
                partitions[pid] = fold_entry(
                    partitions.get(pid), info["path"], info.get("kind", "full")
                )
        return partitions

    def compact(self, table: str | None = None) -> dict[str, Any]:
        """Offline small-file compaction — the maintenance analog of a
        lakehouse rewrite-data-files job: fold every partition whose
        checkpoint entry carries a delta chain (``{base, deltas}``) into
        ONE full file, committed as a new ZERO-WIDTH epoch through the
        standard manifest + atomic-checkpoint protocol, so readers never
        observe a partial compaction and a crash mid-compaction leaves
        the delta lake fully intact (staging files are orphaned and
        later vacuumed, exactly like an uncommitted epoch).

        Work is one Ray merge+write task per CHAINED partition —
        already-compact partitions aren't read, rewritten, or mentioned
        in the new manifest (their checkpoint entries carry over), so
        cost is O(chained partitions), never O(lake). The merge kernel
        is exactly the read path's (``merge_base_with_deltas`` LWW +
        tombstone drop), so the compacted lake is byte-equal to the
        merge-on-read view; ``next_offset`` and the registry are carried
        unchanged, so tailing resumes as if nothing happened. Superseded
        base+delta files become reclaimable via :meth:`vacuum`."""
        from commons_codec_ray.sink.manifest import entry_files
        from commons_codec_ray.stages.applier import LSN_COLUMN

        table = table or self.config.table
        t0 = time.time()
        ckpt = self.store.read_checkpoint()
        chains = []
        files_before = 0
        for key, entry in ckpt.partitions.items():
            if key.split("#", 1)[0] != table:
                continue
            base, deltas = entry_files(entry)
            files_before += (1 if base else 0) + len(deltas)
            if deltas:
                chains.append({"key": key, "base": base or "", "deltas": deltas})
        if not chains:
            return {
                "epoch": ckpt.last_epoch,
                "partitions_compacted": 0,
                "skipped": True,
            }
        self._release_runner()  # its state goes stale with this commit
        epoch = ckpt.last_epoch + 1
        self.store.ensure_dirs(epoch)
        root = str(self.store.root)
        extra = _extra_columns(self.config.registry, table)
        chain_files = sum(
            (1 if c["base"] else 0) + len(c["deltas"]) for c in chains
        )

        def compact_one(df) -> pa.Table:
            import os

            from commons_codec_ray.stages.applier import merge_base_with_deltas

            rows: dict[str, list] = {
                "table": [], "partition_id": [], "path": [],
                "rows": [], "max_lsn": [], "kind": [],
            }
            for _, row in df.iterrows():
                base = pq.read_table(Path(root) / row["base"]) if row["base"] else None
                deltas = [pq.read_table(Path(root) / d) for d in row["deltas"]]
                out = merge_base_with_deltas(base, deltas, extra)
                pid = int(str(row["key"]).split("#", 1)[1])
                # same layout as the applier's epoch writes
                # (epochs/epoch-N/<table>/part-XXXX.parquet)
                edir = (
                    Path(root) / "epochs" / f"epoch-{epoch:08d}"
                    / safe_table_dir(table)
                )
                edir.mkdir(parents=True, exist_ok=True)
                path = edir / f"part-{pid:04d}.parquet"
                tmp = path.with_suffix(f".tmp-{os.getpid()}")
                pq.write_table(out, tmp)
                os.replace(tmp, path)  # a retried task rewrites identical bytes
                max_lsn = pc.max(out[LSN_COLUMN]).as_py() if out.num_rows else -1
                rows["table"].append(table)
                rows["partition_id"].append(pid)
                rows["path"].append(str(path.relative_to(root)))
                rows["rows"].append(out.num_rows)
                rows["max_lsn"].append(int(max_lsn if max_lsn is not None else -1))
                rows["kind"].append("full")
            return pa.table(
                {
                    "table": pa.array(rows["table"], pa.string()),
                    "partition_id": pa.array(rows["partition_id"], pa.int32()),
                    "path": pa.array(rows["path"], pa.string()),
                    "rows": pa.array(rows["rows"], pa.int64()),
                    "max_lsn": pa.array(rows["max_lsn"], pa.int64()),
                    "kind": pa.array(rows["kind"], pa.string()),
                }
            )

        lineage = (
            rd.from_items(chains)
            .map_batches(compact_one, batch_format="pandas", batch_size=1)
            .take_all()
        )
        metrics = {
            "maintenance": "compaction",
            "partitions_compacted": len(lineage),
            "files_before": files_before,
            "files_after": files_before - chain_files + len(chains),
            "duration_s": round(time.time() - t0, 3),
        }
        # zero-width offset range: the tail position never regresses and
        # no source offsets are (re)claimed by a maintenance epoch
        final = self.store.commit_epoch(
            epoch,
            lineage,
            (ckpt.next_offset, ckpt.next_offset),
            ckpt.registry_json,
            metrics,
        )
        took = final.last_epoch == epoch and all(
            final.partitions.get(f"{r['table']}#{r['partition_id']}")
            == r["path"]
            for r in lineage
        )
        if not took:
            # a concurrent writer won epoch N: commit_epoch's idempotence
            # guard dropped our commit — the delta lake is untouched and
            # our staged files are vacuum-reclaimable orphans, but the
            # caller must NOT believe the maintenance took effect
            raise RuntimeError(
                f"compaction lost epoch {epoch} to a concurrent commit "
                f"(checkpoint now at epoch {final.last_epoch}); lake "
                "unchanged — retry compact() from the new checkpoint"
            )
        return {"epoch": epoch, "skipped": False, **metrics}

    def metrics(self) -> dict[str, Any]:
        """Aggregated throughput / lag counters from the epoch manifests
        (the north star's per-partition lineage + metrics surface).

        ``wall_s_total`` sums the epochs' ``duration_s``. A replay submits
        an epoch's decode tasks while the previous epoch flushes, but
        ``duration_s`` runs from the epoch's own start, so the epochs'
        durations do not overlap and no second is counted twice.
        ``stages_s_total`` sums the epochs' ``metrics.stages`` (see
        ``_apply_epoch``)."""
        ckpt = self.store.read_checkpoint()
        out: dict[str, Any] = {
            "last_epoch": ckpt.last_epoch,
            "next_offset": ckpt.next_offset,
            "partitions": len(ckpt.partitions),
            "events_total": 0,
            "dead_letters_total": 0,
            "schema_events_total": 0,
            "late_events_total": 0,
            "watermark_us": None,
            "wall_s_total": 0.0,
            "stages_s_total": {},
            "epochs": [],
        }
        for e in range(0, ckpt.last_epoch + 1):
            try:
                m = self.store.read_manifest(e)
            except FileNotFoundError:
                continue
            met = m.get("metrics", {})
            out["events_total"] += met.get("events", 0)
            out["dead_letters_total"] += met.get("dead_letters", 0)
            out["schema_events_total"] += met.get("schema_events", 0)
            out["wall_s_total"] += met.get("duration_s", 0.0)
            out["late_events_total"] += met.get("late_events", 0)
            for stage, secs in met.get("stages", {}).items():
                out["stages_s_total"][stage] = out["stages_s_total"].get(stage, 0.0) + secs
            if met.get("max_event_ts_us") is not None:
                out["watermark_us"] = max(
                    out["watermark_us"] or 0, met["max_event_ts_us"]
                )
            out["epochs"].append(
                {
                    "epoch": e,
                    "offset_range": m.get("offset_range"),
                    "events": met.get("events", 0),
                    "late_events": met.get("late_events", 0),
                    "max_event_ts_us": met.get("max_event_ts_us"),
                    "appliers": met.get("appliers"),
                    "stages": met.get("stages"),
                    "events_per_s": round(
                        met.get("events", 0) / met["duration_s"], 1
                    )
                    if met.get("duration_s")
                    else None,
                }
            )
        if out["wall_s_total"]:
            out["events_per_s_overall"] = round(out["events_total"] / out["wall_s_total"], 1)
        return out

    def lag(self, source_max_offset: int) -> int:
        """Ingest lag: offsets not yet committed, given the source head."""
        return max(0, source_max_offset - self.store.read_checkpoint().next_offset)

    def checkpoint(self) -> Checkpoint:
        return self.store.read_checkpoint()

    def vacuum(
        self, keep_last: int | None = None, dry_run: bool = False
    ) -> dict[str, Any]:
        """Reclaim files no retained reader can reach — the maintenance
        analog of a lakehouse VACUUM. Two classes go in one walk:

        **Orphans** (always reclaimed): because the COMMIT POINT is the
        atomic checkpoint swap (manifest.py), every crash mode leaves
        only ever-unreferenced garbage — partition files written before
        a manifest, whole epochs whose manifest landed but whose
        checkpoint swap didn't (the epoch number is reused by the
        resumed run), staged compaction outputs, and stranded
        ``*.tmp-*`` atomic-write staging files. None are reachable by
        readers, so deleting them can never change a query result — the
        safety property the ``cdc_vacuum`` oracle pins.

        **Expired history** (only when ``keep_last`` is set): files
        referenced ONLY by snapshots older than the last ``keep_last``
        committed epochs — Delta's ``VACUUM RETAIN``; bounds
        ``read_lake(epoch=...)`` time travel to the retained window.
        ``keep_last=None`` (default) retains every committed snapshot;
        ``keep_last=0`` keeps only the current state. Retention is
        computed from the reconstructed partition VIEW at each retained
        epoch (a snapshot needs files committed long before it), never
        from manifest age alone.

        Offline maintenance like :meth:`compact`: don't run concurrently
        with an ingest epoch (its not-yet-committed files would look
        like orphans). Metadata-only cost — O(epochs) manifest reads +
        one directory walk; data files are never read."""
        from commons_codec_ray.sink.manifest import entry_files

        def paths_of(entries) -> set[str]:
            out: set[str] = set()
            for entry in entries:
                base, deltas = entry_files(entry)
                if base:
                    out.add(base)
                out.update(deltas)
            return out

        t0 = time.time()
        store = self.store
        ckpt = store.read_checkpoint()
        live = paths_of(ckpt.partitions.values())
        referenced = set(live)
        if keep_last is None:
            # retain all history: any file any committed manifest ever
            # named (every snapshot's view is a subset of this union)
            for e in range(ckpt.last_epoch + 1):
                try:
                    m = store.read_manifest(e)
                except FileNotFoundError:
                    continue
                for info in (m.get("files") or {}).values():
                    referenced.add(info["path"])
        else:
            # retain the views of the last keep_last snapshots only
            for e in range(max(0, ckpt.last_epoch - keep_last), ckpt.last_epoch + 1):
                try:
                    referenced.update(paths_of(self._partitions_at(e).values()))
                except ValueError:
                    continue
        root = store.root
        epochs_root = root / "epochs"
        removed: list[str] = []
        n_scanned = 0
        bytes_reclaimed = 0
        if epochs_root.exists():
            for p in sorted(epochs_root.rglob("*.parquet")):
                n_scanned += 1
                rel = p.relative_to(root).as_posix()
                if rel in referenced:
                    continue
                removed.append(rel)
                bytes_reclaimed += p.stat().st_size
                if not dry_run:
                    p.unlink()
            # stranded atomic-write staging files are garbage in every
            # state — os.replace either happened (tmp gone) or didn't
            for p in sorted(epochs_root.rglob("*.tmp-*")):
                removed.append(p.relative_to(root).as_posix())
                bytes_reclaimed += p.stat().st_size
                if not dry_run:
                    p.unlink()
            # uncommitted epoch dirs (manifest written, checkpoint swap
            # never happened): drop the stale manifest + empty dir so the
            # resumed run's reuse of the epoch number starts clean
            for d in sorted(epochs_root.iterdir()):
                mnum = re.fullmatch(r"epoch-(\d{8})", d.name)
                if not mnum or int(mnum.group(1)) <= ckpt.last_epoch:
                    continue
                stale = d / "manifest.json"
                if stale.exists():
                    removed.append(stale.relative_to(root).as_posix())
                    bytes_reclaimed += stale.stat().st_size
                    if not dry_run:
                        stale.unlink()
                if not dry_run and not any(d.iterdir()):
                    d.rmdir()
        return {
            "dry_run": dry_run,
            "keep_last": keep_last,
            "files_scanned": n_scanned,
            "files_live": len(live),
            "files_referenced": len(referenced),
            "orphans_removed": len(removed),
            "bytes_reclaimed": bytes_reclaimed,
            "orphan_paths": removed,
            "duration_s": round(time.time() - t0, 3),
        }


def _parquet_files(path: str) -> list[str]:
    import os

    if os.path.isdir(path):
        return sorted(str(p) for p in Path(path).rglob("*.parquet"))
    return [path]


def _max_column_value(parquet_path: str, column: str) -> int:
    """Max of an int column from Parquet row-group statistics (no scan)."""
    paths = _parquet_files(parquet_path)
    best = -1
    for p in paths:
        md = pq.ParquetFile(p).metadata
        idx = {md.schema.column(i).name: i for i in range(md.num_columns)}[column]
        for rg in range(md.num_row_groups):
            stats = md.row_group(rg).column(idx).statistics
            if stats is not None and stats.has_min_max:
                best = max(best, stats.max)
            else:  # fall back to a column scan for this file
                col = pq.read_table(p, columns=[column])[column]
                best = max(best, pc.max(col).as_py())
                break
    return best

"""The decode stage: envelope batches → op-record batches.

A callable CLASS for ``map_batches(DecodeEnvelopes(cfg), ...)`` — per-actor
setup (decoder dispatch table, column-type coercers, which columnar
builders apply) happens once in ``__init__``; per-batch work is
``__call__``. Everything after the parse (timestamp parsing, partition
assignment, LWW combine) is vectorized Arrow/numpy.

Two paths decode a batch, and a source row's outputs all come from one:

- Columnar builders (``decode/dialects.py::COLUMNAR``) for the three
  dialects ``EventsToEnvelopes`` emits. Each dialect group of at least
  ``MIN_GROUP_ROWS`` rows is parsed by one ``pyarrow.json.read_json``
  call under the builder's explicit schema, checked with vectorized
  predicates, and emitted as op columns. Measured by
  ``tools/decode_kernel_bench.py`` on the ``replay_update`` seed-1 log
  (1 vCPU, interleaved min of 15, PERF.md "Columnar decode"): 3.1
  µs/event against 6.4 for the row loop on 12.5k-row batches, of which
  the parse is ~2.3. A group costs ~1 ms whatever its size, so smaller
  groups stay in the row loop. (An earlier measurement, ~6.0 µs/event
  for the parse alone, used one schema for all three dialects on
  another box; per-dialect schemas parse in well under half that.)
  Arrow stops at the first row that breaks the schema; the parse
  resumes after a row it names, so one mistyped row costs a re-parse
  of the rows before it, not the group (``_parse_group``).
- The row loop: ``orjson`` parse, dialect decoder, per-row checks and
  spill, one envelope at a time. It decodes every row a builder does
  not take — controls, poison, the other five dialects, rows Arrow
  rejects (a mistyped field, a duplicate key), dialect groups that carry
  a field the builder's schema lacks — and whole batches for
  the universal layout, treatment rules and OBJECT/MAP columns. It is
  the reference the builders are tested against
  (``tests/test_columnar_decode.py``).

Dead letters: undecodable envelopes become OP_DEAD rows carrying the
error and raw payload (in ``aux``) instead of failing the task, also
when one field has the wrong type (a non-string ``role``/``text``/
``tool``/``ts``, a ``turn_idx`` that is no int32). Downstream they are
split off to a dead-letter sink. The reference
instead raises per event (transform/dynamodb.py:180-214,
transform/aws_dms.py:163-166); at 10^10 events a poison message must not
kill the job.

The ``combine=True`` mode runs a within-batch last-writer-wins partial
reduce before the shuffle (same idea as a combiner before a groupby):
only the max-LSN op per (conv_id, turn_idx) leaves the batch, shrinking
the all-to-all exchange under update-heavy workloads.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.json as pj

try:  # orjson ships with Ray; ~4× faster loads. Fallback: stdlib.
    import orjson

    _loads = orjson.loads
except ImportError:  # pragma: no cover
    _loads = json.loads

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.decode.dialects import (
    COLUMNAR,
    DECODERS,
    INT32_MAX,
    INT32_MIN,
    MessageFormatError,
    extract_table,
)
from commons_codec_ray.hashing import partition_ids_for, shuffle_keys_for
from commons_codec_ray.schemas import OP_DEAD, OP_DELETE, OP_UPSERT, OPS_SCHEMA
from commons_codec_ray.stages.applier import lww_combine_batch

_KNOWN = frozenset(("conv_id", "turn_idx", "role", "text", "tool", "ts"))
# A builder costs ~1 ms a group whatever its size (the read_json call and
# ~50 Arrow kernel calls) and saves ~4 µs an envelope, so below this many
# envelopes a dialect group decodes faster in the row loop
# (tools/decode_kernel_bench.py, PERF.md "Columnar decode").
MIN_GROUP_ROWS = 512


def object_columns(config: PipelineConfig) -> frozenset[str]:
    """The configured table's OBJECT/MAP columns: the only registry input
    of :class:`DecodeEnvelopes` that a control event can change."""
    ctypes = config.registry.column_types.get(config.table, {})
    return frozenset(
        name for name, t in ctypes.items() if (t or "").upper() in ("OBJECT", "MAP")
    )


class DecodeEnvelopes:
    """Envelope decode stage.

    ``layout`` selects the target record layout, mirroring the
    reference's per-table DIRECT vs UNIVERSAL mapping strategy
    (``DMSTranslatorCrateDBRecordFactory``, reference
    transform/aws_dms.py:86-115):

    - ``"direct"`` (default): 1:1 typed columns (reference
      transform/aws_dms.py:350-417) — ``role/text/tool/ts`` as real
      columns, unknown fields spill to ``aux``.
    - ``"universal"``: 3-bucket layout (reference
      transform/aws_dms.py:249-347): typed key columns + the full
      non-key image serialized into a ``data`` JSON column (the
      ``OBJECT(DYNAMIC)`` analog) + ``aux`` for varied fields. The
      direct columns stay null.

    Columns registered in the column-type map as ``OBJECT``/``MAP``
    that arrive as JSON strings are re-parsed before routing — the
    reference's ``decode_data`` behavior (transform/aws_dms.py:207-224).
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        combine: bool = True,
        layout: str = "direct",
    ):
        self.config = config or PipelineConfig()
        self.combine = combine
        self.layout = layout
        self.decoders = dict(DECODERS)
        self.loads = _loads
        self.object_columns = object_columns(self.config)
        # declarative per-table transform rules from the registry —
        # loaded ONCE per actor (load-once-per-worker pattern)
        from commons_codec_ray.decode.treatments import load_treatments

        self.treatments = load_treatments(self.config.registry.treatments)
        # the columnar builders cover the direct layout with no per-row
        # rewrite; anything else decodes in the row loop
        plain = layout == "direct" and not self.treatments and not self.object_columns
        self.builders = dict(COLUMNAR) if plain else {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        payload = batch["payload"].combine_chunks()
        dialect = batch["dialect"].combine_chunks()
        parts = []  # (source rows, columns) per path
        rest = np.ones(batch.num_rows, dtype=bool)  # rows for the row loop
        if self.builders and batch.num_rows >= MIN_GROUP_ROWS:
            groups = dialect.dictionary_encode()
            codes = groups.indices.to_numpy(zero_copy_only=False)
            for k, name in enumerate(groups.dictionary.to_pylist()):
                spec = self.builders.get(name)
                group = np.flatnonzero(codes == k) if spec is not None else ()
                if len(group) < MIN_GROUP_ROWS:
                    continue
                parsed = _parse_group(spec.schema, payload, group)
                if parsed is None:
                    continue
                taken, records = parsed
                took = spec.build(records, self.config.table)
                rest[taken[took.ok]] = False
                none = pa.nulls(len(took.parent), pa.string())
                parts.append((taken[took.parent], {**took.cols, "aux": none, "error": none}))
        if rest.any() or not parts:
            rows = None if rest.all() else np.flatnonzero(rest)
            parts.append(self._decode_rows(payload, dialect, rows))
        return self._finish(batch, parts)

    def _decode_rows(
        self, payload: pa.Array, dialect: pa.Array, rows: np.ndarray | None
    ) -> tuple[np.ndarray, dict[str, pa.Array]]:
        """The row loop: decode ``rows`` (None: all) one envelope at a
        time. Returns their source rows and op columns."""
        if rows is not None:
            sel = pa.array(rows)
            payload, dialect = payload.take(sel), dialect.take(sel)
        else:
            rows = np.arange(len(payload))
        payloads = payload.to_pylist()
        dialects = dialect.to_pylist()

        # the row (into ``rows``) of each output, then one list per column
        src: list[int] = []
        cols = {name: [] for name in _ROW_TYPES}
        columns = [src, *cols.values()]
        ops, table_col, conv_id, turn_idx, role, text, tool, ts_raw, data_col, aux, error = (
            cols.values()
        )

        loads = self.loads
        decoders = self.decoders
        universal = self.layout == "universal"
        object_columns = self.object_columns
        treatments = self.treatments
        default_table = self.config.table

        def dead(i: int, tname: str, err: str) -> None:
            for col in columns:
                col.append(None)
            src[-1], ops[-1], table_col[-1], error[-1] = i, OP_DEAD, tname, err
            # self-describing dead letter: dialect + raw payload, so
            # replay_dead_letters can re-ingest through the right
            # decoder after a fix without out-of-band bookkeeping
            aux[-1] = json.dumps({"dialect": dialects[i], "payload": payloads[i]})

        for i in range(len(payloads)):
            mark = len(src)
            try:
                parsed = loads(payloads[i])
                decoded = decoders[dialects[i]](parsed)
                tname = extract_table(parsed, default_table)
                if not isinstance(tname, str):
                    raise MessageFormatError(f"table name {tname!r} is not a string")
                treatment = treatments.get(tname) if treatments else None
                for op, rec, extra in decoded:
                    if treatment is not None and rec:
                        rec = treatment(rec)
                    cid = rec.get("conv_id")
                    ti = rec.get("turn_idx")
                    if (
                        not universal
                        and cid is None
                        and ti is None
                        and op in (OP_UPSERT, OP_DELETE)
                    ):
                        # direct layout: (conv_id, turn_idx) IS the lake
                        # key, so a data op carrying neither can only
                        # merge into a phantom (null, null) row — the
                        # silent-delete hazard. Dead-letter it
                        # (self-describing, replayable) instead. The
                        # universal layout keeps such rows: its untyped
                        # bucket addresses pk-less records by content hash.
                        dead(i, tname, "NullKeyError: data op without key columns")
                        continue
                    if ti is not None:
                        ti = int(ti)
                        if not INT32_MIN <= ti <= INT32_MAX:
                            raise MessageFormatError(f"turn_idx {ti} out of int32 range")
                    if object_columns:
                        # registered MAP/OBJECT columns arriving as JSON
                        # strings are re-parsed (ref transform/aws_dms.py:207-224)
                        for name in object_columns:
                            v = rec.get(name)
                            if isinstance(v, str):
                                try:
                                    rec[name] = loads(v)
                                except Exception:  # noqa: BLE001 — keep raw string
                                    pass
                    if universal:
                        typed = (None, None, None, None)
                        doc = {k: v for k, v in rec.items() if k not in ("conv_id", "turn_idx")}
                        data_col.append(
                            json.dumps(doc, default=str, sort_keys=True) if doc else None
                        )
                    else:
                        typed = (rec.get("role"), rec.get("text"), rec.get("tool"), rec.get("ts"))
                        if not (
                            type(typed[0]) in _STR_OR_NONE
                            and type(typed[1]) in _STR_OR_NONE
                            and type(typed[2]) in _STR_OR_NONE
                            and type(typed[3]) in _STR_OR_NONE
                        ):
                            _check_strings(typed)
                        data_col.append(None)
                    src.append(i)
                    ops.append(op)
                    table_col.append(tname)
                    conv_id.append(str(cid) if cid is not None else None)
                    turn_idx.append(ti)
                    role.append(typed[0])
                    text.append(typed[1])
                    tool.append(typed[2])
                    ts_raw.append(typed[3])
                    # fast path: the overwhelmingly common record has ONLY
                    # known fields — skip the per-row dictcomp entirely
                    spill = (
                        None
                        if universal or rec.keys() <= _KNOWN
                        else {k: v for k, v in rec.items() if k not in _KNOWN}
                    )
                    if extra:
                        spill = dict(spill or {})
                        spill.update(extra)
                    aux.append(json.dumps(spill, default=str, sort_keys=True) if spill else None)
                    error.append(None)
            except Exception as exc:  # noqa: BLE001 — any poison envelope → dead letter
                for col in columns:  # one dead row stands for the whole envelope
                    del col[mark:]
                dead(i, default_table, f"{type(exc).__name__}: {exc}")

        arrays = {
            name: pa.array(col, type=_ROW_TYPES[name])
            for name, col in cols.items()
            if universal or name != "data"
        }
        return rows[np.asarray(src, dtype=np.int64)], arrays

    def _finish(self, batch: pa.Table, parts: list) -> pa.Table:
        """Restore input order across the paths, then the vectorized
        tail: timestamps, partition ids, exchange keys, combine."""
        universal = self.layout == "universal"
        src = np.concatenate([p[0] for p in parts])
        names = [n for n in _ROW_TYPES if universal or n != "data"]
        if len(parts) == 1:
            cols = parts[0][1]
        else:
            # a source row's outputs all come from one path, in order, so
            # one stable sort on the source row restores the input order
            order = np.argsort(src, kind="stable")
            src = src[order]
            idx = pa.array(order)
            cols = {
                n: pa.concat_arrays([p[1][n] for p in parts]).take(idx) for n in names
            }
        src_idx = pa.array(src)

        # ISO strings → timestamp[us] via a single vectorized Arrow cast;
        # if ANY string is malformed/out-of-range the cast throws, so fall
        # back to per-row parsing with clamp-to-epoch-0 semantics
        # (mirroring the reference's out-of-range date clamping,
        # transform/mongodb.py:130-134) — the rare path by construction.
        ts_col = _cast_timestamps(cols["ts"])
        conv_col = cols["conv_id"]
        # dictionary-encoded: usually one distinct table per stream — the
        # exchange then carries int8 indices, not a string per row
        table_arr = cols["table_name"].dictionary_encode()
        pid_arr = partition_ids_for(conv_col, self.config.num_partitions)
        out = {
            "op": cols["op"],
            "table_name": table_arr,
            "conv_id": conv_col,
            "turn_idx": cols["turn_idx"],
            "role": cols["role"],
            "text": cols["text"],
            "tool": cols["tool"],
            "ts": ts_col,
            "aux": cols["aux"],
            "lsn": batch["lsn"].take(src_idx).combine_chunks(),
            "source_offset": batch["source_offset"].take(src_idx).combine_chunks(),
            "partition_id": pid_arr,
            # packed int exchange key — shuffling on (string, int) pairs
            # costs a string sort; see hashing.shuffle_keys_for
            "shuffle_key": shuffle_keys_for(table_arr, pid_arr),
            "error": cols["error"],
        }
        if universal:
            out["data"] = cols["data"]
            tbl = pa.table(out)
        else:
            tbl = pa.table(out, schema=OPS_SCHEMA)
        if self.combine:
            tbl = lww_combine_batch(tbl)
        return tbl


_STR_OR_NONE = frozenset((str, type(None)))


def _check_strings(typed: tuple) -> None:
    """Raise for the first of ``role``/``text``/``tool``/``ts`` that is
    neither None nor a string."""
    for name, v in zip(("role", "text", "tool", "ts"), typed):
        if v is not None and not isinstance(v, str):
            raise MessageFormatError(f"{name}: expected a string, got {type(v).__name__}")


# the row loop's output columns
_ROW_TYPES = {
    "op": pa.int8(),
    "table_name": pa.string(),
    "conv_id": pa.string(),
    "turn_idx": pa.int32(),
    "role": pa.string(),
    "text": pa.string(),
    "tool": pa.string(),
    "ts": pa.string(),
    "data": pa.string(),
    "aux": pa.string(),
    "error": pa.string(),
}


def _parse_group(
    schema: pa.Schema, payload: pa.Array, rows: np.ndarray
) -> tuple[np.ndarray, pa.RecordBatch] | None:
    """Parse the payloads of ``rows`` under ``schema`` with
    ``pyarrow.json.read_json``. Returns (rows parsed, their records), or
    None when no row parsed; rows not returned are left to the row loop.

    A payload joins the group only if it starts with ``{`` and ends with
    ``}``. Arrow parses the newline-joined group as a stream of values,
    so a payload holding no object, or two, or a value left open, would
    shift the rows after it; a payload of that shape that still parses
    can only yield two records or close the object the next one opens,
    and the row count or the parse catches both.

    Arrow stops at the first row that breaks ``schema`` (a mistyped
    field, a duplicate key, a field the schema lacks). When its error
    names that row, the row goes to the row loop and the parse resumes
    after it; the rows before it are parsed again in one call at the
    end. Every parse that is kept is checked by its row count, so a
    wrong row number costs time, not correctness. The split pays only
    where rejected rows are sparse, so the parse gives up on the rest of
    the group once it has read fewer than ``_ROWS_PER_SPLIT`` rows per
    rejected row, and at once when the error names no row (a field the
    schema lacks)."""
    group = payload if len(rows) == len(payload) else payload.take(pa.array(rows))
    framed = _framed(group)
    if not framed.all():
        rows, group = rows[framed], group.filter(pa.array(framed))
    if not len(rows):
        return None
    joined = pc.binary_join_element_wise(group, "", "\n")
    offsets = _offsets(joined)
    buf = joined.buffers()[2].slice(offsets[0], offsets[-1] - offsets[0])
    starts = offsets - offsets[0]  # row i is buf[starts[i]:starts[i + 1]]

    bad: list[int] = []  # rows Arrow rejected, ascending
    start, tail = 0, None  # tail: the records of rows[start:]
    while start < len(rows):
        try:
            tail = _read_json(schema, buf.slice(starts[start]))
            break
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError) as exc:
            m = _BAD_ROW.search(str(exc))
            n = int(m.group(1)) if m else -1
            if not 0 <= n < len(rows) - start or (len(bad) + 1) * _ROWS_PER_SPLIT > start + n:
                break
            bad.append(start + n)
            start += n + 1

    taken, parts = [], []
    if start > len(bad):  # rows before ``start`` that Arrow did not reject
        keep = np.ones(start, dtype=bool)
        keep[bad] = False
        view = memoryview(buf)
        ends = [-1, *bad]
        head = pa.py_buffer(b"".join(view[starts[i + 1] : starts[j]] for i, j in zip(ends, bad)))
        try:
            records = _read_json(schema, head)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            records = None
        if records is not None and records.num_rows == keep.sum():
            taken.append(rows[:start][keep])
            parts.append(records)
    if tail is not None and tail.num_rows == len(rows) - start:
        taken.append(rows[start:])
        parts.append(tail)
    if not parts:
        return None
    return np.concatenate(taken), pa.concat_tables(parts).combine_chunks().to_batches()[0]


# Arrow's JSON errors end with the row they stopped at
_BAD_ROW = re.compile(r" in row (\d+)$")
# The rows before a rejected row are parsed twice, so the builder then
# saves ~0.9 µs a row (6.4 for the row loop, 2 × 2.4 parse, 0.7 build)
# and pays the failed call's ~100 µs after ~110 rows; 256 leaves a margin
# (tools/decode_kernel_bench.py ``mistyped`` and ``rare`` logs).
_ROWS_PER_SPLIT = 256


def _offsets(strings: pa.Array) -> np.ndarray:
    """The n + 1 value offsets of a (large) string array."""
    dtype = np.int64 if pa.types.is_large_string(strings.type) else np.int32
    return np.frombuffer(strings.buffers()[1], dtype=dtype)[
        strings.offset : strings.offset + len(strings) + 1
    ]


def _framed(strings: pa.Array) -> np.ndarray:
    """Which strings start with ``{`` and end with ``}``, read off the
    value buffer (null → False)."""
    offsets = _offsets(strings)
    begin, end = offsets[:-1], offsets[1:]
    framed = end - begin >= 2
    if strings.null_count:
        framed &= strings.is_valid().to_numpy(zero_copy_only=False)
    if framed.any():
        data = np.frombuffer(strings.buffers()[2], dtype=np.uint8)
        framed[framed] = (data[begin[framed]] == ord("{")) & (data[end[framed] - 1] == ord("}"))
    return framed


def _read_json(schema: pa.Schema, buf: pa.Buffer) -> pa.Table:
    return pj.read_json(
        pa.BufferReader(buf),
        # one block: Arrow then reads the buffer as one value stream
        read_options=pj.ReadOptions(use_threads=False, block_size=buf.size + 1),
        parse_options=pj.ParseOptions(explicit_schema=schema, unexpected_field_behavior="error"),
    )


def _clamp_ts_range(arr: pa.Array) -> pa.Array:
    """One clamp policy for BOTH cast paths: absurd-but-parseable dates
    (year < 2 or >= 2300) → epoch 0, so a value's output never depends
    on whether a batch-mate forced the per-row fallback."""
    import datetime as dt

    lo = pa.scalar(dt.datetime(2, 1, 1), type=arr.type)
    hi = pa.scalar(dt.datetime(2300, 1, 1), type=arr.type)
    bad = pc.or_(pc.less(arr, lo), pc.greater_equal(arr, hi))
    if not pc.any(bad).as_py():
        return arr
    return pc.if_else(bad, pa.scalar(dt.datetime(1970, 1, 1), type=arr.type), arr)


def _cast_timestamps(ts: pa.Array | list) -> pa.Array:
    arr = pa.array(ts, type=pa.string()) if isinstance(ts, list) else ts
    try:
        return _clamp_ts_range(arr.cast(pa.timestamp("us")))
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
        import datetime as dt

        epoch0 = dt.datetime(1970, 1, 1)
        out = []
        for s in arr.to_pylist():
            if s is None:
                out.append(None)
                continue
            try:
                t = dt.datetime.fromisoformat(str(s).replace("Z", "+00:00"))
                if t.tzinfo is not None:
                    t = t.astimezone(dt.timezone.utc).replace(tzinfo=None)
                if not (dt.MINYEAR < t.year < 2300):
                    t = epoch0  # clamp absurd-but-parseable dates
                out.append(t)
            except ValueError:
                out.append(epoch0)  # unparseable → clamp to epoch 0
        return pa.array(out, type=pa.timestamp("us"))


def split_dead_letters(ops: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(good ops, dead letters) from a decoded batch."""
    mask = pc.equal(ops["op"], OP_DEAD)
    return ops.filter(pc.invert(mask)), ops.filter(mask)

"""The workloads. Each returns its raw measurements; run.py turns them
into the metrics it prints.

All calls into the engine go through ``h.call`` (hang guard, failure
count and, in a traced run, a root span) and use public entry points:
``CDCPipeline.replay`` / ``read_lake`` with ``mode="actors"`` and
``__ray_entry__.queries()``.
"""

from __future__ import annotations

import math
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

import inputs

NUM_PARTITIONS = 64


def _canonical(tbl: pa.Table) -> pa.Table:
    from commons_codec_ray.pipelines.oracle import sorted_canonical

    return sorted_canonical(tbl.select(["conv_id", "turn_idx", "role", "text", "tool", "ts"]))


def _check_lake(h, what: str, got: pa.Table, want: pa.Table) -> None:
    got = _canonical(got)
    if got.num_rows != want.num_rows or not got.equals(want.cast(got.schema)):
        h.mismatch(what, f"lake rows {got.num_rows}, oracle rows {want.num_rows}")


def _read_full(pipe) -> pa.Table:
    """Full scan of the committed lake: read_lake() materialised on the driver."""
    import ray

    ds = pipe.read_lake()
    return pa.concat_tables(ray.get(ds.to_arrow_refs()), promote_options="permissive")


def _config(epoch_size: int):
    from commons_codec_ray.config import PipelineConfig

    return PipelineConfig(num_partitions=NUM_PARTITIONS, epoch_size=epoch_size)


# --- replay_update ----------------------------------------------------------
def replay_update(h) -> dict:
    """Replays of the amplified update log into an empty lake, 2 epochs each."""
    from commons_codec_ray.pipelines.cdc import CDCPipeline

    d = inputs.prepare(h.work, "replay_update", h.seed)
    meta = inputs.read_meta(d)
    events = meta["events"]
    want = _canonical(pq.read_table(d / "expected.parquet"))
    log = str(d / "log")
    # two epochs: half of the log's offset range each
    epoch_size = math.ceil(inputs.REPLAY_ROUNDS * inputs.REPLAY_ROUND_EVENTS / 2)
    h.set_up()
    h.trace_layers()
    walls: list[float] = []
    # Each replay gets its own lake, removed with the run directory when
    # the run ends: removing it sooner races with read tasks that Ray
    # Data may still be running.
    end = time.perf_counter() + h.seconds
    while not walls or time.perf_counter() + walls[-1] <= end:
        lake = h.run_dir / f"lake-{len(walls)}"
        pipe = CDCPipeline(lake, _config(epoch_size))
        t0 = time.perf_counter()
        h.call("replay", pipe.replay, log, mode="actors")
        walls.append(time.perf_counter() - t0)
        got = h.call("read_lake", _read_full, pipe)
        h.note_read(pipe)
        _check_lake(h, "replay lake", got, want)
    h.untrace_layers()
    out = {
        "roots": len(walls),
        "events_per_s": statistics.median(events / w for w in walls),
        "latency_s": statistics.median(walls),
        "events": events * len(walls),
        "oracle.events_per_s": events / meta["oracle_s"],
        "samples": {"replay_s": walls},
    }
    if h.traced:
        rounds = sorted((d / "log").glob("*.parquet"))
        envs = [pq.read_table(p) for p in rounds[:2]]
        from commons_codec_ray.stages.applier import apply_ops_to_base

        base = apply_ops_to_base(None, _data_ops(_decode(envs[0])[0]))
        out["kernel"] = _kernel(h, envs[1], base)
    return out


# --- graph_iterative ---------------------------------------------------------
def graph_iterative(h) -> dict:
    """Rounds over the five iterative graph operators, each result checked
    against its SQL oracle.

    An operator takes part in a round until its calls have used its share
    of ``--seconds`` (a fifth), with one call at least. The cheap
    operators so get several calls each and sssp, at ~18 s a call, gets
    one, and each operator carries the same weight in the reported
    latency: the geometric mean of the operators' median call times."""
    import pandas as pd

    import __ray_entry__
    from tools.check_queries import normalize, to_pandas

    d = inputs.prepare(h.work, "graph_iterative", h.seed)
    n_events = inputs.read_meta(d)["events"]
    queries = __ray_entry__.queries()

    def run(metric: str) -> float:
        q = inputs.GRAPH_QUERIES[metric]
        t0 = time.perf_counter()
        got = h.call(q, lambda: to_pandas(queries[q](str(d))))
        wall = time.perf_counter() - t0
        got = normalize(got)
        want = normalize(pd.read_parquet(d / "expected" / f"{q}.parquet"))
        try:
            pd.testing.assert_frame_equal(
                got, want.astype(got.dtypes.to_dict()), check_dtype=False, check_exact=True
            )
        except (AssertionError, ValueError, TypeError) as exc:
            h.mismatch(q, str(exc)[:300])
        return wall

    h.set_up()
    h.trace_layers()
    share = h.seconds / len(inputs.GRAPH_QUERIES)
    walls: dict[str, list[float]] = {m: [] for m in inputs.GRAPH_QUERIES}
    while due := [m for m, ws in walls.items() if sum(ws) < share]:
        for m in due:
            walls[m].append(run(m))
    h.untrace_layers()
    medians = {m: statistics.median(ws) for m, ws in walls.items()}
    n_calls = sum(len(ws) for ws in walls.values())
    return {
        "roots": n_calls,
        "events_per_s": n_events * n_calls / sum(map(sum, walls.values())),
        "latency_s": statistics.geometric_mean(medians.values()),
        "events": n_events * n_calls,
        "graph": medians,
        "samples": {"query_s": walls},
    }


# --- kernel pass ---------------------------------------------------------------
def _decode(envelopes: pa.Table) -> tuple[pa.Table, float]:
    from commons_codec_ray.config import PipelineConfig
    from commons_codec_ray.stages.decode_stage import DecodeEnvelopes

    decode = DecodeEnvelopes(PipelineConfig(num_partitions=NUM_PARTITIONS), combine=True)
    t0 = time.perf_counter()
    ops = decode(envelopes)
    return ops, time.perf_counter() - t0


def _data_ops(ops: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    from commons_codec_ray.schemas import OP_SCHEMA_CHANGE

    return ops.filter(pc.less(ops["op"], pa.scalar(OP_SCHEMA_CHANGE, pa.int8())))


def _kernel(h, envelopes: pa.Table, base: pa.Table) -> dict:
    """Worker-side layers called in-process on the workload's inputs:
    decode one log file or batch, merge its ops into the workload's
    state as one partition, write the result."""
    import pyarrow.compute as pc

    from commons_codec_ray.schemas import OP_DEAD
    from commons_codec_ray.stages.applier import apply_ops_to_base

    _decode(envelopes.slice(0, 1000))  # first-call imports
    ops, decode_s = _decode(envelopes)
    data = _data_ops(ops)
    t0 = time.perf_counter()
    merged = apply_ops_to_base(base, data)
    lww_s = time.perf_counter() - t0
    path = h.run_dir / "kernel.parquet"
    t0 = time.perf_counter()
    pq.write_table(merged, path)
    write_s = time.perf_counter() - t0
    path.unlink()
    n = envelopes.num_rows
    return {
        "decode.us_per_event": 1e6 * decode_s / n,
        "decode.combine_ratio": ops.num_rows / n,
        "decode.bytes_out_per_event": ops.nbytes / n,
        "decode.dead_letters": int(pc.sum(pc.equal(ops["op"], OP_DEAD)).as_py() or 0),
        "lww.us_per_row": 1e6 * lww_s / (base.num_rows + data.num_rows),
        "sink.write_us_per_row": 1e6 * write_s / merged.num_rows,
    }


WORKLOADS = {
    "replay_update": replay_update,
    "graph_iterative": graph_iterative,
}

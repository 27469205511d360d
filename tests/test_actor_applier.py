"""Actor apply path: the decode tasks' hash split, and a replay on a Ray
cluster with ONE logical CPU."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.schemas import OP_SCHEMA_CHANGE
from commons_codec_ray.stages.actor_applier import decode_split_task, plan_file_slices
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120

_SCRIPT = textwrap.dedent(
    """
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    try:
        from commons_codec_ray import util
        from commons_codec_ray.config import PipelineConfig
        from commons_codec_ray.envelopes import EventsToEnvelopes
        from commons_codec_ray.pipelines.cdc import CDCPipeline
        from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical

        sf_dir, work = sys.argv[1], sys.argv[2]
        env = EventsToEnvelopes(duplicates=True)(pq.read_table(f"{sf_dir}/events.parquet"))
        log = f"{work}/envelopes.parquet"
        pq.write_table(env.sort_by("lsn"), log, row_group_size=200)
        pipe = CDCPipeline(f"{work}/lake", PipelineConfig(num_partitions=16, epoch_size=300))
        util.DRIVER_POOL_ROWS = 0  # spawn the appliers: this log is far below it
        results = pipe.replay(log, epoch_size=300)
        cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
        got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()).select(cols))
        want = sorted_canonical(replay_envelopes(pq.read_table(log)).select(cols))
        assert len(results) >= 3, results
        assert {m["appliers"] for m in pipe.metrics()["epochs"]} == {2}
        assert got.num_rows == want.num_rows, (got.num_rows, want.num_rows)
        assert got.equals(want.cast(got.schema))
        print("LAKE-EQUAL", len(results))
    finally:
        ray.shutdown()
    """
)


def test_decode_split_matches_mask_reference(tmp_path, sf_dir):
    """Each actor's sub-table holds exactly the rows a per-actor mask
    filter selects, in the same order; control rows ride the trailing
    table."""
    env = EventsToEnvelopes(duplicates=True)(pq.read_table(f"{sf_dir}/events.parquet"))
    control = {
        "control": {"table-def": {"columns": {"rating": {"type": "INT32"}}}},
        "metadata": {"operation": "create-table", "table-name": "transcripts",
                     "record-type": "control"},
    }
    env = pa.concat_tables([
        env,
        pa.table({
            "lsn": pa.array([env.num_rows], pa.int64()),
            "source_offset": pa.array([env.num_rows], pa.int64()),
            "dialect": pa.array(["debezium"]),
            "payload": pa.array([json.dumps(control)]),
            "conv_id": pa.array([None], pa.string()),
        }).cast(env.schema),
    ])
    log = str(tmp_path / "envelopes.parquet")
    pq.write_table(env, log)
    cfg = PipelineConfig(num_partitions=16)
    A, hi = 3, env.num_rows
    [sl] = plan_file_slices([log], 0, hi, 1)
    decode = DecodeEnvelopes(cfg, combine=True)
    *parts, special = ray.get(decode_split_task.options(num_returns=A + 1).remote(sl, 0, hi, decode, A))

    ops = decode(env)
    is_special = pc.greater_equal(ops["op"], OP_SCHEMA_CHANGE)
    data = ops.filter(pc.invert(is_special))
    owner = data["partition_id"].to_numpy() % A
    for a in range(A):
        assert parts[a].equals(data.filter(pa.array(owner == a)))
    assert special.column_names == ["op", "lsn", "source_offset", "aux", "error"]
    assert special["op"].to_pylist() == [OP_SCHEMA_CHANGE]
    assert json.loads(special["aux"][0].as_py())["operation"] == "create-table"


def test_actor_replay_on_one_logical_cpu(tmp_path, sf_dir):
    """Applier actors reserve no CPU, so decode tasks always find a slot.
    When the appliers held a fractional slot each, a one-CPU cluster never
    scheduled a decode task and the replay hung. ``DRIVER_POOL_ROWS = 0``
    makes the replay spawn its two appliers (a log this small would
    otherwise get one applier in the driver). The session fixture pins
    4 CPUs, so the replay runs in a subprocess with its own ``ray.init``."""
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT), env.get("PYTHONPATH")) if p)
    # own process group: a hung run's Ray processes are killed with it
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, sf_dir, str(tmp_path)],
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
        raise AssertionError(f"actor replay at num_cpus=1 still running after {TIMEOUT_S} s")
    assert proc.returncode == 0, err[-3000:]
    assert "LAKE-EQUAL" in out


def test_one_block_run_epoch_decodes_in_num_decode_tasks(tmp_path, monkeypatch, sf_dir):
    """A Dataset of one block is cut into row ranges, one decode task
    each, so a one-block epoch does not decode on one CPU; the lake is
    the oracle's."""
    import ray.data as rd

    from commons_codec_ray.pipelines.cdc import CDCPipeline
    from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical
    from commons_codec_ray.stages import actor_applier

    real = actor_applier.decode_split_task
    ranges = []

    class Counting:
        def options(self, **kw):
            task = real.options(**kw)

            class Submit:
                def remote(self, *args):
                    ranges.append(args[1:3])
                    return task.remote(*args)

            return Submit()

    monkeypatch.setattr(actor_applier, "decode_split_task", Counting())
    env = EventsToEnvelopes(duplicates=True)(pq.read_table(f"{sf_dir}/events.parquet"))
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16))
    assert pipe.run_epoch(rd.from_arrow(env), 0, (0, 0))["events"] > 0
    assert len(ranges) == max(4, int(ray.cluster_resources()["CPU"]))
    assert ranges[0][0] == 0 and ranges[-1][1] == env.num_rows
    assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()).select(cols))
    want = sorted_canonical(replay_envelopes(env).select(cols))
    assert got.equals(want.cast(got.schema))

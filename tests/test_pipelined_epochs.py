"""Pipelined epochs: a replay submits epoch N+1's decode tasks once epoch
N's controls are applied, before N flushes. The lake is the one a replay
of one epoch per call (no lookahead) writes, and an epoch that fails
while the next one decodes leaves no decode task or applier behind."""

import time

import pytest
import ray
from ray._private import state
from test_placement import _appliers, _epoch_counters, _lake_bytes, envelope_log  # noqa: F401
from test_schema_evolution import _object_column_log, write_log

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.stages import actor_applier
from commons_codec_ray.stages.actor_applier import Applier


@pytest.fixture
def object_column_log(tmp_path):
    """The OBJECT control of ``_object_column_log`` sits at the boundary
    of epochs 0 and 1 (epoch size 2), before its epoch's data."""
    log = tmp_path / "object-column.parquet"
    write_log(log, _object_column_log(control_epoch_before_data=False))
    return str(log)


class _DecodeSpy:
    """Stands in for ``decode_split_task``: records ("decode", lo) and
    each task's refs at submission, then submits the real task."""

    def __init__(self, task):
        self.task, self.events, self.refs = task, [], []

    def options(self, **kw):
        task, spy = self.task.options(**kw), self

        class Submit:
            def remote(self, *args):
                spy.events.append(("decode", args[1]))
                spy.refs.append(task.remote(*args))
                return spy.refs[-1]

        return Submit()


@pytest.fixture
def decode_spy(monkeypatch):
    spy = _DecodeSpy(actor_applier.decode_split_task)
    monkeypatch.setattr(actor_applier, "decode_split_task", spy)
    return spy.events, spy.refs


def _offset_ranges(pipe) -> list[tuple[int, int]]:
    return [tuple(e["offset_range"]) for e in pipe.metrics()["epochs"]]


def _schema_events(pipe) -> list[int]:
    last = pipe.checkpoint().last_epoch
    return [pipe.store.read_manifest(e)["metrics"]["schema_events"] for e in range(last + 1)]


def test_next_epoch_decodes_before_this_epoch_flushes(tmp_path, monkeypatch, envelope_log, decode_spy):
    events, _ = decode_spy
    real_flush, real_ingest = Applier.flush_epoch, Applier.ingest

    def flush(self, epoch, watermark_us=None):
        events.append(("flush", epoch))
        return real_flush(self, epoch, watermark_us)

    def ingest(self, *tables):
        events.append(("ingest",))
        return real_ingest(self, *tables)

    monkeypatch.setattr(Applier, "flush_epoch", flush)
    monkeypatch.setattr(Applier, "ingest", ingest)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16, epoch_size=300))
    pipe.replay(envelope_log)
    ranges = _offset_ranges(pipe)
    assert len(ranges) >= 3 and _appliers(pipe) == {"driver"}
    for n in range(len(ranges) - 1):
        submitted = events.index(("decode", ranges[n + 1][0]))
        flushed = events.index(("flush", n))
        assert submitted < flushed, (n, events)
        # its sub-tables reach the applier only after epoch n's flush
        assert ("ingest",) not in events[submitted:flushed]
        assert ("ingest",) in events[flushed:events.index(("flush", n + 1))]
    stages = [e["stages"] for e in pipe.metrics()["epochs"]]
    assert all(set(s) == {"decode_wait_s", "flush_s", "commit_s"} for s in stages)
    totals = pipe.metrics()["stages_s_total"]
    assert totals["flush_s"] == pytest.approx(sum(s["flush_s"] for s in stages))


@pytest.mark.parametrize("sink_mode", ["rewrite", "delta"])
@pytest.mark.parametrize("log_name,epoch_size", [("envelope_log", 300), ("object_column_log", 2)])
def test_pipelined_replay_equals_one_epoch_per_call(tmp_path, request, placement, log_name, epoch_size, sink_mode):
    log = request.getfixturevalue(log_name)
    cfg = {"num_partitions": 16, "epoch_size": epoch_size, "sink_mode": sink_mode}
    whole = CDCPipeline(tmp_path / "whole", PipelineConfig(**cfg))
    whole.replay(log)
    ranges = _offset_ranges(whole)
    assert len(ranges) >= 3
    for _, hi in ranges:  # each call replays one epoch, with nothing to prefetch
        stepped = CDCPipeline(tmp_path / "stepped", PipelineConfig(**cfg))
        assert len(stepped.replay(log, max_offset=hi - 1)) == 1
    assert _appliers(whole) == _appliers(stepped) == ({2} if placement == "actors" else {"driver"})
    assert _lake_bytes(whole) == _lake_bytes(stepped)
    assert _epoch_counters(whole) == _epoch_counters(stepped)
    assert _schema_events(whole) == _schema_events(stepped)


def _fail_on_epoch_0(real):
    def _apply(self, epoch, ops, watermark_us=None):
        if epoch == 0:
            raise RuntimeError("applier failed on epoch 0")
        return real(self, epoch, ops, watermark_us)

    return _apply


def _applier_actors_alive(name: str) -> int:
    return sum(
        a["State"] == "ALIVE" and a["ActorClassName"] == name for a in state.actors().values()
    )


@pytest.mark.parametrize("spawned", [False, True], ids=["driver", "spawned"])
@pytest.mark.parametrize("keep_actors", [False, True])
def test_failed_epoch_cancels_next_decode_and_resumes(tmp_path, monkeypatch, envelope_log, decode_spy, spawned, keep_actors):
    """Epoch 0 of a 3-epoch replay fails in its flush while epoch 1
    decodes: the replay raises, epoch 1's decode tasks are cancelled and
    none is left running, no applier survives, and a second replay
    resumes to the lake of an uninterrupted one."""
    events, refs = decode_spy
    cancelled = []
    real_cancel = ray.cancel
    monkeypatch.setattr(ray, "cancel", lambda ref, **kw: (cancelled.append(ref), real_cancel(ref, **kw)))
    cfg = PipelineConfig(num_partitions=16, epoch_size=300)
    whole = CDCPipeline(tmp_path / "whole", cfg)
    whole.replay(envelope_log, max_offset=899)
    assert len(whole.metrics()["epochs"]) == 3
    events.clear()
    refs.clear()

    failing = _fail_on_epoch_0(Applier._apply)
    with monkeypatch.context() as m:
        if spawned:
            m.setattr(util, "DRIVER_POOL_ROWS", 0)
            # a class the workers unpickle by value, so the patch reaches them
            failing_cls = type("FailingApplier", (Applier,), {"_apply": failing})
            m.setattr(actor_applier, "PartitionApplier", ray.remote(failing_cls))
        else:
            m.setattr(Applier, "_apply", failing)
        pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16, epoch_size=300))
        with pytest.raises((RuntimeError, ray.exceptions.RayTaskError), match="failed on epoch 0"):
            pipe.replay(envelope_log, max_offset=899, keep_actors=keep_actors)
        assert pipe._runner is None
    assert pipe.checkpoint().last_epoch == -1
    # epoch 1's tasks were submitted before epoch 0 flushed, and cancelled
    first_next = events.index(("decode", 300))
    assert [r[0] for r in refs[first_next:]] == cancelled and cancelled
    _, running = ray.wait([r[0] for r in refs], num_returns=len(refs), timeout=30)
    assert not running
    deadline = time.monotonic() + 10  # ray.kill is asynchronous
    while _applier_actors_alive("FailingApplier"):
        assert time.monotonic() < deadline, "an applier outlived its replay"
        time.sleep(0.1)

    resumed = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16, epoch_size=300))
    resumed.replay(envelope_log, max_offset=899, keep_actors=keep_actors)
    if keep_actors:
        assert resumed._runner._next is None  # nothing decodes past the return
        resumed.close()
    assert _lake_bytes(resumed) == _lake_bytes(whole)
    assert _epoch_counters(resumed) == _epoch_counters(whole)

"""Pool placement: a pool of one runs in the driver, a larger pool spawns
actors, and both write the same lake.

``util.DRIVER_POOL_ROWS`` is the crossover; setting it to 0 puts every
default-sized pool above it, so the applier pool spawns its default of
two actors on the 4-CPU test session."""

import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd
from ray._private import state
from test_multi_table import envelope
from test_schema_evolution import _object_column_log, write_log

from commons_codec_ray import util
from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.envelopes import EventsToEnvelopes
from commons_codec_ray.pipelines.cdc import CDCPipeline
from commons_codec_ray.sink.manifest import entry_files

POOL_CLASSES = {"Applier", "_PagerankShard", "_CCShard", "_KCoreShard", "_SSSPShard"}


@pytest.fixture(scope="module")
def envelope_log(tmp_path_factory, sf_dir):
    out = tmp_path_factory.mktemp("envlog_placement") / "envelopes.parquet"
    env = EventsToEnvelopes(duplicates=True)(pq.read_table(f"{sf_dir}/events.parquet"))
    pq.write_table(env.sort_by("lsn"), out, row_group_size=200)
    return str(out)


@pytest.fixture(scope="module")
def multi_table_log(tmp_path_factory):
    """Inserts and LWW updates whose keys collide across ``transcripts``,
    ``notes`` and the dms-diverted ``awsdms_status`` table."""
    out = tmp_path_factory.mktemp("envlog_placement_multi") / "envelopes.parquet"
    tables = ("transcripts", "notes", "awsdms_status")
    rows = [envelope(i, f"c{i % 40}", i % 5, f"text-{i}", table=tables[i % 3]) for i in range(900)]
    pq.write_table(pa.Table.from_pylist(rows), out, row_group_size=200)
    return str(out)


def _lake_bytes(pipe) -> dict[str, bytes]:
    """Every file the checkpoint names and every change-feed file, by
    lake-relative path."""
    root = pipe.store.root
    out = {}
    for entry in pipe.checkpoint().partitions.values():
        base, deltas = entry_files(entry)
        for rel in ([base] if base else []) + deltas:
            out[rel] = (root / rel).read_bytes()
    for f in sorted((root / "changes").rglob("*.parquet")):
        out[str(f.relative_to(root))] = f.read_bytes()
    return out


def _replay(monkeypatch, lake, log, cfg, stops=(None,), epoch_size=300, actors=False):
    """Replay ``log`` into ``lake``, one fresh pipeline per stop offset;
    returns the final pipeline."""
    with monkeypatch.context() as m:
        if actors:
            m.setattr(util, "DRIVER_POOL_ROWS", 0)
        for stop in stops:
            pipe = CDCPipeline(lake, PipelineConfig(**cfg))
            pipe.replay(log, epoch_size=epoch_size, max_offset=stop)
    return pipe


def _appliers(pipe) -> set:
    return {e["appliers"] for e in pipe.metrics()["epochs"]}


def _epoch_counters(pipe) -> list[tuple]:
    """Per-epoch offsets, event and lateness counters and watermark."""
    keys = ("epoch", "offset_range", "events", "late_events", "max_event_ts_us")
    return [tuple(str(e[k]) for k in keys) for e in pipe.metrics()["epochs"]]


@pytest.mark.parametrize(
    "log_name,cfg,stops",
    [
        ("envelope_log", {}, (None,)),
        ("envelope_log", {"sink_mode": "delta"}, (None,)),
        ("envelope_log", {"applier_state_budget_bytes": 1}, (None,)),
        ("envelope_log", {"sink_mode": "delta", "applier_state_budget_bytes": 1}, (499, None)),
        ("envelope_log", {}, (499, None)),
        ("envelope_log", {"emit_changes": True}, (None,)),
        ("envelope_log", {"sink_mode": "delta", "emit_changes": True}, (499, None)),
        ("multi_table_log", {}, (None,)),
        ("multi_table_log", {"sink_mode": "delta", "emit_changes": True}, (499, None)),
    ],
    ids=[
        "rewrite", "delta", "spill", "delta-spill-resume", "resume",
        "changes", "delta-changes-resume", "multi-table", "multi-table-delta-changes",
    ],
)
def test_driver_and_actor_placement_write_equal_lakes(tmp_path, monkeypatch, request, log_name, cfg, stops):
    log = request.getfixturevalue(log_name)
    cfg = {"num_partitions": 16, "epoch_size": 300, **cfg}
    driver = _replay(monkeypatch, tmp_path / "driver", log, cfg, stops)
    actors = _replay(monkeypatch, tmp_path / "actors", log, cfg, stops, actors=True)
    assert _appliers(driver) == {"driver"}
    assert _appliers(actors) == {2}
    assert len(driver.metrics()["epochs"]) >= 3
    got, want = _lake_bytes(driver), _lake_bytes(actors)
    assert got.keys() == want.keys() and got == want  # `_lsn` included
    assert _epoch_counters(driver) == _epoch_counters(actors)
    lake = pa.concat_tables(ray.get(driver.read_lake(with_lsn=True).to_arrow_refs()))
    assert "_lsn" in lake.column_names and lake.num_rows > 0
    if cfg.get("emit_changes"):
        assert any(k.startswith("changes/") for k in got)
    if log_name == "multi_table_log":
        assert {k.split("#")[0] for k in driver.checkpoint().partitions} == {
            "transcripts", "notes", "dms.awsdms_status",
        }


@pytest.mark.parametrize("control_epoch_before_data", [False, True])
def test_object_column_redecode_same_lake_in_both_placements(tmp_path, monkeypatch, control_epoch_before_data):
    """The OBJECT control sharing an epoch with its data forces a second
    decode of that epoch; the in-driver applier drops its pending ops
    exactly as the actors do."""
    log = tmp_path / "env.parquet"
    write_log(log, _object_column_log(control_epoch_before_data))
    cfg = {"num_partitions": 4, "epoch_size": 2}
    driver = _replay(monkeypatch, tmp_path / "driver", str(log), cfg, epoch_size=2)
    actors = _replay(monkeypatch, tmp_path / "actors", str(log), cfg, epoch_size=2, actors=True)
    assert _appliers(driver) == {"driver"} and _appliers(actors) == {2}
    assert _lake_bytes(driver) == _lake_bytes(actors)
    metas = driver.read_lake().to_pandas()["meta"].dropna().tolist()
    assert metas == ['{"lang": "en", "score": 3}'] * 2


def _pool_actors() -> int:
    """Actors of a pool class this session has ever created, in any state."""
    return sum(a["ActorClassName"] in POOL_CLASSES for a in state.actors().values())


def _wait_no_pool_actor_alive() -> None:
    deadline = time.monotonic() + 10  # ray.kill is asynchronous
    while any(
        a["State"] == "ALIVE" and a["ActorClassName"] in POOL_CLASSES
        for a in state.actors().values()
    ):
        assert time.monotonic() < deadline, "a pool actor outlived its call"
        time.sleep(0.1)


def test_small_default_calls_spawn_no_pool_actor(tmp_path, envelope_log):
    from commons_codec_ray.stages.graph import components_sharded, kcore_sharded, pagerank, sssp

    before = _pool_actors()
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16, epoch_size=300))
    pipe.replay(envelope_log)
    assert _appliers(pipe) == {"driver"}
    src, dst = [0, 0, 1, 2, 3], [1, 2, 2, 3, 4]
    edges = rd.from_arrow(pa.table({"src": src, "dst": dst, "w": [1] * 5}))
    pairs = rd.from_arrow(pa.table({"id_a": src, "id_b": dst}))
    assert pagerank(edges, iterations=2).count() == 5
    assert components_sharded(pairs).count() == 5
    assert kcore_sharded(edges, k=2).count() == 3
    assert sssp(edges, source=0, rounds=3).count() == 5
    time.sleep(0.5)  # a spawned actor would show up in the state API
    assert _pool_actors() == before


def test_pools_of_two_spawn_actors_and_kill_them(tmp_path, monkeypatch, envelope_log):
    from commons_codec_ray.stages.graph import pagerank

    before = _pool_actors()
    edges = rd.from_arrow(pa.table({"src": [0, 1, 2], "dst": [1, 2, 0]}))
    assert pagerank(edges, iterations=2, num_shards=2).count() == 3
    cfg = {"num_partitions": 16, "epoch_size": 300}
    _replay(monkeypatch, tmp_path / "lake", envelope_log, cfg, actors=True)
    assert _pool_actors() == before + 4
    _wait_no_pool_actor_alive()


def test_tail_poll_keeps_the_driver_applier(tmp_path, envelope_log):
    """Tail mode sizes its pool on the first poll and keeps it."""
    log = tmp_path / "log"
    log.mkdir()
    env = pq.read_table(envelope_log)
    half = env.num_rows // 2
    pq.write_table(env.slice(0, half), log / "part-0.parquet", row_group_size=200)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=16, epoch_size=300))
    assert pipe.poll(str(log)) > 0
    runner = pipe._runner
    assert runner.appliers == "driver"
    pq.write_table(env.slice(half), log / "part-1.parquet", row_group_size=200)
    assert pipe.poll(str(log)) > 0
    assert pipe._runner is runner
    pipe.close()
    assert pipe._runner is None


def test_tail_polls_write_equal_lakes_in_both_placements(tmp_path, monkeypatch, envelope_log):
    """Two tail polls over a growing log, one kept pool each."""
    env = pq.read_table(envelope_log)
    half = env.num_rows // 2
    lakes = {}
    for name, actors in (("driver", False), ("actors", True)):
        log = tmp_path / f"log-{name}"
        log.mkdir()
        with monkeypatch.context() as m:
            if actors:
                m.setattr(util, "DRIVER_POOL_ROWS", 0)
            cfg = PipelineConfig(num_partitions=16, epoch_size=300, emit_changes=True)
            pipe = CDCPipeline(tmp_path / name, cfg)
            pq.write_table(env.slice(0, half), log / "part-0.parquet", row_group_size=200)
            assert pipe.poll(str(log)) > 0
            pq.write_table(env.slice(half), log / "part-1.parquet", row_group_size=200)
            assert pipe.poll(str(log)) > 0
            pipe.close()
        assert _appliers(pipe) == ({2} if actors else {"driver"})
        lakes[name] = _lake_bytes(pipe), _epoch_counters(pipe)
    assert lakes["driver"] == lakes["actors"]


def test_in_driver_handle_resolves_refs_and_puts_results():
    class Box:
        def pair(self, a, b):
            return a + b, a - b

        def boom(self):
            raise OverflowError("boom")

    h = util.InDriver(Box())
    lo, hi = h.pair.options(num_returns=2).remote(ray.put(5), 3)
    assert ray.get([lo, hi]) == [8, 2]
    assert ray.get(h.pair.remote(1, 1)) == (2, 0)
    with pytest.raises(OverflowError):
        h.boom.remote()


def test_sized_pool_rule(monkeypatch):
    monkeypatch.setattr(util, "DRIVER_POOL_ROWS", 100)
    assert util.sized_pool(None, 99, 4) == 1
    assert util.sized_pool(None, 100, 4) == 4
    assert util.sized_pool(3, 10, 4) == 3  # an explicit size always wins


def test_dataset_entry_points_write_equal_lakes_and_leave_no_actor(tmp_path, monkeypatch, envelope_log):
    """bootstrap_full_load, run_epoch over a Dataset and
    replay_dead_letters go through the applier pool: spawned actors write
    the bytes one applier in the driver writes, and none outlives its
    call, also when the epoch raises."""
    from commons_codec_ray.decode.dialects import DECODERS
    from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical

    env = pq.read_table(envelope_log)
    snapshot = replay_envelopes(env.filter(pa.compute.less(env["source_offset"], 300)))
    # the rest of the log, with every debezium envelope under a dialect
    # the decoders learn only before the dead-letter replay
    rest = env.filter(pa.compute.greater_equal(env["source_offset"], 300))
    renamed = pa.compute.equal(rest["dialect"], "debezium")
    rest = rest.set_column(
        rest.schema.get_field_index("dialect"), "dialect",
        pa.compute.if_else(renamed, pa.scalar("vendor-x"), rest["dialect"]),
    )
    cuts = [i * snapshot.num_rows // 3 for i in range(4)]
    thirds = [snapshot.slice(cuts[i], cuts[i + 1] - cuts[i]) for i in range(3)]
    broken = pa.table({"lsn": pa.array([10**9]), "source_offset": pa.array([10**9])})
    lakes = {}
    for name, actors in (("driver", False), ("actors", True)):
        with monkeypatch.context() as m:
            if actors:
                m.setattr(util, "DRIVER_POOL_ROWS", 0)
            cfg = PipelineConfig(num_partitions=16, epoch_size=300, emit_changes=True)
            pipe = CDCPipeline(tmp_path / name, cfg)
            assert pipe.bootstrap_full_load(rd.from_arrow(thirds))["rows_out"] == snapshot.num_rows
            _wait_no_pool_actor_alive()
            res = pipe.run_epoch(rd.from_arrow(rest), epoch=1, offset_range=(300, 10**6))
            assert res["dead_letters"] == pa.compute.sum(renamed.cast(pa.int64())).as_py()
            _wait_no_pool_actor_alive()
            m.setitem(DECODERS, "vendor-x", DECODERS["debezium"])
            assert pipe.replay_dead_letters()["dead_letters"] == 0
            _wait_no_pool_actor_alive()
            with pytest.raises(ray.exceptions.RayTaskError, match="payload"):
                pipe.run_epoch(rd.from_arrow(broken), epoch=3, offset_range=(10**6, 10**6))
            _wait_no_pool_actor_alive()
        assert pipe.checkpoint().last_epoch == 2
        assert _appliers(pipe) == ({2} if actors else {"driver"})
        lakes[name] = _lake_bytes(pipe), _epoch_counters(pipe)
    assert lakes["driver"] == lakes["actors"]
    got = sorted_canonical(pa.Table.from_pandas(pipe.read_lake().to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))


def _read_both_ways(monkeypatch, pipe, **kw) -> tuple[pa.Table, pa.Table]:
    """``read_lake(**kw)`` in the driver (default ``DRIVER_POOL_ROWS``)
    and as Ray Data tasks (``DRIVER_POOL_ROWS = 0``), each sorted by key."""

    def read() -> tuple[pa.Table, int]:
        refs = pipe.read_lake(**kw).to_arrow_refs()
        tbl = pa.concat_tables(ray.get(refs), promote_options="permissive")
        return tbl.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")]), len(refs)

    driver, driver_blocks = read()
    with monkeypatch.context() as m:
        m.setattr(util, "DRIVER_POOL_ROWS", 0)
        ray_data, ray_data_blocks = read()
    assert driver_blocks == 1 and ray_data_blocks > 1
    assert driver.num_rows > 0
    return driver, ray_data


@pytest.mark.parametrize(
    "log_name,cfg,read",
    [
        ("envelope_log", {}, {}),
        ("envelope_log", {"sink_mode": "delta", "applier_state_budget_bytes": 1,
                          "compact_ratio": 10}, {}),
        ("envelope_log", {"sink_mode": "delta", "compact_ratio": 10}, {"epoch": 1}),
        ("envelope_log", {"sink_mode": "delta", "compact_ratio": 10}, {"with_lsn": True}),
        ("multi_table_log", {"sink_mode": "delta", "compact_ratio": 10}, {"table": "notes"}),
    ],
    ids=["rewrite", "delta-spill", "time-travel", "with-lsn", "multi-table"],
)
def test_driver_and_ray_data_reads_give_equal_tables(tmp_path, monkeypatch, request, log_name, cfg, read):
    """read_lake reads a lake below DRIVER_POOL_ROWS in the driver and a
    larger one as Ray Data tasks; both give the same table."""
    log = request.getfixturevalue(log_name)
    cfg = {"num_partitions": 16, "epoch_size": 300, **cfg}
    pipe = _replay(monkeypatch, tmp_path / "lake", log, cfg)
    if cfg.get("sink_mode") == "delta":
        assert any(entry_files(e)[1] for e in pipe.checkpoint().partitions.values())
    driver, ray_data = _read_both_ways(monkeypatch, pipe, **read)
    assert driver.equals(ray_data)
    assert ("_lsn" in driver.column_names) == bool(read.get("with_lsn"))
    if "epoch" in read:
        assert driver.num_rows < _read_both_ways(monkeypatch, pipe)[0].num_rows


def test_catalog_replay_leaves_no_temp_lake_or_applier(tmp_path, monkeypatch, envelope_log):
    """The catalog's replay helper, with spawned appliers and a Ray Data
    read, removes its temp lake and kills its appliers, also when the
    apply raises."""
    import tempfile

    from commons_codec_ray.pipelines.oracle import replay_envelopes, sorted_canonical
    from commons_codec_ray.pipelines.queries import _apply_via_pipeline

    monkeypatch.setattr(util, "DRIVER_POOL_ROWS", 0)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    env = pq.read_table(envelope_log)
    before = _pool_actors()
    got = sorted_canonical(pa.Table.from_pandas(_apply_via_pipeline(rd.from_arrow(env)).to_pandas()))
    want = sorted_canonical(replay_envelopes(env))
    assert got.equals(want.cast(got.schema))
    assert _pool_actors() == before + 2
    assert list(tmp_path.iterdir()) == []
    _wait_no_pool_actor_alive()
    broken = pa.table({"lsn": pa.array([10**9]), "source_offset": pa.array([10**9])})
    with pytest.raises(ray.exceptions.RayTaskError, match="payload"):
        _apply_via_pipeline(rd.from_arrow(broken))
    assert list(tmp_path.iterdir()) == []
    _wait_no_pool_actor_alive()

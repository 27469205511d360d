"""Input placement of the shard-pool graph queries
(``pipelines/queries.py::_graph_events``): one Arrow table in the driver
while the pool is one driver shard, so the query runs no Ray Data at
all; a Dataset of the ~CPUs/2 floor of blocks once a pool may spawn."""

from contextlib import contextmanager

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data
from ray._private import state

from commons_codec_ray import util
from commons_codec_ray.pipelines import queries
from commons_codec_ray.pipelines.queries import ORACLE_SQL, QUERIES, _graph_events
from commons_codec_ray.stages import graph

SHARD_POOL_QUERIES = [
    "components", "components_sharded", "pagerank", "ppr", "bfs_levels", "sssp",
    "kcore", "kcore_sharded", "link_prediction", "link_prediction_ra", "hits",
    "densest_subgraph", "triangles", "triangles_exchange", "clustering_coeff", "assortativity",
]


def _events(sf_dir) -> int:
    return pq.read_metadata(f"{sf_dir}/events.parquet").num_rows


def test_one_block_below_the_bound_and_the_floor_at_it(ray_session, sf_dir, monkeypatch):
    """Below the bound the one block is a ``pa.Table`` read in the
    driver; at and above it, a Dataset of the floor's blocks."""
    bound = queries._GRAPH_SETUP_PER_EVENT * _events(sf_dir)
    floor = max(8, queries.pool_size(1 << 30) // 2)
    for crossover, blocks in ((bound + 1, None), (bound, floor), (0, floor)):
        monkeypatch.setattr(util, "DRIVER_POOL_ROWS", crossover)
        events = _graph_events(sf_dir)
        if blocks is None:
            assert isinstance(events, pa.Table), crossover
            assert events.column_names == ["event_id"] and events.num_rows == _events(sf_dir)
        else:
            assert events.materialize().num_blocks() == blocks, crossover


def test_setup_rows_per_event_stay_within_the_constant(ray_session, sf_dir, monkeypatch):
    """The one-block rule assumes no query builds more than
    ``_GRAPH_SETUP_PER_EVENT`` setup rows per event, so that a one-block
    read always lands in a pool of one."""
    seen = []
    pool = graph._shard_pool

    @contextmanager
    def spy(shard_cls, setup, *args):
        if isinstance(setup, pa.Table):
            seen.append(setup.num_rows)
        else:
            setup = setup.materialize()
            seen.append(setup.count())
        with pool(shard_cls, setup, *args) as shards:
            yield shards

    monkeypatch.setattr(graph, "_shard_pool", spy)
    events = _events(sf_dir)
    for name in SHARD_POOL_QUERIES:
        seen.clear()
        out = QUERIES[name](sf_dir)
        if not isinstance(out, pa.Table):
            out.materialize()
        assert len(seen) == 1, name
        assert 0 < seen[0] <= queries._GRAPH_SETUP_PER_EVENT * events, (name, seen[0], events)


def _alive_actor_ids() -> set[str]:
    return {i for i, a in state.actors().items() if a["State"] == "ALIVE"}


def test_default_calls_run_no_ray_data_and_spawn_no_actor(ray_session, sf_dir, monkeypatch):
    """Below the bound every shard-pool query is Arrow tables in the
    driver end to end: no Ray Data read, no Dataset built or executed,
    and no actor left behind."""

    def boom(*args, **kwargs):
        raise AssertionError("Ray Data used on the table path")

    for name in ("read_parquet", "from_arrow", "from_arrow_refs"):
        monkeypatch.setattr(ray.data, name, boom)
    monkeypatch.setattr(ray.data.Dataset, "materialize", boom)
    before = _alive_actor_ids()
    for name in SHARD_POOL_QUERIES:
        out = QUERIES[name](sf_dir)
        assert isinstance(out, pa.Table) and out.num_rows > 0, name
    assert _alive_actor_ids() <= before


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


@pytest.mark.parametrize(
    "name",
    [
        "pagerank", "link_prediction", "components", "kcore", "hits", "densest_subgraph",
        "triangles", "triangles_exchange", "clustering_coeff", "assortativity",
    ],
)
def test_spawned_pool_on_the_floor_read_matches_oracle(ray_session, sf_dir, monkeypatch, name):
    monkeypatch.setattr(util, "DRIVER_POOL_ROWS", 0)
    out = QUERIES[name](sf_dir)
    got = _normalize(out.to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM read_parquet('{sf_dir}/events.parquet')")
    want = _normalize(con.execute(ORACLE_SQL[name]).df())
    assert len(got) > 0
    pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()), check_exact=True)

"""The catalog contract: every ``QUERIES`` entry has its ``ORACLE_SQL``
string, and entries that share an oracle with another entry (and so
share its engine) match that oracle through DuckDB, compared as
``tools/check_queries.py`` compares them."""

import importlib.util
from pathlib import Path

import duckdb
import pandas as pd
import pytest

from commons_codec_ray.pipelines.queries import ORACLE_SQL, QUERIES

_CHECK = Path(__file__).resolve().parent.parent / "tools" / "check_queries.py"
_spec = importlib.util.spec_from_file_location("check_queries", _CHECK)
check_queries = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_queries)

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def test_every_entry_has_its_oracle():
    assert set(QUERIES) == set(ORACLE_SQL)
    assert len(QUERIES) == 230


@pytest.fixture(scope="module")
def con(sf_dir):
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")
    return con


@pytest.mark.parametrize(
    "name",
    [
        "lm_score", "lm_score_sharded", "salted_join", "hash_join", "semi_join",
        "semi_join_bloom", "anti_join", "minhash_dedup", "minhash_dedup_narrow", "triangles",
        "triangles_exchange",
    ],
)
def test_entry_matches_its_oracle(ray_session, sf_dir, con, name):
    got = check_queries.normalize(check_queries.to_pandas(QUERIES[name](sf_dir)))
    want = check_queries.normalize(con.execute(ORACLE_SQL[name]).df())
    assert len(got) > 0, name
    pd.testing.assert_frame_equal(
        got, want.astype(got.dtypes.to_dict()), check_dtype=False, check_exact=True
    )

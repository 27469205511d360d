"""Maxwell/Canal DDL payload application (TODO r5 #11): the control
prescan already harvested their markers; these tests pin that the
harvested payloads now MUTATE the registry — Maxwell ``def`` dicts and
Canal raw-SQL DDL, alongside the existing Debezium control shape."""

import json

import pytest

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.pipelines.cdc import CDCPipeline, parse_mysql_ddl


def _pipe(tmp_path) -> CDCPipeline:
    return CDCPipeline(tmp_path / "lake", PipelineConfig())


def _apply(pipe, aux: dict) -> None:
    pipe._apply_schema_event({"aux": json.dumps(aux)})


class TestParseMysqlDDL:
    def test_create_table(self):
        out = parse_mysql_ddl(
            "CREATE TABLE `shop`.`orders` (\n"
            "  `id` BIGINT NOT NULL PRIMARY KEY,\n"
            "  name VARCHAR(255) DEFAULT '',\n"
            "  price DECIMAL(10,2),\n"
            "  created_at DATETIME,\n"
            "  KEY idx_name (name)\n"
            ") ENGINE=InnoDB DEFAULT CHARSET=utf8mb4;"
        )
        assert out == {
            "operation": "create",
            "table": "orders",
            "columns": {
                "id": "INT64",
                "name": "STRING",
                "price": "NUMERIC",
                "created_at": "DATETIME",
            },
            "primary_key": ["id"],
        }

    def test_create_with_composite_pk_clause(self):
        out = parse_mysql_ddl(
            "CREATE TABLE t (a INT, b INT, v TEXT, PRIMARY KEY (a, b))"
        )
        assert out["primary_key"] == ["a", "b"]
        assert out["columns"] == {"a": "INT32", "b": "INT32", "v": "STRING"}

    def test_alter_add_column(self):
        out = parse_mysql_ddl("ALTER TABLE `t` ADD COLUMN rating FLOAT")
        assert out == {
            "operation": "alter",
            "table": "t",
            "columns": {"rating": "REAL4"},
            "primary_key": [],
        }
        out2 = parse_mysql_ddl("alter table t add note varchar(40)")
        assert out2["columns"] == {"note": "STRING"}

    def test_drop_table(self):
        assert parse_mysql_ddl("DROP TABLE IF EXISTS `x`.`y`") == {
            "operation": "drop",
            "table": "y",
        }

    @pytest.mark.parametrize(
        "sql",
        ["TRUNCATE TABLE t", "RENAME TABLE a TO b", "garbage (", "", None],
    )
    def test_unlearnable_ddl_returns_none(self, sql):
        assert parse_mysql_ddl(sql) is None


class TestMaxwellDefApplication:
    def test_table_create_def(self, tmp_path):
        pipe = _pipe(tmp_path)
        _apply(
            pipe,
            {
                "operation": "table-create",
                "table": "orders",
                "def": {
                    "database": "shop",
                    "columns": [
                        {"name": "id", "type": "bigint"},
                        {"name": "note", "type": "varchar(255)"},
                        {"name": "amount", "type": "decimal(10,2)"},
                    ],
                    "primary-key": ["id"],
                },
            },
        )
        reg = pipe.config.registry
        assert reg.primary_keys["orders"] == ["id"]
        assert reg.column_types["orders"] == {
            "id": "INT64",
            "note": "STRING",
            "amount": "NUMERIC",
        }

    def test_table_alter_keeps_pk_when_def_has_none(self, tmp_path):
        pipe = _pipe(tmp_path)
        _apply(
            pipe,
            {
                "operation": "table-create",
                "table": "t",
                "def": {"columns": [{"name": "id", "type": "int"}], "primary-key": ["id"]},
            },
        )
        _apply(
            pipe,
            {
                "operation": "table-alter",
                "table": "t",
                "def": {"columns": [{"name": "id", "type": "int"}, {"name": "extra", "type": "double"}]},
            },
        )
        reg = pipe.config.registry
        assert reg.primary_keys["t"] == ["id"]  # alter preserved the PK
        assert reg.column_types["t"]["extra"] == "REAL8"

    def test_table_drop_resets_to_baseline(self, tmp_path):
        pipe = _pipe(tmp_path)
        pipe.config.registry.seed()
        _apply(pipe, {"operation": "table-create", "table": "t",
                      "def": {"columns": [{"name": "id", "type": "int"}],
                              "primary-key": ["id"]}})
        assert pipe.config.registry.primary_keys["t"] == ["id"]
        _apply(pipe, {"operation": "table-drop", "table": "t"})
        assert pipe.config.registry.primary_keys["t"] == []


class TestCanalSqlApplication:
    def test_ddl_create_then_alter_then_drop(self, tmp_path):
        pipe = _pipe(tmp_path)
        pipe.config.registry.seed()
        _apply(pipe, {"operation": "ddl", "table": None,
                      "sql": "CREATE TABLE acct (uid BIGINT PRIMARY KEY, bal DECIMAL(12,4))"})
        reg = pipe.config.registry
        assert reg.primary_keys["acct"] == ["uid"]
        assert reg.column_types["acct"]["bal"] == "NUMERIC"
        _apply(pipe, {"operation": "ddl", "sql": "ALTER TABLE acct ADD COLUMN tag VARCHAR(8)"})
        assert reg.column_types["acct"]["tag"] == "STRING"
        assert reg.primary_keys["acct"] == ["uid"]  # alter kept the PK
        _apply(pipe, {"operation": "ddl", "sql": "DROP TABLE acct"})
        assert reg.primary_keys["acct"] == []

    def test_unparseable_sql_is_noop(self, tmp_path):
        pipe = _pipe(tmp_path)
        before = pipe.config.registry.version
        _apply(pipe, {"operation": "ddl", "sql": "OPTIMIZE TABLE whatever"})
        assert pipe.config.registry.version == before


def test_maxwell_decoder_forwards_def_and_drop():
    from commons_codec_ray.decode.dialects import decode_maxwell
    from commons_codec_ray.schemas import OP_SCHEMA_CHANGE

    ops = decode_maxwell(
        {"type": "table-create", "table": "t",
         "def": {"columns": [{"name": "id", "type": "int"}], "primary-key": ["id"]}}
    )
    assert ops[0][0] == OP_SCHEMA_CHANGE
    assert ops[0][2]["def"]["primary-key"] == ["id"]
    drop = decode_maxwell({"type": "table-drop", "table": "t"})
    assert drop[0][0] == OP_SCHEMA_CHANGE and drop[0][2]["operation"] == "table-drop"
    assert decode_maxwell({"type": "database-create", "database": "d"}) == []


def test_prescan_matches_all_three_ddl_grammars(ray_session, tmp_path):
    """End-to-end: a log containing Maxwell and Canal DDL rows next to
    data rows; the prescan must harvest BOTH control shapes and applying
    them must leave the registry with the new tables."""
    import pyarrow as pa
    import ray.data as rd

    maxwell_ddl = json.dumps(
        {"type": "table-create", "table": "mx",
         "def": {"columns": [{"name": "id", "type": "bigint"}], "primary-key": ["id"]}}
    )
    canal_ddl = json.dumps(
        {"isDdl": True, "table": "cn",
         "sql": "CREATE TABLE cn (k INT PRIMARY KEY, v TEXT)"}
    )
    data_row = json.dumps({"type": "insert", "table": "mx", "data": {"id": 1}})
    envelopes = rd.from_arrow(
        pa.table(
            {
                "lsn": pa.array([1, 2, 3], pa.int64()),
                "source_offset": pa.array([0, 1, 2], pa.int64()),
                "dialect": pa.array(["maxwell", "canal", "maxwell"]),
                "payload": pa.array([maxwell_ddl, canal_ddl, data_row]),
            }
        )
    )
    pipe = _pipe(tmp_path)
    controls = pipe._scan_control_events(envelopes)
    assert len(controls) == 2
    for row in controls:
        pipe._apply_schema_event(row)
    reg = pipe.config.registry
    assert reg.primary_keys["mx"] == ["id"]
    assert reg.primary_keys["cn"] == ["k"]
    assert reg.column_types["cn"]["v"] == "STRING"


def test_run_epoch_applies_maxwell_and_canal_ddl(ray_session, tmp_path):
    """The decode tasks hand Maxwell and Canal DDL rows back to the
    driver, which applies them before the epoch commits; the committed
    registry holds the new tables."""
    import pyarrow as pa
    import ray.data as rd

    from commons_codec_ray.config import SchemaRegistry

    payloads = [
        {"type": "table-create", "table": "mx",
         "def": {"columns": [{"name": "id", "type": "bigint"}], "primary-key": ["id"]}},
        {"isDdl": True, "table": "cn", "sql": "CREATE TABLE cn (k INT PRIMARY KEY, v TEXT)"},
        {"type": "insert", "table": "mx", "data": {"conv_id": "a", "turn_idx": 0}},
    ]
    envelopes = pa.table(
        {
            "lsn": pa.array([1, 2, 3], pa.int64()),
            "source_offset": pa.array([0, 1, 2], pa.int64()),
            "dialect": pa.array(["maxwell", "canal", "maxwell"]),
            "payload": pa.array([json.dumps(p) for p in payloads]),
        }
    )
    pipe = _pipe(tmp_path)
    res = pipe.run_epoch(rd.from_arrow(envelopes), epoch=0, offset_range=(0, 3))
    assert res["schema_events"] == 2 and res["dead_letters"] == 0
    reg = SchemaRegistry.from_json(pipe.checkpoint().registry_json)
    assert reg.primary_keys["mx"] == ["id"]
    assert reg.primary_keys["cn"] == ["k"]
    assert reg.column_types["cn"]["v"] == "STRING"

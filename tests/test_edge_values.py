"""Edge values end-to-end (FIXTURES.md §5 'edge-values'): malformed /
out-of-range timestamps, multi-MB text rows, multi-byte UTF-8, empty vs
null through the full decode→apply path."""

import json

import pyarrow as pa
import pytest

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.schemas import OP_DEAD, OP_UPSERT
from commons_codec_ray.stages.applier import apply_ops_to_base, final_state
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes


def _env_rows(rows):
    return pa.table(
        {
            "lsn": pa.array([r["lsn"] for r in rows], pa.int64()),
            "source_offset": pa.array([r["lsn"] for r in rows], pa.int64()),
            "dialect": pa.array(["debezium"] * len(rows), pa.string()),
            "payload": pa.array([r["payload"] for r in rows], pa.string()),
            "conv_id": pa.array([None] * len(rows), pa.string()),
        }
    )


def _payload(conv, turn, text, ts, role="user"):
    return json.dumps(
        {
            "data": {"conv_id": conv, "turn_idx": turn, "role": role, "text": text,
                     "tool": None, "ts": ts},
            "before-image": {},
            "metadata": {"operation": "insert", "record-type": "data",
                         "schema-name": "public", "table-name": "transcripts"},
        }
    )


def test_malformed_timestamp_clamps_not_crashes():
    env = _env_rows(
        [
            {"lsn": 0, "payload": _payload("a", 0, "good", "2024-01-01T00:00:00")},
            {"lsn": 1, "payload": _payload("a", 1, "bad-ts", "not-a-timestamp")},
            {"lsn": 2, "payload": _payload("a", 2, "far-future", "99999-01-01T00:00:00")},
        ]
    )
    ops = DecodeEnvelopes(PipelineConfig(), combine=False)(env)
    rows = {r["turn_idx"]: r for r in ops.to_pylist()}
    assert rows[0]["ts"].year == 2024
    assert rows[1]["ts"].year == 1970  # clamped, row preserved
    assert rows[2]["ts"].year == 1970  # unparseable-by-iso → clamped
    assert all(r["op"] == OP_UPSERT for r in rows.values())


def test_multi_mb_text_roundtrip():
    big = "x" * (5 * 1024 * 1024) + "Räuber🚀"  # 5 MB + multi-byte tail
    env = _env_rows([{"lsn": 0, "payload": _payload("conv", 0, big, "2024-01-01T00:00:00")}])
    ops = DecodeEnvelopes(PipelineConfig(), combine=True)(env)
    out = final_state(apply_ops_to_base(None, ops))
    [row] = out.to_pylist()
    assert row["text"] == big  # byte-exact through decode + LWW apply


def test_empty_vs_null_and_utf8_through_apply():
    env = _env_rows(
        [
            {"lsn": 0, "payload": _payload("c", 0, "", "2024-01-01T00:00:00")},
            {"lsn": 1, "payload": _payload("c", 1, None, "2024-01-01T00:00:00")},
            {"lsn": 2, "payload": _payload("c", 2, "Räuber — 测试 🚀", "2024-01-01T00:00:00")},
        ]
    )
    ops = DecodeEnvelopes(PipelineConfig(), combine=True)(env)
    out = final_state(apply_ops_to_base(None, ops)).sort_by("turn_idx")
    texts = out["text"].to_pylist()
    assert texts == ["", None, "Räuber — 测试 🚀"]


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("role", 5, "MessageFormatError: role: expected a string, got int"),
        ("ts", 1_704_067_200, "MessageFormatError: ts: expected a string, got int"),
        ("turn_idx", "x", "ValueError: invalid literal for int() with base 10: 'x'"),
        ("turn_idx", 2**40, "MessageFormatError: turn_idx 1099511627776 out of int32 range"),
    ],
    ids=["role-int", "ts-int", "turn_idx-str", "turn_idx-2e40"],
)
def test_mistyped_field_dead_letters_one_row(field, value, error):
    """One mistyped field dead-letters its own envelope; its batch-mates
    decode as usual instead of the whole batch failing."""
    bad = json.loads(_payload("b", 7, "bad", "2024-01-01T00:00:00"))
    bad["data"][field] = value
    env = _env_rows(
        [
            {"lsn": 0, "payload": _payload("a", 0, "good", "2024-01-01T00:00:00")},
            {"lsn": 1, "payload": json.dumps(bad)},
            {"lsn": 2, "payload": _payload("a", 2, "good too", "2024-01-01T00:00:00")},
        ]
    )
    ops = DecodeEnvelopes(PipelineConfig(), combine=False)(env)
    assert ops["op"].to_pylist() == [OP_UPSERT, OP_DEAD, OP_UPSERT]
    assert ops["error"].to_pylist() == [None, error, None]
    assert ops["text"].to_pylist() == ["good", None, "good too"]
    assert json.loads(ops["aux"][1].as_py()) == {"dialect": "debezium", "payload": json.dumps(bad)}

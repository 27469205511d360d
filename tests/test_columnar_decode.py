"""Differential test of the columnar decode builders against the row loop.

``DecodeEnvelopes`` decodes the ``debezium``, ``binlog`` and ``ddbstream``
groups of a batch with the columnar builders of ``decode/dialects.py`` and
leaves every other row to its row loop. Emptying the builder table makes
the row loop decode everything; the two outputs must be equal for any
batch, poison and odd shapes included."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings, strategies as st

from commons_codec_ray.envelopes import (
    EventsToEnvelopes,
    encode_binlog,
    encode_ddbstream,
    encode_debezium,
    encode_maxwell,
)
from commons_codec_ray.schemas import OP_DEAD
from commons_codec_ray.stages import decode_stage
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes

_ENCODERS = {"debezium": encode_debezium, "binlog": encode_binlog, "ddbstream": encode_ddbstream}


def _record(payload: dict, dialect: str) -> dict:
    """The data record of a clean envelope (mutated in place)."""
    if dialect == "debezium":
        return payload["data"]
    if dialect == "binlog":
        row = payload["rows"][0]
        return row["after"] or row["before"]
    ddb = payload["dynamodb"]
    return ddb.get("NewImage") or ddb["Keys"]


# Each mutation maps (dialect, envelope dict, draw) to (dialect, payload).
def _clean(d, p, draw):
    return d, json.dumps(p)


def _control(d, p, draw):
    op = draw(st.sampled_from(["create-table", "drop-table", "bogus"]))
    meta = {"operation": op, "record-type": "control", "table-name": "transcripts"}
    return "debezium", json.dumps({"metadata": meta, "control": {"columns": {}}})


def _poison(d, p, draw):
    s = json.dumps(p)
    return d, draw(
        st.sampled_from([s[:-1], s + "}", s + " ", " " + s, "", "   ", "not json", "5", "[1]",
                         "{}", "{}{}", s + s, "{\n" + s[1:], '{"data": 5}', "null"])
    )


def _extra_field(d, p, draw):
    name = draw(st.sampled_from(["extra", "value", "zz"]))
    value = draw(st.sampled_from([1, "x", None, 2.5, [1, 2], {"a": 1}]))
    if d == "ddbstream":
        value = draw(st.sampled_from([{"N": "3"}, {"S": "x"}, {"L": [{"S": "a"}, {"N": "1"}]}]))
    _record(p, d)[name] = value
    return d, json.dumps(p)


def _duplicate_key(d, p, draw):
    s = json.dumps(p)
    # orjson keeps the last of a duplicated key; Arrow rejects the row
    record = {"debezium": '"data": {', "binlog": '"after": {', "ddbstream": '"NewImage": {'}[d]
    dup = '{"S": "dup"}' if d == "ddbstream" else '"dup"'
    return d, draw(
        st.sampled_from(['{"k": 1, "k": 2, ' + s[1:], s.replace(record, f'{record}"role": {dup}, ', 1)])
    )


def _surrogate(d, p, draw):
    s = json.dumps(p)
    return d, '{"z": "' + draw(st.sampled_from(["\\ud800", "\\udc00", "\\ud83d\\ude00"])) + '", ' + s[1:]


def _number_literal(d, p, draw):
    if d == "ddbstream":
        n = draw(st.sampled_from(["3.5", "1e3", "99999999999", "-0", "007", " 5", "x", "", "2147483648"]))
        _record(p, d)["turn_idx"] = {"N": n}
        return d, json.dumps(p)
    _record(p, d)["turn_idx"] = 987654
    n = draw(st.sampled_from(["3.5", "1e3", "99999999999", "-0", "3.0", "2147483648", "-2147483649"]))
    return d, json.dumps(p).replace("987654", n)


def _binlog_rows(d, p, draw):
    k = draw(st.integers(min_value=0, max_value=4))
    body = json.loads(encode_binlog("c-1", 1, draw(st.booleans()), "user", "t", None, "2024-01-01T00:00:00", 3))
    img = "before" if body["op"] == "delete_rows" else "after"
    rows = []
    for j in range(k):
        row = {"before": None, "after": None}
        row[img] = {"conv_id": f"c-{j}", "turn_idx": j, "role": "user"}
        rows.append(row)
    body["rows"] = rows
    shape = draw(st.sampled_from(["rows", "rotate", "heartbeat", "null-row", "null-image", "bad-op"]))
    if shape in ("rotate", "heartbeat"):
        body["op"] = shape
    elif shape == "null-row":
        body["rows"].append(None)
    elif shape == "null-image":
        body["rows"].append({"before": None, "after": None})
    elif shape == "bad-op":
        body["op"] = "truncate"
    return "binlog", json.dumps(body)


def _table(d, p, draw):
    name = draw(st.sampled_from(["transcripts", "awsdms_apply_exceptions", "", None]))
    schema = draw(st.sampled_from(["public", "sales", "", None, "absent"]))
    if d == "debezium":
        p["metadata"]["table-name"] = name
        p["metadata"]["schema-name"] = schema
        if schema == "absent":
            del p["metadata"]["schema-name"]
    elif d == "binlog":
        p["table"] = {"schema": schema, "name": name}
        if schema == "absent":
            del p["table"]["schema"]
    return d, json.dumps(p)


def _competing_table(d, p, draw):
    competing = draw(st.sampled_from(["metadata", "table", "ns"]))
    if competing == "metadata":
        p["metadata" if d != "debezium" else "x"] = {"table-name": "other", "schema-name": "s2"}
    elif competing == "table":
        p.setdefault("table", {"schema": "s3", "name": "t3"})
    else:
        p["ns"] = {"db": "mdb", "coll": "coll"}
    return d, json.dumps(p)


def _null_keys(d, p, draw):
    rec = _record(p, d)
    if draw(st.booleans()):
        rec.clear()
    else:
        rec.pop("conv_id", None)
        rec.pop("turn_idx", None)
    return d, json.dumps(p)


def _mistyped(d, p, draw):
    name, value = draw(
        st.sampled_from([("role", 5), ("ts", 1700000000), ("turn_idx", "x"), ("turn_idx", 2**40),
                         ("turn_idx", 3.0), ("turn_idx", True), ("conv_id", 5), ("text", [1])])
    )
    if d == "ddbstream":
        value = draw(st.sampled_from([{"N": "5"}, {"BOOL": True}, "x"]))
    _record(p, d)[name] = value
    return d, json.dumps(p)


def _odd_descriptor(d, p, draw):
    """DynamoDB descriptors that parse under the builder's schema."""
    if d != "ddbstream":
        return d, json.dumps(p)
    name = draw(st.sampled_from(["conv_id", "turn_idx", "role", "tool", "ts"]))
    _record(p, d)[name] = draw(st.sampled_from([None, {}, {"S": None}, {"S": "a", "NULL": True}]))
    return d, json.dumps(p)


def _drop_attribute(d, p, draw):
    rec = _record(p, d)
    rec.pop(draw(st.sampled_from(["role", "text", "tool", "ts"])), None)
    return d, json.dumps(p)


def _other_dialect(d, p, draw):
    return "maxwell", encode_maxwell("c-9", 9, False, "user", "hi", None, "2024-01-01T00:00:00", 9)


def _nan(d, p, draw):
    return d, '{"q": NaN, ' + json.dumps(p)[1:]


def _raw_field(d, p, draw):
    """A lone surrogate escape, a valid pair or NaN as the raw JSON of a
    field the builders emit (``text``/``role``; ``S`` of it for
    DynamoDB), where the two parsers must agree on the value."""
    raw = draw(st.sampled_from(['"\\ud800"', '"a\\udc00b"', '"\\ud83d\\ude00"', "NaN"]))
    mark = "@@raw@@"
    _record(p, d)[draw(st.sampled_from(["text", "role"]))] = (
        {"S": mark} if d == "ddbstream" else mark
    )
    return d, json.dumps(p).replace(f'"{mark}"', raw)


# mutations whose payloads still parse under the builders' schemas, so
# the builders themselves must tell these rows apart
_SHAPES = [
    _clean, _clean, _clean, _clean, _number_literal, _binlog_rows, _table, _null_keys,
    _odd_descriptor, _drop_attribute, _other_dialect,
]
# mutations that make Arrow reject the row or the whole dialect group
_BREAKING = [
    _control, _poison, _extra_field, _duplicate_key, _surrogate, _competing_table, _mistyped, _nan,
    _raw_field,
]
# clean rows between rows Arrow rejects and names: the parse resumes
# after each named row, and the rows before it are parsed again
_SPLITTING = [_clean, _clean, _clean, _mistyped, _duplicate_key, _raw_field]


@st.composite
def _envelope(draw, mutations):
    dialect = draw(st.sampled_from(sorted(_ENCODERS)))
    lsn = draw(st.integers(min_value=0, max_value=2**40))
    payload = json.loads(
        _ENCODERS[dialect](
            draw(st.sampled_from(["c-1", "c-2", "c-3"])),
            draw(st.integers(min_value=0, max_value=5)),
            draw(st.booleans()),
            draw(st.sampled_from(["user", "assistant", ""])),
            draw(st.text(max_size=20)),
            draw(st.sampled_from([None, "search"])),
            draw(st.sampled_from(["2024-01-01T00:00:00.000001", "bad-ts", "0001-01-01T00:00:00"])),
            lsn,
        )
    )
    mutate = draw(st.sampled_from(mutations))
    dialect, text = mutate(dialect, payload, draw)
    return lsn, dialect, text


def _batch(envelopes) -> pa.Table:
    return pa.table(
        {
            "lsn": pa.array([e[0] for e in envelopes], pa.int64()),
            "source_offset": pa.array(range(len(envelopes)), pa.int64()),
            "dialect": pa.array([e[1] for e in envelopes], pa.string()),
            "payload": pa.array([e[2] for e in envelopes], pa.string()),
            "conv_id": pa.array([None] * len(envelopes), pa.string()),
        }
    )


def _decode_both(batch, monkeypatch, combine):
    columnar = DecodeEnvelopes(combine=combine)
    assert columnar.builders
    with monkeypatch.context() as m:
        m.setattr(decode_stage, "COLUMNAR", {})
        rows_only = DecodeEnvelopes(combine=combine)
    assert not rows_only.builders
    return columnar(batch), rows_only(batch)


@settings(max_examples=300, deadline=None)
@given(
    envelopes=st.sampled_from([_SHAPES, _SHAPES + _BREAKING, _SPLITTING]).flatmap(
        lambda mutations: st.lists(_envelope(mutations), min_size=1, max_size=40)
    ),
    rows_per_split=st.sampled_from([0, decode_stage._ROWS_PER_SPLIT]),
)
def test_builders_match_row_loop(envelopes, rows_per_split):
    batch = _batch(envelopes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decode_stage, "MIN_GROUP_ROWS", 1)  # builders take groups of any size
        # 0: the parse resumes after every row Arrow names
        mp.setattr(decode_stage, "_ROWS_PER_SPLIT", rows_per_split)
        for combine in (True, False):
            got, want = _decode_both(batch, mp, combine)
            assert got.schema.equals(want.schema, check_metadata=True)
            assert got.equals(want), (got.to_pylist(), want.to_pylist())


def _events(n: int) -> pa.Table:
    return pa.table(
        {
            "event_id": pa.array(range(n), pa.int64()),
            "ts": pa.array([1_704_067_200_000_000 + i for i in range(n)], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array([i % 17 for i in range(n)], pa.int64()),
            "event_type": pa.array(["click", "view"] * (n // 2), pa.string()),
            "value": pa.array([float(i % 100) for i in range(n)], pa.float64()),
            "props": pa.array(['{"k": %d}' % i for i in range(n)], pa.string()),
        }
    )


def _row_loop_calls(monkeypatch) -> list:
    """Record the source rows of each row-loop call (None: all rows)."""
    calls = []
    real = DecodeEnvelopes._decode_rows

    def spy(self, payload, dialect, rows):
        calls.append(None if rows is None else rows.tolist())
        return real(self, payload, dialect, rows)

    monkeypatch.setattr(DecodeEnvelopes, "_decode_rows", spy)
    return calls


def test_clean_batch_skips_row_loop(monkeypatch):
    n = 3 * decode_stage.MIN_GROUP_ROWS  # one group per dialect, none below the minimum
    batch = EventsToEnvelopes()(_events(n))
    calls = _row_loop_calls(monkeypatch)
    out = DecodeEnvelopes(combine=False)(batch)
    assert calls == []
    assert out.num_rows == batch.num_rows


def test_rejected_rows_alone_go_to_row_loop(monkeypatch):
    """Arrow stops at a mistyped row and names it; the parse resumes
    after it, so where such rows are sparse only they reach the row
    loop."""
    batch = EventsToEnvelopes(dialect="debezium", duplicates=False)(_events(1200))
    bad = [300, 700, 1199]
    payloads = batch["payload"].to_pylist()
    for i in bad:
        rec = json.loads(payloads[i])
        rec["data"]["role"] = 5
        payloads[i] = json.dumps(rec)
    batch = batch.set_column(
        batch.schema.get_field_index("payload"), "payload", pa.array(payloads, pa.string())
    )
    calls = _row_loop_calls(monkeypatch)
    got = DecodeEnvelopes(combine=False)(batch)
    assert calls == [bad]
    monkeypatch.setattr(decode_stage, "COLUMNAR", {})
    assert got.equals(DecodeEnvelopes(combine=False)(batch))
    assert got.filter(pc.equal(got["op"], OP_DEAD))["source_offset"].to_pylist() == [
        batch["source_offset"][i].as_py() for i in bad
    ]


def test_unexpected_field_sends_group_to_row_loop(monkeypatch):
    """Schema-evolved records carry a field the builder's schema lacks:
    Arrow stops at the first one without naming a row, and the group
    decodes in the row loop."""
    batch = EventsToEnvelopes(dialect="debezium", duplicates=False, extra_int_field="rating")(
        _events(1200)
    )
    calls = _row_loop_calls(monkeypatch)
    got = DecodeEnvelopes(combine=False)(batch)
    assert calls == [None]
    assert got["aux"].null_count < got.num_rows  # the extra field spilled to aux

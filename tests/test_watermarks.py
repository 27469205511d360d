"""Watermark / late-data observability: LWW makes late arrivals SAFE;
these metrics make them VISIBLE (per-epoch max event-time watermark +
late-event counts in the manifest metrics, north-star lineage+metrics)."""

import json

import pyarrow as pa
import pyarrow.parquet as pq

from commons_codec_ray.config import PipelineConfig
from commons_codec_ray.pipelines.cdc import CDCPipeline


def envelope(lsn, conv, turn, text, ts):
    payload = {
        "data": {"conv_id": conv, "turn_idx": turn, "role": "user", "text": text,
                 "tool": None, "ts": ts},
        "before-image": {},
        "metadata": {"operation": "insert", "record-type": "data",
                     "schema-name": "public", "table-name": "transcripts"},
    }
    return {"lsn": lsn, "source_offset": lsn, "dialect": "debezium",
            "payload": json.dumps(payload), "conv_id": conv}


def test_late_events_counted_against_prior_watermark(tmp_path, placement):
    rows = [
        # epoch 1: watermark advances to 12:00
        envelope(0, "a", 0, "on-time", "2024-01-01T10:00:00"),
        envelope(1, "b", 0, "on-time", "2024-01-01T12:00:00"),
        # epoch 2: one late event (09:00 < epoch-1 watermark), one on time
        envelope(2, "a", 1, "LATE", "2024-01-01T09:00:00"),
        envelope(3, "b", 1, "on-time", "2024-01-01T13:00:00"),
    ]
    log = tmp_path / "env.parquet"
    pq.write_table(pa.Table.from_pylist(rows), log)
    pipe = CDCPipeline(tmp_path / "lake", PipelineConfig(num_partitions=4))
    results = pipe.replay(str(log), epoch_size=2)
    assert len(results) == 2
    assert results[0]["late_events"] == 0
    assert results[0]["max_event_ts_us"] == 1704110400000000  # 12:00 UTC
    assert results[1]["late_events"] == 1
    assert results[1]["max_event_ts_us"] == 1704114000000000  # 13:00 UTC

    m = pipe.metrics()
    assert m["late_events_total"] == 1
    assert m["watermark_us"] == 1704114000000000
    per_epoch = {e["epoch"]: e for e in m["epochs"]}
    assert per_epoch[1]["late_events"] == 1
    # late row itself is applied (LWW makes it safe), not dropped
    texts = set(pipe.read_lake().to_pandas()["text"])
    assert "LATE" in texts

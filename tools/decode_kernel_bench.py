#!/usr/bin/env python
"""Time the decode kernel: the row loop against the columnar builders.

``DecodeEnvelopes`` decodes the ``debezium``/``binlog``/``ddbstream``
groups of a batch with the columnar builders of ``decode/dialects.py``
and everything else in its row loop. This script times one
``DecodeEnvelopes.__call__`` per batch with the builders (``cols``) and
with the builder table emptied (``rows``), the two interleaved in one
process, and reports min and median µs per envelope over ``--repeats``
rounds. It also checks that both return equal tables.

The input is the ``replay_update`` benchmark log for ``--seed`` (the
events of ``perfbench/inputs.py``), re-encoded per case. Cases are named
``{mix}-{log}-{batch}``:

- mix: ``tri`` (debezium/binlog/ddbstream round-robin, as the
  benchmark log) or ``debezium`` (one dialect);
- log: ``clean``; ``poison`` (every envelope with
  ``event_id % 97 == 13`` replaced by malformed JSON, the
  ``q_dead_letter`` shape); ``mistyped`` (the same envelopes keep their
  shape but carry ``role`` as a number, which Arrow rejects and names
  the row of); ``rare`` (as ``mistyped``, for ``event_id % 4999 == 13``:
  a few rows a batch); ``evolved`` (``debezium`` only: every upsert carries one
  more field, ``rating``, as the schema-evolution replays of the query
  catalog do, which Arrow rejects without naming a row);
- batch: ``1k``, ``4k``, ``12.5k`` (one row group of the log, the batch
  ``decode_split_task`` passes today) or ``slice`` (the largest
  ``decode_split_task`` slice of the benchmark's first epoch in one
  call). ``slice-rg`` decodes that slice one row group per call, as
  ``decode_split_task`` does.

    python tools/decode_kernel_bench.py                      # all cases
    python tools/decode_kernel_bench.py --cases tri-clean    # name prefix
    python tools/decode_kernel_bench.py --repeats 15 --seed 1

Prints a markdown table, then one JSON line per case.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402
import pyarrow as pa  # noqa: E402

from commons_codec_ray.envelopes import EventsToEnvelopes  # noqa: E402
from commons_codec_ray.stages import decode_stage  # noqa: E402
from commons_codec_ray.stages.decode_stage import DecodeEnvelopes  # noqa: E402
from perfbench import inputs  # noqa: E402

BATCHES = {"1k": 1_000, "4k": 4_000, "12.5k": inputs.ROW_GROUP}
LOGS = ("clean", "poison", "mistyped", "rare", "evolved")


def events(seed: int) -> list[tuple[pa.Table, int]]:
    """The benchmark's update rounds for ``seed``: (events, lsn offset)."""
    rng = np.random.default_rng([seed, 1])
    users = rng.integers(0, inputs.REPLAY_USERS, inputs.REPLAY_ROUND_EVENTS)
    rounds = []
    for r in range(inputs.REPLAY_ROUNDS):
        ids = np.flatnonzero(rng.random(inputs.REPLAY_ROUND_EVENTS) < inputs.REPLAY_KEEP)
        offset = r * inputs.REPLAY_ROUND_EVENTS
        rounds.append((inputs.events_table(rng, ids, users[ids], offset), offset))
    return rounds


# the string value of ``role`` (DynamoDB: of its ``S``)
_ROLE = re.compile(r'("role":(?:\{"S":)?)"[^"]*"')


def log(rounds, mix: str, kind: str) -> pa.Table:
    dialect = None if mix == "tri" else mix
    parts = [
        EventsToEnvelopes(
            dialect=dialect,
            duplicates=False,
            corrupt=kind == "poison",
            lsn_offset=off,
            extra_int_field="rating" if kind == "evolved" else None,
        )(ev)
        for ev, off in rounds
    ]
    tbl = pa.concat_tables(parts).sort_by("source_offset")
    if kind in ("mistyped", "rare"):
        hit = tbl["lsn"].to_numpy() % (97 if kind == "mistyped" else 4999) == 13
        payloads = [
            _ROLE.sub(r"\g<1>5", p, count=1) if h else p
            for p, h in zip(tbl["payload"].to_pylist(), hit)
        ]
        tbl = tbl.set_column(
            tbl.schema.get_field_index("payload"), "payload", pa.array(payloads, pa.string())
        )
    return tbl


def slice_rows() -> int:
    """Rows of the largest decode slice of the benchmark's first epoch:
    ``plan_file_slices`` over row groups of ``ROW_GROUP`` rows, with the
    replay's epoch size and its default of 4 decode tasks at 2 CPUs."""
    epoch = math.ceil(inputs.REPLAY_ROUNDS * inputs.REPLAY_ROUND_EVENTS / 2)
    groups = math.ceil(epoch * inputs.REPLAY_KEEP / inputs.ROW_GROUP)
    return math.ceil(groups / 4) * inputs.ROW_GROUP


def batches(tbl: pa.Table, size: int) -> list[pa.Table]:
    return [tbl.slice(i, size) for i in range(0, tbl.num_rows, size)]


def run_case(decoders: dict, work: list[list[pa.Table]], repeats: int) -> dict:
    """Interleaved rounds; each round decodes every batch group of
    ``work`` once per decoder. Returns µs/event per decoder."""
    events_n = sum(t.num_rows for group in work for t in group)
    times = {name: [] for name in decoders}
    for r in range(repeats):
        order = list(decoders) if r % 2 == 0 else list(reversed(decoders))
        for name in order:
            dec = decoders[name]
            t0 = time.perf_counter()
            for group in work:
                for t in group:
                    dec(t)
            times[name].append((time.perf_counter() - t0) / events_n * 1e6)
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=15)
    ap.add_argument("--cases", nargs="*", default=[], help="case-name prefixes to run")
    args = ap.parse_args()

    cols = DecodeEnvelopes()
    decode_stage_columnar, decode_stage.COLUMNAR = decode_stage.COLUMNAR, {}
    rows = DecodeEnvelopes()
    decode_stage.COLUMNAR = decode_stage_columnar
    assert cols.builders and not rows.builders
    decoders = {"rows": rows, "cols": cols}

    rounds = events(args.seed)
    n_slice = slice_rows()
    results = []
    for mix, kinds in (("tri", LOGS[:-1]), ("debezium", LOGS)):
        for kind in kinds:
            tbl = None
            for batch in (*BATCHES, "slice", "slice-rg"):
                name = f"{mix}-{kind}-{batch}"
                if args.cases and not any(name.startswith(c) for c in args.cases):
                    continue
                if tbl is None:
                    tbl = log(rounds, mix, kind)
                if batch in BATCHES:
                    work = [batches(tbl, BATCHES[batch])]
                else:
                    slices = batches(tbl, n_slice)
                    work = (
                        [[s] for s in slices]
                        if batch == "slice"
                        else [batches(s, inputs.ROW_GROUP) for s in slices]
                    )
                for group in work:
                    for t in group:
                        assert cols(t).equals(rows(t)), name
                times = run_case(decoders, work, args.repeats)
                res = {"case": name, "events": sum(t.num_rows for g in work for t in g)}
                for k, v in times.items():
                    res[f"{k}_min_us"] = round(min(v), 3)
                    res[f"{k}_median_us"] = round(statistics.median(v), 3)
                res["speedup_min"] = round(res["rows_min_us"] / res["cols_min_us"], 2)
                results.append(res)
                print(json.dumps(res), file=sys.stderr, flush=True)

    print("| case | rows µs/event min (median) | cols µs/event min (median) | speedup (min) |")
    print("|---|---|---|---|")
    for r in results:
        print(
            f"| {r['case']} | {r['rows_min_us']:.2f} ({r['rows_median_us']:.2f}) "
            f"| {r['cols_min_us']:.2f} ({r['cols_median_us']:.2f}) | {r['speedup_min']:.2f}× |"
        )
    for r in results:
        print(json.dumps(r))


if __name__ == "__main__":
    main()

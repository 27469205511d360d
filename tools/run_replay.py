#!/usr/bin/env python
"""CLI entry point for the CDC ingest job — the unit you'd hand to
``ray job submit`` on a real cluster:

    ray job submit --working-dir . -- \
        python tools/run_replay.py --envelopes /data/envlog --lake /data/lake \
        --epoch-size 2000000

Locally it runs against ``ray.init(address="local")``. This script OWNS
the Ray session (unlike the library / __ray_entry__, which never init).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--envelopes", required=True, help="envelope log (parquet file or dir)")
    ap.add_argument("--lake", required=True, help="lake directory (created if missing)")
    ap.add_argument("--epoch-size", type=int, default=2_000_000)
    ap.add_argument("--num-partitions", type=int, default=64)
    ap.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--vacuum-keep", type=int, default=None,
                    help="if set, vacuum superseded files keeping N epochs of history")
    ap.add_argument("--watch", action="store_true",
                    help="continuous tail: poll the log for new offsets instead of a one-shot replay")
    ap.add_argument("--poll-interval", type=float, default=5.0)
    ap.add_argument("--max-idle-polls", type=int, default=3,
                    help="stop after this many consecutive empty polls (watch mode)")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from commons_codec_ray.config import PipelineConfig
    from commons_codec_ray.pipelines.cdc import CDCPipeline

    cfg = PipelineConfig(num_partitions=args.num_partitions, epoch_size=args.epoch_size)
    pipe = CDCPipeline(args.lake, cfg)
    if args.watch:
        results = pipe.watch(
            args.envelopes,
            poll_interval_s=args.poll_interval,
            max_idle_polls=args.max_idle_polls,
        )
    else:
        results = pipe.replay(args.envelopes)
    if args.vacuum_keep is not None:
        vac = pipe.vacuum(keep_last=args.vacuum_keep)
        print(f"vacuumed {vac['orphans_removed']} superseded files", file=sys.stderr)
    print(json.dumps({"epochs": results, "metrics": pipe.metrics()}, default=str))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Driver-like harness: run each queries() entry and compare with its
oracle SQL via DuckDB (row count + sorted-value equality). Usage:

    python tools/check_queries.py [sf_dir] [query ...]
    python tools/check_queries.py --sample N [--seed S] [sf_dir]

``--sample`` runs a randomized N-query subset (driver-subset insurance:
the evaluation driver checks a random subset each round — running a
seeded random 50 here catches any subset-only mismatch builder-side
first).
"""

from __future__ import annotations

import random
import sys
import time

import duckdb
import pandas as pd
import ray


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype("string")
    df = df.sort_values(list(df.columns), na_position="last").reset_index(drop=True)
    return df


def main() -> int:
    argv = list(sys.argv[1:])
    sample_n = seed = None
    if "--sample" in argv:
        i = argv.index("--sample")
        sample_n = int(argv[i + 1])
        del argv[i : i + 2]
    if "--seed" in argv:
        i = argv.index("--seed")
        seed = int(argv[i + 1])
        del argv[i : i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.001"
    only = set(argv[1:])
    import os
    from pathlib import Path

    # check the checkout this file is in, in the driver and in every Ray
    # worker (workers import the engine through PYTHONPATH)
    root = str(Path(__file__).resolve().parent.parent)
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = e.queries(), e.oracle_sql()
    names = [n for n in qs if not only or n in only]
    if sample_n is not None and sample_n < len(names):
        rng = random.Random(seed)
        names = sorted(rng.sample(names, sample_n))
        print(f"# sampled {len(names)} queries (seed={seed})")
    failures = 0
    for name in names:
        fn = qs[name]
        t0 = time.time()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            import traceback
            traceback.print_exc()
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only) [{dt:.1f}s]")
            continue
        want = normalize(con.execute(oracles[name]).df())
        try:
            pd.testing.assert_frame_equal(got, want.astype(got.dtypes.to_dict()),
                                          check_dtype=False, check_exact=True)
            print(f"PASS {name}: rows={len(got)} [{dt:.1f}s]")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: rows got={len(got)} want={len(want)} [{dt:.1f}s]")
            print(str(exc)[:1500])
    ray.shutdown()
    return failures


if __name__ == "__main__":
    raise SystemExit(main())

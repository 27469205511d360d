#!/usr/bin/env python3
"""Benchmark of the CDC engine: one command per workload run.

    python3 perfbench/run.py --workload replay_update --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Inputs are made from ``--seed`` and
cached under ``.perfbench_work/``; every run checks its outputs against
the repository's oracles. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it holds the run's notes (load average,
pinned CPU count, every sample). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Ray logical CPUs. The actor path deadlocks at 1: its two 0.5-CPU
# appliers take the only slot and the decode tasks never schedule.
NUM_CPUS = 2
OBJECT_STORE_BYTES = 256 * 1024 * 1024
SETUP_REPS = 3  # set-ups per run; setup_s is their median
CALL_LIMIT_S = 100.0  # hang guard for one call: sssp took 10–37 s a call on 2 logical CPUs of a shared 4-vCPU VM
RUN_LIMIT_S = 150.0  # measured part of a run, set-up included

# metric names and units, as BENCHMARK.json lists them
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Abort(Exception):
    """Stops a workload after a failed call; the run still reports."""


# --- hang guard ------------------------------------------------------------------
_armed = False
_timed_out = False


def _on_alarm(signum, frame):
    global _timed_out
    if _armed:
        _timed_out = True
        raise KeyboardInterrupt


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Interrupt the block after ``seconds``; ``_timed_out`` tells the
    interrupt from a real one. The interrupt is a KeyboardInterrupt
    because Ray's blocking calls (``ray.get``, ``ray.wait``) give up only
    on KeyboardInterrupt or SystemExit from a signal handler and print and
    ignore any other exception. The timer repeats every second until the
    block ends, in case one interrupt is swallowed all the same."""
    global _armed, _timed_out
    _timed_out = False
    signal.signal(signal.SIGALRM, _on_alarm)
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001), 1.0)
    try:
        yield
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


# --- processes and memory ------------------------------------------------------
def _proc_stat(pid: int) -> tuple[int, str] | None:
    """(parent pid, start time) of a live process, None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None
    if fields[0] == "Z":
        return None
    return int(fields[1]), fields[19]


def _descendants(root: int) -> dict[int, str]:
    """pid -> start time of every live descendant of ``root``."""
    kids: dict[int, list[int]] = {}
    start: dict[int, str] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _proc_stat(int(name))
            if st is not None:
                kids.setdefault(st[0], []).append(int(name))
                start[int(name)] = st[1]
    out: dict[int, str] = {}
    todo = list(kids.get(root, []))
    while todo:
        pid = todo.pop()
        out[pid] = start[pid]
        todo.extend(kids.get(pid, []))
    return out


def _hwm_kb(pid: int) -> int:
    """Peak resident memory (VmHWM) of a process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


class _Processes(threading.Thread):
    """Watches every process this one starts (Ray's GCS, raylet and
    workers): remembers each, so that none outlives the run, and tracks
    the session's memory peak. Every 0.25 s, and once more before the
    session ends, it sums the peak resident memory (VmHWM) of this
    process and of each live process of the session, and keeps the
    largest sum. A process that has ended drops out of the sum, so the
    applier actors of successive replays, which never run together, are
    not added up."""

    INTERVAL_S = 0.25

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.seen: dict[int, str] = {}
        self.peak_kb = 0
        self._forgotten: set[tuple[int, str]] = set()
        self._halt = threading.Event()
        self._lock = threading.Lock()

    def sample(self) -> None:
        procs = _descendants(os.getpid())
        with self._lock:
            self.seen.update(procs)
            live = [pid for pid, started in procs.items() if (pid, started) not in self._forgotten]
            total = _hwm_kb(os.getpid()) + sum(_hwm_kb(pid) for pid in live)
            self.peak_kb = max(self.peak_kb, total)

    def new_session(self) -> None:
        """Leave the processes seen so far, those of an earlier set-up's
        session, out of the memory peak, and start it again."""
        with self._lock:
            self._forgotten.update(self.seen.items())
            self.peak_kb = 0

    def run(self) -> None:
        while not self._halt.wait(self.INTERVAL_S):
            self.sample()

    def stop_and_reap(self) -> list[int]:
        """Stop sampling; make sure every process seen has ended (killing
        leftovers) and return the pids that had to be killed."""
        self._halt.set()
        self.join()
        with self._lock:
            seen = dict(self.seen)
        seen.update(_descendants(os.getpid()))
        killed = []
        deadline = time.monotonic() + 10
        for pid, started in seen.items():
            while _alive(pid, started) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _alive(pid, started):
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
        for pid in killed:
            while _alive(pid, seen[pid]):
                time.sleep(0.05)
        return killed


def _alive(pid: int, started: str) -> bool:
    st = _proc_stat(pid)
    return st is not None and st[1] == started


# --- the harness -------------------------------------------------------------------
class Harness:
    """What a workload needs: the hang guard and call accounting, Ray
    sessions and set-up timing, tracing, and the run's notes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.work = WORK
        for stale in (WORK / "runs").glob("*"):  # left by runs that were killed
            if _proc_stat(int(stale.name)) is None:
                shutil.rmtree(stale, ignore_errors=True)
        self.run_dir = WORK / "runs" / str(os.getpid())
        self.run_dir.mkdir(parents=True)
        ray_tmp = WORK / "r"
        # Ray's socket paths must fit in 107 bytes; a long checkout path
        # falls back to Ray's default temporary directory.
        self.ray_tmp = str(ray_tmp) if len(str(ray_tmp)) <= 42 else None
        self.deadline = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.procs = _Processes()
        self.tracer = None
        self.layer = {"epochs": 0, "exchange_rows": 0, "files": 0, "bytes": 0, "read_files": 0}

    # -- hang guard and accounting
    def time_left(self) -> float:
        return max(0.0, self.deadline - time.monotonic()) if self.deadline else RUN_LIMIT_S

    def call(self, what: str, fn, *args, limit: float = CALL_LIMIT_S, **kwargs):
        """One call into the engine under a wall-clock limit; an
        exception or a timeout counts as failed and aborts the workload."""
        self.attempted += 1
        budget = min(limit, self.time_left())
        if budget <= 0:
            self.fail(what, "run time limit reached")
        try:
            with _time_limit(budget):
                if self.tracer is not None:
                    return self.tracer.call(what, fn, *args, **kwargs)
                return fn(*args, **kwargs)
        except (Exception, KeyboardInterrupt) as exc:  # noqa: BLE001 - every failure is counted
            if isinstance(exc, KeyboardInterrupt) and not _timed_out:
                raise
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.errors.append(f"{what}: " + (f"timeout after {budget:.0f} s" if _timed_out else repr(exc)[:300]))
            raise Abort(what) from exc

    def mismatch(self, what: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: output differs from oracle: {detail}")

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {detail}")
        raise Abort(what)

    # -- Ray sessions
    def start_session(self) -> None:
        """Start a Ray session and warm its workers (imports included)."""
        import ray

        if self.deadline is None:
            self.deadline = time.monotonic() + RUN_LIMIT_S
            self.procs.start()
        self.procs.new_session()
        self.call(
            "ray.init",
            ray.init,
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
            _temp_dir=self.ray_tmp,
        )
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        warm = ray.remote(num_cpus=1)(_warm_worker)
        self.call("warm-up", ray.get, [warm.remote() for _ in range(NUM_CPUS)])
        # the session's first Ray Data execution starts its stats actor
        self.call("warm-up", ray.data.range(NUM_CPUS, override_num_blocks=NUM_CPUS).take_all)

    def stop_session(self) -> None:
        import ray

        if ray.is_initialized():
            self.call("ray.shutdown", ray.shutdown, limit=30)

    def set_up(self) -> None:
        """SETUP_REPS timed set-ups, each a session start with its worker
        warm-up; all but the last session are torn down again."""
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            self.start_session()
            self.setup_s.append(time.perf_counter() - t0)
            if rep < SETUP_REPS - 1:
                self.stop_session()

    # -- tracing
    def trace_layers(self) -> None:
        """In a traced run, wrap the engine's driver-side layer calls."""
        if not self.traced:
            return
        import commons_codec_ray.pipelines.cdc as cdc
        from commons_codec_ray.sink.manifest import LakeManifestStore
        from commons_codec_ray.stages.actor_applier import ActorPoolApplyRunner
        from tracing import Tracer

        def committed(args, kwargs, out):
            store, lineage = args[0], args[2]
            self.layer["epochs"] += 1
            self.layer["exchange_rows"] += sum(int(r["ops_applied"]) for r in lineage)
            self.layer["files"] += len(lineage)
            self.layer["bytes"] += sum((store.root / r["path"]).stat().st_size for r in lineage)

        t = Tracer()
        t.patch(cdc.CDCPipeline, "_scan_control_events", "cdc.prescan")
        t.patch(cdc, "_max_column_value", "cdc.head_scan")
        t.patch(ActorPoolApplyRunner, "__init__", "actor.spawn")
        t.patch(ActorPoolApplyRunner, "wait_ready", "actor.wait_ready")
        t.patch(ActorPoolApplyRunner, "run_epoch", "actor.run_epoch")
        t.patch(LakeManifestStore, "commit_epoch", "sink.commit", committed)
        self.tracer = t

    def untrace_layers(self) -> None:
        if self.tracer is not None:
            self.tracer.restore()

    def note_read(self, pipe) -> None:
        from commons_codec_ray.sink.manifest import entry_files

        files = 0
        for entry in pipe.checkpoint().partitions.values():
            b, deltas = entry_files(entry)
            files += (b is not None) + len(deltas)
        self.layer["read_files"] = files

    # -- end of run
    def close(self) -> list[int]:
        import ray

        try:
            if ray.is_initialized():
                self.procs.sample()
                try:
                    with _time_limit(30):
                        ray.shutdown()
                except KeyboardInterrupt:
                    if not _timed_out:
                        raise
                    self.errors.append("ray.shutdown: timeout after 30 s")
        finally:
            killed = self.procs.stop_and_reap() if self.procs.is_alive() else []
            shutil.rmtree(self.run_dir, ignore_errors=True)
            if self.ray_tmp:
                shutil.rmtree(self.ray_tmp, ignore_errors=True)
        return killed


def _warm_worker() -> int:
    import commons_codec_ray.stages.actor_applier  # noqa: F401
    import commons_codec_ray.stages.graph  # noqa: F401

    return os.getpid()


# --- metrics -------------------------------------------------------------------------
def end_to_end(h: Harness, m: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(h.setup_s),
        "events_per_s": m["events_per_s"],
        "latency_s": m["latency_s"],
        "peak_rss_mb": h.procs.peak_kb / 1024,
    }


def per_layer(h: Harness, m: dict, root: str) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(m.get("kernel", {}))
    out["traced.events_per_s"] = m["events_per_s"]
    out["traced.latency_s"] = m["latency_s"]
    for name, value in m.get("graph", {}).items():
        out[f"graph.{name}_s"] = value
    if "oracle.events_per_s" in m:
        out["oracle.events_per_s"] = m["oracle.events_per_s"]
        out["speedup_vs_oracle"] = m["events_per_s"] / m["oracle.events_per_s"]
    t = h.tracer
    if t is not None and m["roots"]:
        spans = t.summary()
        n = m["roots"]

        def total(name: str, key: str = "total_s") -> float:
            return spans.get(name, {}).get(key, 0.0) / n

        out["cdc.prescan_s"] = total("cdc.prescan")
        out["cdc.head_scan_s"] = total("cdc.head_scan")
        out["actor.spawn_s"] = total("actor.spawn") + total("actor.wait_ready")
        out["actor.epoch_s"] = total("actor.run_epoch", "self_s")
        out["sink.commit_s"] = total("sink.commit")
        out["read.s"] = total("read_lake")
        out["cdc.epochs"] = h.layer["epochs"] / n
        out["actor.exchange_rows"] = h.layer["exchange_rows"] / n
        out["sink.files_written"] = h.layer["files"] / n
        out["sink.bytes_written_per_event"] = h.layer["bytes"] / m["events"]
        out["read.files"] = h.layer["read_files"]
        out["trace.coverage"] = t.coverage(root)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(_SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "commons_codec_ray" / "__init__.py").is_file():
        print(f"perfbench: no commons_codec_ray package under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT))
    # Ray workers inherit this and import the engine (and nothing else) from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)

    h = Harness(args)
    m = None
    try:
        m = workloads.WORKLOADS[args.workload](h)
    except Abort:
        pass
    finally:
        killed = h.close()
    root = {"replay_update": "replay"}.get(args.workload)
    notes = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ray_num_cpus": NUM_CPUS,
        "loadavg": os.getloadavg(),
        "ray_temp_dir_in_checkout": h.ray_tmp is not None,
        "setup_s": h.setup_s,
        "errors": h.errors,
        "killed_leftover_pids": killed,
    }
    metrics: dict[str, float] = {}
    if m is not None:
        notes.update({k: m[k] for k in ("samples", "graph") if k in m})
        metrics = per_layer(h, m, root) if h.traced else end_to_end(h, m)
        if h.traced and h.tracer is not None:
            notes["trace"] = {"root": root, "coverage": metrics["trace.coverage"], "spans": h.tracer.summary()}
            trace_file = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            trace_file.write_text(json.dumps(h.tracer.spans))
    units = PER_LAYER if h.traced else END_TO_END
    result = {
        "correct": m is not None and h.failed == 0,
        "attempted": max(h.attempted, 1),
        "failed": h.failed if m is not None else max(h.failed, 1),
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"notes": notes}, default=str))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

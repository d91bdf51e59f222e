"""The traced run: per-layer timings taken from outside the library.

No span lives inside ``src/``.  Each layer is timed around the public
call that enters it:

* sharded workloads replay the job in this one process —
  ``ChunkedStreamReader.chunks`` → ``route_chunk_all`` with
  ``ShardedRunner.routing()`` → per-shard ``process_batch`` on
  ``split(W)`` instances → ``tree_reduce`` of ``merge`` → ``finalize``
  and ``space_words`` → ``CheckpointStore.save`` at the spec's cadence —
  and then make one real ``Pipeline.run`` at W workers and one at 1.
  ``sharded.overhead_s`` is the W-worker wall time minus the replay's
  critical path (split + job manifest + read + route + the slowest
  shard's kernel and checkpoint writes + merge + finalize): fork, IPC,
  duplicated reads and waiting.
* ``zipf-sliding`` runs the end-to-end driver with a span around each
  processor's ``process_batch``, ``query`` round and ``finalize``.

Both replay twice, once with spans off, and ``trace.overhead`` is the
relative difference.  Metrics of layers a workload lacks are left out
here; ``run.py`` reports them as 0.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import CheckpointStore, ShardedRunner
from repro.engine.merge import tree_reduce
from repro.engine.sharded import RUN_TAG, route_chunk_all, shard_checkpoint_tag
from repro.pipeline import Pipeline
from repro.streams import ChunkedStreamReader

from perfbench import workloads as wl
from perfbench.job import (
    Spans,
    answers_checked,
    check_sliding,
    drive_sliding,
    check_final,
    timed_setup,
)
from perfbench.oracle import Oracle

def distinct_ratio(a: np.ndarray) -> float:
    """Distinct items per chunk over chunk length, pooled over chunks:
    how far key netting can shrink the kernels' scatter work."""
    distinct = sum(
        len(np.unique(a[start:start + wl.CHUNK_SIZE]))
        for start in range(0, len(a), wl.CHUNK_SIZE)
    )
    return distinct / max(1, len(a))


def replay_sharded(
    workload: wl.Workload,
    path: Path,
    processors: Dict[str, Any],
    workers: int,
    spans: Spans,
    checkpoint_dir: Optional[Path],
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, float]]:
    """The sharded job, layer by layer, in this process.

    Returns the answers, the merged processors and the replay's counts
    (rows per shard, bytes read, snapshot bytes and count, critical path).
    """
    routing = ShardedRunner(processors, n_workers=workers).routing()
    labels = list(processors)
    if workers == 1:
        shards = [dict(processors)]
    else:
        pieces = {
            label: spans.call("sharded.split", processors[label].split, workers)
            for label in labels
        }
        shards = [
            {label: pieces[label][worker] for label in labels}
            for worker in range(workers)
        ]
    store = None if checkpoint_dir is None else CheckpointStore(checkpoint_dir)
    every = workload.checkpoint_every
    kernel = np.zeros(workers)
    writes = np.zeros(workers)
    rows = np.zeros(workers)
    counts = {"bytes_read": 0.0, "checkpoint_bytes": 0.0, "checkpoint_count": 0.0}

    def save(tag: str, state: Any, chunk_index: int, position: int,
             complete: bool) -> float:
        start = time.perf_counter()
        store.save(
            tag, state,
            chunk_index=chunk_index, position=position, complete=complete,
        )
        seconds = time.perf_counter() - start
        if spans.enabled:
            spans.add("checkpoint.write", seconds)
            counts["checkpoint_bytes"] += sum(
                payload.stat().st_size
                for payload in store.directory.glob(f"{tag}.*.pkl")
            )
            counts["checkpoint_count"] += 1
        return seconds

    manifest_s = 0.0
    if store is not None:
        # The job manifest the real run writes before any worker starts.
        manifest_s = save(
            RUN_TAG, {"processors": dict(processors), "shards": shards},
            0, 0, False,
        )

    reader = spans.call("source.read", ChunkedStreamReader, path, mmap=True)
    chunks = spans.call("source.read", reader.chunks, wl.CHUNK_SIZE)
    chunk_index = position = 0
    while True:
        chunk = spans.call("source.read", next, chunks, None)
        if chunk is None:
            break
        counts["bytes_read"] += sum(column.nbytes for column in chunk)
        parts = spans.call(
            "route", route_chunk_all, chunk, routing, workers, chunk_index, position
        )
        position += len(chunk[0])
        chunk_index += 1
        for worker, part in enumerate(parts):
            if part is None:
                continue
            rows[worker] += len(part[0])
            for label in labels:
                if not spans.enabled:
                    shards[worker][label].process_batch(*part)
                    continue
                start = time.perf_counter()
                shards[worker][label].process_batch(*part)
                seconds = time.perf_counter() - start
                kernel[worker] += seconds
                spans.add(f"kernel.{label}", seconds)
                spans.add(f"kernel.{label}.updates", len(part[0]))
        if store is not None and chunk_index % every == 0:
            for worker in range(workers):
                writes[worker] += save(
                    shard_checkpoint_tag(worker), shards[worker],
                    chunk_index, position, False,
                )
    if store is not None:
        for worker in range(workers):
            writes[worker] += save(
                shard_checkpoint_tag(worker), shards[worker],
                chunk_index, position, True,
            )
    merged = {
        label: spans.call(
            f"merge.{label}",
            tree_reduce,
            [shard[label] for shard in shards],
            lambda mine, theirs: mine.merge(theirs),
        )
        for label in labels
    }
    answers = {
        label: spans.call(f"finalize.{label}", merged[label].finalize)
        for label in labels
    }
    counts["critical_s"] = (
        spans.get("sharded.split")
        + manifest_s
        + spans.get("source.read")
        + spans.get("route")
        + float((kernel + writes).max())
        + sum(spans.get(f"merge.{label}") for label in labels)
        + sum(spans.get(f"finalize.{label}") for label in labels)
    )
    counts["skew"] = float(rows.max() / rows.mean()) if rows.sum() else 0.0
    return answers, merged, counts


def _top_level(spans: Spans) -> float:
    """Seconds covered by the replay's spans (setup spans excluded)."""
    return sum(
        seconds
        for name, seconds in spans.seconds.items()
        if not name.startswith("setup.") and not name.endswith(".updates")
    )


def traced(
    workload: wl.Workload, seed: int, path: Path, workdir: Path
) -> Dict[str, Any]:
    """One traced iteration: the per-layer metrics this workload has,
    plus the oracle verdicts of the traced answers."""
    stream = wl.load_input(path)
    oracle = Oracle(stream.a, stream.b, stream.sign, stream.n, stream.m)
    spans = Spans()
    if workload.sharded:
        metrics, checked, (failures, misses) = _traced_sharded(
            workload, seed, path, workdir, spans, oracle
        )
    else:
        metrics, checked, (failures, misses) = _traced_sliding(
            workload, seed, stream, spans, oracle
        )
    for label in workload.labels:
        seconds = spans.get(f"kernel.{label}")
        metrics[f"kernel.{label}.s"] = seconds
        metrics[f"kernel.{label}.updates_per_s"] = (
            spans.get(f"kernel.{label}.updates") / seconds
        )
        metrics[f"merge.{label}.s"] = spans.get(f"merge.{label}")
        metrics[f"finalize.{label}.s"] = spans.get(f"finalize.{label}")
    metrics["source.read_s"] = spans.get("source.read")
    metrics["netting.distinct_ratio"] = distinct_ratio(stream.a)
    reps = spans.get("setup.reps")
    for step in ("validate", "open", "build"):
        metrics[f"setup.{step}_s"] = spans.get(f"setup.{step}") / reps
    return {
        "workers": workload.workers(),
        "updates": len(stream.a),
        "metrics": metrics,
        "checked": checked,
        "failures": failures,
        "misses": misses,
    }


def _traced_sliding(
    workload: wl.Workload,
    seed: int,
    stream: Any,
    spans: Spans,
    oracle: Oracle,
) -> Tuple[Dict[str, float], int, Tuple[List[str], List[str]]]:
    def make() -> Pipeline:
        return wl.memory_pipeline(workload, seed, stream)

    traced_processors = timed_setup(make, spans)[2]
    start = time.perf_counter()
    drive = drive_sliding(traced_processors, stream, workload.probe_every, spans)
    wall = time.perf_counter() - start
    untraced = make().build_processors()
    start = time.perf_counter()
    drive_sliding(untraced, stream, workload.probe_every, Spans(False))
    untraced_wall = time.perf_counter() - start

    probes = drive["probes"]
    verdicts = check_sliding(oracle, workload, probes, drive["final"])
    for label in workload.labels:
        spans.add(f"kernel.{label}.updates", float(len(stream.a)))
    metrics = {
        "window.ingest_s": sum(
            spans.get(f"kernel.{label}") for label in workload.labels
        ),
        "window.query_s": spans.get("window.query"),
        "window.query_count": float(len(drive["latencies"])),
        "window.buckets": float(max(probe[4] for probe in probes)),
    }
    metrics.update(_space(traced_processors))
    metrics.update(_coverage(spans, wall, untraced_wall))
    return metrics, answers_checked(workload, len(probes)), verdicts


def _traced_sharded(
    workload: wl.Workload,
    seed: int,
    path: Path,
    workdir: Path,
    spans: Spans,
    oracle: Oracle,
) -> Tuple[Dict[str, float], int, Tuple[List[str], List[str]]]:
    workers = workload.workers()

    def checkpoint_dir() -> Optional[Path]:
        if not workload.checkpoint_every:
            return None
        return Path(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))

    def spec(n_workers: int) -> Dict[str, Any]:
        return wl.spec_dict(workload, seed, path, n_workers, checkpoint_dir())

    # Built once, outside the timed set-ups, as in the untraced run.
    setup_spec = spec(workers)
    _, _, processors, _ = timed_setup(
        lambda: Pipeline.from_dict(setup_spec), spans
    )
    start = time.perf_counter()
    answers, merged, counts = replay_sharded(
        workload, path, processors, workers, spans, checkpoint_dir()
    )
    wall = time.perf_counter() - start
    verdicts = check_final(oracle, workload, answers)
    untraced = Pipeline.from_dict(spec(workers)).build_processors()
    start = time.perf_counter()
    replay_sharded(workload, path, untraced, workers, Spans(False), checkpoint_dir())
    untraced_wall = time.perf_counter() - start

    runs = {}
    for n_workers in sorted({workers, 1}):
        pipeline = Pipeline.from_dict(spec(n_workers))
        opened = pipeline.open_source()
        start = time.perf_counter()
        pipeline.run(source=opened)
        runs[n_workers] = time.perf_counter() - start
    read_s = spans.get("source.read")
    metrics = {
        "source.read_mb_per_s": counts["bytes_read"] / 2**20 / read_s,
        "route.s": spans.get("route"),
        "route.skew": counts["skew"],
        "sharded.serial_updates_per_s": len(oracle.a) / runs[1],
        "sharded.speedup": runs[1] / runs[workers],
        "sharded.overhead_s": runs[workers] - counts["critical_s"],
        "sharded.split_s": spans.get("sharded.split"),
        "checkpoint.write_s": spans.get("checkpoint.write"),
        "checkpoint.bytes": counts["checkpoint_bytes"],
        "checkpoint.count": counts["checkpoint_count"],
    }
    metrics.update(_space(merged))
    metrics.update(_coverage(spans, wall, untraced_wall))
    return metrics, len(workload.labels), verdicts


def _space(processors: Dict[str, Any]) -> Dict[str, float]:
    return {
        f"space_words.{label}": float(processor.space_words())
        for label, processor in processors.items()
    }


def _coverage(spans: Spans, wall: float, untraced_wall: float) -> Dict[str, float]:
    covered = _top_level(spans)
    return {
        "trace.coverage": covered / wall,
        "pipeline.unaccounted_s": wall - covered,
        "trace.overhead": wall / untraced_wall - 1.0,
    }

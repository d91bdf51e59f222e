"""Sharded parallel execution: a multi-core :class:`FanoutRunner`.

:class:`ShardedRunner` turns the single-pass batch engine into a
parallel one.  Every registered structure is :meth:`split
<repro.engine.protocol.MergeableStreamProcessor.split>` into
``n_workers`` independent shard instances; a pool of worker processes
each runs a :class:`~repro.engine.runner.FanoutRunner` over its shard
of the stream; the shard summaries combine pairwise along the binomial
reduction tree of :mod:`repro.engine.merge` — worker-side and in
parallel on the plain process path, in the parent otherwise — and the
parent finalizes: the classical mergeable-summaries execution plan
(Agarwal et al.) applied to every structure in the library, with a
log-depth combine instead of a serial fold.

How the stream is partitioned is dictated by the structures themselves
through their ``shard_routing`` metadata (see
:mod:`repro.engine.protocol`):

* ``"any"`` — chunks are dealt round-robin (linear sketches and counter
  summaries merge correctly for any split);
* ``"vertex"`` — updates are routed by a hash of the A-endpoint, so
  degree counts and residency-window witness collection stay exact
  inside each vertex's owning shard (Algorithms 1–2, witness
  baselines);
* ``("window", w)`` — updates are routed by global stream position in
  blocks of ``w`` (the tumbling-window wrapper, whose per-window
  instances are seeded by global window index).

A run registers processors with *compatible* routings only (``"any"``
composes with either of the others; vertex and window routing cannot
share one partition).

Two execution backends:

* ``"process"`` (default) — a ``fork``-based worker pool, one worker
  per shard, and no update data ever crosses a pipe.  For *file
  sources* every worker opens the persisted stream itself (optionally
  memory-mapped) and filters its own sub-stream — the out-of-core
  path: a multi-gigabyte v2 file streams through ``n_workers`` cores
  without being materialised anywhere.  An in-memory source is cut
  into chunks once in the parent before the fork; every worker
  inherits that chunk list (copy-on-write, the column buffers are only
  read) and filters it exactly as it would filter the file.  On
  platforms without ``fork`` the runner falls back to the serial
  backend (same answers, no parallelism).
* ``"serial"`` — the identical split/route/merge pipeline executed in
  process, one shard at a time.  Useful for tests, debugging, and
  single-core hosts; answers are identical to the process backend.

With ``n_workers=1`` the runner degenerates to a plain
:class:`~repro.engine.runner.FanoutRunner` pass (no split, no merge) —
the single-core reference path the equivalence suite compares against.

**Fault tolerance.**  Shard workers are side-effect-free (each
re-reads its own sub-stream from the persisted file or the inherited
chunk list), so a dead worker is recoverable: with
``on_failure="retry"`` the parent respawns just the failed shard with
bounded retries and exponential backoff (``retries``,
:data:`ShardedRunner.RETRY_BACKOFF_S`), optionally under a per-shard
wall-clock ``timeout_s``; ``on_failure="serial_fallback"``
additionally re-runs a shard whose worker keeps dying in-process; the
default ``on_failure="raise"`` keeps the historical fail-fast
behaviour.  Python-level worker exceptions travel back with their full
formatted traceback in :class:`ShardedWorkerError` and are never
retried (a deterministic error would fail every attempt) — except
``OSError``, the transient-I/O case retry exists for.  Progress over a
stream file can be made durable with
``checkpoint_dir=``/``checkpoint_every=``: each worker snapshots its
shard summaries + stream offset through
:class:`~repro.engine.checkpoint.CheckpointStore`, and
:meth:`ShardedRunner.resume` rebuilds the whole run (pristine shard
splits included, so resumed answers stay bit-identical) and continues
every unfinished shard from its latest snapshot.  All recovery paths
are exercised deterministically via
:class:`~repro.engine.faults.FaultPlan` injection.
"""

from __future__ import annotations

import os
import secrets
import time
import traceback
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.engine.checkpoint import (
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointStore,
)
from repro.engine.faults import FaultPlan
from repro.engine.merge import tree_reduce, tree_rounds
from repro.engine.protocol import (
    SHARD_ANY,
    SHARD_BY_VERTEX,
    ShardRouting,
    combined_routing,
    ensure_mergeable,
    shard_routing_of,
)
from repro.engine.runner import FanoutRunner, as_chunks
from repro.streams.columnar import DEFAULT_CHUNK_SIZE, Columns

#: Fibonacci multiplier (golden-ratio reciprocal in 64 bits) for the
#: vertex-hash shard route.
_FIB = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(33)

BACKENDS = ("process", "serial")

#: Dead/timed-out worker policies: fail fast, respawn the shard with
#: bounded retries, or retry then re-run the shard in-process.
ON_FAILURE_POLICIES = ("raise", "retry", "serial_fallback")

#: Checkpoint tag of the job-level manifest (processors + pristine
#: shard splits + run configuration).
RUN_TAG = "run"


def shard_checkpoint_tag(worker: int) -> str:
    """Checkpoint tag worker ``worker`` snapshots its shard under."""
    return f"shard-{worker}"


class ShardedWorkerError(RuntimeError):
    """A shard worker failed; carries structured cause information.

    ``cause_type`` is the original exception class name;
    ``is_stream_error`` is True for input problems (stream format,
    I/O) that callers like the CLI handle with a friendly message
    rather than a traceback; ``worker`` is the shard index when known.
    """

    def __init__(
        self,
        message: str,
        cause_type: str,
        is_stream_error: bool = False,
        worker: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.cause_type = cause_type
        self.is_stream_error = is_stream_error
        self.worker = worker


def _fork_context():
    """The fork multiprocessing context, or None where unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


def fork_available() -> bool:
    """True when the process backend can actually run in parallel here."""
    return _fork_context() is not None


def effective_cores() -> int:
    """CPUs this process may actually use (affinity-aware).

    ``os.cpu_count()`` reports the machine; a containerised or
    taskset-pinned run may own far fewer.  Every place that records a
    core count alongside performance numbers — run reports, benchmark
    artifacts, scaling gates — uses this helper, so recorded rates can
    always be read against the parallelism that was really available.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _describe_error(exc: BaseException) -> Tuple[str, bool, str, bool]:
    """Structured worker-failure report: (class name, is-stream-error,
    formatted traceback, retryable).

    Only ``OSError`` counts as retryable: transient I/O is what a
    respawn can fix, while a deterministic Python error (including
    :class:`~repro.streams.persist.StreamFormatError`, a ``ValueError``)
    would fail every attempt identically.
    """
    from repro.streams.persist import StreamFormatError

    return (
        type(exc).__name__,
        isinstance(exc, (StreamFormatError, OSError)),
        traceback.format_exc(),
        isinstance(exc, OSError) and not isinstance(exc, StreamFormatError),
    )


def vertex_shard(a: np.ndarray, n_shards: int) -> np.ndarray:
    """Shard id of every A-endpoint: a fixed multiplicative (Fibonacci)
    hash, deterministic across runs, processes and platforms."""
    mixed = (np.asarray(a).astype(np.uint64) * _FIB) >> _SHIFT
    return (mixed % np.uint64(n_shards)).astype(np.int64)


def _shard_ids(
    chunk: Columns,
    routing: ShardRouting,
    n_workers: int,
    chunk_index: int,
    position: int,
):
    """Shard assignment for one chunk: a per-update id array for masked
    routings, or the single owning worker (int) for whole-chunk
    round-robin.  The one copy of the routing arithmetic — every
    worker and the serial backend must route bit-identically.
    """
    if routing == SHARD_ANY:
        return chunk_index % n_workers
    a = chunk[0]
    if routing == SHARD_BY_VERTEX:
        return vertex_shard(a, n_workers)
    window = routing[1]  # ("window", w): global-position window index
    return (
        (position + np.arange(len(a), dtype=np.int64)) // window
    ) % n_workers


def _mask_select(chunk: Columns, mask: np.ndarray) -> Optional[Columns]:
    if not mask.any():
        return None
    if mask.all():
        return chunk
    a, b, sign = chunk
    return a[mask], b[mask], None if sign is None else sign[mask]


def route_chunk(
    chunk: Columns,
    routing: ShardRouting,
    worker: int,
    n_workers: int,
    chunk_index: int,
    position: int,
) -> Optional[Columns]:
    """The sub-chunk of ``chunk`` that worker ``worker`` must process.

    ``chunk_index`` and ``position`` are the chunk's ordinal and the
    global position of its first update (both ignored unless the
    routing needs them).  Returns ``None`` when nothing in the chunk is
    routed to this worker.
    """
    ids = _shard_ids(chunk, routing, n_workers, chunk_index, position)
    if isinstance(ids, int):
        return chunk if ids == worker else None
    return _mask_select(chunk, ids == worker)


def route_chunk_all(
    chunk: Columns,
    routing: ShardRouting,
    n_workers: int,
    chunk_index: int,
    position: int,
) -> List[Optional[Columns]]:
    """Every worker's sub-chunk in one pass.

    Computes the shard-id array once per chunk instead of once per
    worker, so a caller that splits one chunk for every shard (the
    per-layer benchmark replay) pays the hash/division work once.
    """
    ids = _shard_ids(chunk, routing, n_workers, chunk_index, position)
    if isinstance(ids, int):
        return [chunk if worker == ids else None for worker in range(n_workers)]
    return [
        _mask_select(chunk, ids == worker) for worker in range(n_workers)
    ]


def _drive(
    shard: Dict[str, Any],
    source: Any,
    routing: ShardRouting,
    worker: int,
    n_workers: int,
    chunk_size: int,
    mmap: bool,
    readahead: bool = False,
    readahead_depth: int = 1,
    *,
    start_chunk: int = 0,
    start_position: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    attempt: int = 0,
    checkpoint: Optional[Tuple[str, int, str, Dict[str, Any]]] = None,
    in_process: bool = False,
) -> Dict[str, Any]:
    """Run one shard's FanoutRunner over its routed sub-stream.

    ``source`` is a stream-file path or the parent's list of chunks.
    ``start_chunk``/``start_position`` resume the pass at a checkpoint
    boundary (file sources only); ``fault_plan`` is consulted before
    every chunk; ``checkpoint`` — a ``(directory, every, tag, meta)``
    tuple — snapshots the shard's summaries through a
    :class:`~repro.engine.checkpoint.CheckpointStore` as it goes.
    """
    runner = FanoutRunner(shard, chunk_size=chunk_size)
    if isinstance(source, (str, Path)):
        from repro.streams.persist import ChunkedStreamReader

        chunks = ChunkedStreamReader(
            source, mmap=mmap, readahead=readahead,
            readahead_depth=readahead_depth,
        ).chunks(chunk_size, start=start_position)
    else:
        if start_position:
            raise ValueError(
                "resume offsets require a stream-file path source"
            )
        chunks = as_chunks(source, chunk_size)
    store: Optional[CheckpointStore] = None
    if checkpoint is not None:
        directory, every, tag, meta = checkpoint
        store = CheckpointStore(directory)
    chunk_index = start_chunk
    position = start_position
    for chunk in chunks:
        if fault_plan is not None:
            fault_plan.fire(worker, chunk_index, attempt, in_process=in_process)
        routed = route_chunk(
            chunk, routing, worker, n_workers, chunk_index, position
        )
        position += len(chunk[0])
        chunk_index += 1
        if routed is not None:
            runner.process_chunk(*routed)
        if store is not None and chunk_index % every == 0:
            store.save(
                tag, dict(runner._processors),
                chunk_index=chunk_index, position=position, meta=meta,
            )
    if store is not None:
        store.save(
            tag, dict(runner._processors),
            chunk_index=chunk_index, position=position,
            complete=True, meta=meta,
        )
    return dict(runner._processors)


def _file_worker(conn, task) -> None:
    """Process body of the attempt pool: read, filter, report.

    The outcome ``(worker, attempt, processors, error)`` travels over a
    dedicated one-shot pipe owned by this attempt alone; a superseded
    attempt's message dies with its pipe, and a worker that vanishes
    without reporting (SIGKILL, dropped result) surfaces to the parent
    as EOF rather than as silence on a shared queue.
    """
    (worker, attempt, n_workers, shard, source, routing, chunk_size, mmap,
     readahead, readahead_depth, start_chunk, start_position, fault_plan,
     checkpoint) = task
    try:
        processors = _drive(
            shard, source, routing, worker, n_workers, chunk_size, mmap,
            readahead, readahead_depth,
            start_chunk=start_chunk, start_position=start_position,
            fault_plan=fault_plan, attempt=attempt, checkpoint=checkpoint,
        )
        outcome = (worker, attempt, processors, None)
    except BaseException as exc:
        outcome = (worker, attempt, None, _describe_error(exc))
    if fault_plan is not None:
        if fault_plan.drops_result(worker, attempt):
            return
        if fault_plan.corrupts_result(worker, attempt):
            conn.send("injected-garbage-result")
            return
    conn.send(outcome)
    conn.close()


def _tree_file_worker(conn, task, recv_edges, send_edge, strays) -> None:
    """Process body of the plain-path pool with worker-side merge.

    After driving its own shard the worker joins the binomial reduction
    tree (:func:`~repro.engine.merge.tree_rounds`): it first absorbs its
    partners' summaries round by round (``recv_edges``, ascending round
    order — a worker only ever receives in rounds *before* the one it
    sends in), then either ships the accumulated summaries to its
    receiver (``send_edge``) or, for worker 0, reports the fully merged
    map to the parent.  The receiver is always the tree's lower shard
    index and always the left operand of :meth:`merge
    <repro.engine.protocol.MergeableStreamProcessor.merge>`, so the
    merge order is exactly the one :func:`~repro.engine.merge.tree_reduce`
    executes in-process.

    ``strays`` are this process's inherited copies of every tree pipe
    end owned by *other* workers; they are closed first so that a peer
    dying mid-run surfaces as EOF on its edge instead of deadlocking
    the tree.
    """
    for stray in strays:
        stray.close()
    (worker, n_workers, shard, source, routing, chunk_size, mmap,
     readahead, readahead_depth) = task
    try:
        processors = _drive(
            shard, source, routing, worker, n_workers, chunk_size, mmap,
            readahead, readahead_depth,
        )
        for edge in recv_edges:
            theirs = edge.recv()
            edge.close()
            for name in processors:
                processors[name] = processors[name].merge(theirs[name])
        if send_edge is not None:
            send_edge.send(processors)
            send_edge.close()
            outcome = (worker, None, None)
        else:
            outcome = (worker, processors, None)
    except BaseException as exc:
        outcome = (worker, None, _describe_error(exc))
    conn.send(outcome)
    conn.close()


class ShardedRunner:
    """Multi-core counterpart of :class:`~repro.engine.runner.FanoutRunner`.

    Args:
        processors: optional initial ``name -> processor`` mapping; every
            processor must implement the mergeable-summary layer
            (``merge``/``split``/``shard_routing``).
        n_workers: shard count = worker process count.
        chunk_size: updates per chunk handed to ``process_batch``.
        mmap: memory-map v2 stream files instead of loading them (file
            sources only; the out-of-core path).
        readahead: prefetch each worker's upcoming chunks on background
            threads while the current one is processed (effective for
            memory-mapped file sources; identical chunk contents).
            ``None`` (default) auto-enables readahead exactly when the
            workers will memory-map a file source — the cold-cache
            pass whose page-in latency readahead exists to hide; pass
            ``False`` to force it off.
        readahead_depth: chunks each worker's prefetcher keeps in
            flight (default 1, the classic double buffer).
        backend: ``"process"`` (fork pool; default) or ``"serial"``.
        retries: times a dead/timed-out shard worker is respawned
            before the ``on_failure`` policy decides (the workers are
            side-effect-free, so a re-run is safe).
        timeout_s: per-shard wall-clock budget; a worker exceeding it
            is terminated and handled like a dead worker (``None``
            disables the deadline).
        on_failure: ``"raise"`` (default — fail fast, the historical
            behaviour), ``"retry"`` (exhaust ``retries`` then raise),
            or ``"serial_fallback"`` (exhaust ``retries`` then re-run
            the shard in-process).
        checkpoint_dir: when set, every shard worker snapshots its
            summaries + stream offset into this directory (file
            sources only); see :meth:`resume`.
        checkpoint_every: source chunks between shard snapshots
            (default
            :data:`~repro.engine.checkpoint.DEFAULT_CHECKPOINT_EVERY`;
            requires ``checkpoint_dir``).
        fault_plan: optional :class:`~repro.engine.faults.FaultPlan`
            threaded into every worker for deterministic chaos tests;
            omit for the no-op default.

    Overridable timing knobs (class attributes, seconds; override on an
    instance to tune a specific run or speed up tests):

    * ``RESULT_POLL_TIMEOUT_S`` — result wait slice between per-shard
      deadline scans;
    * ``WORKER_JOIN_TIMEOUT_S`` — orderly worker join deadline;
    * ``TERMINATE_JOIN_TIMEOUT_S`` — join deadline after terminate;
    * ``RETRY_BACKOFF_S`` — base of the exponential retry backoff
      (attempt ``k`` sleeps ``RETRY_BACKOFF_S * 2**(k-1)``).

    Usage::

        runner = ShardedRunner({"alg2": InsertionOnlyFEwW(...)}, n_workers=4)
        results = runner.run("workload.npz")   # same answers as FanoutRunner
        merged = runner["alg2"]                # the merged processor
    """

    RESULT_POLL_TIMEOUT_S = 0.25
    WORKER_JOIN_TIMEOUT_S = 30.0
    TERMINATE_JOIN_TIMEOUT_S = 5.0
    RETRY_BACKOFF_S = 0.05

    def __init__(
        self,
        processors: Optional[Mapping[str, Any]] = None,
        *,
        n_workers: int = 2,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        mmap: bool = False,
        readahead: Optional[bool] = None,
        readahead_depth: int = 1,
        backend: str = "process",
        retries: int = 2,
        timeout_s: Optional[float] = None,
        on_failure: str = "raise",
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_every: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if readahead_depth < 1:
            raise ValueError(
                f"readahead_depth must be >= 1, got {readahead_depth}"
            )
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if on_failure not in ON_FAILURE_POLICIES:
            raise ValueError(
                f"on_failure must be one of {ON_FAILURE_POLICIES}, "
                f"got {on_failure!r}"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if checkpoint_dir is None:
                raise ValueError("checkpoint_every requires checkpoint_dir")
        if checkpoint_dir is not None and checkpoint_every is None:
            checkpoint_every = DEFAULT_CHECKPOINT_EVERY
        self.n_workers = n_workers
        self.chunk_size = chunk_size
        self.mmap = mmap
        self.readahead = None if readahead is None else bool(readahead)
        self.readahead_depth = int(readahead_depth)
        self.backend = backend
        self.retries = int(retries)
        self.timeout_s = timeout_s
        self.on_failure = on_failure
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        self.checkpoint_every = checkpoint_every
        self.fault_plan = fault_plan
        #: Shard re-runs performed (for run reports / diagnostics).
        self.retries_used = 0
        #: Shards that ended up on the in-process fallback path.
        self.fallbacks_used = 0
        self._processors: Dict[str, Any] = {}
        self._merged: Dict[str, Any] = {}
        self._resuming = False
        self._resume_shards: Optional[List[Dict[str, Any]]] = None
        self._resume_source: Optional[str] = None
        self._run_id: Optional[str] = None
        if processors is not None:
            for name, processor in processors.items():
                self.add(name, processor)

    # ------------------------------------------------------------------
    # Registration.
    # ------------------------------------------------------------------

    def add(self, name: str, processor: Any) -> "ShardedRunner":
        """Register a mergeable processor under ``name``; returns self."""
        if name in self._processors:
            raise ValueError(f"processor {name!r} already registered")
        self._processors[name] = ensure_mergeable(processor, name)
        return self

    def __len__(self) -> int:
        return len(self._processors)

    def __getitem__(self, name: str) -> Any:
        """The merged processor after :meth:`run` (the registered one
        before)."""
        if name in self._merged:
            return self._merged[name]
        return self._processors[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._processors)

    def routing(self) -> ShardRouting:
        """The single stream partition satisfying every processor."""
        if not self._processors:
            raise RuntimeError("no processors registered; call add() first")
        return combined_routing(
            [
                shard_routing_of(processor, name)
                for name, processor in self._processors.items()
            ]
        )

    # ------------------------------------------------------------------
    # Checkpoint/resume.
    # ------------------------------------------------------------------

    @classmethod
    def resume(
        cls,
        checkpoint_dir: Union[str, Path],
        *,
        source: Any = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> "ShardedRunner":
        """Rebuild a checkpointed sharded run for continuation.

        The job manifest (tag ``"run"``) carries the run configuration,
        the registered processors, and the *pristine* shard splits —
        resuming never re-splits, so seed-derived shard state is
        exactly what the interrupted run used and the final answers
        stay bit-identical.  Call :meth:`run` on the result (with no
        source — the checkpointed path is remembered — or pass one to
        override); shards that already completed are not re-run, and
        unfinished shards continue from their latest snapshot.

        Raises:
            repro.engine.checkpoint.CheckpointError: when the job
                manifest is absent, torn, or version-incompatible.
        """
        store = CheckpointStore(checkpoint_dir)
        snapshot = store.load(RUN_TAG)
        meta = snapshot.meta
        runner = cls(
            None,
            n_workers=int(meta["n_workers"]),
            chunk_size=int(meta["chunk_size"]),
            mmap=bool(meta["mmap"]),
            readahead=meta["readahead"],
            readahead_depth=int(meta["readahead_depth"]),
            backend=str(meta["backend"]),
            retries=int(meta["retries"]),
            timeout_s=meta["timeout_s"],
            on_failure=str(meta["on_failure"]),
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=int(meta["checkpoint_every"]),
            fault_plan=fault_plan,
        )
        runner._processors = dict(snapshot.state["processors"])
        runner._resume_shards = [
            dict(shard) for shard in snapshot.state["shards"]
        ]
        runner._resume_source = str(meta["source"])
        if source is not None:
            runner._resume_source = str(source)
        runner._run_id = meta["run_id"]
        runner._resuming = True
        return runner

    def _checkpoint_store(self) -> Optional[CheckpointStore]:
        if self.checkpoint_dir is None:
            return None
        return CheckpointStore(self.checkpoint_dir)

    def _shard_checkpoint(
        self, worker: int
    ) -> Optional[Tuple[str, int, str, Dict[str, Any]]]:
        """The ``checkpoint=`` tuple handed to a shard's drive loop."""
        if self.checkpoint_dir is None:
            return None
        return (
            str(self.checkpoint_dir),
            int(self.checkpoint_every),
            shard_checkpoint_tag(worker),
            {"run_id": self._run_id},
        )

    def _shard_start(
        self, store: Optional[CheckpointStore], worker: int,
        pristine: Dict[str, Any],
    ) -> Tuple[Dict[str, Any], int, int, bool]:
        """Where worker ``worker`` starts: (state, chunk, position, done).

        Fresh runs start every shard pristine at offset 0; resumed runs
        continue from the shard's latest snapshot — but only one
        stamped with this run's id, so leftovers from an older run in a
        reused directory are ignored rather than merged in.
        """
        if store is None or not self._resuming:
            return pristine, 0, 0, False
        snapshot = store.try_load(shard_checkpoint_tag(worker))
        if snapshot is None or snapshot.meta.get("run_id") != self._run_id:
            return pristine, 0, 0, False
        return (
            snapshot.state, snapshot.chunk_index, snapshot.position,
            snapshot.complete,
        )

    def _save_run_checkpoint(
        self,
        store: CheckpointStore,
        shards: List[Dict[str, Any]],
        source: Any,
        chunk_size: int,
    ) -> None:
        """Write the job manifest before any worker starts.

        A run killed at *any* later instant therefore resumes: worker
        snapshots only refine the starting points this manifest already
        guarantees.
        """
        # repro: allow-os-entropy run-identity nonce, not algorithmic
        # randomness: stale-snapshot isolation needs it unique across
        # runs, and it never influences any answer
        self._run_id = secrets.token_hex(8)
        meta = {
            "run_id": self._run_id,
            "source": str(source),
            "n_workers": self.n_workers,
            "chunk_size": chunk_size,
            "backend": self.backend,
            "mmap": bool(self.mmap),
            "readahead": self.readahead,
            "readahead_depth": self.readahead_depth,
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "on_failure": self.on_failure,
            "checkpoint_every": self.checkpoint_every,
            "labels": list(self._processors),
        }
        store.save(
            RUN_TAG,
            {"processors": dict(self._processors), "shards": shards},
            chunk_index=0, position=0, meta=meta,
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(
        self, source: Any = None, chunk_size: Optional[int] = None
    ) -> Dict[str, Any]:
        """Shard, execute, merge, finalize: ``name -> answer``.

        Answers match a single-core
        :class:`~repro.engine.runner.FanoutRunner` pass over the same
        stream — bit-identically for the linear/exact structures,
        guarantee-identically for the sampled/counter summaries (see
        ``tests/integration/test_sharded_equivalence.py``).

        Shard summaries combine along the fixed shard-index reduction
        tree of :mod:`repro.engine.merge` — distributed across the
        workers themselves on the plain process path — so the combine
        order, and with it every answer, is a function of ``n_workers``
        alone, never of timing or backend.
        """
        if source is None:
            source = self._resume_source
        if source is None:
            raise TypeError(
                "run() requires a source (or a runner built by "
                "ShardedRunner.resume(), which remembers its file)"
            )
        if not self._processors:
            raise RuntimeError("no processors registered; call add() first")
        chunk_size = chunk_size or self.chunk_size
        if self.mmap and not isinstance(source, (str, Path)):
            raise ValueError(
                "mmap streaming requires a stream-file path source"
            )
        store = self._checkpoint_store()
        if store is not None and not isinstance(source, (str, Path)):
            raise ValueError(
                "checkpointing requires a stream-file path source"
            )
        routing = self.routing()
        plain = (
            store is None
            and (self.fault_plan is None or self.fault_plan.is_noop)
            and not self._resuming
        )
        if self.n_workers == 1 and plain:
            # Degenerate case: the exact single-core reference path.
            runner = FanoutRunner(self._processors, chunk_size=chunk_size)
            if self.mmap:
                from repro.streams.persist import ChunkedStreamReader

                source = ChunkedStreamReader(
                    source,
                    mmap=True,
                    readahead=self._effective_readahead(True),
                    readahead_depth=self.readahead_depth,
                )
            runner.process(source, chunk_size)
            self._merged = dict(self._processors)
            return runner.finalize()

        if self._resuming:
            shards = self._resume_shards
        elif self.n_workers == 1:
            # Single checkpointed/faulted worker: no split (stays
            # bit-identical to the FanoutRunner reference even for
            # seed-splitting summaries), same machinery otherwise.
            shards = [dict(self._processors)]
        else:
            shards = self._split_shards()
        if not isinstance(source, (str, Path)):
            # Chunked once, here: forked workers inherit the list, and
            # a retried or serial shard replays it from the start.
            source = list(as_chunks(source, chunk_size))
        if store is not None and not self._resuming:
            self._save_run_checkpoint(store, shards, source, chunk_size)
        if self.backend == "serial":
            completed = self._run_serial(shards, source, routing, chunk_size)
        else:
            completed = self._run_processes(shards, source, routing, chunk_size)
        return self._merge_and_finalize(completed)

    def _merge_and_finalize(
        self, completed: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Combine shard summaries along the reduction tree, finalize.

        Every combine path — serial backend, attempt pool, and the
        distributed worker-side tree — uses the same
        shard-index merge order (see :mod:`repro.engine.merge`), so
        answers never depend on which backend ran the pass.
        """
        self._merged = {}
        results = {}
        for name in self._processors:
            merged = tree_reduce(
                [shard[name] for shard in completed],
                lambda mine, theirs: mine.merge(theirs),
            )
            self._merged[name] = merged
            results[name] = merged.finalize()
        return results

    def _split_shards(self) -> List[Dict[str, Any]]:
        """Per-worker ``name -> shard processor`` dicts."""
        shards: List[Dict[str, Any]] = [{} for _ in range(self.n_workers)]
        for name, processor in self._processors.items():
            for worker, piece in enumerate(processor.split(self.n_workers)):
                shards[worker][name] = piece
        return shards

    def _run_serial(
        self,
        shards: List[Dict[str, Any]],
        source: Any,
        routing: ShardRouting,
        chunk_size: int,
    ) -> List[Dict[str, Any]]:
        """The split/route/merge pipeline on one core (shard at a time).

        Every shard re-reads ``source`` — the stream file or the
        parent's chunk list — exactly like a process-backend worker.
        """
        store = self._checkpoint_store()
        mmap = self._worker_mmap(source)
        readahead = self._effective_readahead(mmap)
        completed = []
        for worker, shard in enumerate(shards):
            state, start_chunk, start_position, done = self._shard_start(
                store, worker, shard
            )
            if not done:
                state = _drive(
                    state, source, routing, worker, self.n_workers,
                    chunk_size, mmap, readahead, self.readahead_depth,
                    start_chunk=start_chunk, start_position=start_position,
                    fault_plan=self.fault_plan,
                    checkpoint=self._shard_checkpoint(worker),
                    in_process=True,
                )
            completed.append(state)
        return completed

    def _worker_mmap(self, source) -> bool:
        """Whether shard workers should memory-map ``source``.

        Even without an explicit ``mmap=True``, every worker mapping a
        stored v2 archive beats every worker eagerly loading its own
        full copy of the columns — the workers then share one page
        cache.  Compressed archives fall back to eager loading inside
        the reader; v1 text is parsed incrementally either way.  An
        in-memory chunk list is never mapped.
        """
        if not isinstance(source, (str, Path)):
            return False
        if self.mmap:
            return True
        from repro.streams.persist import detect_version

        try:
            return detect_version(source) == 2
        except OSError:
            return False

    def _effective_readahead(self, mmap: bool) -> bool:
        """Resolve the auto (``None``) readahead setting.

        Cold memory-mapped file passes are exactly where prefetch pays:
        every chunk's first touch is a page-in that would otherwise
        stall the worker's compute.  Eager and in-memory sources have
        no deferred I/O, so auto resolves to off there.
        """
        if self.readahead is not None:
            return self.readahead
        return bool(mmap)

    def _run_processes(
        self,
        shards: List[Dict[str, Any]],
        source: Any,
        routing: ShardRouting,
        chunk_size: int,
    ) -> List[Dict[str, Any]]:
        context = _fork_context()
        if context is None:
            # No fork on this platform: identical answers, one core.
            return self._run_serial(shards, source, routing, chunk_size)
        return self._run_file_pool(context, shards, source, routing, chunk_size)

    def _run_file_pool(
        self, context, shards, source, routing, chunk_size
    ) -> List[Dict[str, Any]]:
        """Workers read the stream themselves — zero data IPC.

        Each worker opens the stream file, or walks the chunk list it
        inherited through ``fork``, and keeps only its own shard.

        One explicitly managed process per shard (rather than a
        ``Pool``), each reporting over a dedicated one-shot pipe
        created fresh per attempt.  The private pipe makes failure
        detection an event rather than a poll: a worker killed by the
        OS (or whose result was dropped by fault injection) closes its
        write end without sending, which the parent sees as EOF and —
        the workers being side-effect-free — answers by relaunching
        the shard under the retry policy with exponential backoff.  A
        message from a superseded attempt is impossible: it would have
        gone to a pipe the parent no longer holds.

        On the plain fail-fast path (no retries, no timeouts, no
        checkpoints, no fault injection, no resume) the pool instead
        merges worker-side along the reduction tree — see
        :meth:`_run_file_tree`.
        """
        if (
            self.n_workers > 1
            and self.on_failure == "raise"
            and self.timeout_s is None
            and self._checkpoint_store() is None
            and (self.fault_plan is None or self.fault_plan.is_noop)
            and not self._resuming
        ):
            return self._run_file_tree(
                context, shards, source, routing, chunk_size
            )
        mmap = self._worker_mmap(source)
        readahead = self._effective_readahead(mmap)
        store = self._checkpoint_store()
        completed: List[Optional[Dict[str, Any]]] = [None] * self.n_workers
        starts: Dict[int, Tuple[Dict[str, Any], int, int]] = {}
        pending = set()
        for worker, shard in enumerate(shards):
            state, start_chunk, start_position, done = self._shard_start(
                store, worker, shard
            )
            if done:
                completed[worker] = state
            else:
                starts[worker] = (state, start_chunk, start_position)
                pending.add(worker)
        if not pending:
            return completed  # type: ignore[return-value]

        procs: Dict[int, Any] = {}
        results: Dict[int, Any] = {}
        deadlines: Dict[int, Optional[float]] = {}
        attempts = {worker: 0 for worker in pending}
        fallback: List[int] = []

        def launch(worker: int) -> None:
            state, start_chunk, start_position = starts[worker]
            task = (
                worker, attempts[worker], self.n_workers, state,
                source, routing, chunk_size, mmap, readahead,
                self.readahead_depth, start_chunk, start_position,
                self.fault_plan, self._shard_checkpoint(worker),
            )
            recv_end, send_end = context.Pipe(duplex=False)
            process = context.Process(
                target=_file_worker, args=(send_end, task), daemon=True
            )
            process.start()
            # The child's inherited copy is now the only writer, so the
            # read end hits EOF the moment the worker is gone.
            send_end.close()
            procs[worker] = process
            results[worker] = recv_end
            deadlines[worker] = (
                None if self.timeout_s is None
                else time.monotonic() + self.timeout_s
            )

        def reap(worker: int, kill: bool = False) -> None:
            process = procs.pop(worker, None)
            recv_end = results.pop(worker, None)
            deadlines.pop(worker, None)
            if recv_end is not None:
                recv_end.close()
            if process is None:
                return
            if kill and process.is_alive():
                process.terminate()
            process.join(timeout=self.WORKER_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self.TERMINATE_JOIN_TIMEOUT_S)

        def fail(worker: int, retryable: bool, error: Exception) -> None:
            reap(worker, kill=True)
            if not retryable or self.on_failure == "raise":
                raise error
            if attempts[worker] < self.retries:
                attempts[worker] += 1
                self.retries_used += 1
                time.sleep(self.RETRY_BACKOFF_S * 2 ** (attempts[worker] - 1))
                launch(worker)
                return
            if self.on_failure == "serial_fallback":
                pending.discard(worker)
                fallback.append(worker)
                return
            raise error

        def absorb(worker: int) -> None:
            process = procs[worker]
            try:
                message = results[worker].recv()
            except (EOFError, OSError):
                fail(
                    worker, True,
                    ShardedWorkerError(
                        f"sharded worker {worker} terminated abnormally "
                        f"without reporting a result "
                        f"(exit code {process.exitcode})",
                        cause_type="WorkerDied",
                        worker=worker,
                    ),
                )
                return
            if (
                not isinstance(message, tuple)
                or len(message) != 4
                or message[0] != worker
                or message[1] != attempts[worker]
            ):
                raise ShardedWorkerError(
                    f"sharded worker returned a corrupt result message: "
                    f"{message!r}",
                    cause_type="CorruptResult",
                    worker=worker,
                )
            _worker, _attempt, processors, error = message
            if error is None:
                completed[worker] = processors
                pending.discard(worker)
                reap(worker)
                return
            cause_type, is_stream_error, formatted, retryable = error
            fail(
                worker, retryable,
                ShardedWorkerError(
                    f"sharded worker {worker} failed:\n{formatted}",
                    cause_type=cause_type,
                    is_stream_error=is_stream_error,
                    worker=worker,
                ),
            )

        try:
            for worker in sorted(pending):
                launch(worker)
            while pending and procs:
                readers = {
                    results[worker]: worker
                    for worker in sorted(pending)
                    if worker in procs
                }
                ready = mp_connection.wait(
                    list(readers), timeout=self.RESULT_POLL_TIMEOUT_S
                )
                if ready:
                    # One event per iteration: absorbing can relaunch
                    # processes and recycle pipes, so recompute the
                    # wait set rather than trusting the rest of
                    # ``ready``.
                    absorb(readers[ready[0]])
                    continue
                if self.timeout_s is None:
                    continue
                now = time.monotonic()
                for worker in sorted(pending):
                    deadline = deadlines.get(worker)
                    if (
                        worker in procs
                        and deadline is not None
                        and now >= deadline
                    ):
                        fail(
                            worker, True,
                            ShardedWorkerError(
                                f"sharded worker {worker} exceeded the "
                                f"per-shard timeout of {self.timeout_s}s",
                                cause_type="TimeoutError",
                                worker=worker,
                            ),
                        )
                        break
        finally:
            for worker in list(procs):
                reap(worker, kill=True)

        for worker in fallback:
            # Last resort after `retries` dead workers: run the shard
            # in-process.  Deterministic in-process kill faults are
            # rejected by the plan itself (see FaultPlan.fire).
            self.fallbacks_used += 1
            state, start_chunk, start_position = starts[worker]
            completed[worker] = _drive(
                state, source, routing, worker, self.n_workers,
                chunk_size, mmap, readahead, self.readahead_depth,
                start_chunk=start_chunk, start_position=start_position,
                fault_plan=self.fault_plan, attempt=attempts[worker] + 1,
                checkpoint=self._shard_checkpoint(worker), in_process=True,
            )
        return completed  # type: ignore[return-value]

    def _run_file_tree(
        self, context, shards, source, routing, chunk_size
    ) -> List[Dict[str, Any]]:
        """Plain-path pool: workers merge pairwise before reporting.

        Replaces the serial parent-side fold over ``n_workers`` full
        summary maps with the distributed reduction tree of
        :func:`~repro.engine.merge.tree_rounds`: in round ``k`` worker
        ``i + 2**k`` ships its (already partially merged) summaries
        over a pre-forked pipe to worker ``i``, which folds them in
        shard order.  Merges at the same depth run on different cores
        concurrently, the chain the parent must wait for is ``log2``
        deep instead of linear, and the parent receives exactly one
        fully merged map (from worker 0) instead of ``n_workers``.
        The merge order is the one :func:`~repro.engine.merge.tree_reduce`
        executes in-process, so answers match the serial backend
        exactly (see :mod:`repro.engine.merge` for which structures
        that makes bit-identical).

        The path is fail-fast by construction — it is only taken under
        ``on_failure="raise"`` with no timeout, checkpointing, fault
        injection, or resume state.  A worker that raises reports its
        error over its result pipe; one that dies silently surfaces as
        EOF both to its tree partner (whose stray pipe copies were
        closed at startup precisely so the tree cannot deadlock on a
        dead peer) and to the parent, which kills the survivors and
        raises the primary cause.
        """
        mmap = self._worker_mmap(source)
        readahead = self._effective_readahead(mmap)
        n_workers = self.n_workers

        # Tree plumbing, created before any fork so every edge can be
        # handed to both of its endpoints (and closed by everyone
        # else).
        recv_edges: Dict[int, List[Any]] = {w: [] for w in range(n_workers)}
        send_edges: Dict[int, Any] = {}
        owned: Dict[int, List[Any]] = {w: [] for w in range(n_workers)}
        edge_conns: List[Any] = []
        for pairs in tree_rounds(n_workers):
            for receiver, sender in pairs:
                recv_end, send_end = context.Pipe(duplex=False)
                recv_edges[receiver].append(recv_end)
                send_edges[sender] = send_end
                owned[receiver].append(recv_end)
                owned[sender].append(send_end)
                edge_conns.extend((recv_end, send_end))

        procs: Dict[int, Any] = {}
        results: Dict[int, Any] = {}
        merged: Optional[Dict[str, Any]] = None
        try:
            for worker, shard in enumerate(shards):
                task = (
                    worker, n_workers, shard, source, routing,
                    chunk_size, mmap, readahead, self.readahead_depth,
                )
                mine = set(map(id, owned[worker]))
                strays = [c for c in edge_conns if id(c) not in mine]
                recv_end, send_end = context.Pipe(duplex=False)
                process = context.Process(
                    target=_tree_file_worker,
                    args=(
                        send_end, task, recv_edges[worker],
                        send_edges.get(worker), strays,
                    ),
                    daemon=True,
                )
                process.start()
                send_end.close()
                procs[worker] = process
                results[worker] = recv_end
            # The children now hold the only live copies of the tree
            # pipes; the parent keeping them open would mask peer
            # deaths (no EOF) and deadlock the tree.
            for conn in edge_conns:
                conn.close()

            errors: Dict[int, ShardedWorkerError] = {}
            pending = set(range(n_workers))
            readers = {results[worker]: worker for worker in pending}
            while pending and not errors:
                ready = mp_connection.wait(
                    [results[worker] for worker in sorted(pending)],
                    timeout=self.RESULT_POLL_TIMEOUT_S,
                )
                for recv_end in ready:
                    worker = readers[recv_end]
                    try:
                        message = recv_end.recv()
                    except (EOFError, OSError):
                        pending.discard(worker)
                        errors[worker] = ShardedWorkerError(
                            f"sharded worker {worker} terminated "
                            f"abnormally without reporting a result "
                            f"(exit code {procs[worker].exitcode})",
                            cause_type="WorkerDied",
                            worker=worker,
                        )
                        continue
                    if (
                        not isinstance(message, tuple)
                        or len(message) != 3
                        or message[0] != worker
                    ):
                        raise ShardedWorkerError(
                            f"sharded worker returned a corrupt result "
                            f"message: {message!r}",
                            cause_type="CorruptResult",
                            worker=worker,
                        )
                    _worker, processors, error = message
                    pending.discard(worker)
                    if error is not None:
                        cause_type, is_stream_error, formatted, _ = error
                        errors[worker] = ShardedWorkerError(
                            f"sharded worker {worker} failed:\n{formatted}",
                            cause_type=cause_type,
                            is_stream_error=is_stream_error,
                            worker=worker,
                        )
                    elif worker == 0:
                        merged = processors
            if errors:
                raise self._primary_tree_error(errors)
            if merged is None:
                raise ShardedWorkerError(
                    "sharded worker 0 finished without reporting the "
                    "merged summaries",
                    cause_type="CorruptResult",
                    worker=0,
                )
        finally:
            for worker, process in procs.items():
                recv_end = results.get(worker)
                if recv_end is not None:
                    recv_end.close()
                if process.is_alive():
                    process.terminate()
                process.join(timeout=self.WORKER_JOIN_TIMEOUT_S)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=self.TERMINATE_JOIN_TIMEOUT_S)
        return [merged]

    @staticmethod
    def _primary_tree_error(
        errors: Dict[int, "ShardedWorkerError"],
    ) -> "ShardedWorkerError":
        """The root cause out of a tree-abort cascade.

        A worker that raises reports the actual exception; its tree
        partners then see EOF on their edges and the parent may see
        workers die — all consequences, not causes.  Prefer the
        reported exception; fall back to the lowest worker index.
        """
        secondary = ("EOFError", "OSError", "WorkerDied")
        for worker in sorted(errors):
            if errors[worker].cause_type not in secondary:
                return errors[worker]
        return errors[min(errors)]


def run_sharded(
    processors: Mapping[str, Any],
    source: Any,
    *,
    n_workers: int = 2,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    mmap: bool = False,
    readahead: Optional[bool] = None,
    readahead_depth: int = 1,
    backend: str = "process",
    retries: int = 2,
    timeout_s: Optional[float] = None,
    on_failure: str = "raise",
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> Dict[str, Any]:
    """One-shot convenience: build a ShardedRunner, run it, return answers.

    Prefer assembling runs through :class:`repro.pipeline.Pipeline`,
    which adds spec validation, registries, and typed results on top of
    the same execution path; this helper remains for direct engine use.
    """
    return ShardedRunner(
        processors,
        n_workers=n_workers,
        chunk_size=chunk_size,
        mmap=mmap,
        readahead=readahead,
        readahead_depth=readahead_depth,
        backend=backend,
        retries=retries,
        timeout_s=timeout_s,
        on_failure=on_failure,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        fault_plan=fault_plan,
    ).run(source)

"""One measured iteration of a workload, run in a fresh process.

``run.py`` starts this module once per iteration so that every
iteration's peak RSS and CPU time are its own (``getrusage`` of this
process plus the shard workers it forks and waits for).  It prints one
JSON object on stdout.

    python3 perfbench/job.py --workload NAME --seed N --input FILE \\
        --workdir DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

if __package__ in (None, ""):
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from repro.engine import FanoutRunner, as_chunks
from repro.pipeline import Pipeline

from perfbench import workloads as wl
from perfbench.oracle import Miss, Oracle, check_answers

#: Pipeline set-ups timed per iteration: at least ``SETUP_REPS``, and
#: more until ``SETUP_MIN_S`` have passed, so that a set-up of 0.1 ms is
#: timed as often as one of 10 ms would be; ``setup_s`` is their median.
SETUP_REPS = 15
SETUP_MIN_S = 0.2


class Spans:
    """Wall time per named span, recorded around public library calls.

    A disabled instance calls straight through with no timer, which is
    what the untraced half of the tracing-overhead measurement runs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.seconds: Dict[str, float] = {}

    def call(
        self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, time.perf_counter() - start)
        return out

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)


def cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, MiB.

    The own peak is ``VmHWM``, which starts afresh at ``exec``;
    ``ru_maxrss`` of ``RUSAGE_SELF`` would carry over the launching
    process's peak.  ``RUSAGE_CHILDREN`` gives only the largest waited-for
    child's peak, so with several shard workers alive at once this is a
    lower bound on their combined peak (and their pages shared with this
    process by ``fork`` are counted twice).
    """
    with open("/proc/self/status", encoding="ascii") as status:
        own = next(
            int(line.split()[1]) for line in status if line.startswith("VmHWM:")
        )
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_setup(
    make: Callable[[], Pipeline], spans: Optional[Spans] = None
) -> Tuple[Pipeline, Any, Dict[str, Any], List[float]]:
    """Timed set-ups (see ``SETUP_REPS``); returns the last one and every
    duration.

    A set-up is what a caller does before the first update: build and
    validate the pipeline, open its source, build its processors.
    """
    times: List[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        pipeline = make()
        opened_at = time.perf_counter()
        opened = pipeline.open_source()
        built_at = time.perf_counter()
        processors = pipeline.build_processors()
        end = time.perf_counter()
        times.append(end - start)
        if spans is not None:
            spans.add("setup.validate", opened_at - start)
            spans.add("setup.open", built_at - opened_at)
            spans.add("setup.build", end - built_at)
            spans.add("setup.reps", 1.0)
    return pipeline, opened, processors, times


# ----------------------------------------------------------------------
# The zipf-sliding driver.
# ----------------------------------------------------------------------


def drive_sliding(
    processors: Dict[str, Any],
    source: Any,
    probe_every: int,
    spans: Spans,
) -> Dict[str, Any]:
    """Feed ``source`` to windowed ``processors`` and probe them.

    Mirrors ``Pipeline.run(probe_every=...)``: a ``FanoutRunner`` takes
    each chunk, and once ``probe_every`` more updates have arrived every
    processor's ``query()`` is called (one caller, closed loop).  Returns
    the probes as ``(position, start_update, end_update, values,
    buckets)``, the final answers, each probe round's latency, the space
    held at each probe (and the CPU time spent measuring it), and the
    time spent in ingest, queries and ``finalize`` (bookkeeping between
    those calls is not counted).
    """
    runner = FanoutRunner(processors, chunk_size=wl.CHUNK_SIZE)
    probes = []
    latencies = []
    space = []
    space_cpu = 0.0
    busy = 0.0
    position = 0
    next_probe = probe_every
    chunks = spans.call("source.read", as_chunks, source, wl.CHUNK_SIZE)
    while True:
        chunk = spans.call("source.read", next, chunks, None)
        if chunk is None:
            break
        start = time.perf_counter()
        if spans.enabled:
            for label, processor in processors.items():
                spans.call(f"kernel.{label}", processor.process_batch, *chunk)
        else:
            runner.process_chunk(*chunk)
        busy += time.perf_counter() - start
        position += len(chunk[0])
        if position >= next_probe:
            start = time.perf_counter()
            answers = {
                label: processor.query() for label, processor in processors.items()
            }
            latency = time.perf_counter() - start
            busy += latency
            latencies.append(latency)
            spans.add("window.query", latency)
            first = next(iter(answers.values()))
            probes.append(
                (
                    position,
                    first.start_update,
                    first.end_update,
                    {label: answer.value for label, answer in answers.items()},
                    max(answer.n_buckets for answer in answers.values()),
                )
            )
            before = time.process_time()
            space.append(spans.call("spacemeter", _space_words, processors))
            space_cpu += time.process_time() - before
            while next_probe <= position:
                next_probe += probe_every
    start = time.perf_counter()
    final = {
        label: spans.call(f"finalize.{label}", processor.finalize)
        for label, processor in processors.items()
    }
    busy += time.perf_counter() - start
    return {
        "probes": probes,
        "final": final,
        "latencies": latencies,
        "space": space,
        "space_cpu_s": space_cpu,
        "busy_s": busy,
    }


def _space_words(processors: Dict[str, Any]) -> int:
    return sum(processor.space_words() for processor in processors.values())


def check_sliding(
    oracle: Oracle,
    workload: wl.Workload,
    probes: List[Tuple[int, int, int, Dict[str, Any], int]],
    final: Dict[str, Any],
) -> Tuple[List[str], List[str]]:
    """Wrong and missing answers over every probe and the final sliding
    answers."""
    verdicts = []
    rounds = [(start, end, values) for _, start, end, values, _ in probes]
    first = next(iter(final.values()))
    rounds.append(
        (
            first.start_update,
            first.end_update,
            {label: answer.value for label, answer in final.items()},
        )
    )
    for start, end, values in rounds:
        for label, reason in check_answers(
            oracle, workload, values, (start, end)
        ).items():
            verdicts.append((f"{label} @[{start},{end})", reason))
    return tally(verdicts)


def check_final(
    oracle: Oracle, workload: wl.Workload, answers: Dict[str, Any]
) -> Tuple[List[str], List[str]]:
    """Wrong and missing answers among a sharded job's final answers."""
    return tally(check_answers(oracle, workload, answers).items())


def tally(
    verdicts: Iterable[Tuple[str, Optional[str]]]
) -> Tuple[List[str], List[str]]:
    """Split failed checks into wrong answers and misses (:class:`Miss`)."""
    failures: List[str] = []
    misses: List[str] = []
    for where, reason in verdicts:
        if reason is not None:
            bucket = misses if isinstance(reason, Miss) else failures
            bucket.append(f"{where}: {reason}")
    return failures, misses


def answers_checked(workload: wl.Workload, probes: int) -> int:
    return len(workload.labels) * (probes + (1 if workload.window else 0))


# ----------------------------------------------------------------------
# End-to-end iteration (tracing off).
# ----------------------------------------------------------------------


def end_to_end(
    workload: wl.Workload, seed: int, path: Path, workdir: Path
) -> Dict[str, Any]:
    """One untraced iteration: time, CPU, memory and space of the job,
    then the oracle's verdict on every answer it gave.

    A sharded job receives only the file; the oracle's copy of the input
    is loaded after the peak RSS was read, so the peak is the job's own.
    """
    workers = workload.workers()
    if workload.sharded:
        checkpoint_dir = (
            Path(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))
            if workload.checkpoint_every
            else None
        )
        spec = wl.spec_dict(workload, seed, path, workers, checkpoint_dir)
        pipeline, opened, _, setups = timed_setup(lambda: Pipeline.from_dict(spec))
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        result = pipeline.run(source=opened)
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_before
        rss = peak_rss_mb()
        updates = result.report.n_updates
        space = _space_words(result.processors)
        latencies = [elapsed]
        checked = len(workload.labels)
        stream = wl.load_input(path)

        def verdicts(oracle: Oracle) -> Tuple[List[str], List[str]]:
            return check_final(oracle, workload, result.answers)

    else:
        stream = wl.load_input(path)
        _, opened, processors, setups = timed_setup(
            lambda: wl.memory_pipeline(workload, seed, stream)
        )
        cpu_before = cpu_seconds()
        drive = drive_sliding(
            processors, opened.chunk_source(), workload.probe_every, Spans(False)
        )
        cpu = cpu_seconds() - cpu_before - drive["space_cpu_s"]
        rss = peak_rss_mb()
        updates = len(stream.a)
        elapsed = drive["busy_s"]
        latencies = drive["latencies"]
        # A live monitor holds its state the whole run: the space a probe
        # sees, as a median over probes, not the state at one instant.
        space = statistics.median(drive["space"])
        checked = answers_checked(workload, len(drive["probes"]))

        def verdicts(oracle: Oracle) -> Tuple[List[str], List[str]]:
            return check_sliding(oracle, workload, drive["probes"], drive["final"])

    failures, misses = verdicts(
        Oracle(stream.a, stream.b, stream.sign, stream.n, stream.m)
    )
    return {
        "updates": updates,
        "workers": workers,
        "elapsed_s": elapsed,
        "setup_s": setups,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "space_words": space,
        "query_s": latencies,
        "checked": checked,
        "failures": failures,
        "misses": misses,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        from perfbench.layers import traced

        record = traced(workload, args.seed, args.input, args.workdir)
    else:
        record = end_to_end(workload, args.seed, args.input, args.workdir)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

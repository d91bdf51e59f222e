"""Run the repository benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

For each workload the seed's input is generated (or reused) first, then
``perfbench/job.py`` runs in a fresh process, once per iteration, until
``--seconds`` have passed (at least ``MIN_ITERATIONS`` times with
``--trace 0``, once with ``--trace 1``).  Every iteration's answers are
checked against the oracle.  With ``--trace 0`` the metrics are the
``end_to_end`` set of ``BENCHMARK.json``.  Each timing metric is the best
iteration's figure, host-normalised: multiplied (rates: divided) by
``REFERENCE_S`` over the median time of a fixed kernel timed around the
run's iterations (see ``HostReference``).  The record keeps every figure
as measured too, under ``measured``, with the median and quartiles of
all iterations.  With ``--trace 1`` the metrics are the ``per_layer``
set from the traced replay, as measured.

On the sharded workloads a *query* is one ``Pipeline.run``: the batch
question "who is heavy in this log, and with which witnesses".  On
``zipf-sliding`` it is one round of ``query()`` over the windowed
processors.

Output: a metric table, a ``record`` line with provenance and per-metric
sample counts, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the answers checked.  A wrong answer (or one whose check raises)
counts in ``failed`` and makes the run incorrect; a FEwW processor that
gives no answer although some vertex reaches degree ``d`` is a miss,
which lowers ``answer_pass_rate`` and is listed in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

from repro.engine import effective_cores  # noqa: E402

from perfbench import workloads as wl  # noqa: E402

JOB = Path(__file__).resolve().parent / "job.py"
CACHE = ROOT / ".bench_cache"
MIN_ITERATIONS = 3
#: Seconds the host reference kernel takes on a quiet host; timing
#: metrics are reported at this host speed.
REFERENCE_S = 0.040
#: Wall-clock budget of one invocation; no iteration starts that would
#: likely end past it.
BUDGET_S = 150.0


def load_metric_specs() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


class HostReference:
    """A fixed kernel that calls no library code, timed around every
    iteration to gauge how fast the host runs at that moment.

    The host's speed drifts by up to 1.5x over tens of minutes, in CPU
    time as well as wall time, which no bound a benchmark may set would
    absorb.  The kernel (a random gather over a 16 MiB table and a Python
    dict count) follows that drift, so a run's times are reported scaled
    by ``REFERENCE_S`` over the kernel's median time in that run
    (BASELINES.md has the agreement of measured and scaled figures).
    The kernel runs in this process, so it never shows in a job's
    memory.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = np.arange(1 << 21, dtype=np.int64)
        self._index = rng.integers(0, 1 << 21, 1 << 21)
        self._keys = rng.integers(0, 1 << 16, 60_000).tolist()

    def _kernel(self) -> None:
        self._table.take(self._index).sum()
        counts: Dict[int, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1

    def seconds(self) -> float:
        """Median of three timed kernel runs."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def run_job(
    workload: wl.Workload, seed: int, path: Path, trace: bool, timeout: float
) -> Dict[str, Any]:
    """One iteration in a fresh process group, killed whole on timeout."""
    work = Path(tempfile.mkdtemp(prefix="work-", dir=CACHE))
    command = [
        sys.executable, str(JOB), "--workload", workload.name,
        "--seed", str(seed), "--input", str(path), "--workdir", str(work),
    ]
    if trace:
        command.append("--trace")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload.name} iteration exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        sys.stderr.write(stderr)
        raise RuntimeError(
            f"{workload.name} iteration exited with {process.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def iterate(
    workload: wl.Workload, seed: int, seconds: float, trace: bool, started: float
) -> List[Dict[str, Any]]:
    """Iterations until ``seconds`` have passed; each record carries the
    host reference time measured just before and after it."""
    path = wl.input_path(CACHE, workload, seed)
    reference = HostReference()
    minimum = 1 if trace else MIN_ITERATIONS
    records: List[Dict[str, Any]] = []
    measuring = time.perf_counter()
    longest = 0.0
    while len(records) < minimum or time.perf_counter() - measuring < seconds:
        left = BUDGET_S - (time.perf_counter() - started)
        if records and longest > left:
            break
        began = time.perf_counter()
        before = reference.seconds()
        record = run_job(workload, seed, path, trace, max(left, 30.0))
        record["reference_s"] = (before + reference.seconds()) / 2
        records.append(record)
        longest = max(longest, time.perf_counter() - began)
    return records


def percentile_stats(values: List[float], q: float) -> Dict[str, Any]:
    value = float(np.percentile(values, q))
    return {
        "value": value,
        "samples": len(values),
        "beyond": int(sum(1 for v in values if v > value)),
    }


def median_stats(values: List[float]) -> Dict[str, Any]:
    stats = percentile_stats(values, 50)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        stats.update(q1=q1, q3=q3)
    return stats


def best_stats(values: List[float], higher: bool) -> Dict[str, Any]:
    """The best iteration's value, with the median and quartiles of all
    iterations' values beside it.

    Host slowdowns only ever slow an iteration down, and they come in
    phases of seconds to minutes, so the best of a run's iterations
    repeats from run to run where their median does not (BASELINES.md).
    """
    stats = median_stats(values)
    stats["median"] = stats.pop("value")
    stats["value"] = max(values) if higher else min(values)
    return stats


def query_stats(records: List[Dict[str, Any]], q: float) -> Dict[str, Any]:
    """The ``q``-th percentile of each iteration's query latencies (ms),
    best iteration first; ``queries`` and ``beyond`` count that
    iteration's queries and those slower than its percentile."""
    per = [
        percentile_stats([1000.0 * s for s in record["query_s"]], q)
        for record in records
    ]
    stats = best_stats([p["value"] for p in per], higher=False)
    best = min(per, key=lambda p: p["value"])
    stats.update(queries=best["samples"], beyond=best["beyond"])
    return stats


#: End-to-end metrics that are times (scaled by the host factor) and
#: rates (divided by it).
TIMES = ("setup_s", "cpu_s_per_mupdate", "query_p50_ms", "query_p90_ms")
RATES = ("updates_per_s",)


def host_scaled(
    stats: Dict[str, Dict[str, Any]], factor: float
) -> Dict[str, Dict[str, Any]]:
    """``stats`` with every time multiplied, every rate divided, by
    ``factor``."""
    out = {}
    for name, entry in stats.items():
        power = 1 if name in TIMES else -1 if name in RATES else 0
        out[name] = {
            key: value * factor ** power
            if key in ("value", "median", "q1", "q3")
            else value
            for key, value in entry.items()
        }
    return out


def end_to_end_metrics(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Timings from the best iteration, memory and space as medians over
    iterations, the pass rate over every answer checked."""
    checked = sum(record["checked"] for record in records)
    failed = sum(
        len(record["failures"]) + len(record["misses"]) for record in records
    )
    return {
        "updates_per_s": best_stats(
            [r["updates"] / r["elapsed_s"] for r in records], higher=True
        ),
        "setup_s": best_stats(
            [statistics.median(r["setup_s"]) for r in records], higher=False
        ),
        "cpu_s_per_mupdate": best_stats(
            [r["cpu_s"] / (r["updates"] / 1e6) for r in records], higher=False
        ),
        "peak_rss_mb": median_stats([r["peak_rss_mb"] for r in records]),
        "space_words": median_stats([float(r["space_words"]) for r in records]),
        "answer_pass_rate": {
            "value": (checked - failed) / checked,
            "samples": checked,
        },
        "query_p50_ms": query_stats(records, 50),
        "query_p90_ms": query_stats(records, 90),
    }


def per_layer_metrics(
    records: List[Dict[str, Any]], specs: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Medians over traced iterations; a layer the workload does not
    have (no window on a sharded job, say) reads 0."""
    return {
        spec["name"]: median_stats(
            [record["metrics"].get(spec["name"], 0.0) for record in records]
        )
        for spec in specs
    }


def git_provenance() -> Dict[str, Any]:
    """Commit and dirty flag, or nulls outside a git work tree (git is
    kept from searching above the checkout)."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True,
                text=True, env=env, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
    }


def run_workload(
    workload: wl.Workload, args: argparse.Namespace, specs: Dict[str, Any]
) -> Dict[str, Any]:
    started = time.perf_counter()
    trace = bool(args.trace)
    records = iterate(workload, args.seed, args.seconds, trace, started)
    wanted = specs["per_layer"] if trace else specs["end_to_end"]
    workers = records[0]["workers"]
    reference = median_stats([r["reference_s"] for r in records])
    if trace:
        measured = stats = per_layer_metrics(records, wanted)
    else:
        measured = end_to_end_metrics(records)
        stats = host_scaled(measured, REFERENCE_S / reference["value"])
    metrics = {
        spec["name"]: {"value": stats[spec["name"]]["value"], "unit": spec["unit"]}
        for spec in wanted
    }
    cores = effective_cores()
    failures = [f for record in records for f in record["failures"]]
    misses = [m for record in records for m in record["misses"]]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(trace),
        "iterations": len(records),
        "updates": records[0]["updates"],
        "effective_cores": cores,
        "workers": workers,
        "parallelism": (
            "no parallelism measured"
            if workload.sharded and workers < 2
            else None
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **git_provenance(),
        "host_reference_s": reference,
        "measured": measured,
        "host_normalised": None if trace else stats,
        "failures": failures,
        "misses": len(misses),
        "first_misses": misses[:5],
    }
    print(f"# {workload.name}  seed={args.seed}  trace={int(trace)}  "
          f"iterations={len(records)}  workers={workers}  "
          f"effective_cores={cores}")
    for spec in wanted:
        entry = stats[spec["name"]]
        raw = measured[spec["name"]]["value"]
        print(f"  {spec['name']:<40} {entry['value']:>16.6g} {spec['unit']:<11}"
              f" n={entry['samples']}"
              + (f"  measured {raw:.6g}" if raw != entry["value"] else ""))
    for failure in failures[:5]:
        print(f"  FAILED {failure}")
    if len(failures) > 5:
        print(f"  ... and {len(failures) - 5} more failed answers")
    if misses:
        print(f"  MISSED {len(misses)} answers, first: {misses[0]}")
    print("record " + json.dumps(record, sort_keys=True))
    return {
        "correct": not failures,
        "attempted": sum(r["checked"] for r in records),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    specs = load_metric_specs()
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument(
        "--workload", default="all", choices=["all", *wl.WORKLOADS]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=specs["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    CACHE.mkdir(exist_ok=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(wl.WORKLOADS[name], args, specs) for name in names}
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads: seeded inputs and the pipeline job each one runs.

Inputs are built from the run's seed with :func:`numpy.random.default_rng`
outside every timed region, and written once per seed as v2 NPZ files
with the library's public ``dump_columnar``.  The program under test
receives only the stream: ``zipf-sliding`` hands it an in-memory
stream, the sharded workloads hand it the file path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine import effective_cores
from repro.pipeline import (
    ExecSpec,
    Pipeline,
    PipelineSpec,
    ProcessorSpec,
    SourceSpec,
    WindowSpec,
)
from repro.streams import (
    ColumnarEdgeStream,
    GeneratorConfig,
    churn_columnar,
    dump_columnar,
    load_columnar,
)

CHUNK_SIZE = 8192
ZIPF_EXPONENT = 1.1
#: Cached input files kept per workload; older seeds are deleted so
#: ten-seed sweeps do not fill the disk.
CACHE_KEEP = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input shape and its pipeline job.

    ``processors`` holds registry specs without seeds (the run's seed
    is added when the job is built); ``sharded`` jobs read a file on
    every core, the others stream from memory in one process.
    """

    name: str
    n: int
    m: int
    updates: int
    processors: Tuple[Dict[str, Any], ...]
    sharded: bool
    window: Optional[Dict[str, Any]] = None
    probe_every: int = 0
    checkpoint_every: int = 0

    @property
    def labels(self) -> List[str]:
        return [spec["name"] for spec in self.processors]

    def params(self, label: str) -> Dict[str, Any]:
        for spec in self.processors:
            if spec["name"] == label:
                return spec["params"]
        raise KeyError(label)

    def workers(self) -> int:
        """Worker processes for the job: every core the host gives us
        for the sharded workloads, one otherwise."""
        return effective_cores() if self.sharded else 1


def zipf_probabilities(n: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def half_top_count(n: int, count: int) -> int:
    """Half the expected count of the hottest Zipf item among ``count``
    draws: a degree threshold ``d`` whose promise holds with margin."""
    return int(zipf_probabilities(n)[0] * count) // 2


def zipf_sliding(
    n: int = 4096,
    updates: int = 2_000_000,
    window: int = 65536,
    probe_every: int = 8192,
) -> Workload:
    """Live monitor: Alg 2 and Misra-Gries under a sliding window.

    ``d`` is half the hottest item's expected count in one full window,
    so every full window keeps the degree promise.
    """
    bucket_ratio = 0.25
    return Workload(
        name="zipf-sliding",
        n=n,
        m=1 << 20,
        updates=updates,
        processors=(
            {
                "name": "insertion-only",
                "params": {
                    "n": n,
                    "d": half_top_count(n, window),
                    "alpha": 2,
                },
            },
            {"name": "misra-gries", "params": {"k": 64}},
        ),
        sharded=False,
        window={"policy": "sliding", "window": window, "bucket_ratio": bucket_ratio},
        probe_every=probe_every,
    )


def ipv4_sharded(
    n: int = 1 << 20, m: int = 1 << 24, updates: int = 1_000_000
) -> Workload:
    """Router log: Alg 2 and Count-Min over wide destination ids."""
    return Workload(
        name="ipv4-sharded",
        n=n,
        m=m,
        updates=updates,
        processors=(
            {
                "name": "insertion-only",
                "params": {"n": n, "d": half_top_count(n, updates), "alpha": 2},
            },
            {"name": "count-min", "params": {"epsilon": 0.001, "delta": 0.001}},
        ),
        sharded=True,
    )


def churn_ckpt(
    n: int = 1024,
    star: int = 256,
    background: int = 250_000,
    checkpoint_every: int = 32,
) -> Workload:
    """Turnstile scan: Alg 3 and Count-Min, checkpointed, over background
    edges inserted then deleted around one planted star of degree
    ``star``."""
    return Workload(
        name="churn-ckpt",
        n=n,
        m=n,
        updates=2 * background + star,
        processors=(
            {
                "name": "insertion-deletion",
                "params": {"n": n, "m": n, "d": star, "alpha": 2, "scale": 0.1},
            },
            {"name": "count-min", "params": {"epsilon": 0.001, "delta": 0.001}},
        ),
        sharded=True,
        checkpoint_every=checkpoint_every,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (zipf_sliding(), ipv4_sharded(), churn_ckpt())
}


# ----------------------------------------------------------------------
# Input generation.
# ----------------------------------------------------------------------


def distinct_witnesses(
    rng: np.random.Generator, a: np.ndarray, bits: int
) -> np.ndarray:
    """A witness per update such that no item repeats a witness.

    The k-th occurrence of item ``x`` gets ``mix(k + offset[x])`` where
    ``mix`` is a bijection on ``bits``-bit integers, so every ``(a, b)``
    edge is unique (the simple-graph discipline the algorithms assume)
    while witnesses still look uniformly spread.
    """
    mask = (1 << bits) - 1
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    lengths = np.diff(np.r_[starts, len(a)])
    ordinal = np.empty(len(a), dtype=np.int64)
    ordinal[order] = np.arange(len(a), dtype=np.int64) - np.repeat(starts, lengths)
    offsets = rng.integers(0, 1 << bits, size=int(a.max()) + 1, dtype=np.int64)
    x = (ordinal + offsets[a]) & mask
    multiplier = int(rng.integers(0, 1 << (bits - 1))) * 2 + 1
    x = (x * multiplier) & mask
    x ^= x >> (bits // 2)
    return (x * multiplier) & mask


def zipf_columns(
    seed: int, n: int, m: int, updates: int
) -> ColumnarEdgeStream:
    """Zipf item popularity with the hot ids scattered over ``[0, n)``
    and distinct random witnesses over ``[0, m)``."""
    rng = np.random.default_rng(seed)
    ranks = rng.choice(n, size=updates, p=zipf_probabilities(n))
    a = rng.permutation(n)[ranks]
    b = distinct_witnesses(rng, a, int(math.log2(m)))
    return ColumnarEdgeStream(a, b, n=n, m=m, validate=False)


def churn_stream(seed: int, workload: Workload) -> ColumnarEdgeStream:
    """``churn_columnar``: background edges inserted then deleted around
    one planted star at a seed-chosen vertex."""
    degree = workload.params("insertion-deletion")["d"]
    return churn_columnar(
        GeneratorConfig(workload.n, workload.m, seed=seed),
        degree,
        (workload.updates - degree) // 2,
        star_vertex=int(np.random.default_rng(seed).integers(workload.n)),
    )


def generate(workload: Workload, seed: int) -> ColumnarEdgeStream:
    if workload.name == "churn-ckpt":
        return churn_stream(seed, workload)
    return zipf_columns(seed, workload.n, workload.m, workload.updates)


def input_path(cache: Path, workload: Workload, seed: int) -> Path:
    """The seed's input file, generated on first use."""
    stem = f"{workload.name}-n{workload.n}-u{workload.updates}"
    path = cache / f"{stem}-s{seed}.npz"
    if path.exists():
        path.touch()
        return path
    cache.mkdir(parents=True, exist_ok=True)
    older = sorted(cache.glob(f"{stem}-s*.npz"), key=lambda p: p.stat().st_mtime)
    for stale in older[: max(0, len(older) - CACHE_KEEP + 1)]:
        stale.unlink()
    dump_columnar(generate(workload, seed), path)
    return path


def load_input(path: Path) -> ColumnarEdgeStream:
    return load_columnar(path, validate=False)


# ----------------------------------------------------------------------
# Pipeline specs.
# ----------------------------------------------------------------------


def spec_dict(
    workload: Workload,
    seed: int,
    path: Path,
    workers: int,
    checkpoint_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """The JSON pipeline spec of a file-source (sharded) job."""
    data: Dict[str, Any] = {
        "source": {
            "kind": "file",
            "path": str(path),
            "mmap": True,
            "chunk_size": CHUNK_SIZE,
        },
        "processors": [
            {"name": spec["name"], "params": {**spec["params"], "seed": seed}}
            for spec in workload.processors
        ],
        "execution": {"backend": "sharded", "workers": workers},
    }
    if checkpoint_dir is not None:
        data["checkpoint"] = {
            "dir": str(checkpoint_dir),
            "every": workload.checkpoint_every,
        }
    return data


def memory_pipeline(
    workload: Workload, seed: int, stream: ColumnarEdgeStream
) -> Pipeline:
    """The ``zipf-sliding`` job over an in-memory stream (an in-memory
    source cannot round-trip through JSON, so the spec is built
    directly; window seeds stand in for processor seeds)."""
    return Pipeline(
        PipelineSpec(
            source=SourceSpec.memory(stream, chunk_size=CHUNK_SIZE),
            processors=tuple(
                ProcessorSpec(spec["name"], dict(spec["params"]))
                for spec in workload.processors
            ),
            window=WindowSpec.from_dict({**workload.window, "seed": seed}),
            execution=ExecSpec(),
        )
    )

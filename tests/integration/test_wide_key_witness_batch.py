"""Batch witness collection on wide vertex ids, against the per-item path.

Algorithm 1's batch path builds its witness requests from the chunk's
distinct vertices, not from the reservoir.  That matters when ids are
wide (``n >= 2**17``, so :func:`~repro.streams.columnar.group_slices`
takes its 64-bit argsort) and the reservoir ``s`` holds many more
vertices than a chunk touches.  These tests pin, in that regime:

* bit-identity with :meth:`process_item` — reservoir items in dict
  order, the resident list, the candidate count and the RNG state — for
  standalone :class:`DegResSampling`, :class:`InsertionOnlyFEwW` and
  :class:`StarDetection` (the shared-grouping ``observe_batch`` path),
  on a stream that provably contains a vertex admitted and evicted in
  one chunk, a resident absent from a chunk, and a resident that fills
  to ``d2`` mid-chunk;
* a deterministic O(chunk) guard: a chunk's collection request lists
  only vertices occurring in that chunk, however full the reservoir.
"""

import random

import numpy as np
import pytest

import repro.core.deg_res_sampling as deg_res_module
import repro.core.insertion_only as insertion_only_module
from repro.core.deg_res_sampling import DegResSampling
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.star_detection import StarDetection
from repro.streams.edge import Edge, StreamItem

WIDE_N = 1 << 20
CHUNK_SIZES = (1, 7, 1000, 8192)
SCENARIO_CHUNKS = (1000, 8192)
SEED = 11


def epoch_stream(seed, epochs, epoch_vertices, repeats, n=WIDE_N):
    """Edges over wide ids arriving in epochs.

    Each epoch brings ``epoch_vertices`` fresh vertices, each repeated
    ``repeats`` times in shuffled order, so a chunk touches few distinct
    vertices, vertices straddle chunk boundaries, and earlier epochs'
    residents are absent from later chunks.  ``b`` is the arrival
    position, so every edge is distinct.
    """
    rng = np.random.default_rng(seed)
    ids = rng.choice(n, size=epochs * epoch_vertices, replace=False)
    blocks = []
    for epoch in range(epochs):
        block = np.repeat(
            ids[epoch * epoch_vertices : (epoch + 1) * epoch_vertices], repeats
        )
        rng.shuffle(block)
        blocks.append(block)
    a = np.concatenate(blocks).astype(np.int64)
    return a, np.arange(len(a), dtype=np.int64)


STREAM = epoch_stream(SEED, epochs=16, epoch_vertices=26, repeats=50)


def items(a, b):
    return [StreamItem(Edge(x, y)) for x, y in zip(a.tolist(), b.tolist())]


def run_state(run):
    return (
        list(run._reservoir.items()),
        list(run._resident),
        run._candidates_seen,
        run._rng.getstate(),
    )


def make_deg_res():
    return DegResSampling(WIDE_N, 3, 30, 120, random.Random(SEED))


def make_alg2():
    return InsertionOnlyFEwW(WIDE_N, 60, 2, seed=SEED, reservoir_override=120)


def runs_of(structure):
    if isinstance(structure, DegResSampling):
        return [structure]
    if isinstance(structure, InsertionOnlyFEwW):
        return structure.runs
    return [run for _, rung in structure._runs for run in rung.runs]


def feed_batches(structure, a, b, chunk):
    for lo in range(0, len(a), chunk):
        structure.process_batch(a[lo : lo + chunk], b[lo : lo + chunk])


def scenario_counts(structure, a, b, chunk):
    """Feed ``structure`` per item; count the three regimes per chunk.

    Returns ``(admitted_and_evicted, absent_resident, filled_mid_chunk)``
    summed over every Algorithm 1 run: vertices admitted and evicted
    inside one chunk; (run, chunk) pairs with a resident that does not
    occur in the chunk; vertices resident before a chunk that reach
    ``d2`` inside it and occur again later in it.
    """
    runs = runs_of(structure)
    stream_items = items(a, b)
    vertices = a.tolist()
    admitted_and_evicted = absent = filled = 0
    for lo in range(0, len(a), chunk):
        chunk_vertices = vertices[lo : lo + chunk]
        present = set(chunk_vertices)
        last_seen = {vertex: i for i, vertex in enumerate(chunk_vertices)}
        members = [set(run._reservoir) for run in runs]
        short = [
            {v for v, w in run._reservoir.items() if len(w) < run.d2}
            for run in runs
        ]
        absent += sum(bool(m - present) for m in members)
        admitted = [set() for _ in runs]
        for i, item in enumerate(stream_items[lo : lo + chunk]):
            structure.process_item(item)
            vertex = chunk_vertices[i]
            for k, run in enumerate(runs):
                if vertex in run._reservoir and vertex not in members[k]:
                    admitted[k].add(vertex)
                    if len(run._reservoir) == len(members[k]):
                        evicted = members[k] - run._reservoir.keys()
                        admitted_and_evicted += len(evicted & admitted[k])
                        members[k] -= evicted
                    members[k].add(vertex)
                if (
                    vertex in short[k]
                    and len(run._reservoir.get(vertex, ())) == run.d2
                ):
                    short[k].discard(vertex)
                    filled += last_seen[vertex] > i
    return admitted_and_evicted, absent, filled


@pytest.mark.parametrize("make", [make_deg_res, make_alg2], ids=["deg-res", "alg2"])
@pytest.mark.parametrize("chunk", SCENARIO_CHUNKS)
def test_stream_covers_the_slow_regime(make, chunk):
    """The stream exercises every case the per-chunk-vertex walk must get
    right, and the reservoir holds more vertices than a chunk touches."""
    a, b = STREAM
    structure = make()
    counts = scenario_counts(structure, a, b, chunk)
    assert all(count > 0 for count in counts), counts
    if chunk == 1000:
        most_distinct = max(
            len(np.unique(a[lo : lo + chunk])) for lo in range(0, len(a), chunk)
        )
        assert runs_of(structure)[0].s > 2 * most_distinct


@pytest.mark.parametrize("make", [make_deg_res, make_alg2], ids=["deg-res", "alg2"])
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_batch_matches_per_item(make, chunk):
    a, b = STREAM
    reference = make()
    for item in items(a, b):
        reference.process_item(item)
    batched = make()
    feed_batches(batched, a, b, chunk)
    assert [run_state(run) for run in runs_of(batched)] == [
        run_state(run) for run in runs_of(reference)
    ]


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
def test_star_detection_batch_matches_per_item(chunk):
    """Star Detection feeds every rung through ``observe_batch`` with the
    shared grouping and crossing scan.  α = 6 keeps the default
    reservoir (84 at n = 2**17) small enough to evict."""
    n = 1 << 17
    a, b = epoch_stream(SEED, epochs=6, epoch_vertices=30, repeats=20, n=n)

    def make():
        return StarDetection(n, 6, eps=3.0, seed=SEED)

    reference = make()
    for item in items(a, b):
        reference.process_item(item)
    batched = make()
    feed_batches(batched, a, b, chunk)
    reference_runs = runs_of(reference)
    assert any(run._candidates_seen > run.s for run in reference_runs)
    assert [run_state(run) for run in runs_of(batched)] == [
        run_state(run) for run in reference_runs
    ]


class _RequestSpy:
    """Stands in for ``collect_witnesses`` and records each request."""

    def __init__(self):
        self.requests = []
        self._collect = deg_res_module.collect_witnesses

    def __call__(self, requests, composite, order, b):
        self.requests.extend(requests)
        self._collect(requests, composite, order, b)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DegResSampling(WIDE_N, 1, 10**6, 5000, random.Random(SEED)),
        lambda: InsertionOnlyFEwW(
            WIDE_N, 2 * 10**6, 2, seed=SEED, reservoir_override=5000
        ),
    ],
    ids=["deg-res", "alg2"],
)
def test_request_is_bounded_by_the_chunk(make, monkeypatch):
    """With thousands of short residents, a chunk over a handful of
    vertices requests only those vertices: per-resident work fails."""
    structure = make()
    rng = np.random.default_rng(SEED)
    fill = rng.choice(WIDE_N - 1, size=4000, replace=False).astype(np.int64)
    feed_batches(structure, fill, np.arange(len(fill), dtype=np.int64), 8192)
    first_run = runs_of(structure)[0]
    assert len(first_run._reservoir) == len(fill)

    chunk_a = np.concatenate([fill[:5], [WIDE_N - 1] * 3, fill[:5]])
    chunk_b = np.arange(len(chunk_a), dtype=np.int64) + len(fill)
    spy = _RequestSpy()
    monkeypatch.setattr(deg_res_module, "collect_witnesses", spy)
    monkeypatch.setattr(insertion_only_module, "collect_witnesses", spy)
    structure.process_batch(chunk_a, chunk_b)
    distinct = set(chunk_a.tolist())
    assert spy.requests
    for _, active, _, _, _ in spy.requests:
        assert set(active) <= distinct
        assert len(active) <= len(distinct)
    assert len(first_run._reservoir[fill[0]]) == 3

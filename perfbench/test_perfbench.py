"""The benchmark's own tests, on scaled-down copies of its workloads.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import Neighbourhood
from repro.pipeline import Pipeline
from repro.streams import ColumnarEdgeStream

from perfbench import workloads as wl
from perfbench.job import Spans, drive_sliding, end_to_end, tally
from perfbench.layers import replay_sharded
from perfbench.oracle import Miss, Oracle, check_answers

SEED = 7

SMALL = {
    "zipf-sliding": wl.zipf_sliding(
        n=256, updates=5 * wl.CHUNK_SIZE, window=16384, probe_every=wl.CHUNK_SIZE
    ),
    "ipv4-sharded": wl.ipv4_sharded(n=1 << 12, m=1 << 16, updates=40_000),
    "churn-ckpt": wl.churn_ckpt(n=128, star=64, background=12_000, checkpoint_every=2),
}


def _oracle(stream) -> Oracle:
    return Oracle(stream.a, stream.b, stream.sign, stream.n, stream.m)


@pytest.mark.parametrize("name", ["ipv4-sharded", "churn-ckpt"])
def test_replay_passes_oracle_and_matches_pipeline_count_min(name, tmp_path):
    workload = SMALL[name]
    path = wl.input_path(tmp_path, workload, SEED)
    spec = wl.spec_dict(workload, SEED, path, 2)
    processors = Pipeline.from_dict(spec).build_processors()
    checkpoint_dir = tmp_path / "ckpt" if workload.checkpoint_every else None
    answers, merged, counts = replay_sharded(
        workload, path, processors, 2, Spans(), checkpoint_dir
    )
    stream = wl.load_input(path)
    assert check_answers(_oracle(stream), workload, answers) == {
        label: None for label in workload.labels
    }
    if workload.checkpoint_every:
        assert counts["checkpoint_count"] > 0
    result = Pipeline.from_dict(spec).run()
    items = np.arange(workload.n)
    np.testing.assert_array_equal(
        merged["count-min"].estimate_batch(items),
        result.processors["count-min"].estimate_batch(items),
    )


def test_sliding_driver_probes_equal_pipeline_probes(tmp_path):
    workload = SMALL["zipf-sliding"]
    stream = wl.load_input(wl.input_path(tmp_path, workload, SEED))
    pipeline = wl.memory_pipeline(workload, SEED, stream)
    drive = drive_sliding(
        pipeline.build_processors(), stream, workload.probe_every, Spans(False)
    )
    reference = wl.memory_pipeline(workload, SEED, stream).run(
        probe_every=workload.probe_every
    )
    assert len(drive["probes"]) == len(reference.probes) >= 4
    for (position, start, end, values, _), probe in zip(
        drive["probes"], reference.probes
    ):
        assert position == probe.position
        alg2 = probe.answers["insertion-only"]
        mg = probe.answers["misra-gries"]
        assert (start, end) == (alg2.start_update, alg2.end_update)
        assert values["insertion-only"] == alg2.value
        assert values["misra-gries"].candidates(0) == mg.value.candidates(0)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_inputs_and_space(name, tmp_path):
    workload = SMALL[name]
    first, second = (
        wl.generate(workload, SEED),
        wl.generate(workload, SEED),
    )
    for column in ("a", "b", "sign"):
        np.testing.assert_array_equal(getattr(first, column), getattr(second, column))
    # A simple graph: each edge inserted at most once while alive.
    ColumnarEdgeStream(first.a, first.b, first.sign, n=first.n, m=first.m)
    path = wl.input_path(tmp_path, workload, SEED)
    records = [end_to_end(workload, SEED, path, tmp_path) for _ in range(2)]
    assert records[0]["space_words"] == records[1]["space_words"] > 0
    assert records[0]["failures"] == records[1]["failures"] == []
    assert records[0]["misses"] == records[1]["misses"]


def _true_neighbourhood(oracle: Oracle, stream, threshold: int) -> Neighbourhood:
    """The heaviest vertex with ``threshold`` of its surviving edges."""
    vertex = int(oracle.heaviest(oracle.frequencies(), 1)[0])
    mine = stream.a == vertex
    deleted = set(stream.b[mine & (stream.sign == -1)].tolist())
    alive = [b for b in stream.b[mine & (stream.sign == 1)].tolist() if b not in deleted]
    return Neighbourhood.of(vertex, alive[:threshold])


def test_oracle_rejects_planted_bad_answers(tmp_path):
    workload = SMALL["ipv4-sharded"]
    stream = wl.generate(workload, SEED)
    oracle = _oracle(stream)
    params = workload.params("insertion-only")
    frequencies = oracle.frequencies()
    good = _true_neighbourhood(oracle, stream, params["d"])
    assert oracle.check_feww(good, params, frequencies) is None

    mine = set(good.witnesses)
    edges = set(stream.b[stream.a == good.vertex].tolist())
    foreign = next(b for b in range(workload.m) if b not in edges)
    planted = Neighbourhood.of(good.vertex, [*list(mine)[1:], foreign])
    planted_reason = oracle.check_feww(planted, params, frequencies)
    assert "not an input edge" in planted_reason

    too_few = Neighbourhood.of(good.vertex, list(mine)[: params["d"] // 2 - 1])
    assert "need" in oracle.check_feww(too_few, params, frequencies)

    span = (len(stream.a) // 2, len(stream.a))
    outside = oracle.check_feww(good, params, oracle.frequencies(*span), span)
    assert "outside" in outside

    missing = oracle.check_feww(None, params, frequencies)
    assert isinstance(missing, Miss) and "AlgorithmFailed" in missing
    assert not isinstance(planted_reason, Miss)
    assert tally([("a", None), ("b", planted_reason), ("c", missing)]) == (
        [f"b: {planted_reason}"],
        [f"c: {missing}"],
    )


def test_oracle_rejects_deleted_witness():
    workload = SMALL["churn-ckpt"]
    stream = wl.generate(workload, SEED)
    oracle = _oracle(stream)
    params = workload.params("insertion-deletion")
    star = _true_neighbourhood(oracle, stream, params["d"])
    assert oracle.check_feww(star, params, oracle.frequencies()) is None
    deleted = stream.sign == -1
    vertex = int(stream.a[deleted][0])
    churned = Neighbourhood.of(
        vertex, stream.b[deleted & (stream.a == vertex)].tolist()
    )
    assert len(churned.witnesses) >= params["d"] // 2
    assert "deleted" in oracle.check_feww(churned, params, oracle.frequencies())


def test_input_cache_is_keyed_by_shape(tmp_path):
    small = SMALL["ipv4-sharded"]
    bigger = dataclasses.replace(small, updates=small.updates + 1)
    assert wl.input_path(tmp_path, small, SEED) != wl.input_path(tmp_path, bigger, SEED)

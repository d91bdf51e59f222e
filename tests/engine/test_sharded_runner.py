"""ShardedRunner mechanics: registration, routing, backends, failures."""

import numpy as np
import pytest

from repro.baselines import CountMinSketch, MisraGries
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.core.windowed import TumblingWindowFEwW
from repro.engine import ShardedRunner, run_sharded, vertex_shard
from repro.engine.sharded import fork_available, route_chunk
from repro.streams.columnar import ColumnarEdgeStream


def small_stream(n_updates=200, n=16):
    rng = np.random.default_rng(3)
    return ColumnarEdgeStream(
        rng.integers(0, n, size=n_updates),
        np.arange(n_updates, dtype=np.int64),
        n=n,
        m=n_updates,
    )


class FailingProcessor:
    """Mergeable test double that blows up mid-stream."""

    shard_routing = "any"

    def __init__(self):
        self.chunks = 0

    def process_batch(self, a, b, sign=None):
        self.chunks += 1
        if self.chunks >= 2:
            raise RuntimeError("synthetic mid-stream failure")

    def finalize(self):
        return self.chunks

    def merge(self, other):
        self.chunks += other.chunks
        return self

    def split(self, n_shards):
        return [FailingProcessor() for _ in range(n_shards)]


class TestRegistration:
    def test_rejects_non_mergeable_processor(self):
        class NoMergeLayer:
            def process_batch(self, a, b, sign=None):
                pass

            def finalize(self):
                return None

        with pytest.raises(TypeError, match="merge, split"):
            ShardedRunner({"bad": NoMergeLayer()})

    def test_rejects_duplicate_name(self):
        runner = ShardedRunner({"cm": CountMinSketch(0.1, 0.1, seed=0)})
        with pytest.raises(ValueError, match="already registered"):
            runner.add("cm", CountMinSketch(0.1, 0.1, seed=0))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_workers"):
            ShardedRunner(n_workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ShardedRunner(chunk_size=0)
        with pytest.raises(ValueError, match="backend"):
            ShardedRunner(backend="threads")

    def test_run_without_processors_rejected(self):
        with pytest.raises(RuntimeError, match="no processors"):
            ShardedRunner(n_workers=2).run(small_stream())

    def test_introspection(self):
        sketch = CountMinSketch(0.1, 0.1, seed=0)
        runner = ShardedRunner({"cm": sketch})
        assert runner.names() == ("cm",)
        assert runner["cm"] is sketch  # before run: the registered one
        assert len(runner) == 1


class TestRouting:
    def test_routing_resolution(self):
        runner = ShardedRunner(
            {
                "cm": CountMinSketch(0.1, 0.1, seed=0),
                "alg2": InsertionOnlyFEwW(16, 4, 2, seed=0),
            }
        )
        assert runner.routing() == "vertex"

    def test_incompatible_routings_rejected(self):
        runner = ShardedRunner(
            {
                "alg2": InsertionOnlyFEwW(16, 4, 2, seed=0),
                "win": TumblingWindowFEwW(16, 4, 2, window=8, seed=0),
            },
            n_workers=2,
        )
        with pytest.raises(ValueError, match="incompatible shard routings"):
            runner.run(small_stream())

    def test_vertex_shard_is_deterministic_and_total(self):
        vertices = np.arange(1000, dtype=np.int64)
        shards = vertex_shard(vertices, 4)
        assert np.array_equal(shards, vertex_shard(vertices, 4))
        assert set(shards.tolist()) == {0, 1, 2, 3}
        # every vertex goes to exactly one shard
        assert ((shards >= 0) & (shards < 4)).all()

    def test_route_chunk_partitions_updates_exactly_once(self):
        stream = small_stream(100)
        chunk = (stream.a, stream.b, stream.sign)
        # masked routings: the workers' sub-chunks partition the chunk
        for routing in ("vertex", ("window", 7)):
            sizes = [
                len(routed[0])
                for worker in range(3)
                if (routed := route_chunk(chunk, routing, worker, 3, 0, 0))
                is not None
            ]
            assert sum(sizes) == 100
        # "any" routing: whole-chunk round robin, exactly one owner
        owners = [
            route_chunk(chunk, "any", worker, 3, 5, 0) is not None
            for worker in range(3)
        ]
        assert owners.count(True) == 1
        assert owners[5 % 3]


class TestExecution:
    def test_single_worker_equals_fanout(self):
        stream = small_stream()
        results = run_sharded(
            {"mg": MisraGries(8)}, stream, n_workers=1
        )
        assert results["mg"]._length == len(stream)

    def test_merged_processor_accessible_after_run(self):
        stream = small_stream()
        runner = ShardedRunner(
            {"cm": CountMinSketch(0.1, 0.1, seed=1)}, n_workers=2
        )
        runner.run(stream)
        assert runner["cm"].estimate(int(stream.a[0])) >= 1

    def test_mmap_requires_path_source(self):
        runner = ShardedRunner(
            {"cm": CountMinSketch(0.1, 0.1, seed=1)}, n_workers=2, mmap=True
        )
        with pytest.raises(ValueError, match="path source"):
            runner.run(small_stream())

    @pytest.mark.parametrize("backend", ["process", "serial"])
    def test_worker_failure_propagates(self, backend):
        runner = ShardedRunner(
            {"fail": FailingProcessor()},
            n_workers=2,
            chunk_size=16,
            backend=backend,
        )
        expected = RuntimeError if backend == "process" else Exception
        with pytest.raises(expected, match="synthetic mid-stream failure"):
            runner.run(small_stream(200))

    def test_abnormal_worker_death_raises_instead_of_hanging(self):
        """A worker killed by the OS (simulated with os._exit, which
        skips the Python-level error reporting) must surface as a
        RuntimeError once its result pipe reaches EOF, not as a parent
        that blocks forever."""

        class DyingProcessor:
            shard_routing = "any"

            def process_batch(self, a, b, sign=None):
                import os

                os._exit(13)

            def finalize(self):
                return None

            def merge(self, other):
                return self

            def split(self, n_shards):
                return [DyingProcessor() for _ in range(n_shards)]

        runner = ShardedRunner(
            {"dying": DyingProcessor()}, n_workers=2, chunk_size=8
        )
        with pytest.raises(RuntimeError, match="terminated abnormally"):
            runner.run(small_stream(400))

    def test_worker_failure_propagates_from_file_pool(self, tmp_path):
        from repro.streams.persist import dump_stream

        path = tmp_path / "s.npz"
        dump_stream(small_stream(200), path, format="v2")
        runner = ShardedRunner(
            {"fail": FailingProcessor()}, n_workers=2, chunk_size=16
        )
        with pytest.raises(RuntimeError, match="synthetic mid-stream failure"):
            runner.run(str(path))

    def test_more_workers_than_chunks(self):
        stream = small_stream(10)
        results = run_sharded(
            {"cm": CountMinSketch(0.1, 0.1, seed=1)},
            stream,
            n_workers=4,
            chunk_size=64,
        )
        single = CountMinSketch(0.1, 0.1, seed=1)
        single.process_batch(stream.a, stream.b, stream.sign)
        assert np.array_equal(results["cm"]._table, single._table)

    def test_empty_stream(self):
        empty = ColumnarEdgeStream(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), n=4, m=4
        )
        results = run_sharded(
            {"alg2": InsertionOnlyFEwW(4, 2, 2, seed=0)}, empty, n_workers=2
        )
        assert results == {"alg2": None}

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_in_memory_plain_run_merges_in_the_workers(self, monkeypatch):
        taken = []
        original = ShardedRunner._run_file_tree

        def spy(self, *args, **kwargs):
            taken.append(True)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ShardedRunner, "_run_file_tree", spy)
        stream = small_stream()
        results = run_sharded(
            {"cm": CountMinSketch(0.1, 0.1, seed=1)}, stream, n_workers=2
        )
        single = CountMinSketch(0.1, 0.1, seed=1)
        single.process_batch(stream.a, stream.b, stream.sign)
        assert taken
        assert np.array_equal(results["cm"]._table, single._table)


class TestSplitGuards:
    def test_split_after_processing_rejected(self):
        sketch = CountMinSketch(0.1, 0.1, seed=0)
        sketch.update(3)
        with pytest.raises(RuntimeError, match="before processing"):
            sketch.split(2)

    def test_split_rejects_bad_shard_count(self):
        with pytest.raises(ValueError, match="n_shards"):
            MisraGries(4).split(0)

    def test_algorithm3_split_after_processing_rejected(self):
        from repro.core.insertion_deletion import InsertionDeletionFEwW

        algorithm = InsertionDeletionFEwW(16, 16, 4, 2, seed=0, scale=0.1)
        algorithm.process_batch(
            np.array([1], dtype=np.int64),
            np.array([2], dtype=np.int64),
            np.array([1], dtype=np.int64),
        )
        with pytest.raises(RuntimeError, match="before processing"):
            algorithm.split(2)

    def test_star_detection_split_after_processing_rejected(self):
        from repro.core.star_detection import StarDetection

        detector = StarDetection(16, 2, seed=0)
        detector.process_batch(
            np.array([1], dtype=np.int64), np.array([2], dtype=np.int64)
        )
        with pytest.raises(RuntimeError, match="before processing"):
            detector.split(2)

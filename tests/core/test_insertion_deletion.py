"""Tests for Algorithm 3 (insertion-deletion FEwW): Theorem 5.4."""

import copy
import math
import pickle
import random

import numpy as np
import pytest

from repro.core.insertion_deletion import (
    InsertionDeletionFEwW,
    SamplingStrategy,
    edge_sampler_count,
    samplers_per_vertex,
    vertex_sample_size,
    x_parameter,
)
from repro.core.neighbourhood import AlgorithmFailed, verify_neighbourhood
from repro.streams.edge import DELETE, INSERT, Edge, StreamItem
from repro.streams.generators import (
    GeneratorConfig,
    deletion_churn_stream,
    planted_star_graph,
    random_bipartite_graph,
)
from repro.streams.stream import EdgeStream


class TestParameters:
    def test_x_parameter_crossover(self):
        """x = n/alpha below sqrt(n), sqrt(n) above."""
        n = 100
        assert x_parameter(n, 2) == 50
        assert x_parameter(n, 10) == 10
        assert x_parameter(n, 20) == 10  # sqrt(100) = 10 takes over
        assert x_parameter(n, 50) == 10

    def test_vertex_sample_size_caps_at_n(self):
        assert vertex_sample_size(50, 2) == 50

    def test_sampler_counts_positive(self):
        assert samplers_per_vertex(100, 10, 2) > 0
        assert edge_sampler_count(100, 200, 10, 2) > 0

    def test_scale_shrinks_counts(self):
        full = edge_sampler_count(100, 200, 10, 2, scale=1.0)
        tiny = edge_sampler_count(100, 200, 10, 2, scale=0.01)
        assert tiny < full

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InsertionDeletionFEwW(10, 10, 5, 0.5)
        with pytest.raises(ValueError):
            InsertionDeletionFEwW(10, 10, 0, 2)

    def test_rejects_out_of_range_edge(self):
        algorithm = InsertionDeletionFEwW(4, 4, 1, 1, seed=0, scale=0.05)
        with pytest.raises(ValueError):
            algorithm.process_item(StreamItem(Edge(4, 0)))


class TestCorrectness:
    def test_planted_star_insert_only_input(self):
        config = GeneratorConfig(n=48, m=96, seed=1)
        stream = planted_star_graph(config, star_degree=24, background_degree=2)
        algorithm = InsertionDeletionFEwW(48, 96, 24, 2, seed=2, scale=0.3)
        algorithm.process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 24, 2)
        assert result.vertex == 0

    def test_deletion_churn(self):
        """The separating workload: all noise is deleted, only the star
        survives — a reservoir would be poisoned, ℓ₀-samplers are not."""
        config = GeneratorConfig(n=32, m=64, seed=3)
        stream = deletion_churn_stream(config, star_degree=16, churn_edges=200)
        algorithm = InsertionDeletionFEwW(32, 64, 16, 2, seed=4, scale=0.3)
        algorithm.process(stream)
        result = algorithm.result()
        verify_neighbourhood(result, stream, 16, 2)
        assert result.vertex == 0

    def test_witnesses_exclude_deleted_edges(self):
        config = GeneratorConfig(n=16, m=32, seed=5)
        stream = deletion_churn_stream(config, star_degree=8, churn_edges=80)
        algorithm = InsertionDeletionFEwW(16, 32, 8, 1, seed=6, scale=0.4)
        algorithm.process(stream)
        result = algorithm.result()
        assert result.witnesses <= stream.neighbours_of(result.vertex)

    def test_dense_graph_vertex_strategy_alone(self):
        """Lemma 5.2's regime: many heavy vertices -> vertex sampling
        alone succeeds."""
        config = GeneratorConfig(n=24, m=48, seed=7)
        # every vertex heavy: dense random graph
        stream = random_bipartite_graph(config, n_edges=24 * 24)
        d = min(stream.final_degrees().values())
        algorithm = InsertionDeletionFEwW(
            24, 48, d, 2, seed=8, strategy=SamplingStrategy.VERTEX, scale=0.4
        )
        algorithm.process(stream)
        assert algorithm.successful

    def test_sparse_graph_edge_strategy_alone(self):
        """Lemma 5.3's regime: a single heavy vertex owning most edges ->
        edge sampling alone succeeds."""
        config = GeneratorConfig(n=32, m=64, seed=9)
        stream = planted_star_graph(config, star_degree=30, background_degree=1)
        algorithm = InsertionDeletionFEwW(
            32, 64, 30, 2, seed=10, strategy=SamplingStrategy.EDGE, scale=0.4
        )
        algorithm.process(stream)
        result = algorithm.result()
        assert result.vertex == 0

    def test_success_probability_high(self):
        config = GeneratorConfig(n=32, m=64, seed=11)
        stream = deletion_churn_stream(config, star_degree=16, churn_edges=100)
        failures = 0
        trials = 40
        for seed in range(trials):
            algorithm = InsertionDeletionFEwW(32, 64, 16, 2, seed=seed, scale=0.3)
            algorithm.process(stream)
            failures += not algorithm.successful
        assert failures <= 2

    def test_empty_graph_fails(self):
        algorithm = InsertionDeletionFEwW(8, 8, 2, 1, seed=0, scale=0.2)
        algorithm.process(EdgeStream([], 8, 8))
        with pytest.raises(AlgorithmFailed):
            algorithm.result()

    def test_result_memoised(self):
        """Sampler queries are randomised; repeated result() must agree."""
        config = GeneratorConfig(n=16, m=32, seed=12)
        stream = planted_star_graph(config, star_degree=8, background_degree=1)
        algorithm = InsertionDeletionFEwW(16, 32, 8, 2, seed=13, scale=0.4)
        algorithm.process(stream)
        assert algorithm.result() == algorithm.result()

    def test_exact_sampler_mode_small_instance(self):
        """End-to-end with real ℓ₀-sampler sketches (slow path)."""
        items = [StreamItem(Edge(0, b), INSERT) for b in range(6)]
        items += [StreamItem(Edge(1, 0), INSERT), StreamItem(Edge(1, 0), DELETE)]
        stream = EdgeStream(items, 4, 8)
        algorithm = InsertionDeletionFEwW(
            4, 8, 6, 2, seed=14, scale=0.05, sampler_mode="exact"
        )
        algorithm.process(stream)
        result = algorithm.result()
        assert result.vertex == 0
        assert result.witnesses <= set(range(6))


class TestSpace:
    def test_breakdown_components(self):
        algorithm = InsertionDeletionFEwW(16, 32, 4, 2, seed=0, scale=0.2)
        components = algorithm.space_breakdown().components
        assert "vertex-sampling l0 banks" in components
        assert "edge-sampling l0 bank" in components
        assert algorithm.space_words() > 0

    def test_strategy_restriction_drops_component(self):
        vertex_only = InsertionDeletionFEwW(
            16, 32, 4, 2, seed=0, strategy=SamplingStrategy.VERTEX, scale=0.2
        )
        assert "edge-sampling l0 bank" not in vertex_only.space_breakdown().components
        edge_only = InsertionDeletionFEwW(
            16, 32, 4, 2, seed=0, strategy=SamplingStrategy.EDGE, scale=0.2
        )
        assert "vertex-sampling l0 banks" not in edge_only.space_breakdown().components

    def test_space_decreases_with_alpha_squared(self):
        """Theorem 5.4: for alpha <= sqrt(n), space ~ dn/alpha^2."""
        words = [
            InsertionDeletionFEwW(64, 64, 8, alpha, seed=0, scale=0.2).space_words()
            for alpha in (1, 2, 4)
        ]
        assert words[0] > words[1] > words[2]
        # roughly quadratic: doubling alpha cuts space by ~3-4x
        assert words[0] / words[1] > 2.0

    def test_threshold_uses_ceiling(self):
        algorithm = InsertionDeletionFEwW(16, 16, 7, 2, seed=0, scale=0.2)
        assert algorithm.threshold == math.ceil(7 / 2) == 4


class TestBatchColumns:
    def test_unequal_a_and_b_rejected(self):
        algorithm = InsertionDeletionFEwW(4, 4, 2, 1, seed=0, scale=0.2)
        with pytest.raises(ValueError, match="a and b .* got 3 and 1"):
            algorithm.process_batch(
                np.array([1, 1, 1]), np.array([0]), sign=None
            )
        assert not algorithm.successful

    def test_unequal_sign_rejected(self):
        algorithm = InsertionDeletionFEwW(4, 4, 2, 1, seed=0, scale=0.2)
        with pytest.raises(ValueError, match="a and sign .* got 2 and 1"):
            algorithm.process_batch(
                np.array([1, 1]), np.array([0, 1]), sign=np.array([1])
            )
        assert not algorithm.successful


def _legacy_collected(algorithm):
    """Frozen copy of the per-draw decode loop that ``_collected`` used
    before edge draws were split with one ``np.divmod``."""
    collected = {}
    for a, bank in algorithm._vertex_banks.items():
        witnesses = {b for b in bank.sample_all() if b is not None}
        if witnesses:
            collected.setdefault(a, set()).update(witnesses)
    if algorithm._edge_bank is not None:
        for flat in algorithm._edge_bank.sample_all():
            if flat is None:
                continue
            edge = Edge.from_flat_index(flat, algorithm.m)
            collected.setdefault(edge.a, set()).add(edge.b)
    return collected


def _tied_stream(n=16, m=64):
    """Vertices 2, 5, 9 and 13 end with exactly ceil(d/α) = 4 live
    witnesses each (after churn); every other vertex keeps at most 2."""
    a, b, sign = [], [], []
    for vertex in (2, 5, 9, 13):
        for witness in range(4):
            a.append(vertex), b.append(vertex + 3 * witness), sign.append(INSERT)
        a.append(vertex), b.append(60), sign.append(INSERT)
    for vertex in range(n):
        if vertex not in (2, 5, 9, 13):
            for witness in (vertex, vertex + 20):
                a.append(vertex), b.append(witness), sign.append(INSERT)
    for vertex in (2, 5, 9, 13):
        a.append(vertex), b.append(60), sign.append(DELETE)
    return (
        np.array(a, dtype=np.int64),
        np.array(b, dtype=np.int64),
        np.array(sign, dtype=np.int64),
    )


class TestDecodePin:
    @pytest.mark.parametrize(
        "strategy", [SamplingStrategy.BOTH, SamplingStrategy.EDGE]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_collected_matches_per_draw_loop(self, strategy, seed):
        algorithm = InsertionDeletionFEwW(
            16, 64, 8, 2, seed=seed, strategy=strategy, scale=0.5
        )
        algorithm.process_batch(*_tied_stream())
        legacy = _legacy_collected(copy.deepcopy(algorithm))
        collected = algorithm._collected()
        tied = [v for v, w in collected.items() if len(w) == algorithm.threshold]
        assert len(tied) >= 2
        assert list(collected) == list(legacy)
        assert [list(w) for w in collected.values()] == [
            list(w) for w in legacy.values()
        ]
        assert algorithm.result().vertex == next(
            v for v, w in legacy.items() if len(w) >= algorithm.threshold
        )


class TestCompactState:
    def test_fresh_instance_pickles_small(self):
        algorithm = InsertionDeletionFEwW(1024, 1024, 256, 2, seed=0, scale=0.1)
        assert len(pickle.dumps(algorithm)) <= 256 * 1024

    @pytest.mark.parametrize("drawn_first", [False, True])
    def test_split_merge_keeps_every_bank_draw(self, drawn_first):
        config = GeneratorConfig(n=32, m=32, seed=4)
        stream = deletion_churn_stream(config, 8, 60)
        a = np.array([item.edge.a for item in stream], dtype=np.int64)
        b = np.array([item.edge.b for item in stream], dtype=np.int64)
        sign = np.array([item.sign for item in stream], dtype=np.int64)

        def banks(algorithm):
            return list(algorithm._vertex_banks.values()) + [algorithm._edge_bank]

        single = InsertionDeletionFEwW(32, 32, 8, 2, seed=6, scale=0.3)
        single.process_batch(a, b, sign)
        reference = [[bank.sample_all() for _ in range(2)] for bank in banks(single)]
        left, right = InsertionDeletionFEwW(32, 32, 8, 2, seed=6, scale=0.3).split(2)
        left.process_batch(a[::2], b[::2], sign[::2])
        right.process_batch(a[1::2], b[1::2], sign[1::2])
        merged = left.merge(right)
        rounds = 1 if drawn_first else 0
        before = [[bank.sample_all() for _ in range(rounds)] for bank in banks(merged)]
        merged = pickle.loads(pickle.dumps(merged))
        after = [
            [bank.sample_all() for _ in range(2 - rounds)] for bank in banks(merged)
        ]
        assert [x + y for x, y in zip(before, after)] == reference

"""Unit tests for exact counters and support tracking."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sketch.exact import DegreeCounter, ExactSupport


class TestDegreeCounter:
    def test_initial_degrees_zero(self):
        counter = DegreeCounter(5)
        assert all(counter.degree(a) == 0 for a in range(5))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            DegreeCounter(0)

    def test_increment_returns_new_value(self):
        counter = DegreeCounter(3)
        assert counter.increment(1) == 1
        assert counter.increment(1) == 2

    def test_decrement(self):
        counter = DegreeCounter(3)
        counter.increment(0, 5)
        assert counter.increment(0, -2) == 3

    def test_negative_degree_rejected(self):
        counter = DegreeCounter(3)
        with pytest.raises(ValueError):
            counter.increment(0, -1)

    def test_out_of_range_vertex(self):
        counter = DegreeCounter(3)
        with pytest.raises(ValueError):
            counter.increment(3)
        with pytest.raises(ValueError):
            counter.degree(-1)

    def test_vertices_with_degree_at_least(self):
        counter = DegreeCounter(4)
        counter.increment(0, 3)
        counter.increment(2, 5)
        assert counter.vertices_with_degree_at_least(3) == [0, 2]
        assert counter.vertices_with_degree_at_least(4) == [2]
        assert counter.vertices_with_degree_at_least(6) == []

    def test_max_degree(self):
        counter = DegreeCounter(4)
        counter.increment(3, 7)
        assert counter.max_degree() == 7

    def test_space_is_n_words(self):
        assert DegreeCounter(100).space_words() == 100


class TestExactSupport:
    def test_empty(self):
        support = ExactSupport(10)
        assert support.support() == []
        assert support.support_size() == 0

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            ExactSupport(0)

    def test_insert_and_value(self):
        support = ExactSupport(10)
        support.update(3, 2)
        assert support.support() == [3]
        assert support.value(3) == 2
        assert 3 in support

    def test_zero_crossing_removes(self):
        support = ExactSupport(10)
        support.update(3, 2)
        support.update(3, -2)
        assert 3 not in support
        assert support.value(3) == 0

    def test_out_of_range(self):
        support = ExactSupport(10)
        with pytest.raises(ValueError):
            support.update(10, 1)

    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(-3, 3).filter(bool)),
            max_size=50,
        )
    )
    def test_matches_dict_replay(self, updates):
        support = ExactSupport(20)
        reference = {}
        for index, delta in updates:
            support.update(index, delta)
            reference[index] = reference.get(index, 0) + delta
            if reference[index] == 0:
                del reference[index]
        assert support.support() == sorted(reference)
        assert dict(support.items()) == reference

    def test_unequal_batch_lengths_rejected(self):
        support = ExactSupport(10)
        with pytest.raises(ValueError, match="got 3 and 1"):
            support.update_batch(np.array([1, 2, 3]), np.array([5]))
        assert support.support() == []

    def test_pickle_holds_only_the_consolidated_arrays(self):
        support = ExactSupport(100)
        support.update_batch(np.array([7, 3, 7]), np.array([1, 2, -1]))
        support.update(50, 4)
        state = support.__getstate__()
        assert set(state) == {"dim", "_coords", "_nets"}
        assert state["_coords"].tolist() == [3, 50]
        assert state["_nets"].tolist() == [2, 4]


DIM = 12
_index = st.integers(-2, DIM + 1)
_delta = st.integers(-3, 3)
_updates = st.lists(st.tuples(_index, _delta), max_size=12)
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("update"), _index, _delta),
        st.tuples(st.just("batch"), _updates),
        st.tuples(st.just("merge"), _updates, st.booleans()),
        st.tuples(st.just("pickle")),
        st.tuples(st.just("deepcopy")),
    ),
    max_size=25,
)


def _in_range(updates):
    return all(0 <= index < DIM for index, _ in updates)


def _apply_to_oracle(oracle, updates):
    for index, delta in updates:
        oracle[index] = oracle.get(index, 0) + delta
        if oracle[index] == 0:
            del oracle[index]


def _feed(support, updates, batched):
    """Feed updates either as one batch or item by item; out-of-range
    input must raise and leave ``support`` as it was."""
    if batched:
        support.update_batch(
            np.array([index for index, _ in updates], dtype=np.int64),
            np.array([delta for _, delta in updates], dtype=np.int64),
        )
    else:
        for index, delta in updates:
            support.update(index, delta)


class TestExactSupportAgainstDictOracle:
    """Random interleavings of every mutator and of pickle/deepcopy
    round-trips, checked after each step against a plain dict."""

    @staticmethod
    def _check(support, oracle):
        assert support.support() == sorted(oracle)
        assert support.support_size() == len(oracle)
        assert list(support.items()) == sorted(oracle.items())
        for index in range(DIM):
            assert support.value(index) == oracle.get(index, 0)
            assert (index in support) == (index in oracle)
        assert 0 not in dict(support.items()).values()

    @given(_operations)
    def test_matches_dict_oracle(self, operations):
        support = ExactSupport(DIM)
        oracle = {}
        for operation in operations:
            kind = operation[0]
            if kind == "update":
                _, index, delta = operation
                if 0 <= index < DIM:
                    support.update(index, delta)
                    _apply_to_oracle(oracle, [(index, delta)])
                else:
                    with pytest.raises(ValueError, match="out of range"):
                        support.update(index, delta)
            elif kind == "batch":
                updates = operation[1]
                if _in_range(updates):
                    _feed(support, updates, batched=True)
                    _apply_to_oracle(oracle, updates)
                else:
                    with pytest.raises(ValueError, match="out of range"):
                        _feed(support, updates, batched=True)
            elif kind == "merge":
                _, updates, batched = operation
                other = ExactSupport(DIM)
                kept = [(i, d) for i, d in updates if 0 <= i < DIM]
                _feed(other, kept, batched)
                support.merge(other)
                _apply_to_oracle(oracle, kept)
                # The merged-from side is left as it was.
                expected = {}
                _apply_to_oracle(expected, kept)
                self._check(other, expected)
            elif kind == "pickle":
                duplicate = pickle.loads(pickle.dumps(support))
            else:
                duplicate = copy.deepcopy(support)
            if kind in ("pickle", "deepcopy"):
                self._check(duplicate, oracle)
                # The copy is independent of the original.
                duplicate.update(DIM - 1, -1)
                self._check(support, oracle)
                support = duplicate
                _apply_to_oracle(oracle, [(DIM - 1, -1)])
            self._check(support, oracle)

    @given(_updates, _updates)
    def test_merge_equals_single_pass(self, left_updates, right_updates):
        left_updates = [(i, d) for i, d in left_updates if 0 <= i < DIM]
        right_updates = [(i, d) for i, d in right_updates if 0 <= i < DIM]
        single, left, right = ExactSupport(DIM), ExactSupport(DIM), ExactSupport(DIM)
        _feed(single, left_updates + right_updates, batched=False)
        _feed(left, left_updates, batched=True)
        _feed(right, right_updates, batched=False)
        left.merge(right)
        assert list(left.items()) == list(single.items())

    def test_merge_rejects_other_dims_and_types(self):
        with pytest.raises(ValueError, match="dim=12 with dim=13"):
            ExactSupport(DIM).merge(ExactSupport(13))
        with pytest.raises(ValueError, match="cannot merge ExactSupport"):
            ExactSupport(DIM).merge({})

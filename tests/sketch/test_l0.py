"""Unit and statistical tests for the ℓ₀-sampler and the sampler bank."""

import copy
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.sketch.l0 import (
    L0EdgeBank,
    L0Sampler,
    L0SamplerBank,
    l0_sampler_space_words,
)


class TestL0SamplerBasics:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            L0Sampler(0, 0.1, random.Random(0))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            L0Sampler(10, 0.0, random.Random(0))

    def test_empty_vector_samples_none(self):
        sampler = L0Sampler(64, 0.05, random.Random(1))
        assert sampler.sample() is None

    def test_singleton_support(self):
        sampler = L0Sampler(64, 0.05, random.Random(2))
        sampler.update(42, 1)
        assert sampler.sample() == 42

    def test_sample_in_support(self):
        rng = random.Random(3)
        sampler = L0Sampler(128, 0.05, rng)
        support = {3, 17, 99, 120}
        for index in support:
            sampler.update(index, 1)
        assert sampler.sample() in support

    def test_survives_cancellation(self):
        """The defining ℓ₀ property: deleted coordinates never sampled."""
        rng = random.Random(4)
        sampler = L0Sampler(128, 0.05, rng)
        for index in range(100):
            sampler.update(index, 1)
        for index in range(99):
            sampler.update(index, -1)
        assert sampler.sample() == 99

    def test_full_cancellation_returns_none(self):
        sampler = L0Sampler(32, 0.05, random.Random(5))
        for index in range(20):
            sampler.update(index, 1)
            sampler.update(index, -1)
        assert sampler.sample() is None

    def test_space_words_positive_and_static(self):
        sampler = L0Sampler(256, 0.05, random.Random(6))
        before = sampler.space_words()
        for index in range(50):
            sampler.update(index, 1)
        assert sampler.space_words() == before > 0


class TestL0SamplerUniformity:
    def test_approximately_uniform_over_support(self):
        """Across independent samplers, each support element is sampled
        with frequency close to 1/|support|."""
        support = list(range(0, 60, 6))  # 10 elements
        counts = Counter()
        trials = 400
        master = random.Random(7)
        for _ in range(trials):
            sampler = L0Sampler(64, 0.05, random.Random(master.getrandbits(64)))
            for index in support:
                sampler.update(index, 1)
            outcome = sampler.sample()
            assert outcome in support
            counts[outcome] += 1
        expected = trials / len(support)
        for index in support:
            assert counts[index] > 0.3 * expected
            assert counts[index] < 2.5 * expected


class TestPaperSpaceFormula:
    def test_grows_with_dim(self):
        assert l0_sampler_space_words(2**20, 0.01) > l0_sampler_space_words(
            2**10, 0.01
        )

    def test_grows_with_confidence(self):
        assert l0_sampler_space_words(1024, 1e-9) > l0_sampler_space_words(
            1024, 0.1
        )

    def test_minimum_one_word(self):
        assert l0_sampler_space_words(1, 0.5) >= 1


class TestBankModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            L0SamplerBank(10, 2, 0.1, random.Random(0), mode="magic")

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            L0SamplerBank(10, -1, 0.1, random.Random(0))

    def test_exact_mode_samples_from_support(self):
        bank = L0SamplerBank(64, 8, 0.05, random.Random(1), mode="exact")
        support = {5, 10, 15}
        for index in support:
            bank.update(index, 1)
        for outcome in bank.sample_all():
            assert outcome is None or outcome in support

    def test_fast_mode_samples_from_support(self):
        bank = L0SamplerBank(64, 50, 0.05, random.Random(2), mode="fast")
        support = {5, 10, 15}
        for index in support:
            bank.update(index, 1)
        outcomes = bank.sample_all()
        assert len(outcomes) == 50
        assert all(outcome in support for outcome in outcomes if outcome is not None)

    def test_fast_mode_empty_support(self):
        bank = L0SamplerBank(64, 5, 0.05, random.Random(3), mode="fast")
        assert bank.sample_all() == [None] * 5

    def test_fast_mode_respects_deletions(self):
        bank = L0SamplerBank(64, 30, 0.05, random.Random(4), mode="fast")
        bank.update(1, 1)
        bank.update(2, 1)
        bank.update(1, -1)
        outcomes = [outcome for outcome in bank.sample_all() if outcome is not None]
        assert outcomes and all(outcome == 2 for outcome in outcomes)

    def test_mode_distributions_agree(self):
        """Exact and fast banks draw from the same distribution: compare
        per-element frequencies over many draws on a fixed support."""
        support = list(range(0, 40, 8))  # 5 elements
        exact_counts, fast_counts = Counter(), Counter()
        master = random.Random(5)
        trials = 60
        for _ in range(trials):
            seed = master.getrandbits(64)
            exact = L0SamplerBank(64, 5, 0.05, random.Random(seed), mode="exact")
            fast = L0SamplerBank(64, 5, 0.05, random.Random(seed + 1), mode="fast")
            for index in support:
                exact.update(index, 1)
                fast.update(index, 1)
            exact_counts.update(o for o in exact.sample_all() if o is not None)
            fast_counts.update(o for o in fast.sample_all() if o is not None)
        total_exact = sum(exact_counts.values())
        total_fast = sum(fast_counts.values())
        for index in support:
            exact_freq = exact_counts[index] / total_exact
            fast_freq = fast_counts[index] / total_fast
            assert abs(exact_freq - fast_freq) < 0.12

    def test_fast_space_uses_paper_formula(self):
        bank = L0SamplerBank(1024, 7, 0.01, random.Random(6), mode="fast")
        assert bank.space_words() == 7 * l0_sampler_space_words(1024, 0.01)

    def test_exact_space_sums_real_structures(self):
        bank = L0SamplerBank(64, 3, 0.05, random.Random(7), mode="exact")
        assert bank.space_words() == sum(
            sampler.space_words() for sampler in bank._samplers
        )


class TestUnequalColumns:
    """A length-1 column must not broadcast over a longer one."""

    @pytest.mark.parametrize("mode", L0SamplerBank.MODES)
    def test_bank_rejects_unequal_lengths(self, mode):
        bank = L0SamplerBank(16, 3, 0.05, random.Random(0), mode=mode)
        with pytest.raises(ValueError, match="got 3 and 1"):
            bank.update_batch(np.array([1, 2, 3]), np.array([5]))
        assert bank.sample_all() == [None] * 3

    def test_sampler_rejects_unequal_lengths(self):
        sampler = L0Sampler(16, 0.05, random.Random(0))
        with pytest.raises(ValueError, match="got 1 and 2"):
            sampler.update_batch(np.array([4]), np.array([1, 1]))
        assert sampler.sample() is None

    def test_edge_bank_rejects_unequal_lengths(self):
        bank = L0EdgeBank(4, 4, 3, seed=0)
        with pytest.raises(ValueError, match="a and b .* got 3 and 1"):
            bank.process_batch(np.array([1, 1, 1]), np.array([0]))
        with pytest.raises(ValueError, match="a and sign .* got 2 and 1"):
            bank.process_batch(np.array([1, 2]), np.array([0, 0]), np.array([1]))
        assert bank.sample_all() == [None] * 3


def _draws(bank, rounds):
    return [bank.sample_all() for _ in range(rounds)]


def _fed_fast_bank(seed=11):
    bank = L0SamplerBank(256, 40, 0.05, random.Random(seed), mode="fast")
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, 256, size=300)
    bank.update_batch(indices, np.ones(300, dtype=np.int64))
    bank.update_batch(indices[:120], -np.ones(120, dtype=np.int64))
    bank.update(7, 1)
    return bank


def _pickled(bank):
    return pickle.loads(pickle.dumps(bank))


class TestFastBankDrawsSurviveCopies:
    """``sample_all()`` sequences of a fast bank are a function of its
    seed and its vector only: pickling, copying, or splitting and
    merging it changes none of them, before or after the first draw."""

    @pytest.mark.parametrize("transform", [_pickled, copy.deepcopy])
    @pytest.mark.parametrize("drawn_first", [False, True])
    def test_pickle_and_deepcopy(self, transform, drawn_first):
        reference = _draws(_fed_fast_bank(), 3)
        bank = _fed_fast_bank()
        before = _draws(bank, 1 if drawn_first else 0)
        assert before + _draws(transform(bank), 3 - len(before)) == reference

    @pytest.mark.parametrize("drawn_first", [False, True])
    def test_split_and_merge(self, drawn_first):
        """Same-seed shards fed halves of the stream and merged draw like
        the single-pass bank; a drawn bank keeps drawing where it left
        off after absorbing a shard."""
        n, m = 16, 16
        rng = np.random.default_rng(3)
        a = rng.integers(0, n, size=200)
        b = rng.integers(0, m, size=200)
        single = L0EdgeBank(n, m, 30, seed=5)
        single.process_batch(a, b)
        reference = _draws(single, 3)
        fresh = L0EdgeBank(n, m, 30, seed=5)
        left, right = fresh.split(2)
        spare = copy.deepcopy(right)
        left.process_batch(a[:90], b[:90])
        right.process_batch(a[90:], b[90:])
        merged = left.merge(right)
        before = _draws(merged, 1 if drawn_first else 0)
        merged.merge(spare)  # an empty shard changes nothing
        assert before + _draws(merged, 3 - len(before)) == reference

    def test_draws_continue_the_eagerly_seeded_sequence(self):
        """The lazily built RNG yields exactly what a ``random.Random``
        seeded with the bank's 64-bit draw seed at construction would:
        each sample_all() continues the sequence, never restarts it."""
        seed, count, delta = 11, 40, 0.05
        bank = _fed_fast_bank(seed)
        support = bank._support.support()
        draw_rng = random.Random(random.Random(seed).getrandbits(64))
        expected = [
            [
                None if draw_rng.random() < delta else draw_rng.choice(support)
                for _ in range(count)
            ]
            for _ in range(3)
        ]
        assert _draws(bank, 3) == expected
        assert expected[0] != expected[1]

    def test_undrawn_bank_carries_no_rng_state(self):
        bank = _fed_fast_bank()
        assert bank._draw_rng is None
        assert _pickled(bank)._draw_rng is None
        bank.sample_all()
        assert bank._draw_rng is not None

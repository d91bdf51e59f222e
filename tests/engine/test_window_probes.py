"""Mid-stream probes must not change what a windowed run computes.

Sliding probes merge the live in-progress bucket summary into a fold
without copying it, and decay probes finalize clones of live summaries.
For every registry processor that can merge across bucket seeds, under
both policies, these tests pin that:

* a run probed every few updates ends in exactly the state (pickled
  bucket summaries and in-progress summary) and with exactly the final
  answer of an unprobed run;
* every probe's answer equals a left-fold of frozen deep copies of the
  buckets it covers, finalized.

A shard merge of window wrappers must likewise only read its argument.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.baselines.naive import FullStorage
from repro.engine.runner import as_chunks
from repro.engine.windows import DecayPolicy, SlidingPolicy, WindowedProcessor
from repro.pipeline.registry import PROCESSORS, RegistryWindowFactory
from repro.streams.columnar import ColumnarEdgeStream
from repro.streams.generators import GeneratorConfig, churn_columnar

N = 64

#: Registry processors whose bucket summaries merge across bucket seeds,
#: with the stream shape each accepts.
MERGE_ACROSS_SEEDS = {
    "insertion-only": ({"n": N, "d": 6}, "insert"),
    "insertion-deletion": ({"n": N, "m": N, "d": 6}, "turnstile"),
    "star-detection": ({"n_vertices": N}, "insert"),
    "topk": ({"n": N, "d": 6, "k": 2}, "insert"),
    "misra-gries": ({"k": 4}, "insert"),
    "space-saving": ({"k": 4}, "insert"),
    "l0-bank": ({"n": N, "m": N, "count": 4}, "turnstile"),
    "full-storage": ({"n": N, "m": N}, "turnstile"),
}

#: Seeded-hash sketches: each bucket's seed gives it its own hash
#: functions, so their buckets cannot be folded (out of scope here).
SEED_BOUND = {
    "count-min": {"epsilon": 0.25, "delta": 0.25},
    "count-sketch": {"width": 16, "rows": 3},
    "bloom-dedup": {"n": N, "m": N, "capacity": 128},
}

POLICIES = {
    "sliding": SlidingPolicy(240, 0.25),
    "decay": DecayPolicy(70, keep=2),
}

CHUNK = 45
PROBE_EVERY_CHUNKS = 2


def make_stream(kind, seed=11, count=1000):
    """``count`` distinct edges, A-endpoints Zipf-skewed; the turnstile
    variant later deletes a third of them."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, N + 1) ** 1.2
    pair_weights = np.repeat(weights, N)
    pair_weights[:: N + 1] = 0.0  # no self-loops
    flat = rng.choice(
        N * N, size=count, replace=False, p=pair_weights / pair_weights.sum()
    )
    a, b = flat // N, flat % N
    if kind == "insert":
        return ColumnarEdgeStream(a, b, n=N, m=N)
    victims = np.sort(rng.choice(count, size=count // 3, replace=False))
    a = np.concatenate([a, a[victims]])
    b = np.concatenate([b, b[victims]])
    sign = np.concatenate(
        [np.ones(count, dtype=np.int64), -np.ones(len(victims), dtype=np.int64)]
    )
    return ColumnarEdgeStream(a, b, sign, n=N, m=N)


def windowed(name, params, policy, seed=5):
    return WindowedProcessor(
        RegistryWindowFactory.of(name, params), policy, seed=seed
    )


def fingerprint(value):
    """Pickled bytes, except that a FullStorage compares as its vertex
    order and sorted witness sets: a set's iteration order depends on
    its insertion history, which deep copies do not keep."""
    if isinstance(value, FullStorage):
        return [(vertex, sorted(w)) for vertex, w in value._neighbours.items()]
    return pickle.dumps(value)


def reference_answer(snapshot, policy_kind):
    """What a probe must report, from deep copies taken before it ran."""
    if policy_kind == "decay":
        recent, tail = snapshot
        values = [copy.deepcopy(instance).finalize() for instance in recent]
        tail_value = None if tail is None else copy.deepcopy(tail).finalize()
        return values, tail_value
    fold = copy.deepcopy(snapshot[0])
    for instance in snapshot[1:]:
        fold = fold.merge(copy.deepcopy(instance))
    value = fold.finalize()
    return fold, value


def run(name, policy_kind, probe, reference=False):
    """Feed the processor's stream chunk by chunk, probing every
    ``PROBE_EVERY_CHUNKS`` chunks when ``probe``.  With ``reference``,
    each probe is paired with deep copies of the summaries it covers,
    taken just before it ran (copying flushes deferred buffers, so the
    invariance test probes without it)."""
    params, kind = MERGE_ACROSS_SEEDS[name]
    processor = windowed(name, params, POLICIES[policy_kind])
    probes = []
    for index, (a, b, sign) in enumerate(as_chunks(make_stream(kind), CHUNK)):
        processor.process_batch(a, b, sign)
        if not probe or index % PROBE_EVERY_CHUNKS != 1:
            continue
        if not reference:
            processor.query()
            probes.append(None)
        elif policy_kind == "decay":
            state = processor._state
            recent = [bucket.instance for bucket in state["recent"]]
            if processor._updates:
                recent.append(processor._current)
            snapshot = copy.deepcopy((recent, state["tail"]))
            probes.append((snapshot, processor.query()))
        else:
            everything = [(bucket.start, bucket.instance) for bucket in processor._state]
            if processor._updates:
                everything.append((None, processor._current))
            everything = copy.deepcopy(everything)
            answer = processor.query()
            snapshot = [
                instance
                for start, instance in everything
                if start is None or start >= answer.start_update
            ]
            assert len(snapshot) == answer.n_buckets
            probes.append((snapshot, answer))
    return processor, probes


def pickled_state(processor):
    state = processor._state
    if isinstance(state, dict):
        buckets = [bucket.instance for bucket in state["recent"]] + [state["tail"]]
    else:
        buckets = [bucket.instance for bucket in state]
    return pickle.dumps(processor._current), pickle.dumps(buckets)


CASES = [
    (name, policy_kind)
    for name in MERGE_ACROSS_SEEDS
    for policy_kind in POLICIES
]


@pytest.mark.parametrize("name,policy_kind", CASES)
def test_probing_leaves_the_run_unchanged(name, policy_kind):
    probed, probes = run(name, policy_kind, probe=True)
    plain, _ = run(name, policy_kind, probe=False)
    assert probes
    assert pickled_state(probed) == pickled_state(plain)
    assert pickle.dumps(probed.finalize()) == pickle.dumps(plain.finalize())
    assert pickle.dumps(probed) == pickle.dumps(plain)


@pytest.mark.parametrize("name,policy_kind", CASES)
def test_every_probe_equals_a_frozen_deepcopy_fold(name, policy_kind):
    _, probes = run(name, policy_kind, probe=True, reference=True)
    for snapshot, answer in probes:
        expected = reference_answer(snapshot, policy_kind)
        if policy_kind == "decay":
            values, tail_value = expected
            assert [fingerprint(record.value) for record in answer.recent] == [
                fingerprint(value) for value in values
            ]
            assert fingerprint(answer.tail_value) == fingerprint(tail_value)
        else:
            fold, value = expected
            assert fingerprint(answer.value) == fingerprint(value)
            assert fingerprint(answer.processor) == fingerprint(fold)


def test_cross_seed_merge_split_matches_the_registry():
    """The two lists above cover every mergeable registry entry, and the
    seed-bound sketches really cannot fold buckets of different seeds."""
    mergeable = {entry.name for entry in PROCESSORS.entries() if entry.mergeable}
    assert mergeable == set(MERGE_ACROSS_SEEDS) | set(SEED_BOUND)
    for name, params in SEED_BOUND.items():
        factory = RegistryWindowFactory.of(name, params)
        with pytest.raises(ValueError):
            factory(1).merge(factory(2))
    for name, (params, _) in MERGE_ACROSS_SEEDS.items():
        factory = RegistryWindowFactory.of(name, params)
        factory(1).merge(factory(2))


@pytest.mark.parametrize("seed", range(12))
def test_decay_probes_do_not_change_algorithm3_tail(seed):
    """Algorithm 3's finalize draws from its sampler banks' RNG; a decay
    probe must finalize clones, or the probed run's tail (and sometimes
    its final tail value) drifts from the unprobed run's."""
    m = 256
    stream = churn_columnar(
        GeneratorConfig(n=64, m=m, seed=seed), star_degree=24, churn_edges=600
    )
    factory = RegistryWindowFactory.of(
        "insertion-deletion", {"n": 64, "m": m, "d": 24}
    )
    outcomes = []
    for probe in (False, True):
        processor = WindowedProcessor(factory, DecayPolicy(400, 2), seed=seed)
        for index, (a, b, sign) in enumerate(as_chunks(stream, 128)):
            processor.process_batch(a, b, sign)
            if probe and index % 2 == 1:
                processor.query()
        answer = processor.finalize()
        assert answer.has_tail
        outcomes.append(
            (
                pickle.dumps(processor._state["tail"]),
                answer.tail_value,
                [record.value for record in answer.recent],
            )
        )
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("policy_kind", sorted(POLICIES))
def test_windowed_shard_merge_reads_its_argument(policy_kind):
    """Merging shard wrappers leaves the argument as it was and shares
    no bucket summary with it (decay would otherwise fold the
    argument's buckets into this side's tail in place)."""
    params, kind = MERGE_ACROSS_SEEDS["insertion-only"]
    a, b, _ = next(as_chunks(make_stream(kind), 600))
    left, right = windowed("insertion-only", params, POLICIES[policy_kind]).split(2)
    left.process_batch(a[:280], b[:280])
    right.process_batch(a[280:560], b[280:560])
    untouched = pickle.dumps(right)
    merged = left.merge(right)
    assert pickle.dumps(right) == untouched
    before = pickle.dumps(merged)
    right.process_batch(a[560:], b[560:])
    right.finalize()
    assert pickle.dumps(merged) == before

"""Tuple-based ``DegResSampling.merge`` against a frozen list-based copy.

``legacy_merge`` is the list-backed merge as it stood before witness
sequences became immutable tuples, kept verbatim (modulo the
free-function form).  Any chain of merges must leave the receiver in
the same state, and must never change an operand.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deg_res_sampling import DegResSampling

N = 64
S = 8


def legacy_merge(reservoir, resident, other_reservoir, d2):
    """Frozen list-based merge body (reservoir union, dedup, clip)."""
    for vertex, witnesses in other_reservoir.items():
        stored = reservoir.get(vertex)
        if stored is None:
            reservoir[vertex] = list(witnesses)
            resident.append(vertex)
        else:
            seen = set(stored)
            stored.extend(witness for witness in witnesses if witness not in seen)
            del stored[d2:]


@st.composite
def operand_chains(draw):
    """A ``d2`` and 2..5 reservoirs over a small vertex/witness domain,
    so shared vertices, duplicate witnesses, empty sequences and full
    sequences all come up often."""
    d2 = draw(st.integers(1, 6))
    sequences = st.lists(st.integers(0, 9), max_size=d2)
    reservoirs = st.dictionaries(st.integers(0, 11), sequences, max_size=S)
    operands = draw(st.lists(reservoirs, min_size=2, max_size=5))
    seen = draw(
        st.lists(st.integers(0, 40), min_size=len(operands), max_size=len(operands))
    )
    return d2, list(zip(operands, seen))


def build(reservoir, candidates_seen, d2):
    run = DegResSampling(N, 1, d2, S, random.Random(0), own_degrees=False)
    run._reservoir = {vertex: tuple(witnesses) for vertex, witnesses in reservoir.items()}
    run._resident = list(reservoir)
    run._candidates_seen = candidates_seen
    return run


def state(run):
    return (
        [(vertex, list(witnesses)) for vertex, witnesses in run._reservoir.items()],
        list(run._resident),
        run._candidates_seen,
    )


@settings(max_examples=300, deadline=None)
@given(operand_chains())
def test_merge_chain_matches_frozen_list_merge(chain):
    d2, operands = chain
    runs = [build(reservoir, seen, d2) for reservoir, seen in operands]
    before = [state(run) for run in runs[1:]]

    merged = runs[0].clone()
    for run in runs[1:]:
        merged = merged.merge(run)

    reservoir = copy.deepcopy(operands[0][0])
    resident = list(reservoir)
    for other, _ in operands[1:]:
        legacy_merge(reservoir, resident, other, d2)
    expected = (
        [(vertex, witnesses) for vertex, witnesses in reservoir.items()],
        resident,
        sum(seen for _, seen in operands),
    )

    assert state(merged) == expected
    assert all(type(w) is tuple for w in merged._reservoir.values())
    assert all(len(w) <= d2 for w in merged._reservoir.values())
    # Merge arguments are read, never written.
    assert [state(run) for run in runs[1:]] == before
    assert state(runs[0]) == state(build(*operands[0], d2))


@settings(max_examples=100, deadline=None)
@given(operand_chains())
def test_later_writes_to_an_operand_do_not_reach_the_merge(chain):
    d2, operands = chain
    runs = [build(reservoir, seen, d2) for reservoir, seen in operands]
    merged = runs[0].clone()
    for run in runs[1:]:
        merged = merged.merge(run)
    snapshot = state(merged)
    for run in runs:
        for vertex in list(run._reservoir):
            run.observe_edge(vertex, 99, degree=2)
    assert state(merged) == snapshot

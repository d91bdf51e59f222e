"""Exact counting structures.

:class:`DegreeCounter` is the degree-tracking component both FEwW
algorithms charge ``O(n log n)`` bits for.  :class:`ExactSupport`
maintains the exact support of a signed vector; it serves as the ground
truth oracle in tests and as the backing store of the "fast" ℓ₀-sampler
bank mode (see :mod:`repro.sketch.l0`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, List, Tuple

import numpy as np


class DegreeCounter:
    """Exact per-A-vertex degree counts.

    The paper's algorithms maintain the degree of every A-vertex, space
    ``O(n log n)`` bits.  We charge one word per vertex regardless of how
    many are non-zero, matching that accounting.  The table is a NumPy
    array so batch ingestion can update it with one scatter-add.
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._degrees = np.zeros(n, dtype=np.int64)

    def increment(self, a: int, delta: int = 1) -> int:
        """Adjust vertex ``a``'s degree and return the new value."""
        if not 0 <= a < self.n:
            raise ValueError(f"vertex {a} out of range [0, {self.n})")
        self._degrees[a] += delta
        degree = int(self._degrees[a])
        if degree < 0:
            raise ValueError(f"degree of vertex {a} went negative")
        return degree

    def increment_batch(self, a: np.ndarray, grouping=None) -> np.ndarray:
        """Count a batch of insertions; return each item's post-increment degree.

        ``a`` holds one A-vertex per inserted edge.  The degree table is
        updated with a single ``np.add.at`` scatter, and the returned
        array matches what ``increment`` would have returned item by item:
        degree before the batch, plus one, plus the number of earlier
        batch occurrences of the same vertex.  ``grouping`` optionally
        passes a precomputed ``(order, starts, ends)`` stable grouping of
        ``a`` (see :func:`repro.streams.columnar.group_slices`) so
        callers that already grouped the chunk don't sort twice.
        """
        if len(a) == 0:
            return np.zeros(0, dtype=np.int64)
        if int(a.min()) < 0 or int(a.max()) >= self.n:
            bad = a[(a < 0) | (a >= self.n)][0]
            raise ValueError(f"vertex {int(bad)} out of range [0, {self.n})")
        before = self._degrees[a]
        if grouping is None:
            # Deferred import: sketch is a lower layer than streams and
            # must not depend on it at module-import time.
            from repro.streams.columnar import group_slices

            grouping = group_slices(a)
        order, starts, ends = grouping
        ranks = np.arange(len(a), dtype=np.int64) - np.repeat(starts, ends - starts)
        ordinals = np.empty(len(a), dtype=np.int64)
        ordinals[order] = ranks
        if self.n <= 4 * len(a):
            # bincount-and-add beats np.add.at's per-element dispatch
            # whenever the table isn't much larger than the batch.
            self._degrees += np.bincount(a, minlength=self.n)
        else:
            np.add.at(self._degrees, a, 1)
        return before + ordinals + 1

    def degree(self, a: int) -> int:
        """Current degree of vertex ``a``."""
        if not 0 <= a < self.n:
            raise ValueError(f"vertex {a} out of range [0, {self.n})")
        return int(self._degrees[a])

    def vertices_with_degree_at_least(self, threshold: int) -> List[int]:
        """All vertices of current degree >= threshold (ascending ids)."""
        return np.flatnonzero(self._degrees >= threshold).tolist()

    def max_degree(self) -> int:
        """Largest current degree."""
        return int(self._degrees.max())

    def clone(self) -> "DegreeCounter":
        """An independent copy — one array copy, no deepcopy graph walk
        (window policies clone summaries on every probe/suffix fold)."""
        dup = object.__new__(DegreeCounter)
        dup.n = self.n
        dup._degrees = self._degrees.copy()
        return dup

    def merge(self, other: "DegreeCounter") -> "DegreeCounter":
        """Element-wise sum of two counters over disjoint sub-streams.

        Degrees are linear in the updates, so the merged table equals the
        single-pass table bit for bit regardless of how the stream was
        partitioned.
        """
        if not isinstance(other, DegreeCounter):
            raise ValueError(
                f"cannot merge DegreeCounter with {type(other).__name__}"
            )
        if self.n != other.n:
            raise ValueError(
                f"cannot merge DegreeCounter over n={self.n} with n={other.n}"
            )
        self._degrees += other._degrees
        return self

    def space_words(self) -> int:
        """One counter word per A-vertex."""
        return self.n


#: Consolidate pending batch columns once their total length passes this
#: (bounds buffered memory on long query-free streams).
_FLUSH_PENDING = 1 << 18


def check_equal_lengths(
    first_name: str, first, second_name: str, second
) -> None:
    """Reject two update columns of different lengths.

    NumPy would broadcast a length-1 column over the other one, silently
    applying one value to every coordinate; fail at the call instead.
    """
    if len(first) != len(second):
        raise ValueError(
            f"{first_name} and {second_name} must have equal lengths, got "
            f"{len(first)} and {len(second)}"
        )


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


_EMPTY = _readonly(np.zeros(0, dtype=np.int64))


class _SupportView(Mapping):
    """Read-only ``coordinate → value`` mapping over sorted arrays."""

    __slots__ = ("coords", "nets")

    def __init__(self, coords: np.ndarray, nets: np.ndarray) -> None:
        self.coords = coords
        self.nets = nets

    def __getitem__(self, index: int) -> int:
        position = int(np.searchsorted(self.coords, index))
        if position < len(self.coords) and self.coords[position] == index:
            return int(self.nets[position])
        raise KeyError(index)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords.tolist())

    def __len__(self) -> int:
        return len(self.coords)

    def items(self):
        return zip(self.coords.tolist(), self.nets.tolist())


class ExactSupport:
    """Exact support of a signed integer vector under updates.

    Used as the verification oracle for sketches and as the backing
    state of the accelerated ℓ₀-sampler bank.  Not space-metered: it is
    simulator state, never charged to a streaming algorithm.

    The consolidated vector is two read-only ``int64`` arrays: the
    sorted non-zero coordinates and their values.  Every update is
    *deferred*: :meth:`update` and :meth:`update_batch` only buffer
    (validated, copied) columns, and the next read consolidates the
    buffer and the arrays with one ``np.unique`` + scatter-add netting
    pass.  :meth:`merge` buffers the other side's arrays the same way and
    consolidates once.  The vector is linear in its updates, so
    deferring and netting cannot change any final value; the state is
    identical to applying ``update`` item by item.  Pickles and copies
    hold just the two arrays, so they cost a few buffer copies however
    large the support is.
    """

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self._coords = _EMPTY
        self._nets = _EMPTY
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._scalars: List[Tuple[int, int]] = []
        self._pending_len = 0

    @property
    def _values(self) -> "_SupportView":
        """Read-only coordinate → value mapping over the consolidated
        arrays (flushes pending updates)."""
        if self._pending_len:
            self._flush()
        return _SupportView(self._coords, self._nets)

    def _flush(self) -> None:
        """Net every pending update into the consolidated arrays at once."""
        coords = [column for column, _ in self._pending]
        nets = [column for _, column in self._pending]
        if self._scalars:
            scalars = np.array(self._scalars, dtype=np.int64)
            coords.append(scalars[:, 0])
            nets.append(scalars[:, 1])
        coords.append(self._coords)
        nets.append(self._nets)
        self._pending = []
        self._scalars = []
        self._pending_len = 0
        unique, inverse = np.unique(np.concatenate(coords), return_inverse=True)
        total = np.zeros(len(unique), dtype=np.int64)
        np.add.at(total, inverse, np.concatenate(nets))
        live = total != 0
        self._coords = _readonly(unique[live])
        self._nets = _readonly(total[live])

    def _buffered(self, length: int) -> None:
        self._pending_len += length
        if self._pending_len >= _FLUSH_PENDING:
            self._flush()

    def update(self, index: int, delta: int) -> None:
        """Apply ``vector[index] += delta`` (validated, then deferred)."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} out of range [0, {self.dim})")
        self._scalars.append((index, delta))
        self._buffered(1)

    def update_batch(self, indices: np.ndarray, deltas: np.ndarray) -> None:
        """Queue a batch of signed updates (validated, then deferred).

        The columns are copied before buffering, so callers may hand in
        views of reused chunk buffers (e.g. shared-memory segments).
        """
        check_equal_lengths("indices", indices, "deltas", deltas)
        if len(indices) == 0:
            return
        indices = np.asarray(indices)
        if int(indices.min()) < 0 or int(indices.max()) >= self.dim:
            bad = indices[(indices < 0) | (indices >= self.dim)][0]
            raise ValueError(f"index {int(bad)} out of range [0, {self.dim})")
        self._pending.append(
            (
                np.array(indices, dtype=np.int64),
                np.array(np.asarray(deltas), dtype=np.int64),
            )
        )
        self._buffered(len(indices))

    def merge(self, other: "ExactSupport") -> "ExactSupport":
        """Coordinate-wise sum of two supports over disjoint sub-streams.

        The tracked vector is linear, so the merged support equals the
        support of the concatenated update stream exactly (cancellations
        across shards drop out here, at merge time).  The other side's
        consolidated arrays join this side's buffer and everything is
        netted in one pass.
        """
        if not isinstance(other, ExactSupport):
            raise ValueError(
                f"cannot merge ExactSupport with {type(other).__name__}"
            )
        if self.dim != other.dim:
            raise ValueError(
                f"cannot merge ExactSupport over dim={self.dim} with "
                f"dim={other.dim}"
            )
        theirs = other._values
        # Consolidated arrays are never written in place, so sharing
        # them with ``other`` is safe.
        self._pending.append((theirs.coords, theirs.nets))
        self._pending_len += len(theirs)
        self._flush()
        return self

    def support(self) -> List[int]:
        """Sorted list of non-zero coordinates."""
        return self._values.coords.tolist()

    def support_size(self) -> int:
        return len(self._values)

    def value(self, index: int) -> int:
        return self._values.get(index, 0)

    def items(self) -> Iterator[Tuple[int, int]]:
        """``(coordinate, value)`` pairs in ascending coordinate order."""
        return iter(self._values.items())

    def __contains__(self, index: int) -> bool:
        return index in self._values

    def __getstate__(self):
        # Consolidate first: a pickle or copy holds just the two arrays.
        values = self._values
        return {"dim": self.dim, "_coords": values.coords, "_nets": values.nets}

    def __setstate__(self, state) -> None:
        self.dim = state["dim"]
        self._coords = _readonly(state["_coords"])
        self._nets = _readonly(state["_nets"])
        self._pending = []
        self._scalars = []
        self._pending_len = 0

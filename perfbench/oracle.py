"""Answer checks computed from the generated input alone.

Every check returns ``None`` for a correct answer and a one-line reason
otherwise; a run's ``answer_pass_rate`` is the share of checked answers
that come back ``None``.  A reason of type :class:`Miss` marks a FEwW
processor that gave no answer although the degree promise held; any
other reason marks a wrong answer (or a check that raised), which makes
the run incorrect.

* FEwW answers (Algorithms 2 and 3) must carry at least ``ceil(d/alpha)``
  distinct witnesses, each an edge of the input: inside the probe's
  ``[start_update, end_update)`` for windowed answers, with a positive
  net multiplicity for turnstile input.
* ``count-min`` estimates of the ten heaviest true items must lie in
  ``[f, f + epsilon * M]``, ``M`` the L1 norm of the frequency vector.
* ``misra-gries`` must report the heaviest true item with a count of at
  least ``f - M / (k + 1)``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

import numpy as np

TOP_ITEMS = 10


class Miss(str):
    """The reason for a missing FEwW answer while some vertex has degree
    at least ``d``: the algorithm's failure event (``AlgorithmFailed``),
    counted against ``answer_pass_rate`` but not a wrong answer."""


class Oracle:
    """Ground truth over one input stream ``(a, b, sign)``."""

    def __init__(
        self, a: np.ndarray, b: np.ndarray, sign: np.ndarray, n: int, m: int
    ) -> None:
        self.a = np.asarray(a, dtype=np.int64)
        self.sign = np.asarray(sign, dtype=np.int64)
        self.n, self.m = n, m
        keys = self.a * m + np.asarray(b, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        first = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]]
        starts = np.flatnonzero(first)
        #: Distinct edges, the stream position of each one's first
        #: update, and its net multiplicity over the whole stream.
        self.edges = sorted_keys[starts]
        self.first_position = order[starts]
        self.net = np.add.reduceat(self.sign[order], starts)
        self.insertion_only = bool((self.sign == 1).all())

    # -- frequencies -----------------------------------------------------

    def frequencies(self, start: int = 0, end: Optional[int] = None) -> np.ndarray:
        """Net count of every item over updates ``[start, end)``."""
        return np.bincount(
            self.a[start:end], weights=self.sign[start:end], minlength=self.n
        ).astype(np.int64)

    @staticmethod
    def heaviest(frequencies: np.ndarray, count: int = TOP_ITEMS) -> np.ndarray:
        """The ``count`` heaviest items, ties broken by smaller id."""
        return np.lexsort((np.arange(len(frequencies)), -frequencies))[:count]

    # -- checks ----------------------------------------------------------

    def check_feww(
        self,
        answer: Any,
        params: Dict[str, Any],
        frequencies: np.ndarray,
        span: Optional[Tuple[int, int]] = None,
    ) -> Optional[str]:
        """A FEwW neighbourhood: enough distinct witnesses, all genuine.

        No answer is owed when no vertex reaches degree ``d`` (the
        paper's promise), as in a window that has not filled yet.
        """
        threshold = math.ceil(params["d"] / params["alpha"])
        if answer is None:
            top = int(self.heaviest(frequencies, 1)[0])
            if frequencies[top] < params["d"]:
                return None
            return Miss(
                f"no answer (AlgorithmFailed) although vertex {top} has "
                f"degree {int(frequencies[top])} >= d={params['d']}"
            )
        witnesses = np.fromiter(answer.witnesses, dtype=np.int64)
        if len(witnesses) < threshold:
            return (
                f"vertex {answer.vertex}: {len(witnesses)} witnesses, "
                f"need {threshold}"
            )
        keys = int(answer.vertex) * self.m + witnesses
        index = np.searchsorted(self.edges, keys)
        found = index < len(self.edges)
        found[found] = self.edges[index[found]] == keys[found]
        if not found.all():
            return (
                f"vertex {answer.vertex}: witness "
                f"{int(witnesses[~found][0])} is not an input edge"
            )
        if span is not None:
            position = self.first_position[index]
            inside = (position >= span[0]) & (position < span[1])
            if not inside.all():
                return (
                    f"vertex {answer.vertex}: witness "
                    f"{int(witnesses[~inside][0])} lies outside "
                    f"updates [{span[0]}, {span[1]})"
                )
        if not self.insertion_only:
            alive = self.net[index] > 0
            if not alive.all():
                return (
                    f"vertex {answer.vertex}: witness "
                    f"{int(witnesses[~alive][0])} was deleted"
                )
        return None

    def check_count_min(
        self, sketch: Any, epsilon: float, frequencies: np.ndarray
    ) -> Optional[str]:
        items = self.heaviest(frequencies)
        truth = frequencies[items]
        estimates = np.asarray(sketch.estimate_batch(items), dtype=np.int64)
        slack = epsilon * float(np.abs(frequencies).sum())
        bad = (estimates < truth) | (estimates > truth + slack)
        if bad.any():
            item = int(items[bad][0])
            return (
                f"count-min estimate {int(estimates[bad][0])} for item {item} "
                f"outside [{int(frequencies[item])}, "
                f"{frequencies[item] + slack:.1f}]"
            )
        return None

    def check_misra_gries(
        self, summary: Any, k: int, frequencies: np.ndarray
    ) -> Optional[str]:
        item = int(self.heaviest(frequencies, 1)[0])
        truth = int(frequencies[item])
        floor = truth - float(np.abs(frequencies).sum()) / (k + 1)
        estimate = summary.estimate(item)
        if estimate < floor:
            return (
                f"misra-gries count {estimate} for heaviest item {item} "
                f"below {floor:.1f}"
            )
        return None


def check_answers(
    oracle: Oracle,
    workload: Any,
    answers: Dict[str, Any],
    span: Optional[Tuple[int, int]] = None,
) -> Dict[str, Optional[str]]:
    """Check one answer per processor label (``answers[label]`` is what
    the processor's ``finalize`` returned, or a windowed answer's value
    over ``span``).  A check that raises counts as a failure."""
    frequencies = (
        oracle.frequencies() if span is None else oracle.frequencies(*span)
    )
    out: Dict[str, Optional[str]] = {}
    for label, answer in answers.items():
        params = workload.params(label)
        try:
            if label in ("insertion-only", "insertion-deletion"):
                out[label] = oracle.check_feww(answer, params, frequencies, span)
            elif label == "count-min":
                out[label] = oracle.check_count_min(
                    answer, params["epsilon"], frequencies
                )
            else:
                out[label] = oracle.check_misra_gries(
                    answer, params["k"], frequencies
                )
        except Exception as error:  # noqa: BLE001 - a raising answer fails
            out[label] = f"checking the answer raised {error!r}"
    return out

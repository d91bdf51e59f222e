"""Import-time contract auditor: runtime truth behind the static view.

The static rules reason about source; this auditor imports the real
:data:`~repro.pipeline.registry.PROCESSORS` registry and *exercises*
every entry, so the static and dynamic views cannot drift.  Per entry:

* build at audit parameters (registry defaults plus
  :data:`AUDIT_DEFAULTS` for the required ones) —
  ``audit/unbuildable`` / ``audit/build-failed``;
* feed a tiny batch through ``process_batch`` — ``audit/batch-failed``;
* pickle round-trip the *loaded* instance and drive the clone through
  another batch + ``finalize`` (the exact path a sharded worker's
  summary takes through a pipe) — ``audit/pickle-roundtrip``;
* mergeable smoke: ``split(1)`` yields exactly one same-type summary
  that still ingests and finalizes (``audit/split-identity``), and a
  ``split(2)`` pair merges (``audit/merge-smoke``);
* merge reads its argument (``audit/merge-reads-other``): after
  ``merged = left.merge(right)``, feeding ``right`` another batch must
  leave ``merged``'s pickle unchanged (no shared mutable state), and
  ``right.finalize()`` must equal that of a deep copy taken before the
  merge and fed the same batch (the merge left ``right`` as it was);
* metadata ↔ capability agreement: the *instance*'s validated
  ``shard_routing`` must match the registry's declared routing, and
  ``mergeable`` must match what
  :func:`~repro.engine.protocol.ensure_mergeable` accepts —
  ``audit/metadata-capability``.

Diagnostics anchor at the implementing class when one is resolvable,
otherwise at ``<registry>``.
"""

from __future__ import annotations

import copy
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.protocol import _class_location

__all__ = ["AUDIT_DEFAULTS", "AUDIT_PARAMS", "audit_registry"]

#: Name-based values for required parameters (small on purpose: the
#: audit exercises contracts, not accuracy).
AUDIT_DEFAULTS: Dict[str, Any] = {
    "n": 32,
    "m": 64,
    "d": 4,
    "k": 4,
    "count": 2,
    "width": 16,
    "rows": 3,
    "capacity": 128,
    "edges": 64,
    "epsilon": 0.25,
    "delta": 0.25,
    "fp_rate": 0.05,
    "n_vertices": 32,
    "seed": 0,
}

#: Per-entry overrides when the name-based table is not right.
AUDIT_PARAMS: Dict[str, Dict[str, Any]] = {}

#: The tiny audit batches (well inside every AUDIT_DEFAULTS domain).
_BATCH_A = np.array([0, 1, 2, 0], dtype=np.int64)
_BATCH_B = np.array([1, 2, 3, 4], dtype=np.int64)
_BATCH_A2 = np.array([3, 1], dtype=np.int64)
_BATCH_B2 = np.array([5, 2], dtype=np.int64)


def _audit_params(entry: Any) -> Tuple[Optional[Dict[str, Any]], List[str]]:
    """(params, missing-required-names) for one entry."""
    overrides = AUDIT_PARAMS.get(entry.name, {})
    params: Dict[str, Any] = {}
    missing: List[str] = []
    for param in entry.params:
        if param.name in overrides:
            params[param.name] = overrides[param.name]
        elif not param.required:
            continue  # let bind() fill the registry default
        elif param.name in AUDIT_DEFAULTS:
            params[param.name] = AUDIT_DEFAULTS[param.name]
        else:
            missing.append(param.name)
    if missing:
        return None, missing
    return params, []


def _merge_reads_other(fresh: Any) -> Optional[str]:
    """How ``merge`` breaks the read-only contract on its argument, or
    ``None`` when it keeps it.

    The ``split(2)`` pair of the ``fresh`` processor ingests one batch
    each, then ``left.merge(right)`` runs.  Window policies
    merge live bucket summaries that keep ingesting afterwards, so the
    merged summary must not see ``right``'s later updates, and ``right``
    must answer as if no merge had happened.
    """
    left, right = fresh.split(2)
    left.process_batch(_BATCH_A, _BATCH_B)
    right.process_batch(_BATCH_A2, _BATCH_B2)
    untouched = copy.deepcopy(right)
    merged = left.merge(right)
    before = pickle.dumps(merged)
    right.process_batch(_BATCH_A, _BATCH_B)
    if pickle.dumps(merged) != before:
        return (
            "feeding the merge argument another batch changed the merged "
            "summary (they share mutable state)"
        )
    untouched.process_batch(_BATCH_A, _BATCH_B)
    if pickle.dumps(right.finalize()) != pickle.dumps(untouched.finalize()):
        return (
            "the merge changed its argument: it finalizes differently "
            "from a copy taken before the merge"
        )
    return None


def audit_registry(
    registry: Optional[Any] = None, root: Optional[Path] = None
) -> List[Diagnostic]:
    """Exercise every registry entry; return the complete finding set."""
    if registry is None:
        from repro.pipeline.registry import PROCESSORS

        registry = PROCESSORS
    from repro.engine.protocol import ensure_mergeable, shard_routing_of

    findings: List[Diagnostic] = []
    for entry in registry.entries():
        cls = entry.resolved_class
        if cls is not None:
            path, line = _class_location(cls, root)
        else:
            path, line = "<registry>", 0

        def report(rule: str, problem: str, hint: str) -> None:
            findings.append(
                Diagnostic(
                    rule=rule,
                    path=path,
                    line=line,
                    problem=f"processor {entry.name!r}: {problem}",
                    hint=hint,
                )
            )

        params, missing = _audit_params(entry)
        if params is None:
            report(
                "audit/unbuildable",
                f"no audit value for required parameter(s) {missing}",
                "add the parameter name to repro.analysis.audit."
                "AUDIT_DEFAULTS (or an AUDIT_PARAMS entry) so the "
                "contract auditor can instantiate the processor",
            )
            continue
        try:
            processor = entry.build(params)
        except Exception as error:  # noqa: BLE001 — report, don't crash
            report(
                "audit/build-failed",
                f"factory raised {type(error).__name__}: {error}",
                "the registry schema and the factory signature disagree",
            )
            continue
        try:
            processor.process_batch(_BATCH_A, _BATCH_B)
        except Exception as error:  # noqa: BLE001
            report(
                "audit/batch-failed",
                f"process_batch raised {type(error).__name__}: {error}",
                "every processor must ingest a plain int64 (a, b) chunk "
                "with sign=None",
            )
            continue
        picklable = True
        try:
            clone = pickle.loads(pickle.dumps(processor))
            clone.process_batch(_BATCH_A2, _BATCH_B2)
            clone.finalize()
        except Exception as error:  # noqa: BLE001
            picklable = False
            report(
                "audit/pickle-roundtrip",
                f"pickle round-trip failed with "
                f"{type(error).__name__}: {error}",
                "shard summaries and checkpoints travel by pickle; drop "
                "the unpicklable state (open handles, lambdas, locks) "
                "or add __getstate__/__setstate__",
            )

        capable = True
        try:
            fresh = entry.build(params)
            ensure_mergeable(fresh)
        except TypeError:
            capable = False
        except Exception as error:  # noqa: BLE001
            report(
                "audit/build-failed",
                f"second build raised {type(error).__name__}: {error}",
                "factories must be repeatable at fixed parameters",
            )
            continue
        if entry.mergeable != capable:
            report(
                "audit/metadata-capability",
                f"registered mergeable={entry.mergeable} but the instance "
                f"{'passes' if capable else 'fails'} ensure_mergeable()",
                "align the registry metadata with the runtime surface",
            )
        if capable:
            routing = shard_routing_of(entry.build(params))
            if entry.routing is not None and routing != entry.routing:
                report(
                    "audit/metadata-capability",
                    f"registered routing={entry.routing!r} but the "
                    f"instance reports shard_routing={routing!r}",
                    "the registry routing drives spec validation and "
                    "shard partitioning; it must match the instance",
                )
            try:
                parts = entry.build(params).split(1)
                if len(parts) != 1 or not isinstance(parts[0], type(fresh)):
                    report(
                        "audit/split-identity",
                        f"split(1) returned "
                        f"{[type(part).__name__ for part in parts]!r}",
                        "split(1) must yield exactly one shard instance "
                        "of the processor's own type",
                    )
                else:
                    parts[0].process_batch(_BATCH_A, _BATCH_B)
                    parts[0].finalize()
            except Exception as error:  # noqa: BLE001
                report(
                    "audit/split-identity",
                    f"split(1) smoke failed with "
                    f"{type(error).__name__}: {error}",
                    "a single-shard split must behave like the original "
                    "processor",
                )
            try:
                left, right = entry.build(params).split(2)
                merged = left.merge(right)
                merged.finalize()
            except Exception as error:  # noqa: BLE001
                report(
                    "audit/merge-smoke",
                    f"split(2)+merge failed with "
                    f"{type(error).__name__}: {error}",
                    "same-configuration shards must always merge; this is "
                    "the exact fold ShardedRunner performs",
                )
                continue
            if not picklable:
                continue  # the check compares pickles; already reported
            try:
                problem = _merge_reads_other(entry.build(params))
            except Exception as error:  # noqa: BLE001
                problem = f"the check raised {type(error).__name__}: {error}"
            if problem is not None:
                report(
                    "audit/merge-reads-other",
                    problem,
                    "merge(other) may write only to its receiver: copy "
                    "what it takes from other (or keep it immutable) and "
                    "leave other's observable state unchanged",
                )
    return findings

"""Static invariant linter + contract auditor (``repro analyze``).

The engine's correctness contracts — seeded RNG everywhere
(checkpoint/resume and per-shard decorrelation), mergeable summaries
behind every registry entry (sharded execution), picklable
fork-crossing state (worker pipes, checkpoints), vectorized batch
entry points (the throughput floors) — are enforced at runtime by the
equivalence suites.  This package machine-checks them at lint time so
a refactor cannot silently violate what those suites assume:

* :mod:`repro.analysis.determinism` — no ambient entropy;
* :mod:`repro.analysis.forksafe` — fork/pickle-safe summaries, no
  shared-memory segments anywhere in the package;
* :mod:`repro.analysis.hotpath` — no per-item loops in batch paths;
* :mod:`repro.analysis.protocol` — registry metadata agrees with the
  classes it describes;
* :mod:`repro.analysis.audit` — the runtime cross-check (build,
  batch, pickle round-trip, split/merge smoke per registry entry).

Everything reports through :class:`~repro.analysis.diagnostics.
Diagnostic` rows (rule id, file:line, problem, hint) with mandatory-
reason pragma suppression; :func:`~repro.analysis.runner.analyze` is
the entry point the CLI and CI gate call.
"""

from repro.analysis.audit import AUDIT_DEFAULTS, AUDIT_PARAMS, audit_registry
from repro.analysis.determinism import (
    DETERMINISM_ALLOWLIST,
    check_determinism,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    Pragma,
    PragmaIndex,
    render_json,
    render_text,
)
from repro.analysis.forksafe import check_forksafe
from repro.analysis.hotpath import HOT_BATCH_METHODS, check_hotpath
from repro.analysis.protocol import check_protocol
from repro.analysis.runner import (
    AnalysisReport,
    analyze,
    changed_files,
    iter_python_files,
)
from repro.analysis.source import ModuleSource

__all__ = [
    "AUDIT_DEFAULTS",
    "AUDIT_PARAMS",
    "AnalysisReport",
    "DETERMINISM_ALLOWLIST",
    "Diagnostic",
    "HOT_BATCH_METHODS",
    "ModuleSource",
    "Pragma",
    "PragmaIndex",
    "analyze",
    "audit_registry",
    "changed_files",
    "check_determinism",
    "check_forksafe",
    "check_hotpath",
    "check_protocol",
    "iter_python_files",
    "render_json",
    "render_text",
]

"""Declarative, serializable pipeline specs.

A pipeline run is described by four small frozen dataclasses —
*what streams* (:class:`SourceSpec`), *how it is windowed*
(:class:`WindowSpec`, optional), *what consumes it*
(:class:`ProcessorSpec`, resolved through the
:mod:`~repro.pipeline.registry`), and *how it executes*
(:class:`ExecSpec`) — combined into one :class:`PipelineSpec`.

Specs are plain data: they serialize to JSON-compatible dicts
(:meth:`PipelineSpec.to_dict`) and back
(:meth:`PipelineSpec.from_dict`) with exact round-tripping
(``from_dict(to_dict(s)) == s``), so a run is a reproducible artifact
the same way a persisted stream file is.  The one exception is an
in-memory source, which holds a live stream object and refuses to
serialize.

:func:`validate_spec` performs the eager cross-field validation:
every conflicting assignment in the spec is reported as a
:class:`~repro.pipeline.errors.Diagnostic` (mmap without a file
source, multi-worker serial backends, non-mergeable processors under
merging window policies, unknown registry names or mistyped
parameters, ...), and :class:`~repro.pipeline.Pipeline` raises them
all at construction time as one
:class:`~repro.pipeline.errors.PipelineValidationError` — a bad spec
never starts streaming.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.checkpoint import DEFAULT_CHECKPOINT_EVERY
from repro.engine.sharded import ON_FAILURE_POLICIES
from repro.pipeline.errors import (
    Diagnostic,
    RegistryError,
    SpecError,
)
from repro.streams.columnar import DEFAULT_CHUNK_SIZE

SOURCE_KINDS = ("memory", "generator", "file")
BACKENDS = ("fanout", "serial", "sharded")
WINDOW_POLICIES = ("tumbling", "sliding", "decay")

_MISSING = dataclasses.MISSING


def _field_default(spec_field: dataclasses.Field) -> Any:
    if spec_field.default is not _MISSING:
        return spec_field.default
    if spec_field.default_factory is not _MISSING:
        return spec_field.default_factory()
    return _MISSING


def _compact_dict(
    spec: Any,
    *,
    always: Sequence[str] = (),
    skip: Sequence[str] = (),
) -> Dict[str, Any]:
    """Dataclass -> dict, omitting fields that still hold their default
    (keeps JSON specs minimal while round-tripping exactly)."""
    out: Dict[str, Any] = {}
    for spec_field in dataclasses.fields(spec):
        if spec_field.name in skip:
            continue
        value = getattr(spec, spec_field.name)
        default = _field_default(spec_field)
        if spec_field.name in always or default is _MISSING or value != default:
            out[spec_field.name] = value
    return out


def _check_keys(
    data: Mapping[str, Any], cls: type, *, skip: Sequence[str] = ()
) -> None:
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{cls.__name__} spec must be a mapping, got "
            f"{type(data).__name__}"
        )
    accepted = {
        spec_field.name
        for spec_field in dataclasses.fields(cls)
        if spec_field.name not in skip
    }
    unknown = sorted(set(data) - accepted)
    if unknown:
        raise SpecError(
            f"{cls.__name__}: unknown field(s) {unknown}; "
            f"accepted: {sorted(accepted)}"
        )


def _build_spec(
    cls: type, data: Mapping[str, Any], *, skip: Sequence[str] = ()
) -> Any:
    """Construct a spec dataclass from untrusted dict data.

    Key and required-field problems surface as :class:`SpecError`
    (never a raw ``TypeError`` traceback — ``--spec`` feeds arbitrary
    JSON through here).
    """
    _check_keys(data, cls, skip=skip)
    missing = sorted(
        spec_field.name
        for spec_field in dataclasses.fields(cls)
        if spec_field.name not in skip
        and spec_field.name not in data
        and _field_default(spec_field) is _MISSING
    )
    if missing:
        raise SpecError(
            f"{cls.__name__}: missing required field(s) {missing}"
        )
    return cls(**data)


# ----------------------------------------------------------------------
# Source.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """Where the update stream comes from.

    Attributes:
        kind: ``"memory"`` (a live stream object), ``"generator"`` (a
            registered workload built by name), or ``"file"`` (a
            persisted v1/v2 stream).
        stream: the live stream (memory sources only; not serializable).
        generator: registered generator name (generator sources only).
        params: generator parameters, validated against its schema.
        path: stream file path (file sources only).
        chunk_size: updates per engine chunk.
        mmap: memory-map the v2 file instead of loading it (file
            sources; the out-of-core path).
        readahead: prefetch upcoming chunks on a background thread.
            ``None`` (default) auto-enables readahead exactly where it
            pays: memory-mapped file passes, whose cold page-ins are
            the latency being hidden.
        readahead_depth: chunks kept in flight by the prefetcher.
    """

    kind: str
    stream: Any = None
    generator: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    path: Optional[str] = None
    chunk_size: int = DEFAULT_CHUNK_SIZE
    mmap: bool = False
    readahead: Optional[bool] = None
    readahead_depth: int = 1

    def __post_init__(self) -> None:
        if self.path is not None and not isinstance(self.path, str):
            object.__setattr__(self, "path", str(self.path))
        if not isinstance(self.params, dict):
            object.__setattr__(self, "params", dict(self.params))

    @staticmethod
    def memory(stream: Any, *, chunk_size: int = DEFAULT_CHUNK_SIZE) -> "SourceSpec":
        return SourceSpec(kind="memory", stream=stream, chunk_size=chunk_size)

    @staticmethod
    def from_generator(
        generator: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> "SourceSpec":
        return SourceSpec(
            kind="generator",
            generator=generator,
            params=dict(params or {}),
            chunk_size=chunk_size,
        )

    @staticmethod
    def from_file(
        path: Union[str, Path],
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        mmap: bool = False,
        readahead: Optional[bool] = None,
        readahead_depth: int = 1,
    ) -> "SourceSpec":
        return SourceSpec(
            kind="file",
            path=str(path),
            chunk_size=chunk_size,
            mmap=mmap,
            readahead=readahead,
            readahead_depth=readahead_depth,
        )

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "memory":
            raise SpecError(
                "an in-memory source holds a live stream object and "
                "cannot be serialized; persist the stream "
                "(repro.streams.persist.dump_stream) and use a file "
                "source, or a generator source"
            )
        out = _compact_dict(self, always=("kind",), skip=("stream",))
        if "params" in out:
            out["params"] = dict(out["params"])
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "SourceSpec":
        return _build_spec(SourceSpec, data, skip=("stream",))


# ----------------------------------------------------------------------
# Window.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """Window policy applied to every processor in the pipeline.

    Attributes:
        policy: ``"tumbling"``, ``"sliding"`` or ``"decay"``.
        window: window span in updates (tumbling/sliding) or bucket
            size (decay) — the CLI's ``--window``.
        bucket_ratio: sliding only — smooth-histogram bucket ratio.
        keep: decay only — recent buckets kept at full resolution.
        seed: master seed for per-bucket seed derivation.  Under a
            window spec this is the *only* seed in play — a
            processor-level seed parameter is rejected by validation,
            since per-bucket instances would overwrite it anyway.
    """

    policy: str
    window: int
    bucket_ratio: float = 0.25
    keep: int = 4
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return _compact_dict(self, always=("policy", "window"))

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "WindowSpec":
        return _build_spec(WindowSpec, data)


# ----------------------------------------------------------------------
# Processors.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessorSpec:
    """One registered structure to feed, with its parameters.

    ``label`` names the processor in results (defaults to ``name``;
    labels must be unique within a pipeline, so one structure can run
    twice with different parameters).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, dict):
            object.__setattr__(self, "params", dict(self.params))

    @property
    def effective_label(self) -> str:
        return self.label if self.label is not None else self.name

    def to_dict(self) -> Dict[str, Any]:
        out = _compact_dict(self, always=("name",))
        if "params" in out:
            out["params"] = dict(out["params"])
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ProcessorSpec":
        return _build_spec(ProcessorSpec, data)


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExecSpec:
    """How the pass executes.

    * ``"fanout"`` (default) — one single-pass
      :class:`~repro.engine.runner.FanoutRunner` over all processors.
    * ``"serial"`` — one independent pass per processor (the
      pre-engine style; useful for isolating a structure's behaviour
      or timing).  Requires a re-iterable source.
    * ``"sharded"`` — a :class:`~repro.engine.sharded.ShardedRunner`
      over ``workers`` processes, merging shard summaries.

    The fault-tolerance knobs apply to the sharded backend's workers
    (see :mod:`repro.engine.sharded`):

    * ``retries`` — respawns of a dead/timed-out shard worker;
    * ``timeout_s`` — per-shard wall-clock budget (``None`` = none);
    * ``on_failure`` — ``"raise"`` (default), ``"retry"``, or
      ``"serial_fallback"``.
    """

    backend: str = "fanout"
    workers: int = 1
    retries: int = 2
    timeout_s: Optional[float] = None
    on_failure: str = "raise"

    def to_dict(self) -> Dict[str, Any]:
        return _compact_dict(self, always=("backend",))

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ExecSpec":
        return _build_spec(ExecSpec, data)


# ----------------------------------------------------------------------
# Checkpointing.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointSpec:
    """Durable-progress configuration for a run.

    Attributes:
        dir: directory the
            :class:`~repro.engine.checkpoint.CheckpointStore` writes
            snapshots into.
        every: source chunks between snapshots.
    """

    dir: str
    every: int = DEFAULT_CHECKPOINT_EVERY

    def __post_init__(self) -> None:
        if not isinstance(self.dir, (str, Path)):
            return  # left for validate_spec to diagnose
        object.__setattr__(self, "dir", str(self.dir))

    def to_dict(self) -> Dict[str, Any]:
        return _compact_dict(self, always=("dir",))

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CheckpointSpec":
        return _build_spec(CheckpointSpec, data)


# ----------------------------------------------------------------------
# The combined spec.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """The full declarative description of one pipeline run."""

    source: SourceSpec
    processors: Tuple[ProcessorSpec, ...]
    window: Optional[WindowSpec] = None
    execution: ExecSpec = field(default_factory=ExecSpec)
    checkpoint: Optional[CheckpointSpec] = None

    def __post_init__(self) -> None:
        if not isinstance(self.processors, tuple):
            object.__setattr__(self, "processors", tuple(self.processors))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "source": self.source.to_dict(),
            "processors": [
                processor.to_dict() for processor in self.processors
            ],
        }
        if self.window is not None:
            out["window"] = self.window.to_dict()
        if self.execution != ExecSpec():
            out["execution"] = self.execution.to_dict()
        if self.checkpoint is not None:
            out["checkpoint"] = self.checkpoint.to_dict()
        return out

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "PipelineSpec":
        _check_keys(data, PipelineSpec)
        if "source" not in data or "processors" not in data:
            missing = sorted({"source", "processors"} - set(data))
            raise SpecError(
                f"PipelineSpec: missing required field(s) {missing}"
            )
        processors = data["processors"]
        if isinstance(processors, (str, Mapping)) or not isinstance(
            processors, (list, tuple)
        ):
            raise SpecError(
                "PipelineSpec: 'processors' must be a list of processor "
                "specs"
            )
        return PipelineSpec(
            source=SourceSpec.from_dict(data["source"]),
            processors=tuple(
                ProcessorSpec.from_dict(processor) for processor in processors
            ),
            window=(
                WindowSpec.from_dict(data["window"])
                if data.get("window") is not None
                else None
            ),
            execution=(
                ExecSpec.from_dict(data["execution"])
                if "execution" in data
                else ExecSpec()
            ),
            checkpoint=(
                CheckpointSpec.from_dict(data["checkpoint"])
                if data.get("checkpoint") is not None
                else None
            ),
        )


# ----------------------------------------------------------------------
# Eager cross-field validation.
# ----------------------------------------------------------------------

#: Scalar spec fields and their expected types (bool checked before int
#: so JSON true/false never passes as a number).
_SCALAR_FIELDS = {
    "source": (
        ("kind", str), ("generator", (str, type(None))),
        ("path", (str, type(None))), ("chunk_size", int), ("mmap", bool),
        ("readahead", (bool, type(None))), ("readahead_depth", int),
    ),
    "window": (
        ("policy", str), ("window", int), ("bucket_ratio", (int, float)),
        ("keep", int), ("seed", int),
    ),
    "execution": (
        ("backend", str), ("workers", int), ("retries", int),
        ("timeout_s", (int, float, type(None))), ("on_failure", str),
    ),
    "checkpoint": (("dir", str), ("every", int)),
}


def _scalar_type_diagnostics(spec: PipelineSpec) -> List[Diagnostic]:
    out: List[Diagnostic] = []

    def check(
        prefix: str,
        obj: Any,
        rules: Sequence[Tuple[str, Any]],
    ) -> None:
        for name, expected in rules:
            value = getattr(obj, name)
            ok = isinstance(value, expected)
            if ok and not (
                expected is bool
                or (isinstance(expected, tuple) and bool in expected)
            ) and isinstance(value, bool):
                ok = False
            if not ok:
                wanted = (
                    expected.__name__ if isinstance(expected, type)
                    else "/".join(t.__name__ for t in expected)
                )
                out.append(Diagnostic(
                    f"{prefix}.{name}",
                    f"must be {wanted}, got "
                    f"{type(value).__name__} {value!r}",
                ))

    check("source", spec.source, _SCALAR_FIELDS["source"])
    if spec.window is not None:
        check("window", spec.window, _SCALAR_FIELDS["window"])
    check("execution", spec.execution, _SCALAR_FIELDS["execution"])
    if spec.checkpoint is not None:
        check("checkpoint", spec.checkpoint, _SCALAR_FIELDS["checkpoint"])
    for index, processor in enumerate(spec.processors):
        prefix = f"processors[{index}]"
        if not isinstance(processor.name, str):
            out.append(Diagnostic(
                f"{prefix}.name",
                f"must be str, got {type(processor.name).__name__}",
            ))
        if not isinstance(processor.label, (str, type(None))):
            out.append(Diagnostic(
                f"{prefix}.label",
                f"must be str, got {type(processor.label).__name__}",
            ))
    return out


def validate_spec(spec: PipelineSpec) -> List[Diagnostic]:
    """Every conflict in ``spec``, as actionable diagnostics.

    Returns an empty list for a well-formed spec.  Checks are static —
    registry schemas and cross-field consistency — and never touch the
    filesystem or build a processor, so validation is safe to run on
    untrusted specs.
    """
    from repro.pipeline.registry import GENERATORS, PROCESSORS

    diagnostics: List[Diagnostic] = []

    def bad(field_name: str, problem: str, hint: str = "") -> None:
        diagnostics.append(Diagnostic(field_name, problem, hint))

    # Scalar field types first: a mistyped value (e.g. a JSON string
    # where an int belongs) must become a diagnostic, not a TypeError
    # from a numeric comparison below — validation runs on untrusted
    # specs.  Return early on type problems; the cross-field checks
    # assume well-typed values.
    type_errors = _scalar_type_diagnostics(spec)
    if type_errors:
        return type_errors

    source = spec.source
    if source.kind not in SOURCE_KINDS:
        bad("source.kind", f"unknown source kind {source.kind!r}",
            f"expected one of {SOURCE_KINDS}")
    elif source.kind == "memory":
        if source.stream is None:
            bad("source.stream", "a memory source needs a live stream object",
                "use SourceSpec.memory(stream)")
    elif source.kind == "generator":
        if source.generator is None:
            bad("source.generator", "a generator source needs a generator name",
                f"registered: {list(GENERATORS.names())}")
        else:
            try:
                GENERATORS.get(source.generator).bind(source.params)
            except RegistryError as error:
                bad("source.generator", str(error))
    elif source.path is None:
        bad("source.path", "a file source needs a stream file path")
    if source.chunk_size < 1:
        bad("source.chunk_size",
            f"chunk_size must be >= 1, got {source.chunk_size}")
    if source.mmap and source.kind != "file":
        bad("source.mmap",
            f"mmap requires a file source, got kind={source.kind!r}",
            "mmap memory-maps a persisted v2 stream")
    if source.readahead and not source.mmap:
        bad("source.readahead",
            "readahead requires mmap (it prefetches the memory-mapped "
            "reader's next chunks)",
            "set mmap=true, or leave readahead unset for auto")
    if source.readahead_depth < 1:
        bad("source.readahead_depth",
            f"readahead_depth must be >= 1, got {source.readahead_depth}")

    if not spec.processors:
        bad("processors", "a pipeline needs at least one processor",
            f"registered: {list(PROCESSORS.names())}")
    seen_labels = set()
    entries = {}
    for index, processor in enumerate(spec.processors):
        prefix = f"processors[{index}]"
        label = processor.effective_label
        if label in seen_labels:
            bad(f"{prefix}.label", f"duplicate processor label {label!r}",
                "give one of them an explicit unique label")
        seen_labels.add(label)
        try:
            entry = PROCESSORS.get(processor.name)
            entry.bind(processor.params)
            entries[index] = entry
        except RegistryError as error:
            bad(f"{prefix}.name", str(error))

    window = spec.window
    if window is not None:
        if window.policy not in WINDOW_POLICIES:
            bad("window.policy", f"unknown window policy {window.policy!r}",
                f"expected one of {WINDOW_POLICIES}")
        if window.window < 1:
            bad("window.window", f"window must be >= 1, got {window.window}")
        if not 0.0 < window.bucket_ratio <= 1.0:
            bad("window.bucket_ratio",
                f"bucket_ratio must be in (0, 1], got {window.bucket_ratio}")
        if window.keep < 1:
            bad("window.keep", f"keep must be >= 1, got {window.keep}")
        if window.policy in ("sliding", "decay"):
            for index, entry in entries.items():
                if not entry.mergeable:
                    bad(f"processors[{index}].name",
                        f"{entry.name!r} is not mergeable, but the "
                        f"{window.policy} policy merges bucket summaries",
                        "use the tumbling policy or a mergeable processor")
        for index, entry in entries.items():
            seed_param = entry.seed_param
            if seed_param is not None and seed_param in spec.processors[index].params:
                # Per-bucket instances are seeded from window.seed (by
                # global bucket index); a processor-level seed would be
                # silently overwritten, so reject it outright.
                bad(f"processors[{index}].params",
                    f"{seed_param!r} has no effect under a window spec — "
                    f"per-bucket seeds derive from window.seed",
                    f"remove it, or set window.seed instead")

    execution = spec.execution
    if execution.backend not in BACKENDS:
        bad("execution.backend",
            f"unknown backend {execution.backend!r}",
            f"expected one of {BACKENDS}")
    if execution.workers < 1:
        bad("execution.workers",
            f"workers must be >= 1, got {execution.workers}")
    if execution.workers > 1 and execution.backend != "sharded":
        bad("execution.workers",
            f"workers={execution.workers} requires the sharded backend, "
            f"got backend={execution.backend!r}",
            "set execution.backend='sharded'")
    if execution.backend == "sharded":
        for index, entry in entries.items():
            if not entry.mergeable:
                bad(f"processors[{index}].name",
                    f"{entry.name!r} is not mergeable and cannot run on "
                    f"the sharded backend",
                    "use the fanout or serial backend")
    if execution.retries < 0:
        bad("execution.retries",
            f"retries must be >= 0, got {execution.retries}")
    if execution.timeout_s is not None and not execution.timeout_s > 0:
        bad("execution.timeout_s",
            f"timeout_s must be > 0, got {execution.timeout_s}")
    if execution.on_failure not in ON_FAILURE_POLICIES:
        bad("execution.on_failure",
            f"unknown failure policy {execution.on_failure!r}",
            f"expected one of {ON_FAILURE_POLICIES}")
    elif execution.on_failure != "raise" and execution.backend != "sharded":
        bad("execution.on_failure",
            f"on_failure={execution.on_failure!r} requires the sharded "
            f"backend, got backend={execution.backend!r}",
            "only sharded workers can be retried")

    checkpoint = spec.checkpoint
    if checkpoint is not None:
        if checkpoint.every < 1:
            bad("checkpoint.every",
                f"every must be >= 1, got {checkpoint.every}")
        if source.kind != "file":
            bad("checkpoint.dir",
                f"checkpointing requires a file source, got "
                f"kind={source.kind!r}",
                "resume re-opens the stream file at the saved offset, "
                "which only a persisted stream supports")
        if execution.backend == "serial":
            bad("checkpoint.dir",
                "checkpointing requires the fanout or sharded backend, "
                "got backend='serial'")

    return diagnostics

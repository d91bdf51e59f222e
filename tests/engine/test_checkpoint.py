"""CheckpointStore: atomic two-file snapshots and their failure modes."""

import json

import numpy as np
import pytest

from repro.core.insertion_deletion import InsertionDeletionFEwW
from repro.core.insertion_only import InsertionOnlyFEwW
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
)

_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)
    return _Tripwire()


class _Tripwire:
    """Records every time a payload holding it is unpickled."""

    def __reduce__(self):
        return (_record_unpickle, ())


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        state = {"counts": [1, 2, 3], "label": "cm"}
        store.save("run", state, chunk_index=5, position=320,
                   meta={"seed": 7})
        snapshot = store.load("run")
        assert isinstance(snapshot, Checkpoint)
        assert snapshot.state == state
        assert snapshot.chunk_index == 5
        assert snapshot.position == 320
        assert snapshot.complete is False
        assert snapshot.meta == {"seed": 7}

    def test_final_snapshot_marks_complete(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", {}, chunk_index=9, position=576, complete=True)
        assert store.load("run").complete is True

    def test_save_supersedes_previous_snapshot(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("shard-0", {"v": 1}, chunk_index=1, position=64)
        store.save("shard-0", {"v": 2}, chunk_index=2, position=128)
        snapshot = store.load("shard-0")
        assert snapshot.state == {"v": 2}
        assert snapshot.chunk_index == 2

    def test_superseded_payloads_are_unlinked(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for chunk in range(1, 4):
            store.save("run", {"chunk": chunk}, chunk_index=chunk,
                       position=chunk * 64)
        payloads = sorted(path.name for path in tmp_path.glob("run.*.pkl"))
        assert payloads == ["run.000000000003.pkl"]

    def test_tags_are_independent_series(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("shard-0", {"w": 0}, chunk_index=1, position=64)
        store.save("shard-1", {"w": 1}, chunk_index=2, position=128)
        assert store.tags() == ["shard-0", "shard-1"]
        assert store.load("shard-0").state == {"w": 0}
        assert store.load("shard-1").state == {"w": 1}

    def test_has_and_try_load_when_absent(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert not store.has("run")
        assert store.try_load("run") is None
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            store.load("run")

    def test_directory_created_on_demand(self, tmp_path):
        store = CheckpointStore(tmp_path / "a" / "b")
        store.save("run", {}, chunk_index=0, position=0)
        assert store.has("run")


class TestTagValidation:
    @pytest.mark.parametrize("tag", ["", "has space", "dot.dot", "a/b", "é"])
    def test_bad_tags_rejected(self, tmp_path, tag):
        store = CheckpointStore(tmp_path)
        with pytest.raises(ValueError, match="checkpoint tag"):
            store.save(tag, {}, chunk_index=0, position=0)
        with pytest.raises(ValueError, match="checkpoint tag"):
            store.load(tag)


class TestDamageRejection:
    """A damaged checkpoint is rejected whole — never half-loaded."""

    def _saved(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("run", {"v": 1}, chunk_index=3, position=192)
        return store

    def test_torn_manifest_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        manifest = tmp_path / "run.manifest.json"
        manifest.write_text(manifest.read_text()[:20])
        with pytest.raises(CheckpointError, match="torn or corrupt"):
            store.load("run")
        # try_load treats present-but-damaged as an error, not a
        # fresh start — silent restarts would mask corruption.
        with pytest.raises(CheckpointError):
            store.try_load("run")

    def test_manifest_missing_fields_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        manifest = tmp_path / "run.manifest.json"
        data = json.loads(manifest.read_text())
        del data["sha256"]
        manifest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="missing required fields"):
            store.load("run")

    def test_payload_digest_mismatch_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        payload = tmp_path / "run.000000000003.pkl"
        payload.write_bytes(payload.read_bytes()[:-1] + b"\x00")
        with pytest.raises(CheckpointError, match="digest mismatch"):
            store.load("run")

    def test_missing_payload_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        (tmp_path / "run.000000000003.pkl").unlink()
        with pytest.raises(CheckpointError, match="unreadable"):
            store.load("run")

    def test_future_format_version_rejected(self, tmp_path):
        store = self._saved(tmp_path)
        manifest = tmp_path / "run.manifest.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version"):
            store.load("run")

    def test_version_one_manifest_rejected_before_unpickling(self, tmp_path):
        """Version-1 payloads pickle the old dict-backed support layout;
        a version-1 manifest is refused before its payload is read."""
        _UNPICKLED.clear()
        store = CheckpointStore(tmp_path)
        algorithm = InsertionDeletionFEwW(8, 8, 4, 2, seed=0, scale=0.2)
        store.save("run", {"alg3": algorithm, "probe": _Tripwire()},
                   chunk_index=3, position=192)
        assert type(store.load("run").state["probe"]) is _Tripwire
        _UNPICKLED.clear()
        manifest = tmp_path / "run.manifest.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 1
        manifest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version 1"):
            store.load("run")
        with pytest.raises(CheckpointError, match="format version 1"):
            store.try_load("run")
        assert _UNPICKLED == []

    def test_version_two_manifest_rejected_before_unpickling(self, tmp_path):
        """Version-2 Algorithm 2 payloads pickle witness lists, which the
        tuple-based merge cannot extend; a version-2 manifest is refused
        before its payload is read."""
        _UNPICKLED.clear()
        store = CheckpointStore(tmp_path)
        algorithm = InsertionOnlyFEwW(16, 4, 2, seed=0)
        algorithm.process_batch(
            np.array([1, 1, 1, 1, 2], dtype=np.int64),
            np.arange(5, dtype=np.int64),
        )
        store.save("run", {"alg2": algorithm, "probe": _Tripwire()},
                   chunk_index=1, position=5)
        loaded = store.load("run").state["alg2"]
        assert all(
            type(witnesses) is tuple
            for run in loaded.runs
            for witnesses in run._reservoir.values()
        )
        _UNPICKLED.clear()
        manifest = tmp_path / "run.manifest.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 2
        manifest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="format version 2"):
            store.load("run")
        with pytest.raises(CheckpointError, match="format version 2"):
            store.try_load("run")
        assert _UNPICKLED == []

    def test_no_stray_temp_files_after_save(self, tmp_path):
        self._saved(tmp_path)
        assert not list(tmp_path.glob("*.tmp.*"))

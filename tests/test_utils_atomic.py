"""Tests for atomic writes and the artefact writers routed through them."""

import numpy as np
import pytest

from repro.utils.atomic import atomic_write


class Boom(RuntimeError):
    pass


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("hello")
        assert target.read_text() == "hello"

    def test_binary_mode(self, tmp_path):
        target = tmp_path / "out.bin"
        with atomic_write(target, "wb") as handle:
            handle.write(b"\x00\x01\x02")
        assert target.read_bytes() == b"\x00\x01\x02"

    def test_rejects_read_modes(self, tmp_path):
        with pytest.raises(ValueError, match="modes"):
            with atomic_write(tmp_path / "x", "r"):
                pass
        with pytest.raises(ValueError, match="modes"):
            with atomic_write(tmp_path / "x", "a"):
                pass

    def test_crash_preserves_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("previous")
        with pytest.raises(Boom):
            with atomic_write(target) as handle:
                handle.write("partial new conte")
                raise Boom()
        assert target.read_text() == "previous"

    def test_crash_leaves_no_file_when_target_was_absent(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(Boom):
            with atomic_write(target) as handle:
                handle.write("doomed")
                raise Boom()
        assert not target.exists()

    def test_no_temp_file_litter(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("ok")
        with pytest.raises(Boom):
            with atomic_write(target) as handle:
                raise Boom()
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        with atomic_write(target) as handle:
            handle.write("deep")
        assert target.read_text() == "deep"

    def test_overwrite_replaces_atomically(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as handle:
            handle.write("new")
        assert target.read_text() == "new"


class TestArtefactWritersAreAtomic:
    def test_table_save_crash_preserves_previous(self, tmp_path, monkeypatch):
        from repro.core.reporting import Table
        from repro.utils import atomic

        path = tmp_path / "table.txt"
        table = Table("t", ["a"])
        table.add_row(1)
        table.save(str(path))
        before = path.read_text()

        def boom(*args, **kwargs):
            raise Boom()

        # A failure while flushing the new table must not clobber the old.
        monkeypatch.setattr(atomic.os, "fsync", boom)
        table.add_row(2)
        with pytest.raises(Boom):
            table.save(str(path))
        assert path.read_text() == before

    def test_save_embeddings_crash_preserves_previous(self, tmp_path, monkeypatch):
        from repro.pipeline import arrays
        from repro.utils import persistence

        class FakeEmbedding:
            name = "fake"
            vocabulary = ["a", "b"]

            def __init__(self, fill):
                self.matrix = np.full((2, 2), fill, dtype=np.float32)

        persistence.save_embeddings_entry(FakeEmbedding(0.0), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def boom(*args, **kwargs):
            raise Boom()

        monkeypatch.setattr(arrays.np, "save", boom)
        with pytest.raises(Boom):
            persistence.save_embeddings_entry(FakeEmbedding(1.0), tmp_path)
        # The old entry survives intact, with no temp-file litter beside it.
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_write_manifest_crash_preserves_previous(self, tmp_path, monkeypatch):
        import json

        from repro.obs import manifest as manifest_mod

        path = tmp_path / "run.manifest.json"
        manifest_mod.write_manifest(path)
        before = path.read_text()
        assert json.loads(before)["format"] == manifest_mod.MANIFEST_FORMAT

        def boom(*args, **kwargs):
            raise Boom()

        monkeypatch.setattr(manifest_mod.json, "dump", boom)
        with pytest.raises(Boom):
            manifest_mod.write_manifest(path)
        assert path.read_text() == before

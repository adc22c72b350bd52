"""The one atomic-write helper: replace semantics and fsync policy."""

import os

import pytest

from repro.atomic import atomic_write


@pytest.mark.parametrize("durable", [True, False])
def test_fsyncs_file_and_directory_only_when_durable(
    tmp_path, monkeypatch, durable
):
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(os.readlink(f"/proc/self/fd/{fd}"))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    target = tmp_path / "payload.bin"
    target.write_bytes(b"old")
    atomic_write(target, b"new", durable=durable)
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["payload.bin"]
    # Durable: the file under its temp name before the rename, then
    # the directory that holds the rename.
    expected = [f"{target}.tmp.{os.getpid()}", str(tmp_path)]
    assert synced == (expected if durable else [])

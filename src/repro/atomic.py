"""Atomic file replacement: the results store, service checkpoints
and the supervisor's result handoff all write through
:func:`atomic_write`."""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write(path: str | Path, data: bytes, *, durable: bool) -> None:
    """Replace ``path`` with ``data``; a reader sees old or new, never torn.

    The bytes land in ``<name>.tmp.<pid>`` in the same directory (the
    name store gc sweeps for) and ``os.replace`` moves them into place.
    ``durable=True`` fsyncs the file before the rename and the directory
    after it, so the new contents also survive power loss; without it
    they survive a crash of this process only.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        if durable:
            handle.flush()
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if durable:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

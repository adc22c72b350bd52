"""String interning for columnar telemetry.

Addresses, cookies, user agents, cities and countries repeat across
millions of rows; storing each occurrence as a Python string costs tens
of bytes plus an object header every time.  :class:`StringTable` maps
each distinct string to a small integer id so columns store ids in a
compact ``array('q')`` and equality checks become int comparisons.

Id ``0`` is reserved for ``None`` (the "no value" marker the activity
page uses for unlocatable accesses), so nullable string columns need no
separate mask.

For out-of-core datasets (:mod:`repro.telemetry.spill`) the table
itself can leave RAM: :func:`write_string_table` seals a table into two
flat files (UTF-8 payload + ``int64`` end offsets), and
:class:`DiskStringTable` serves ``lookup``/``id_of`` from those files
through ``mmap`` with a bounded decode cache.  Ids are identical to the
sealed table's, so interned columns written against the RAM table read
back unchanged against the disk one.
"""

from __future__ import annotations

import mmap
import os
from array import array
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

NULL_ID = 0

_NO_IDS: Mapping[str, int] = MappingProxyType({})

STRINGS_PAYLOAD = "strings.payload"
STRINGS_OFFSETS = "strings.offsets"


class StringTable:
    """Bidirectional string <-> int-id mapping, append-only.

    Ids are dense and allocated in first-seen order, which keeps the
    table deterministic for a deterministic event stream — two runs with
    the same seed produce byte-identical tables.
    """

    __slots__ = ("ids", "_strings")

    def __init__(self) -> None:
        #: The live ``string -> id`` map, a plain slot so hot paths
        #: probe it without a call.  A hit is the id :meth:`intern`
        #: would return; on a miss (and for ``None``) call
        #: :meth:`intern`.  Read it, never write it.
        self.ids: dict[str, int] = {}
        self._strings: list[str | None] = [None]

    def __len__(self) -> int:
        """Number of entries including the reserved ``None`` slot."""
        return len(self._strings)

    def intern(self, value: str | None) -> int:
        """Return the id for ``value``, allocating one if new."""
        if value is None:
            return NULL_ID
        ident = self.ids.get(value)
        if ident is None:
            ident = len(self._strings)
            self.ids[value] = ident
            self._strings.append(value)
        return ident

    def lookup(self, ident: int) -> str | None:
        """The string for an id (``None`` for the reserved id 0)."""
        return self._strings[ident]

    def id_of(self, value: str | None) -> int | None:
        """The id of an already-interned string, or ``None`` if absent.

        Unlike :meth:`intern` this never grows the table, so it is safe
        to use for membership probes on a read-only store.
        """
        if value is None:
            return NULL_ID
        return self.ids.get(value)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_list(self) -> list[str | None]:
        """JSON-friendly dump (index == id)."""
        return list(self._strings)

    @classmethod
    def from_list(cls, strings: list[str | None]) -> "StringTable":
        table = cls()
        for ident, value in enumerate(strings):
            if ident == NULL_ID:
                continue
            table.ids[value] = ident
            table._strings.append(value)
        return table

    def __getstate__(self) -> list[str | None]:
        return self.to_list()

    def __setstate__(self, state: list[str | None]) -> None:
        self.ids = {}
        self._strings = [None]
        for ident, value in enumerate(state):
            if ident == NULL_ID:
                continue
            self.ids[value] = ident
            self._strings.append(value)


def write_string_table(table, directory: str | Path) -> Path:
    """Seal a string table into flat files under ``directory``.

    Two files: ``strings.payload`` (the UTF-8 strings, concatenated in
    id order, id 1 first) and ``strings.offsets`` (little-endian
    ``int64`` *end* offsets, one per string).  Returns the directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ends = array("q")
    position = 0
    with (directory / STRINGS_PAYLOAD).open("wb") as payload:
        for ident in range(1, len(table)):
            encoded = table.lookup(ident).encode("utf-8")
            payload.write(encoded)
            position += len(encoded)
            ends.append(position)
    (directory / STRINGS_OFFSETS).write_bytes(ends.tobytes())
    return directory


class DiskStringTable:
    """Read-only string table served from sealed spill files.

    Matches the :class:`StringTable` read API (``lookup``, ``id_of``,
    ``len``, ``to_list``) over an ``mmap``-ed payload, keeping only the
    offsets (8 bytes per string) plus a bounded decode cache resident.
    ``intern`` resolves strings the table already holds and raises for
    new ones — a sealed table cannot grow.  Pickling materialises back
    into a regular :class:`StringTable`.
    """

    _CACHE_LIMIT = 65536

    __slots__ = ("directory", "ids", "_ends", "_payload", "_cache", "_probes")

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        #: Always empty, so a hot-path probe (see ``StringTable.ids``)
        #: misses and goes to :meth:`intern`, which resolves sealed
        #: strings and refuses new ones.
        self.ids: Mapping[str, int] = _NO_IDS
        ends = array("q")
        ends.frombytes((self.directory / STRINGS_OFFSETS).read_bytes())
        self._ends = ends
        payload_path = self.directory / STRINGS_PAYLOAD
        if os.path.getsize(payload_path) == 0:
            self._payload = b""
        else:
            with payload_path.open("rb") as handle:
                self._payload = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        self._cache: dict[int, str] = {}
        self._probes: dict[str, int | None] = {}

    def __len__(self) -> int:
        """Number of entries including the reserved ``None`` slot."""
        return len(self._ends) + 1

    def lookup(self, ident: int) -> str | None:
        """The string for an id (``None`` for the reserved id 0)."""
        if ident == NULL_ID:
            return None
        value = self._cache.get(ident)
        if value is None:
            start = self._ends[ident - 2] if ident >= 2 else 0
            value = self._payload[start : self._ends[ident - 1]].decode("utf-8")
            if len(self._cache) >= self._CACHE_LIMIT:
                self._cache.clear()
            self._cache[ident] = value
        return value

    def intern(self, value: str | None) -> int:
        """The id of a string the sealed table already holds."""
        ident = self.id_of(value)
        if ident is None:
            raise KeyError(
                f"sealed string table cannot intern new string {value!r}"
            )
        return ident

    def id_of(self, value: str | None) -> int | None:
        """The id of a sealed string, or ``None`` if absent."""
        if value is None:
            return NULL_ID
        if value in self._probes:
            return self._probes[value]
        encoded = value.encode("utf-8")
        size = len(encoded)
        found = None
        start = 0
        for index, end in enumerate(self._ends):
            if end - start == size and self._payload[start:end] == encoded:
                found = index + 1
                break
            start = end
        if len(self._probes) >= self._CACHE_LIMIT:
            self._probes.clear()
        self._probes[value] = found
        return found

    def to_list(self) -> list[str | None]:
        """JSON-friendly dump (index == id)."""
        return [None] + [self.lookup(ident) for ident in range(1, len(self))]

    def __reduce__(self):
        return (StringTable.from_list, (self.to_list(),))

"""Mailbox: folders, labels, stars, drafts, sent mail.

Models the Gmail surface described in the paper's Background section:
an inbox highlighting unread mail, starring, labels/folders, a Drafts
folder for unsent content and a Sent folder for delivered mail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import NoSuchMessageError
from repro.webmail.message import EmailMessage


class Folder(enum.Enum):
    """Built-in mailbox folders."""

    INBOX = "inbox"
    SENT = "sent"
    DRAFTS = "drafts"
    TRASH = "trash"


@dataclass(frozen=True)
class MailboxChange:
    """One observable mailbox state change.

    ``kind`` is one of ``"read"``, ``"starred"``, ``"draft_created"``,
    ``"sent"`` or ``"received"``.  The honey monitoring script discovers
    changes by scanning; the changelog gives it (and only it) an efficient
    equivalent of diffing two snapshots.
    """

    kind: str
    message_id: str


@dataclass
class Mailbox:
    """All messages of one account, organised by folder.

    The mailbox mints message ids: the first time a message is filed
    anywhere, it gets ``msg-<owner>-<n>`` from this mailbox's own
    counter.  Ids are therefore a function of the owning account's
    filing history alone — two runs that file the same messages into an
    account in the same order agree on every id, regardless of what any
    *other* account did in between (the property sharded runs rely on).
    """

    #: Tag baked into minted ids (the account address; set by
    #: :class:`~repro.webmail.account.WebmailAccount`).  The default
    #: keeps bare ``Mailbox()`` construction working in tests.
    owner: str = "local"
    _folders: dict[Folder, list[EmailMessage]] = field(
        default_factory=lambda: {folder: [] for folder in Folder}
    )
    _index: dict[str, tuple[Folder, EmailMessage]] = field(
        default_factory=dict
    )
    _changelog: list[MailboxChange] = field(default_factory=list)
    _minted: int = 0
    #: Hooks called with no arguments after every changelog append;
    #: a monitoring script registers its trigger's wake-up here so a
    #: change-driven scan runs only when something changed.
    on_change: list[Callable[[], None]] = field(
        default_factory=list, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    _ADD_CHANGE_KINDS = {
        Folder.INBOX: "received",
        Folder.DRAFTS: "draft_created",
        Folder.SENT: "sent",
    }

    def add(self, folder: Folder, message: EmailMessage) -> EmailMessage:
        """File ``message`` under ``folder`` and index it by id.

        Messages without an id (freshly constructed) are assigned one
        from this mailbox's counter; messages already filed elsewhere
        (e.g. a send delivered to several recipients) keep theirs.
        """
        if not message.message_id:
            self._minted += 1
            message.message_id = f"msg-{self.owner}-{self._minted:06d}"
        self._folders[folder].append(message)
        self._index[message.message_id] = (folder, message)
        kind = self._ADD_CHANGE_KINDS.get(folder)
        if kind is not None:
            self._record(kind, message.message_id)
        return message

    def _record(self, kind: str, message_id: str) -> None:
        """Append one change and call the ``on_change`` hooks."""
        self._changelog.append(MailboxChange(kind, message_id))
        for hook in self.on_change:
            hook()

    def get(self, message_id: str) -> EmailMessage:
        """Look up a message by id.

        Raises:
            NoSuchMessageError: when the id is unknown.
        """
        try:
            return self._index[message_id][1]
        except KeyError as exc:
            raise NoSuchMessageError(message_id) from exc

    def folder_of(self, message_id: str) -> Folder:
        """The folder currently holding ``message_id``."""
        try:
            return self._index[message_id][0]
        except KeyError as exc:
            raise NoSuchMessageError(message_id) from exc

    def move(self, message_id: str, destination: Folder) -> None:
        """Move a message between folders (e.g. Drafts -> Sent)."""
        folder, message = self._index[message_id]
        self._folders[folder].remove(message)
        self._folders[destination].append(message)
        self._index[message_id] = (destination, message)
        if destination is Folder.SENT:
            self._record("sent", message_id)

    def remove(self, message_id: str) -> EmailMessage:
        """Delete a message outright (used when drafts are discarded)."""
        try:
            folder, message = self._index.pop(message_id)
        except KeyError as exc:
            raise NoSuchMessageError(message_id) from exc
        self._folders[folder].remove(message)
        return message

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def messages(self, folder: Folder) -> tuple[EmailMessage, ...]:
        """Messages in a folder, oldest first."""
        return tuple(self._folders[folder])

    def all_messages(self) -> Iterator[EmailMessage]:
        """Every message across folders, in storage order."""
        for folder in Folder:
            yield from self._folders[folder]

    def unread_count(self) -> int:
        """Unread messages in the inbox (boldface in the UI)."""
        return sum(
            1 for m in self._folders[Folder.INBOX] if not m.flags.read
        )

    def starred_messages(self) -> tuple[EmailMessage, ...]:
        """All starred messages across folders."""
        return tuple(m for m in self.all_messages() if m.flags.starred)

    def count(self, folder: Folder | None = None) -> int:
        """Number of messages in ``folder``, or in the whole mailbox."""
        if folder is None:
            return len(self._index)
        return len(self._folders[folder])

    # ------------------------------------------------------------------
    # message-level actions (invoked through the service layer)
    # ------------------------------------------------------------------
    def mark_read(self, message_id: str) -> EmailMessage:
        message = self.get(message_id)
        if not message.flags.read:
            message.flags.read = True
            self._record("read", message_id)
        return message

    def star(self, message_id: str) -> EmailMessage:
        message = self.get(message_id)
        if not message.flags.starred:
            message.flags.starred = True
            self._record("starred", message_id)
        return message

    def unstar(self, message_id: str) -> EmailMessage:
        message = self.get(message_id)
        message.flags.starred = False
        return message

    def apply_label(self, message_id: str, label: str) -> EmailMessage:
        message = self.get(message_id)
        message.labels.add(label)
        return message

    def snapshot(self) -> dict[str, dict]:
        """Snapshot of every message's monitored state, keyed by id.

        Equivalent to what the honey Apps Script would rebuild on each
        scan; kept for tests that validate the changelog against a full
        diff.
        """
        return {
            m.message_id: m.snapshot() for m in self.all_messages()
        }

    @property
    def changelog_length(self) -> int:
        """Total number of changes recorded so far."""
        return len(self._changelog)

    def changes_since(self, cursor: int) -> tuple[list[MailboxChange], int]:
        """Changes recorded after ``cursor``; returns (changes, new_cursor).

        The monitoring script keeps its own cursor, so each 10-minute scan
        costs O(changes since last scan).
        """
        changes = self._changelog[cursor:]
        return changes, len(self._changelog)

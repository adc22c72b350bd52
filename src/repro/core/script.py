"""The honey monitoring script (the paper's Google Apps Script).

One :class:`HoneyMonitorScript` is installed per honey account, hidden in a
spreadsheet, with a 10-minute time trigger.  Each run scans the mailbox for
changes since the previous run and reports read / sent / starred events and
copies of new drafts to the notification store; a daily heartbeat attests
the account is alive.  The script keeps running after a hijacker changes
the password — only deletion or provider suspension stops it — which is
why the paper kept receiving interaction data from hijacked accounts.

The script also implements the runtime's optional wake contract
(:meth:`HoneyMonitorScript.attach`, :meth:`HoneyMonitorScript.next_due`),
so a change-driven trigger can skip the ticks where a scan would find
nothing to report.
"""

from __future__ import annotations

from typing import Callable

from repro.core.notifications import NotificationKind, NotificationRecord
from repro.errors import NoSuchMessageError
from repro.sim.clock import days
from repro.webmail.account import WebmailAccount

#: Type of the sink the script reports to (the notification store).
NotificationSink = Callable[[NotificationRecord], None]

#: Change kinds the script reports, mapped to notification kinds.
_REPORTED_CHANGES: dict[str, NotificationKind] = {
    "read": NotificationKind.READ,
    "sent": NotificationKind.SENT,
    "starred": NotificationKind.STARRED,
    "draft_created": NotificationKind.DRAFT,
}

#: Kinds whose notifications carry a full copy of the message text.
_CONTENT_KINDS = {NotificationKind.DRAFT, NotificationKind.READ}

#: Relative slack taken off the heartbeat due time in
#: :meth:`HoneyMonitorScript.next_due`.  ``run`` tests ``now - last >=
#: period``; rounding can make that true at a ``now`` a few ulps below
#: ``last + period``, and the slack (orders of magnitude above the
#: ~1e-16 relative rounding error) keeps the bound from ever being late.
_DUE_SLACK = 1e-9


class HoneyMonitorScript:
    """Account-bound script implementing the AppsScript protocol.

    Args:
        account: the honey account to watch.
        sink: callable receiving each :class:`NotificationRecord`.
        heartbeat_period: seconds between keep-alive notifications
            (the paper uses one per day).
        execution_cost: simulated "computer time" charged per run against
            the provider quota; the two quota-warning case-study accounts
            are provisioned with a higher cost.
    """

    def __init__(
        self,
        account: WebmailAccount,
        sink: NotificationSink,
        *,
        heartbeat_period: float = days(1),
        execution_cost: float = 0.005,
    ) -> None:
        self._account = account
        self._sink = sink
        self._cursor = 0
        self._heartbeat_period = heartbeat_period
        self._last_heartbeat = float("-inf")
        self.execution_cost = execution_cost
        self.scan_count = 0
        self.reported_count = 0

    @property
    def account_address(self) -> str:
        return self._account.address

    def attach(self, wake: Callable[[], None]) -> None:
        """Call ``wake`` whenever the watched mailbox records a change."""
        self._account.mailbox.on_change.append(wake)

    def next_due(self) -> float:
        """A lower bound on the next sim-time at which :meth:`run` can
        report anything.

        ``-inf`` while changes are pending past the cursor, ``+inf``
        once the account is blocked (suspension is permanent), else the
        next heartbeat time minus a float slack.  Running before the
        bound is a no-op; a trigger that waits past it would diverge
        from the every-tick scan.
        """
        if self._account.is_blocked:
            return float("inf")
        if self._account.mailbox.changelog_length > self._cursor:
            return float("-inf")
        due = self._last_heartbeat + self._heartbeat_period
        return due - _DUE_SLACK * (abs(due) + self._heartbeat_period)

    def run(self, now: float) -> None:
        """One trigger firing: scan for changes, then maybe heartbeat."""
        self.scan_count += 1
        if self._account.is_blocked:
            # Provider suspension halts script execution, as at Google.
            return
        changes, self._cursor = self._account.mailbox.changes_since(
            self._cursor
        )
        for change in changes:
            kind = _REPORTED_CHANGES.get(change.kind)
            if kind is None:
                continue  # "received" is not reported; accounts get no new mail
            try:
                message = self._account.mailbox.get(change.message_id)
            except NoSuchMessageError:
                continue  # message deleted between change and scan
            body_copy = (
                message.text if kind in _CONTENT_KINDS else ""
            )
            self._sink(
                NotificationRecord(
                    kind=kind,
                    account_address=self._account.address,
                    timestamp=now,
                    message_id=change.message_id,
                    subject=message.subject,
                    body_copy=body_copy,
                )
            )
            self.reported_count += 1
        if now - self._last_heartbeat >= self._heartbeat_period:
            self._last_heartbeat = now
            self._sink(
                NotificationRecord(
                    kind=NotificationKind.HEARTBEAT,
                    account_address=self._account.address,
                    timestamp=now,
                )
            )

"""Tests for repro.core.script (the honey monitoring script)."""

import pytest

from repro.core.notifications import NotificationKind
from repro.core.script import HoneyMonitorScript
from repro.sim.clock import days, hours
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage


@pytest.fixture()
def account():
    return WebmailAccount(
        credentials=Credentials("honey@gmail.example", "pw123456"),
        display_name="Honey Pot",
    )


@pytest.fixture()
def sink():
    records = []
    return records


def make_script(account, sink, **kwargs):
    return HoneyMonitorScript(account, sink.append, **kwargs)


def add_inbox(account, subject="hello", body="world"):
    return account.mailbox.add(
        Folder.INBOX,
        EmailMessage(
            sender_name="B",
            sender_address="b@x.example",
            recipient_addresses=(account.address,),
            subject=subject,
            body=body,
            received_at=0.0,
        ),
    )


class TestChangeReporting:
    def test_read_reported_with_content(self, account, sink):
        message = add_inbox(account, "secret", "payment details")
        script = make_script(account, sink)
        script.run(now=0.0)  # heartbeat only; 'received' not reported
        account.mailbox.mark_read(message.message_id)
        script.run(now=600.0)
        reads = [n for n in sink if n.kind is NotificationKind.READ]
        assert len(reads) == 1
        assert reads[0].body_copy == "secret\npayment details"
        assert reads[0].timestamp == 600.0

    def test_starred_reported_without_content(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.star(message.message_id)
        script.run(600.0)
        starred = [n for n in sink if n.kind is NotificationKind.STARRED]
        assert len(starred) == 1
        assert starred[0].body_copy == ""

    def test_draft_ships_copy(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.add(
            Folder.DRAFTS,
            EmailMessage(
                sender_name="H", sender_address=account.address,
                recipient_addresses=("v@x.example",),
                subject="ransom", body="pay in bitcoin",
                received_at=100.0,
            ),
        )
        script.run(600.0)
        drafts = [n for n in sink if n.kind is NotificationKind.DRAFT]
        assert len(drafts) == 1
        assert "bitcoin" in drafts[0].body_copy

    def test_sent_reported(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.add(
            Folder.SENT,
            EmailMessage(
                sender_name="H", sender_address=account.address,
                recipient_addresses=("v@x.example",),
                subject="spam", body="offer",
                received_at=100.0,
            ),
        )
        script.run(600.0)
        assert any(n.kind is NotificationKind.SENT for n in sink)

    def test_received_not_reported(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        add_inbox(account)
        script.run(600.0)
        kinds = {n.kind for n in sink}
        assert kinds <= {NotificationKind.HEARTBEAT}

    def test_each_change_reported_once(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.mark_read(message.message_id)
        script.run(600.0)
        script.run(1200.0)
        reads = [n for n in sink if n.kind is NotificationKind.READ]
        assert len(reads) == 1


class TestHeartbeat:
    def test_daily_heartbeat(self, account, sink):
        script = make_script(account, sink, heartbeat_period=days(1))
        for tick in range(0, 49):  # 10-minute scans for 2 days
            script.run(tick * hours(1))
        beats = [n for n in sink if n.kind is NotificationKind.HEARTBEAT]
        assert len(beats) == 3  # t=0, t=24h, t=48h

    def test_heartbeat_stops_when_blocked(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        account.block("spam", 1.0)
        script.run(days(1))
        beats = [n for n in sink if n.kind is NotificationKind.HEARTBEAT]
        assert len(beats) == 1  # only the pre-block beat


class TestBlockedAccount:
    def test_no_reports_after_block(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.block("tos", 1.0)
        account.mailbox.mark_read(message.message_id)
        script.run(600.0)
        assert not any(n.kind is NotificationKind.READ for n in sink)

    def test_scan_counter(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        script.run(600.0)
        assert script.scan_count == 2


def add_draft(account, subject="ransom"):
    return account.mailbox.add(
        Folder.DRAFTS,
        EmailMessage(
            sender_name="H", sender_address=account.address,
            recipient_addresses=("v@x.example",),
            subject=subject, body="pay in bitcoin", received_at=100.0,
        ),
    )


class TestVanishedMessages:
    def test_draft_removed_before_scan_is_skipped(self, account, sink):
        script = make_script(account, sink)
        script.run(0.0)
        draft = add_draft(account)
        account.mailbox.remove(draft.message_id)
        script.run(600.0)
        assert not any(n.kind is NotificationKind.DRAFT for n in sink)
        # The cursor still moved past the vanished change.
        assert script.next_due() > 600.0
        kept = add_draft(account, "kept")
        script.run(1200.0)
        drafts = [n for n in sink if n.kind is NotificationKind.DRAFT]
        assert [n.message_id for n in drafts] == [kept.message_id]

    def test_other_lookup_faults_surface(self, account, sink, monkeypatch):
        script = make_script(account, sink)
        script.run(0.0)
        add_draft(account)

        def broken(message_id):
            raise RuntimeError("storage fault")

        monkeypatch.setattr(account.mailbox, "get", broken)
        with pytest.raises(RuntimeError, match="storage fault"):
            script.run(600.0)


class TestWakeContract:
    def test_next_due_before_first_heartbeat(self, account, sink):
        assert make_script(account, sink).next_due() == float("-inf")

    def test_next_due_is_a_lower_bound_on_the_heartbeat(self, account, sink):
        script = make_script(account, sink, heartbeat_period=days(1))
        script.run(hours(3))
        due = script.next_due()
        assert hours(3) + days(1) - 1e-3 < due < hours(3) + days(1)

    def test_pending_change_makes_run_due_now(self, account, sink):
        message = add_inbox(account)
        script = make_script(account, sink)
        script.run(0.0)
        account.mailbox.mark_read(message.message_id)
        assert script.next_due() == float("-inf")
        script.run(600.0)
        assert script.next_due() > 600.0

    def test_blocked_account_is_never_due(self, account, sink):
        script = make_script(account, sink)
        add_inbox(account)
        account.block("tos", 1.0)
        assert script.next_due() == float("inf")

    def test_attach_wakes_on_reportable_changes(self, account, sink):
        wakes = []
        message = add_inbox(account)
        script = make_script(account, sink)
        script.attach(lambda: wakes.append(account.mailbox.changelog_length))
        account.mailbox.mark_read(message.message_id)
        account.mailbox.star(message.message_id)
        account.mailbox.apply_label(message.message_id, "x")  # no change
        account.mailbox.unstar(message.message_id)  # no change
        draft = add_draft(account)
        account.mailbox.move(draft.message_id, Folder.SENT)
        assert wakes == [2, 3, 4, 5]

"""Tests for repro.webmail.sessions and search internals."""

import random

import pytest

from repro.errors import SessionError
from repro.netsim.cities import city_by_name
from repro.webmail.abuse import AbusePolicy
from repro.webmail.account import Credentials
from repro.webmail.mailbox import Folder, Mailbox
from repro.webmail.message import EmailMessage
from repro.webmail.search import search_messages
from repro.webmail.service import LoginContext, WebmailService
from repro.webmail.sessions import SessionManager


class TestSessionManager:
    def make(self):
        return SessionManager(rng=random.Random(1))

    def test_cookie_stable_per_device_account(self):
        manager = self.make()
        first = manager.cookie_for("dev-1", "a@x.example")
        second = manager.cookie_for("dev-1", "a@x.example")
        assert first == second

    def test_cookie_differs_across_accounts(self):
        manager = self.make()
        a = manager.cookie_for("dev-1", "a@x.example")
        b = manager.cookie_for("dev-1", "b@x.example")
        assert a != b

    def test_open_and_get(self):
        manager = self.make()
        session = manager.open_session("dev-1", "a@x.example", 5.0)
        assert manager.get(session.session_id) is session

    def test_touch_extends(self):
        manager = self.make()
        session = manager.open_session("dev-1", "a@x.example", 5.0)
        session.touch(50.0)
        assert session.last_active_at == 50.0
        session.touch(10.0)  # going backwards is ignored
        assert session.last_active_at == 50.0

    def test_revoked_session_rejected(self):
        manager = self.make()
        session = manager.open_session("dev-1", "a@x.example", 5.0)
        manager.revoke(session.session_id)
        with pytest.raises(SessionError):
            manager.get(session.session_id)

    def test_unknown_session(self):
        with pytest.raises(SessionError):
            self.make().get(424242)

    def test_revoke_account_sessions(self):
        manager = self.make()
        manager.open_session("dev-1", "a@x.example", 5.0)
        manager.open_session("dev-2", "a@x.example", 6.0)
        manager.open_session("dev-3", "b@x.example", 7.0)
        assert manager.revoke_account_sessions("a@x.example") == 2
        assert len(manager.sessions_for("a@x.example")) == 2


class TestSessionLifetime:
    def test_logout_drops_sessions_and_blocks_still_revoke(self, geo):
        service = WebmailService(
            geo,
            random.Random(4),
            abuse_policy=AbusePolicy(hijack_block_probability=1.0),
        )
        service.create_account(Credentials("a@x.example", "pw-one"), "A")

        def context(device):
            return LoginContext(
                device_id=device,
                ip_address=geo.allocate_in_city(city_by_name("Paris")),
                user_agent="",
            )

        scraper = context("monitor-browser")
        for visit in range(50):
            session = service.login("a@x.example", "pw-one", scraper, visit)
            service.logout(session)
            assert session.revoked
        assert service.sessions.sessions_for("a@x.example") == []

        watcher = service.login("a@x.example", "pw-one", context("atk-1"), 60)
        hijacker = service.login("a@x.example", "pw-one", context("atk-2"), 61)
        service.change_password(hijacker, "pw-two", 62)
        assert service.account("a@x.example").is_blocked
        assert watcher.revoked and hijacker.revoked
        assert service.sessions.sessions_for("a@x.example") == [
            watcher,
            hijacker,
        ]


def seeded_mailbox():
    mailbox = Mailbox()
    texts = [
        ("wire payment due", "the payment account is listed"),
        ("meeting notes", "agenda for thursday"),
        ("payment reminder", "invoice attached"),
    ]
    for subject, body in texts:
        mailbox.add(
            Folder.INBOX,
            EmailMessage(
                sender_name="S",
                sender_address="s@x.example",
                recipient_addresses=("r@x.example",),
                subject=subject,
                body=body,
                received_at=0.0,
            ),
        )
    return mailbox


class TestSearch:
    def test_single_term(self):
        results = search_messages(seeded_mailbox(), "payment")
        assert len(results) == 2

    def test_all_terms_must_match(self):
        results = search_messages(seeded_mailbox(), "payment invoice")
        assert len(results) == 1
        assert results[0].subject == "payment reminder"

    def test_case_insensitive(self):
        assert len(search_messages(seeded_mailbox(), "PAYMENT")) == 2

    def test_empty_query(self):
        assert search_messages(seeded_mailbox(), "   ") == []

    def test_limit(self):
        results = search_messages(seeded_mailbox(), "payment", limit=1)
        assert len(results) == 1

    def test_folder_restriction(self):
        mailbox = seeded_mailbox()
        results = search_messages(
            mailbox, "payment", folders=(Folder.SENT,)
        )
        assert results == []

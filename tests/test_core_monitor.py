"""Tests for repro.core.monitor (scraper + notification store)."""

import hashlib
import json
from collections import Counter

import pytest

from repro import scenarios
from repro.api.envelope import run_scenario
from repro.core.monitor import MonitorInfrastructure, ScrapeOutcome
from repro.defenses import C3Service, ResetPolicy
from repro.netsim.cities import city_by_name
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.webmail.account import Credentials
from repro.webmail.service import LoginContext, WebmailService


PASSWORD = "leakedpass99"


@pytest.fixture()
def world(geo):
    sim = Simulator()
    service = WebmailService(geo, __import__("random").Random(3))
    service.create_account(
        Credentials("target@gmail.example", PASSWORD), "Target"
    )
    monitor = MonitorInfrastructure(
        sim, service, geo, city_by_name("Reading"), scrape_period=hours(6)
    )
    monitor.watch("target@gmail.example", PASSWORD)
    monitor.start()
    return sim, service, monitor


def attacker_login(service, geo, now, device="atk-dev", password=PASSWORD):
    context = LoginContext(
        device_id=device,
        ip_address=geo.allocate_in_city(city_by_name("Paris")),
        user_agent="",
    )
    return service.login("target@gmail.example", password, context, now)


class TestScraping:
    def test_scraper_collects_attacker_accesses(self, world, geo):
        sim, service, monitor = world
        sim.schedule_at(
            hours(1), lambda: attacker_login(service, geo, sim.now)
        )
        sim.run_until(hours(13))
        attacker_rows = [
            a
            for a in monitor.scraped_accesses
            if a.ip_address not in monitor.monitor_ip_strings
        ]
        assert len(attacker_rows) == 1
        assert attacker_rows[0].city == "Paris"

    def test_scraper_own_accesses_visible_then_excludable(self, world):
        sim, service, monitor = world
        sim.run_until(hours(13))
        own_rows = [
            a
            for a in monitor.scraped_accesses
            if a.ip_address in monitor.monitor_ip_strings
        ]
        assert own_rows, "the scraper's own logins appear on the page"

    def test_incremental_scraping_no_duplicates(self, world, geo):
        sim, service, monitor = world
        sim.schedule_at(
            hours(1), lambda: attacker_login(service, geo, sim.now)
        )
        sim.run_until(hours(25))
        attacker_rows = [
            a
            for a in monitor.scraped_accesses
            if a.city == "Paris"
        ]
        assert len(attacker_rows) == 1

    def test_lockout_on_password_change(self, world, geo):
        sim, service, monitor = world

        def hijack():
            session = attacker_login(service, geo, sim.now)
            service.change_password(session, "newpass77", sim.now)

        sim.schedule_at(hours(1), hijack)
        sim.run_until(hours(30))
        assert monitor.locked_out_accounts() == ["target@gmail.example"]
        assert monitor.scrape_failures
        address, when = monitor.scrape_failures[0]
        assert address == "target@gmail.example"
        assert when >= hours(6)
        outcomes = [entry.outcome for entry in monitor.scrape_log]
        assert ScrapeOutcome.LOCKED_OUT in outcomes

    def test_no_scraping_after_lockout(self, world, geo):
        sim, service, monitor = world

        def hijack():
            session = attacker_login(service, geo, sim.now)
            service.change_password(session, "newpass77", sim.now)

        sim.schedule_at(hours(1), hijack)
        sim.run_until(hours(48))
        lockouts = [
            e
            for e in monitor.scrape_log
            if e.outcome is ScrapeOutcome.LOCKED_OUT
        ]
        assert len(lockouts) == 1  # not retried every period

    def test_blocked_account_outcome(self, world):
        sim, service, monitor = world
        service.account("target@gmail.example").block("spam", hours(2))
        sim.run_until(hours(13))
        outcomes = {entry.outcome for entry in monitor.scrape_log}
        assert outcomes == {ScrapeOutcome.BLOCKED}

    def test_stop_halts_scraping(self, world):
        sim, service, monitor = world
        sim.run_until(hours(7))
        scrapes_before = len(monitor.scrape_log)
        monitor.stop()
        sim.run_until(hours(48))
        assert len(monitor.scrape_log) == scrapes_before


class TestVisitPath:
    """Every visit is one real login; rows match the page exactly."""

    @staticmethod
    def page_rows(service):
        """The activity page's rows as the scraper's store would hold
        them."""
        rows = []
        for event in service.activity.events_for("target@gmail.example"):
            location = event.location
            fingerprint = event.fingerprint
            rows.append(
                (
                    event.account_address,
                    event.cookie.value,
                    event.ip_address.dotted,
                    location.city if location else None,
                    location.country if location else None,
                    location.latitude if location else None,
                    location.longitude if location else None,
                    fingerprint.kind.value,
                    fingerprint.os_family,
                    fingerprint.browser,
                    fingerprint.user_agent,
                    event.timestamp,
                )
            )
        return rows

    def test_scraped_rows_equal_page_rows_across_a_cookie_reset(
        self, world, geo
    ):
        sim, service, monitor = world
        sim.schedule_at(
            hours(1), lambda: attacker_login(service, geo, sim.now)
        )
        sim.schedule_at(
            hours(40),
            lambda: service.sessions.bump_cookie_generation(
                "target@gmail.example"
            ),
        )
        sim.schedule_at(
            hours(50), lambda: attacker_login(service, geo, sim.now)
        )
        sim.run_until(hours(97))
        assert list(monitor.access_store) == self.page_rows(service)
        scraper_cookies = {
            row[1]
            for row in monitor.access_store
            if row[2] in monitor.monitor_ip_strings
        }
        assert len(scraper_cookies) == 2  # one per cookie generation
        assert [e.new_events for e in monitor.scrape_log].count(2) == 2

    def test_one_login_per_visit(self, world, monkeypatch):
        sim, service, monitor = world
        logins = []
        login = service.login

        def counting_login(*args):
            logins.append(args)
            return login(*args)

        monkeypatch.setattr(service, "login", counting_login)
        sim.run_until(hours(49))
        assert len(logins) == len(monitor.scrape_log) == 8
        assert service.sessions.sessions_for("target@gmail.example") == []

    def test_failed_login_still_logs_a_row(self, world):
        sim, service, monitor = world
        monitor.watch("nobody@gmail.example", PASSWORD)
        sim.run_until(hours(13))
        outcomes = [
            (entry.address, entry.outcome) for entry in monitor.scrape_log
        ]
        assert outcomes.count(
            ("nobody@gmail.example", ScrapeOutcome.ERROR)
        ) == 2
        assert len(outcomes) == 4


def _sha256(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def test_visit_path_rows_are_pinned():
    """Raw access rows and the scrape log on a run that meets forced
    resets (cookie-generation bumps), a hijacker lockout and
    anti-abuse blocks, pinned to the rows the scraper produced when
    every visit read the page back."""
    scenario = (
        scenarios.get("fast")
        .to_builder()
        .with_duration_days(15.0)
        .with_defenses(
            C3Service(check_period_days=3.0, hit_rate=0.9),
            ResetPolicy(latency_days=0.5),
        )
        .build()
        .with_seed(2016)
    )
    built = []
    run = run_scenario(scenario, on_built=built.append)
    store = built[0].monitor.scrape_log_store
    outcomes = Counter(row[2] for row in store)
    assert outcomes["locked_out"] == 1 and outcomes["blocked"] == 2
    assert sum(
        1 for row in run.dataset.defense_actions if row.action == "reset"
    ) == 100
    assert _sha256(run.dataset.to_json_dict()["accesses"]) == (
        "94d93f11c29a56093d7b29c6e6141c5f08c71db7635fd7aa8c532e9d460fc369"
    )
    assert _sha256(store.to_json_dict()) == (
        "8058de54487a3585faa4e96a5dde34a708090fac2053c38fe2107590f5a13b05"
    )


class TestNotificationStore:
    def test_sink_appends(self, world):
        _, _, monitor = world
        from repro.core.notifications import heartbeat

        monitor.notification_sink(heartbeat("target@gmail.example", 1.0))
        assert len(monitor.notifications) == 1

    def test_register_extra_monitor_ip(self, world, geo):
        _, _, monitor = world
        extra = geo.allocate_in_city(city_by_name("Reading"))
        monitor.register_monitor_ip(extra)
        assert str(extra) in monitor.monitor_ip_strings

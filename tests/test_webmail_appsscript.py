"""Tests for repro.webmail.appsscript."""

import pytest

from repro.core.notifications import NotificationKind
from repro.core.script import HoneyMonitorScript
from repro.errors import ConfigurationError, QuotaExceededError
from repro.sim.clock import days, hours, minutes
from repro.sim.engine import Simulator
from repro.webmail.account import Credentials, WebmailAccount
from repro.webmail.appsscript import AppsScriptRuntime, ScriptQuota
from repro.webmail.mailbox import Folder
from repro.webmail.message import EmailMessage


class RecordingScript:
    """Minimal AppsScript implementation for tests."""

    def __init__(self, execution_cost=1.0):
        self.execution_cost = execution_cost
        self.runs = []

    def run(self, now):
        self.runs.append(now)


class TestScriptQuota:
    def test_within_budget(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(5.0, now=0.0)
        quota.charge(4.0, now=100.0)

    def test_exceeding_raises(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(9.0, now=0.0)
        with pytest.raises(QuotaExceededError):
            quota.charge(2.0, now=100.0)

    def test_resets_daily(self):
        quota = ScriptQuota(daily_limit_seconds=10.0)
        quota.charge(9.0, now=0.0)
        quota.charge(9.0, now=days(1) + 1.0)  # fresh day, fresh budget


class TestRuntime:
    def test_trigger_cadence(self, sim):
        runtime = AppsScriptRuntime(sim)
        script = RecordingScript(execution_cost=0.001)
        runtime.install("a@x.example", script, period=minutes(10))
        sim.run_until(minutes(35))
        assert script.runs == [minutes(10), minutes(20), minutes(30)]

    def test_uninstall_stops_runs(self, sim):
        runtime = AppsScriptRuntime(sim)
        script = RecordingScript(execution_cost=0.001)
        installation = runtime.install(
            "a@x.example", script, period=minutes(10)
        )
        sim.run_until(minutes(15))
        runtime.uninstall(installation)
        sim.run_until(minutes(60))
        assert len(script.runs) == 1

    def test_uninstall_account(self, sim):
        runtime = AppsScriptRuntime(sim)
        first = RecordingScript(0.001)
        second = RecordingScript(0.001)
        runtime.install("a@x.example", first, period=minutes(10))
        runtime.install("a@x.example", second, period=minutes(10))
        removed = runtime.uninstall_account("a@x.example")
        assert removed == 2
        sim.run_until(hours(2))
        assert first.runs == [] and second.runs == []

    def test_scripts_on(self, sim):
        runtime = AppsScriptRuntime(sim)
        installation = runtime.install(
            "a@x.example", RecordingScript(0.001), period=minutes(10)
        )
        assert runtime.scripts_on("a@x.example") == [installation]
        runtime.uninstall(installation)
        assert runtime.scripts_on("a@x.example") == []

    def test_hidden_location(self, sim):
        runtime = AppsScriptRuntime(sim)
        installation = runtime.install(
            "a@x.example",
            RecordingScript(0.001),
            period=minutes(10),
            hidden_in="spreadsheet:Budget2015",
        )
        assert "spreadsheet" in runtime.hidden_location(installation)

    def test_quota_trip_notifies_and_skips(self, sim):
        trips = []
        runtime = AppsScriptRuntime(
            sim,
            quota_notifier=lambda address, now: trips.append((address, now)),
            daily_quota_seconds=90.0,
        )
        # Cost 40: two runs fit the daily budget, the third trips it.
        script = RecordingScript(execution_cost=40.0)
        runtime.install("heavy@x.example", script, period=hours(2))
        sim.run_until(hours(12))
        assert len(script.runs) == 2
        assert trips, "quota notifier should have fired"
        assert trips[0][0] == "heavy@x.example"
        assert runtime.quota_trips >= 1

    def test_quota_resets_next_day(self, sim):
        runtime = AppsScriptRuntime(sim, daily_quota_seconds=90.0)
        script = RecordingScript(execution_cost=40.0)
        runtime.install("heavy@x.example", script, period=hours(2))
        sim.run_until(days(2))
        # Two successful runs on each of two days.
        assert len(script.runs) >= 4

    def test_invalid_period(self, sim):
        runtime = AppsScriptRuntime(sim)
        with pytest.raises(ConfigurationError):
            runtime.install("a@x.example", RecordingScript(), period=0.0)

    def test_runs_counter(self, sim):
        runtime = AppsScriptRuntime(sim)
        runtime.install(
            "a@x.example", RecordingScript(0.001), period=minutes(10)
        )
        sim.run_until(minutes(30))
        assert runtime.runs_executed == 3


class _World:
    """One simulated world of honey scripts: change-driven when
    ``batch_triggers`` is true, the every-tick oracle otherwise."""

    def __init__(self, batch_triggers):
        self.sim = Simulator()
        self.trips = []
        self.runtime = AppsScriptRuntime(
            self.sim,
            batch_triggers=batch_triggers,
            quota_notifier=lambda address, now: self.trips.append(
                (address, now)
            ),
        )
        self.records = []

    def honey(
        self, name, *, sink=None, period=minutes(10), start_delay=None,
        **kwargs,
    ):
        """Install a HoneyMonitorScript on a fresh account; returns
        ``(installation_id, account, message_id)``."""
        account = WebmailAccount(
            credentials=Credentials(f"{name}@x.example", "pw123456"),
            display_name=name,
        )
        message = account.mailbox.add(
            Folder.INBOX,
            EmailMessage(
                sender_name="B", sender_address="b@x.example",
                recipient_addresses=(account.address,),
                subject=f"to {name}", body="body", received_at=0.0,
            ),
        )
        script = HoneyMonitorScript(
            account, sink or self.records.append, **kwargs
        )
        _, script._cursor = account.mailbox.changes_since(0)
        installation = self.runtime.install(
            account.address, script, period=period, start_delay=start_delay
        )
        return installation, account, message.message_id

    def at(self, time, action):
        self.sim.schedule_at(time, action)

    def observed(self):
        return [
            (r.kind.value, r.account_address, r.timestamp, r.message_id)
            for r in self.records
        ]


def _twins(build, until):
    """Run ``build(world)`` change-driven and every-tick to ``until``;
    assert both observed the same on the same ticks and return them."""
    worlds = [_World(flag) for flag in (True, False)]
    for world in worlds:
        build(world)
        world.sim.run_until(until)
    fast, oracle = worlds
    assert fast.observed() == oracle.observed()
    assert fast.trips == oracle.trips
    assert fast.runtime.runs_executed <= oracle.runtime.runs_executed
    return fast, oracle


class TestChangeDrivenTriggers:
    def test_idle_account_runs_only_for_heartbeats(self):
        fast, oracle = _twins(lambda world: world.honey("idle"), days(2))
        # 288 ticks; the heartbeats at the first tick and a day later
        # are the only observable runs.
        assert [r[2] for r in fast.observed()] == [
            minutes(10), days(1) + minutes(10),
        ]
        assert oracle.runtime.runs_executed == 288
        assert fast.runtime.runs_executed == 2

    def test_changes_are_reported_on_the_next_tick(self):
        def build(world):
            _, account, message_id = world.honey("a")
            world.at(
                minutes(25), lambda: account.mailbox.mark_read(message_id)
            )
            world.at(minutes(45), lambda: account.mailbox.star(message_id))

        fast, _ = _twins(build, hours(2))
        assert [(r[0], r[2]) for r in fast.observed()] == [
            ("heartbeat", minutes(10)),
            ("read", minutes(30)),
            ("starred", minutes(50)),
        ]

    def test_wake_during_tick_runs_later_installations_in_that_tick(self):
        def build(world):
            # Install order: early (1), meddler (2), late (3).  At
            # 30 min the meddler reads a message in both early's and
            # late's mailboxes: the every-tick loop has already run
            # early this tick (it reports next tick) but reaches late
            # after the meddler (it reports this tick).
            _, early, early_message = world.honey("early")
            meddler = RecordingScript(execution_cost=0.001)
            world.runtime.install(
                "meddler@x.example", meddler, period=minutes(10)
            )

            def sink(record):
                world.records.append(record)
                if record.kind is NotificationKind.READ:
                    # A change to late's own mailbox during late's run:
                    # a wake for the current installation waits a tick.
                    late.mailbox.star(late_message)

            _, late, late_message = world.honey("late", sink=sink)
            original_run = meddler.run

            def meddle(now):
                original_run(now)
                if now == minutes(30):
                    early.mailbox.mark_read(early_message)
                    late.mailbox.mark_read(late_message)

            meddler.run = meddle

        fast, _ = _twins(build, hours(1))
        changes = [
            (r[0], r[1].split("@")[0], r[2])
            for r in fast.observed()
            if r[0] != "heartbeat"
        ]
        assert changes == [
            ("read", "late", minutes(30)),
            ("read", "early", minutes(40)),
            ("starred", "late", minutes(40)),
        ]

    def test_failing_script_does_not_starve_later_installations(self):
        errors = []

        def build(world):
            world.sim.set_error_handler(
                lambda event, exc: errors.append(str(exc))
            )

            def failing_sink(record):
                if record.kind is NotificationKind.READ:
                    raise RuntimeError("sink down")
                world.records.append(record)

            _, first, first_message = world.honey("first", sink=failing_sink)
            _, second, second_message = world.honey("second")

            def read_both():
                first.mailbox.mark_read(first_message)
                second.mailbox.mark_read(second_message)

            world.at(minutes(15), read_both)

        fast, _ = _twins(build, hours(1))
        assert errors == ["sink down", "sink down"]
        assert ("read", "second@x.example", minutes(20)) in [
            r[:3] for r in fast.observed()
        ]

    def test_heartbeat_on_a_tick_under_float_rounding(self):
        start, period, heartbeat = 1.4000000000000001, 1.1, 2.2
        # The third tick lands where ``now - last >= period`` holds
        # although ``now`` is below the rounded ``last + period``: a
        # due time without slack would run one tick late.
        third_tick = start + period + period
        assert third_tick - start >= heartbeat
        assert third_tick < start + heartbeat

        def build(world):
            world.honey(
                "float", period=period, start_delay=start,
                heartbeat_period=heartbeat, execution_cost=1e-6,
            )

        fast, oracle = _twins(build, 40.0)
        beats = [r[2] for r in fast.observed()]
        assert beats[:2] == [start, third_tick]
        assert fast.runtime.runs_executed < oracle.runtime.runs_executed

    def test_uninstall_of_sleeping_installation_stops_it(self):
        def build(world):
            installation, account, message_id = world.honey("gone")
            world.at(hours(1), lambda: world.runtime.uninstall(installation))
            world.at(
                hours(2), lambda: account.mailbox.mark_read(message_id)
            )

        fast, oracle = _twins(build, days(2))
        assert [r[0] for r in fast.observed()] == ["heartbeat"]
        # The emptied group stopped its batch: nothing stays scheduled.
        assert fast.sim.pending_events == oracle.sim.pending_events == 0

    def test_uninstall_account_keeps_other_installations_running(self):
        def build(world):
            _, kept, kept_message = world.honey("kept")
            _, dropped, dropped_message = world.honey("dropped")
            world.at(
                hours(1),
                lambda: world.runtime.uninstall_account(dropped.address),
            )

            def read_both():
                kept.mailbox.mark_read(kept_message)
                dropped.mailbox.mark_read(dropped_message)

            world.at(hours(2), read_both)

        fast, _ = _twins(build, days(1))
        assert [r[:3] for r in fast.observed() if r[0] == "read"] == [
            ("read", "kept@x.example", hours(2))
        ]
        assert fast.sim.pending_events == 1

    def test_quota_tripping_scripts_run_every_tick(self):
        def build(world):
            world.honey("light")
            world.honey("heavy", execution_cost=40.0)

        fast, _ = _twins(build, days(2))
        assert fast.trips and {a for a, _ in fast.trips} == {
            "heavy@x.example"
        }

    def test_install_that_makes_quota_trippable_replays_skipped_charges(
        self,
    ):
        # 0.3 s per 10-minute scan is at most 43.5 s a day: below half
        # the 90 s quota, so the scan starts change-driven.  The heavy
        # script installed at 20 h finds ~36 s of skipped charges in
        # the day's window; without the replay it would trip a run
        # later than the every-tick schedule does.
        def build(world):
            _, account, _ = world.honey("shared", execution_cost=0.3)
            world.at(
                hours(20) + 1.0,
                lambda: world.runtime.install(
                    account.address,
                    RecordingScript(execution_cost=40.0),
                    period=minutes(10),
                    start_delay=minutes(10) - 1.0,
                ),
            )

        fast, oracle = _twins(build, days(3))
        assert fast.trips[0] == ("shared@x.example", hours(20) + minutes(20))
        quota = fast.runtime._quotas["shared@x.example"]
        expected = oracle.runtime._quotas["shared@x.example"]
        assert (quota.used_seconds, quota.window_start) == (
            expected.used_seconds, expected.window_start,
        )

    def test_scripts_without_wake_contract_run_every_tick(self, sim):
        runtime = AppsScriptRuntime(sim)
        script = RecordingScript(execution_cost=0.001)
        runtime.install("a@x.example", script, period=minutes(10))
        sim.run_until(hours(1))
        assert len(script.runs) == runtime.runs_executed == 6

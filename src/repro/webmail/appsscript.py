"""Apps-Script-like scripting runtime with time triggers and quotas.

Google Apps Script lets account owners attach scripts with time-driven
triggers; the paper's monitor scans mailboxes every 10 minutes and sends a
daily heartbeat, hiding the script inside a spreadsheet.  Google also
enforces execution-time quotas — two honey accounts received "using too
much computer time" notifications, which attackers then read (a case study
in Section 4.7).

:class:`AppsScriptRuntime` reproduces those semantics: scripts are bound to
accounts, fire on periodic triggers, accrue simulated execution time
against a daily quota, and keep running even when the account password
changes (only deletion of the script, or account suspension by the
provider, stops them).
"""

from __future__ import annotations

import math
from array import array
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Protocol

from repro.errors import QuotaExceededError, ConfigurationError
from repro.sim.clock import days
from repro.sim.engine import Simulator
from repro.sim.process import BatchMember, PeriodicBatch, PeriodicProcess


class AppsScript(Protocol):
    """Interface for account-bound scripts.

    A script may also implement the optional *wake contract* —
    ``attach(wake)``, which arranges for ``wake()`` to be called on
    every change the script could report, and ``next_due()``, a lower
    bound on the next sim-time at which ``run`` can do anything — so
    the batched runtime runs it only at ticks where a run is
    observable.  Scripts without it run on every tick.
    """

    #: Simulated execution cost (seconds of "computer time") per run.
    execution_cost: float

    def run(self, now: float) -> None:  # pragma: no cover - protocol
        """Execute one trigger firing at sim-time ``now``."""
        ...


def _has_wake_contract(script: AppsScript) -> bool:
    return callable(getattr(script, "attach", None)) and callable(
        getattr(script, "next_due", None)
    )


@dataclass(slots=True)
class ScriptQuota:
    """Daily execution-time budget for one account's scripts."""

    daily_limit_seconds: float = 90.0
    used_seconds: float = 0.0
    window_start: float = 0.0

    def charge(self, cost: float, now: float) -> None:
        """Consume quota; resets at day boundaries.

        Raises:
            QuotaExceededError: when the daily budget is exhausted.
        """
        if now - self.window_start >= days(1):
            self.window_start = now - (now - self.window_start) % days(1)
            self.used_seconds = 0.0
        self.used_seconds += cost
        if self.used_seconds > self.daily_limit_seconds:
            raise QuotaExceededError(
                f"daily script quota exceeded: {self.used_seconds:.1f}s "
                f"> {self.daily_limit_seconds:.1f}s"
            )


@dataclass(eq=False)
class _TriggerGroup:
    """The installations sharing one :class:`PeriodicBatch`.

    The batch's single member is :meth:`AppsScriptRuntime._tick`, which
    runs, in install order, the installations woken since the last tick,
    those whose due time has passed, and the every-tick list.
    ``tick_times`` / ``tick_order`` (sim-time and global event count of
    every tick) let a quota be replayed exactly when an account has to
    leave the change-driven schedule.
    """

    batch: PeriodicBatch
    member: BatchMember | None = None
    live: int = 0
    #: ``(due_time, installation_id)`` heap of change-driven members.
    due: list[tuple[float, int]] = field(default_factory=list)
    woken: set[int] = field(default_factory=set)
    every_tick: list[int] = field(default_factory=list)
    #: While a tick runs: the ids still to run (a heap), every id
    #: queued this tick, and the id running now.
    queue: list[int] | None = None
    queued: set[int] = field(default_factory=set)
    current: int = 0
    tick_times: array = field(default_factory=lambda: array("d"))
    tick_order: array = field(default_factory=lambda: array("q"))

    def ticking_before(self, installation_id: int) -> bool:
        """True mid-tick when ``installation_id``'s turn is still to come."""
        return self.queue is not None and installation_id > self.current


@dataclass
class _Installation:
    """One script installed on one account.

    Scheduled either by a :class:`_TriggerGroup` (the batched path;
    ``join`` / ``leave`` bound the group ticks it belongs to) or by a
    dedicated :class:`~repro.sim.process.PeriodicProcess` when trigger
    batching is off.
    """

    account_address: str
    script: AppsScript
    hidden_in: str
    process: PeriodicProcess | None = None
    group: _TriggerGroup | None = None
    join: int = 0
    leave: int | None = None
    #: Runs only when woken or due (else on every group tick).
    change_driven: bool = False
    #: The due time this installation holds in its group's heap.
    scheduled_due: float | None = None
    deleted: bool = False


class AppsScriptRuntime:
    """Executes installed scripts on their time triggers.

    Same-cadence, same-phase triggers — every honey account's scan
    script, in the paper's setup — share one calendar batch: a single
    heap event per tick, whose one member runs the group's
    installations in install order, exactly the order their
    individual events would have popped by sequence number.

    The batched path is also change-driven.  A script implementing the
    wake contract (see :class:`AppsScript`) runs only at ticks where it
    was woken by a change or its ``next_due()`` lower bound has passed;
    a run at any other tick would only have bumped its scan counter and
    charged a quota that cannot trip.  Every tick time, the heap event
    count, and every observable run (its time and its order within the
    tick) stay those of the every-tick schedule.  An installation runs
    on every tick instead when its script lacks the wake contract, or
    when its account's quota could trip: its worst-case daily charge,
    ``sum(cost * (ceil(day / period) + 1))`` over every installation
    the account has had, reaches half the daily limit (the quota
    case-study accounts).  An account crossing that line mid-run first
    has its quota replayed from the recorded tick history, so its later
    trips land where the every-tick schedule puts them.

    Args:
        sim: the simulation engine providing triggers.
        quota_notifier: callback invoked as ``(account_address, now)``
            whenever a script run trips the daily quota; the honey
            framework wires this to the provider's notification email
            ("using too much computer time").
        batch_triggers: share heap events between same-cadence
            same-phase triggers and skip unobservable runs (default).
            Disable to schedule one :class:`PeriodicProcess` per
            installation that runs on every tick: the every-tick oracle
            the equivalence tests and ``bench_run.py``'s batching gate
            compare the batched path against.

    Attributes:
        runs_executed: script runs executed (not ticks: a change-driven
            installation's skipped ticks are not counted).
        quota_trips: runs refused because the daily quota was exhausted.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        quota_notifier: Callable[[str, float], None] | None = None,
        daily_quota_seconds: float = 90.0,
        batch_triggers: bool = True,
    ) -> None:
        self._sim = sim
        self._installations: dict[int, _Installation] = {}
        self._quotas: dict[str, ScriptQuota] = {}
        self._quota_notifier = quota_notifier
        self._daily_quota_seconds = daily_quota_seconds
        self._next_id = 1
        self.batch_triggers = batch_triggers
        self._groups: list[_TriggerGroup] = []
        #: Worst-case daily quota charge per account (batched path).
        self._worst_case: dict[str, float] = {}
        #: Accounts whose quota could trip: all their runs are every-tick.
        self._every_tick_accounts: set[str] = set()
        self.runs_executed = 0
        self.quota_trips = 0

    def _group_for(
        self, period: float, start_delay: float | None
    ) -> _TriggerGroup:
        """The live group whose pending tick matches ``now +
        start_delay``, creating one when no compatible group exists."""
        first_delay = float(period) if start_delay is None else float(start_delay)
        first_time = self._sim.clock.now + first_delay
        for group in self._groups:
            if group.batch.matches(period, first_time):
                return group
        batch = PeriodicBatch(
            self._sim,
            period,
            start_delay=first_delay,
            label=f"apps-script:batch:{period:g}s",
        )
        group = _TriggerGroup(batch)
        # partial (not a closure) so a checkpointed world pickles: the
        # event queue holds these callbacks mid-run.
        group.member = batch.add(partial(self._tick, group))
        self._groups.append(group)
        return group

    def install(
        self,
        account_address: str,
        script: AppsScript,
        *,
        period: float,
        start_delay: float | None = None,
        hidden_in: str = "spreadsheet:Budget2015",
    ) -> int:
        """Install ``script`` on an account with a time trigger.

        Returns an installation id usable with :meth:`uninstall`.
        """
        if period <= 0:
            raise ConfigurationError("trigger period must be positive")
        installation_id = self._next_id
        self._next_id += 1
        installation = _Installation(
            account_address=account_address,
            script=script,
            hidden_in=hidden_in,
        )
        self._installations[installation_id] = installation
        self._quotas.setdefault(
            account_address,
            ScriptQuota(daily_limit_seconds=self._daily_quota_seconds),
        )
        if not self.batch_triggers:
            installation.process = PeriodicProcess(
                self._sim,
                period,
                partial(self._execute, installation_id),
                start_delay=start_delay,
                label=f"apps-script:{account_address}:{installation_id}",
            )
            return installation_id
        group = self._group_for(period, start_delay)
        installation.group = group
        installation.join = len(group.tick_times)
        group.live += 1
        worst = self._worst_case.get(account_address, 0.0) + (
            script.execution_cost * (math.ceil(days(1) / period) + 1)
        )
        self._worst_case[account_address] = worst
        if (
            account_address not in self._every_tick_accounts
            and worst >= self._daily_quota_seconds / 2
        ):
            self._run_every_tick(account_address)
        if _has_wake_contract(script) and (
            account_address not in self._every_tick_accounts
        ):
            installation.change_driven = True
            script.attach(partial(self._wake, installation_id))
            self._reschedule(installation_id, installation)
        else:
            insort(group.every_tick, installation_id)
        return installation_id

    def _execute(self, installation_id: int) -> None:
        installation = self._installations.get(installation_id)
        if installation is None or installation.deleted:
            return
        now = self._sim.clock.now
        quota = self._quotas[installation.account_address]
        try:
            quota.charge(installation.script.execution_cost, now)
        except QuotaExceededError:
            self.quota_trips += 1
            if self._quota_notifier is not None:
                self._quota_notifier(installation.account_address, now)
            return  # run skipped this tick; quota resets next day
        installation.script.run(now)
        self.runs_executed += 1

    # ------------------------------------------------------------------
    # change-driven scheduling
    # ------------------------------------------------------------------
    def _tick(self, group: _TriggerGroup) -> None:
        """One batch tick: run the woken, due and every-tick installations."""
        sim = self._sim
        now = sim.clock.now
        group.tick_times.append(now)
        group.tick_order.append(sim.events_fired)
        installations = self._installations
        pending = group.woken
        due = group.due
        while due and due[0][0] <= now:
            when, installation_id = heappop(due)
            installation = installations[installation_id]
            if installation.scheduled_due == when:  # else superseded
                installation.scheduled_due = None
                pending.add(installation_id)
        pending.update(group.every_tick)
        if not pending:
            return
        group.woken = set()
        queue = sorted(pending)  # a sorted list is a heap
        group.queue = queue
        group.queued = pending
        # Per-installation error isolation, as PeriodicBatch gives its
        # members: with a handler installed, one failing script must
        # not starve the installations after it.
        handler = sim.error_handler
        try:
            while queue:
                installation_id = heappop(queue)
                group.current = installation_id
                installation = installations[installation_id]
                if installation.deleted:
                    continue
                try:
                    self._execute(installation_id)
                except Exception as exc:  # noqa: BLE001 - routed
                    if handler is None:
                        raise
                    handler(group.batch.event, exc)
                finally:
                    if installation.change_driven and not installation.deleted:
                        self._reschedule(installation_id, installation)
        finally:
            # An aborted tick leaves its unrun installations for the next.
            group.woken.update(queue)
            group.queue = None

    def _enqueue(self, group: _TriggerGroup, installation_id: int) -> None:
        """Run an installation at the earliest tick the every-tick loop
        would still reach it: this one if its turn is still to come,
        else the next."""
        if group.ticking_before(installation_id):
            if installation_id not in group.queued:
                group.queued.add(installation_id)
                heappush(group.queue, installation_id)
        else:
            group.woken.add(installation_id)

    def _wake(self, installation_id: int) -> None:
        """The ``wake`` hook handed to a change-driven script."""
        installation = self._installations[installation_id]
        if installation.change_driven and not installation.deleted:
            self._enqueue(installation.group, installation_id)

    def _reschedule(
        self, installation_id: int, installation: _Installation
    ) -> None:
        """Queue an installation for the tick its ``next_due()`` names."""
        when = installation.script.next_due()
        if when == -math.inf:
            self._enqueue(installation.group, installation_id)
        elif when == math.inf:
            installation.scheduled_due = None  # blocked for good
        elif when != installation.scheduled_due:
            installation.scheduled_due = when
            heappush(installation.group.due, (when, installation_id))

    def _run_every_tick(self, account_address: str) -> None:
        """Move an account whose quota could now trip to every-tick runs.

        Its change-driven runs skipped ticks whose charges the quota
        never saw; replay every charge the every-tick schedule would
        have made, in its order and with the same float additions, so
        the account's next trips land on the same ticks.
        """
        self._every_tick_accounts.add(account_address)
        charges = []
        for installation_id, installation in self._installations.items():
            group = installation.group
            if installation.account_address != account_address or group is None:
                continue
            end = installation.leave
            if end is None:
                end = len(group.tick_times)
                if group.ticking_before(installation_id):
                    end -= 1
            cost = installation.script.execution_cost
            for index in range(installation.join, end):
                charges.append(
                    (group.tick_order[index], installation_id,
                     group.tick_times[index], cost)
                )
        charges.sort()
        quota = self._quotas[account_address]
        quota.used_seconds = quota.window_start = 0.0
        for _, _, when, cost in charges:
            quota.charge(cost, when)
        for installation_id, installation in self._installations.items():
            if (
                installation.account_address == account_address
                and installation.change_driven
                and not installation.deleted
            ):
                installation.change_driven = False
                installation.scheduled_due = None
                insort(installation.group.every_tick, installation_id)
                self._enqueue(installation.group, installation_id)

    # ------------------------------------------------------------------
    # removal and introspection
    # ------------------------------------------------------------------
    def _remove(self, installation_id: int, installation: _Installation) -> None:
        installation.deleted = True
        if installation.process is not None:
            installation.process.stop()
            return
        group = installation.group
        # The current tick counts only if this installation's turn in
        # it has come (the every-tick loop skips deleted installations).
        installation.leave = len(group.tick_times) - (
            1 if group.ticking_before(installation_id) else 0
        )
        if not installation.change_driven:
            group.every_tick.remove(installation_id)
        group.live -= 1
        if group.live == 0:
            group.member.stop()
            self._groups.remove(group)

    def uninstall(self, installation_id: int) -> None:
        """Remove a script (an attacker deleting it, or teardown)."""
        installation = self._installations.get(installation_id)
        if installation is None or installation.deleted:
            return
        self._remove(installation_id, installation)

    def uninstall_account(self, account_address: str) -> int:
        """Remove every script on an account; returns how many."""
        removed = 0
        for installation_id, installation in self._installations.items():
            if (
                installation.account_address == account_address
                and not installation.deleted
            ):
                self._remove(installation_id, installation)
                removed += 1
        return removed

    def scripts_on(self, account_address: str) -> list[int]:
        """Ids of live installations on an account."""
        return [
            iid
            for iid, inst in self._installations.items()
            if inst.account_address == account_address and not inst.deleted
        ]

    def hidden_location(self, installation_id: int) -> str:
        """Where the script hides (the paper tucks it in a spreadsheet)."""
        return self._installations[installation_id].hidden_in

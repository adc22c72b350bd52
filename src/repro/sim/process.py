"""Recurring processes on the simulation timeline.

The monitoring infrastructure in the paper is built from periodic jobs: the
Apps Script scan fires every 10 minutes, the heartbeat once a day, and the
activity-page scraper on its own cadence.  :class:`PeriodicProcess` captures
that pattern once: a callback re-scheduled at a fixed period, with optional
jitter so concurrent processes do not fire in lockstep.

:class:`PeriodicBatch` is the calendar-batched variant for the hot path:
hundreds of same-cadence, same-phase jobs (one monitor scan per honey
account) share **one** heap event per tick instead of one each, and the
tick iterates members in join order.  Because every member of a batch
would have fired at the same instant anyway — and re-scheduled itself in
the same relative order — collapsing them is observationally identical to
running one :class:`PeriodicProcess` per member, while shrinking the
event queue by the membership factor.  Jittered processes cannot share a
tick and keep using :class:`PeriodicProcess`.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.errors import SchedulingError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class PeriodicProcess:
    """A callback that fires every ``period`` seconds until stopped.

    Args:
        sim: the simulator to schedule on.
        period: interval between firings, in sim-seconds.
        callback: zero-argument callable invoked at each tick.
        start_delay: delay before the first firing (default one period).
        jitter: maximum +/- uniform jitter applied to each interval.
        rng: RNG used for jitter; required when ``jitter`` > 0.
        label: label attached to scheduled events.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        *,
        start_delay: float | None = None,
        jitter: float = 0.0,
        rng: random.Random | None = None,
        label: str = "periodic",
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        if jitter < 0:
            raise SchedulingError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise SchedulingError("jitter requires an explicit rng")
        if jitter >= period:
            raise SchedulingError("jitter must be smaller than the period")
        self._sim = sim
        self._period = float(period)
        self._callback = callback
        self._jitter = float(jitter)
        self._rng = rng
        self._label = label
        self._event: Event | None = None
        self._stopped = False
        self.ticks = 0
        first_delay = self._period if start_delay is None else float(start_delay)
        self._event = sim.schedule(first_delay, self._fire, label=label)

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    def _next_interval(self) -> float:
        if self._jitter <= 0:
            return self._period
        assert self._rng is not None
        return self._period + self._rng.uniform(-self._jitter, self._jitter)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        try:
            self._callback()
        finally:
            if not self._stopped:
                self._event = self._sim.schedule(
                    self._next_interval(), self._fire, label=self._label
                )

    def stop(self) -> None:
        """Stop the process; pending ticks are cancelled (idempotent)."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None


class BatchMember:
    """One callback enrolled in a :class:`PeriodicBatch` (a stop handle)."""

    __slots__ = ("callback", "stopped", "_batch")

    def __init__(self, batch: "PeriodicBatch", callback: Callable[[], None]):
        self.callback = callback
        self.stopped = False
        self._batch = batch

    def stop(self) -> None:
        """Remove this member from its batch (idempotent)."""
        if not self.stopped:
            self.stopped = True
            self._batch._member_stopped()


class PeriodicBatch:
    """Many same-cadence callbacks sharing one heap event per tick.

    Fire times follow exactly the :class:`PeriodicProcess` arithmetic
    (``first = now + start_delay``, then ``next = fired_time + period``),
    and members run in join order — the order their individual events
    would have popped off the heap by sequence number.  A member added
    mid-run joins at the *next* tick, which is also when its own
    first event would have fired if, and only if, its first fire time
    matches the batch's pending tick (:meth:`matches` checks that).

    Args:
        sim: the simulator to schedule on.
        period: interval between ticks, in sim-seconds.
        start_delay: delay before the first tick (default one period).
        label: label attached to the shared scheduled events.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        *,
        start_delay: float | None = None,
        label: str = "periodic-batch",
    ) -> None:
        if period <= 0:
            raise SchedulingError(f"period must be positive, got {period}")
        self._sim = sim
        self._period = float(period)
        self._label = label
        self._members: list[BatchMember] = []
        self._live_members = 0
        self._stopped = False
        self.ticks = 0
        first_delay = self._period if start_delay is None else float(start_delay)
        self._event: Event | None = sim.schedule(
            first_delay, self._fire, label=label
        )

    @property
    def period(self) -> float:
        return self._period

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def next_time(self) -> float | None:
        """Absolute sim-time of the pending tick (``None`` when stopped)."""
        if self._event is None or self._event.cancelled:
            return None
        return self._event.time

    @property
    def event(self) -> Event | None:
        """The tick event: the one firing while members run, else the
        pending one (what a member's error handler is given)."""
        return self._event

    def __len__(self) -> int:
        return self._live_members

    def matches(self, period: float, first_time: float) -> bool:
        """True when a job with this cadence and first fire time can join
        without changing what the heap would have executed."""
        return (
            not self._stopped
            and self.next_time == first_time
            and self._period == float(period)
        )

    def add(self, callback: Callable[[], None]) -> BatchMember:
        """Enrol ``callback``; it fires on every subsequent tick, after
        the members that joined before it."""
        if self._stopped:
            raise SchedulingError("cannot add to a stopped batch")
        member = BatchMember(self, callback)
        self._members.append(member)
        self._live_members += 1
        return member

    def _member_stopped(self) -> None:
        self._live_members -= 1
        if self._live_members <= 0:
            self.stop()

    def _fire(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        members = self._members
        # Per-member error isolation, matching what per-member heap
        # events had: with a simulator error handler installed, one
        # failing callback must not starve the members after it.
        # Without a handler the exception propagates (and aborts the
        # run) exactly as it would from an individual event.
        handler = self._sim.error_handler
        event = self._event
        try:
            for member in members:
                if member.stopped:
                    continue
                if handler is None:
                    member.callback()
                else:
                    try:
                        member.callback()
                    except Exception as exc:  # noqa: BLE001 - routed
                        handler(event, exc)
        finally:
            if len(members) > 2 * self._live_members and self._live_members:
                self._members = [m for m in members if not m.stopped]
            if not self._stopped:
                self._event = self._sim.schedule(
                    self._period, self._fire, label=self._label
                )

    def stop(self) -> None:
        """Stop the whole batch; the pending tick is cancelled (idempotent)."""
        self._stopped = True
        if self._event is not None:
            self._sim.cancel(self._event)
            self._event = None

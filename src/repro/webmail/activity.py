"""The account activity page.

Gmail's "last account activity" page lists recent accesses with IP
address, geolocated city (when resolvable), and device/browser details.
The paper's monitoring scripts scrape this page; its analysis counts
unique accesses by cookie and measures locations.  :class:`ActivityPage`
is the provider-side log that scraping reads.

The page is append-only and time-ordered (the simulator's clock is
monotonic), so incremental consumers never rescan: each account keeps a
parallel timestamp array for O(log n) time bisection, and
:meth:`ActivityPage.read_from` hands scrapers an index cursor so every
visit costs O(new events) regardless of how much history the account
has accumulated.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.netsim.fingerprint import DeviceFingerprint
from repro.netsim.geo import GeoLocation
from repro.netsim.ipaddr import IPAddress
from repro.webmail.sessions import Cookie


class AccessEvent(NamedTuple):
    """One row of the activity page: a login or returning visit.

    A named tuple rather than a frozen dataclass: the provider builds
    one per login, including every scraper visit, and a tuple's
    constructor skips the per-field ``object.__setattr__`` a frozen
    dataclass pays.  Fields, immutability and ``has_location`` are the
    same.
    """

    account_address: str
    cookie: Cookie
    ip_address: IPAddress
    location: GeoLocation | None
    fingerprint: DeviceFingerprint
    timestamp: float

    @property
    def has_location(self) -> bool:
        """False for Tor/proxy accesses, which Google cannot geolocate."""
        return self.location is not None


@dataclass
class ActivityPage:
    """Per-account access log, append-only, scrape-friendly."""

    _events: dict[str, list[AccessEvent]] = field(default_factory=dict)
    #: Parallel per-account timestamp columns for bisection; appends are
    #: monotone because the simulator clock never goes backwards.
    _times: dict[str, array] = field(default_factory=dict)

    def record(self, event: AccessEvent) -> None:
        """Append an access event for its account."""
        address = event.account_address
        events = self._events.get(address)
        if events is None:
            events = self._events[address] = []
            self._times[address] = array("d")
        events.append(event)
        self._times[address].append(event.timestamp)

    def events_for(self, account_address: str) -> tuple[AccessEvent, ...]:
        """All recorded events for an account, oldest first."""
        return tuple(self._events.get(account_address, ()))

    def events_since(
        self, account_address: str, after_time: float
    ) -> tuple[AccessEvent, ...]:
        """Events strictly newer than ``after_time`` (incremental scrape).

        O(log n + new events) via bisection on the timestamp column —
        scrapers that remember their index should prefer
        :meth:`read_from`, which needs no search at all.
        """
        events = self._events.get(account_address)
        if not events:
            return ()
        start = bisect_right(self._times[account_address], after_time)
        return tuple(events[start:])

    def read_from(
        self, account_address: str, cursor: int
    ) -> tuple[tuple[AccessEvent, ...], int]:
        """Events appended at or after index ``cursor``, plus the new cursor.

        The returned cursor is the index one past the last event read;
        passing it back on the next visit yields only fresh events.
        """
        events = self._events.get(account_address)
        if not events:
            return (), cursor
        return tuple(events[cursor:]), len(events)

    def event_count(self, account_address: str) -> int:
        """Number of recorded events for one account."""
        return len(self._events.get(account_address, ()))

    def total_events(self) -> int:
        """Total events across accounts (diagnostics)."""
        return sum(len(v) for v in self._events.values())

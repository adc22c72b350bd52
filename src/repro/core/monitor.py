"""The monitoring infrastructure: notification store + activity scraper.

Two collectors, as in Section 3.1 of the paper:

* the **notification store** is the dedicated webmail account the hidden
  scripts report to; here it is an append-only columnar
  :class:`~repro.telemetry.stores.NotificationStore`;
* the **activity scraper** drives a browser, periodically logs into every
  honey account with the leaked credentials, and dumps the account
  activity page to disk for offline parsing.  When a hijacker changes a
  password the scraper is locked out — access records stop, while script
  notifications keep flowing.

Everything the monitor collects is telemetry: scraped rows, script
notifications, scrape diagnostics and lockouts each stream into a typed
:class:`~repro.telemetry.eventlog.EventLog` sharing one string-interning
table, so a million-row run stores every address, user agent and city
exactly once.  The historical list attributes (``scraped_accesses``,
``notifications``, ``scrape_log``) remain available as lazy row views.
Each watched account carries a monotonic index cursor into its activity
page, making every scrape O(new events) instead of a full rescan.

The scraper's own logins appear on the activity pages (it is a real
client); the analysis layer removes them by IP and by city, exactly like
the paper's cleaning step.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.notifications import (
    NotificationRecord,
    notification_row_factory,
    notification_to_fields,
)
from repro.core.records import access_row_factory
from repro.core.sharding import stable_hash64
from repro.errors import (
    AccountBlockedError,
    AuthenticationError,
    WebmailError,
)
from repro.netsim.cities import City
from repro.netsim.geo import GeoDatabase
from repro.netsim.ipaddr import IPAddress
from repro.sim.clock import hours
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.telemetry import (
    AccessStore,
    DefenseActionStore,
    NotificationStore,
    RowView,
    ScrapeFailureLog,
    ScrapeLogStore,
    StringTable,
)
from repro.webmail.activity import AccessEvent
from repro.webmail.service import LoginContext, WebmailService

_SCRAPER_USER_AGENT = (
    "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) "
    "Chrome/43.0.2357 Safari/537.36"
)


class ScrapeOutcome(enum.Enum):
    """Result of one scraper visit to one account."""

    OK = "ok"
    LOCKED_OUT = "locked_out"  # password changed by a hijacker
    BLOCKED = "blocked"  # account suspended by the provider
    ERROR = "error"  # any other provider refusal (e.g. unknown account)


#: ``ScrapeOutcome.OK.value``, read once: an enum ``.value`` lookup is
#: a Python-level descriptor call, and every visit logs one.
_OK = ScrapeOutcome.OK.value


@dataclass
class _WatchedAccount:
    address: str
    password: str
    #: Index cursor into the account's activity page; the next scrape
    #: reads from here, so each visit is O(new events).
    cursor: int = 0
    locked_out: bool = False
    blocked: bool = False
    #: Scrape visits so far; combined with the address hash it picks
    #: which infrastructure IP this account's next visit uses.
    visits: int = 0
    #: ``stable_hash64(address)``, computed once instead of per visit.
    address_hash: int = field(init=False)
    #: The scraper's own activity-page row, minus its timestamp, keyed
    #: by ``(cookie value, infrastructure IP)`` — the only inputs of
    #: that row that vary.  Strings, not the frozen ``Cookie`` /
    #: ``LoginContext``, so the probe hashes at C speed.  A forced reset
    #: mints a new cookie and so a new key; nothing is invalidated.
    own_rows: dict[tuple[str, str], tuple] = field(
        init=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self.address_hash = stable_hash64(self.address)


@dataclass(frozen=True)
class ScrapeLogEntry:
    """Diagnostic record of one scraper visit."""

    address: str
    timestamp: float
    outcome: ScrapeOutcome
    new_events: int


def _scrape_entry_factory(log, index: int) -> ScrapeLogEntry:
    address, timestamp, outcome, new_events = log.row(index)
    return ScrapeLogEntry(
        address, timestamp, ScrapeOutcome(outcome), new_events
    )


def _row_fields(event: AccessEvent) -> tuple:
    """An activity-page row's ``AccessStore`` fields, minus the
    timestamp.

    Extraction leans on the shared caches: ``dotted`` renders each IP
    once per address object, the fingerprint is a memoised frozen
    record, and the location is the per-prefix shared instance.
    """
    location = event.location
    fingerprint = event.fingerprint
    return (
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
    )


class MonitorInfrastructure:
    """Owns both collectors and the scraping schedule.

    Args:
        sim: simulation engine for the periodic scrape.
        service: the webmail provider.
        geo: used to allocate the monitor's own IP addresses.
        monitor_city: where the infrastructure is hosted; its accesses are
            excluded from analysis by city, as in the paper.
        scrape_period: seconds between scrapes of each account.
    """

    def __init__(
        self,
        sim: Simulator,
        service: WebmailService,
        geo: GeoDatabase,
        monitor_city: City,
        *,
        scrape_period: float = hours(6),
    ) -> None:
        self._sim = sim
        self._service = service
        self._geo = geo
        self.monitor_city = monitor_city
        self._scrape_period = scrape_period
        self._watched: dict[str, _WatchedAccount] = {}
        self._monitor_ips: list[IPAddress] = [
            geo.allocate_in_city(monitor_city) for _ in range(3)
        ]
        # LoginContext is frozen and the scraper's identity is fixed, so
        # one context per infrastructure IP serves every scrape visit.
        self._login_contexts: list[LoginContext] = [
            LoginContext(
                device_id="monitor-browser",
                ip_address=ip,
                user_agent=_SCRAPER_USER_AGENT,
            )
            for ip in self._monitor_ips
        ]
        # One interning table across all four telemetry streams.
        self.telemetry_strings = StringTable()
        self.access_store = AccessStore(strings=self.telemetry_strings)
        self.notification_store = NotificationStore(
            strings=self.telemetry_strings
        )
        self.scrape_log_store = ScrapeLogStore(
            strings=self.telemetry_strings
        )
        self.failure_log = ScrapeFailureLog(strings=self.telemetry_strings)
        # Defender-side actions (checks/notifies/resets); like the
        # failure log it is tiny and stays resident.
        self.defense_store = DefenseActionStore(
            strings=self.telemetry_strings
        )
        self._process: PeriodicProcess | None = None

    # ------------------------------------------------------------------
    # notification store
    # ------------------------------------------------------------------
    def notification_sink(self, record: NotificationRecord) -> None:
        """The sink handed to every honey script."""
        self.notification_store.append_fields(
            *notification_to_fields(record)
        )

    @property
    def notifications(self) -> RowView:
        """Script notifications as records, lazily materialised."""
        return RowView(self.notification_store, notification_row_factory)

    @property
    def notification_counts(self) -> dict[str, int]:
        """Per-kind notification counts off the raw kind-id column.

        One integer-column scan on demand — nothing rides the ingest
        hot path for this.
        """
        counts = Counter(self.notification_store.kind_ids)
        lookup = self.telemetry_strings.lookup
        return {lookup(ident): count for ident, count in counts.items()}

    # ------------------------------------------------------------------
    # scraping
    # ------------------------------------------------------------------
    @property
    def scraped_accesses(self) -> RowView:
        """Parsed activity-page rows, lazily materialised."""
        return RowView(self.access_store, access_row_factory)

    @property
    def scrape_log(self) -> RowView:
        """Diagnostic entries, lazily materialised."""
        return RowView(self.scrape_log_store, _scrape_entry_factory)

    @property
    def scrape_failures(self) -> ScrapeFailureLog:
        """(address, time) lockout rows (tuple sequence)."""
        return self.failure_log

    @property
    def monitor_ips(self) -> tuple[IPAddress, ...]:
        return tuple(self._monitor_ips)

    def register_monitor_ip(self, address: IPAddress) -> None:
        """Register an additional infrastructure IP (e.g. the sandbox)."""
        self._monitor_ips.append(address)
        self._login_contexts.append(
            LoginContext(
                device_id="monitor-browser",
                ip_address=address,
                user_agent=_SCRAPER_USER_AGENT,
            )
        )

    def watch(self, address: str, password: str) -> None:
        """Start scraping an account with its leaked credentials."""
        self._watched[address] = _WatchedAccount(address, password)

    def update_password(self, address: str, new_password: str) -> None:
        """Re-sync the scraper after a defender-forced password reset.

        The monitoring team runs the defenses, so the scraper learns
        the new credential immediately and any lockout caused by the
        reset racing a scrape tick clears on the next visit.
        """
        watched = self._watched.get(address)
        if watched is None:
            return
        watched.password = new_password
        watched.locked_out = False

    def start(self) -> None:
        """Begin the periodic scrape of all watched accounts."""
        if self._process is not None:
            return
        self._process = PeriodicProcess(
            self._sim,
            self._scrape_period,
            self._scrape_all,
            start_delay=self._scrape_period,
            label="monitor:scrape",
        )

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    # ------------------------------------------------------------------
    # disk spill
    # ------------------------------------------------------------------
    def configure_spill_plan(
        self,
        directory: str | Path,
        plan: dict[str, bool],
        *,
        chunk_rows: int | None = None,
    ) -> None:
        """Make the planned stores out-of-core before any row lands.

        ``plan`` maps :data:`repro.telemetry.budget.PLANNED_STORES`
        names to spill decisions (a :meth:`TelemetryBudget.plan`
        result).  Must run before provisioning — a store only becomes
        spillable while empty.  The lockout log is always resident (a
        handful of rows per run).
        """
        directory = Path(directory)
        for name, store in (
            ("accesses", self.access_store),
            ("notifications", self.notification_store),
            ("scrape_log", self.scrape_log_store),
        ):
            if plan.get(name):
                store.configure_spill(directory / name, chunk_rows=chunk_rows)

    def _next_context(self, watched: _WatchedAccount) -> LoginContext:
        """The reusable login context for one account's next scrape
        visit.

        Rotation is keyed on the account (stable address hash plus that
        account's own visit count), never on a shared cursor: which IP
        scrapes an account must not depend on how many *other* accounts
        are being watched, or a sharded monitor would present different
        IPs than the serial one.  All infrastructure IPs are cleaned
        from the analysis either way; this only pins the raw rows.
        """
        contexts = self._login_contexts
        index = (watched.address_hash + watched.visits) % len(contexts)
        watched.visits += 1
        return contexts[index]

    def _scrape_all(self) -> None:
        now = self._sim.now
        for watched in self._watched.values():
            if watched.locked_out or watched.blocked:
                continue
            self._scrape_one(watched, now)

    def _log_scrape(
        self, address: str, now: float, outcome: ScrapeOutcome, count: int
    ) -> None:
        self.scrape_log_store.append_fields(address, now, outcome.value, count)

    def _scrape_one(self, watched: _WatchedAccount, now: float) -> None:
        """One visit: a real login, the page read, a logout.

        Every visit logs in through :meth:`WebmailService.login`, so the
        provider sees, counts, locks out and blocks the scraper exactly
        as before.  Almost always the page gained nothing but this
        visit's own login; then the read is skipped and the own row is
        appended from :attr:`_WatchedAccount.own_rows`, with the same
        fields the page row would have given.
        """
        address = watched.address
        context = self._next_context(watched)
        try:
            session = self._service.login(
                address, watched.password, context, now
            )
        except AuthenticationError:
            # Hijacker changed the password; we lose the activity page but
            # script notifications keep arriving.
            watched.locked_out = True
            self.failure_log.append((address, now))
            self._log_scrape(address, now, ScrapeOutcome.LOCKED_OUT, 0)
            return
        except AccountBlockedError:
            watched.blocked = True
            self._log_scrape(address, now, ScrapeOutcome.BLOCKED, 0)
            return
        except WebmailError:
            self._log_scrape(address, now, ScrapeOutcome.ERROR, 0)
            return
        page = self._service.activity
        cursor = watched.cursor
        key = (session.cookie.value, context.ip_address.dotted)
        own_row = watched.own_rows.get(key)
        if own_row is not None and page.event_count(address) == cursor + 1:
            # Only this visit's login is new: its row is the cached one.
            watched.cursor = cursor + 1
            self.access_store.append_fields(*own_row, now)
            new_events = 1
        else:
            events, watched.cursor = page.read_from(address, cursor)
            for event in events:
                self._ingest_event(event)
            # The login just recorded is the page's last row.
            watched.own_rows[key] = _row_fields(events[-1])
            new_events = len(events)
        self._service.logout(session)
        self.scrape_log_store.append_fields(address, now, _OK, new_events)

    def _ingest_event(self, event: AccessEvent) -> int:
        """Offline parsing of one dumped activity-page row, straight
        into the columnar store (no intermediate row object)."""
        return self.access_store.append_fields(
            *_row_fields(event), event.timestamp
        )

    # ------------------------------------------------------------------
    # convenience views
    # ------------------------------------------------------------------
    @property
    def monitor_ip_strings(self) -> set[str]:
        return {str(ip) for ip in self._monitor_ips}

    def locked_out_accounts(self) -> list[str]:
        return [w.address for w in self._watched.values() if w.locked_out]

"""Span recording around calls into each layer of the repro package.

The traced run wraps public functions of every layer at class or module
level, from the outside: no file under ``src/`` knows it is being
traced.  Two kinds of boundary:

* **coarse** boundaries (phases, ``run_until``, the shard merge, one
  ingest batch per ``POST /events``, ``restore_service_state``) keep one
  span each: name, start, end, parent span and the run id;
* **hot** boundaries with millions of calls (``HoneyMonitorScript.run``,
  ``WebmailService.login``, ``append_fields``) only accumulate a call
  count and summed time per ``(name, parent name)``, so a trace of the
  paper's 3.3M script runs fits in memory.

Each process keeps its own :class:`Tracer` and writes it with
:meth:`Tracer.dump` when its work ends; :func:`layer_metrics` merges the
per-process dumps into the per-layer metrics named in ``BENCHMARK.json``.
Times are ``time.perf_counter`` readings, which share one monotonic
clock across the processes of a run on Linux.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter

__all__ = [
    "LAYER_METRICS",
    "Tracer",
    "install",
    "layer_metrics",
    "load_dumps",
    "profile",
]


class Tracer:
    """Spans and hot-call aggregates of one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        #: ``[name, start, end, parent index or None, attrs]`` per span.
        self.spans: list[list] = []
        #: ``(name, parent name) -> [count, seconds]``.
        self.hot: dict[tuple[str, str | None], list] = {}
        #: Open boundaries, innermost last: ``(name, span index)``; hot
        #: boundaries carry ``None`` as they own no span record.
        self.stack: list[tuple[str, int | None]] = []

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child's start).

        Clears in place: the installed wrappers hold these containers.
        """
        self.pid = os.getpid()
        self.spans.clear()
        self.hot.clear()
        self.stack.clear()

    def open(self, name: str) -> list:
        """Start a coarse span; close it with :meth:`close`."""
        parent = next(
            (index for _, index in reversed(self.stack) if index is not None),
            None,
        )
        record = [name, perf_counter(), None, parent, {}]
        self.stack.append((name, len(self.spans)))
        self.spans.append(record)
        return record

    def close(self, record: list) -> None:
        record[2] = perf_counter()
        self.stack.pop()

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "spans": [
                {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "attrs": attrs,
                }
                for name, start, end, parent, attrs in self.spans
            ],
            "hot": [
                {"name": name, "parent": parent, "count": c, "seconds": s}
                for (name, parent), (c, s) in sorted(
                    self.hot.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
                )
            ],
        }

    def dump(self, directory: str | Path) -> Path:
        """Write this process's record as ``spans-<pid>.json``."""
        directory = Path(directory)
        path = directory / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict()))
        os.replace(tmp, path)
        return path


def _coarse(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(record)
        if attrs is not None:
            record[4].update(attrs(args, result))
        return result

    return wrapper


def _hot(tracer: Tracer, name: str, fn):
    hot = tracer.hot
    stack = tracer.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = stack[-1][0] if stack else None
        stack.append((name, None))
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - started
            stack.pop()
            slot = hot.get((name, parent))
            if slot is None:
                hot[(name, parent)] = [1, elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed

    return wrapper


def _supervised(tracer: Tracer, fn):
    """``supervise_iter`` is a generator: span its whole iteration and
    count the attempts its outcomes report."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        record = tracer.open("shard.supervise")
        attempts = 0
        try:
            for outcome in fn(*args, **kwargs):
                attempts += outcome.attempts
                yield outcome
        finally:
            tracer.close(record)
            record[4]["attempts"] = attempts

    return wrapper


def _shard_worker(tracer: Tracer, fn, directory: Path):
    """The shard worker entry: a forked worker starts a fresh record and
    writes it when its shard is done (supervised children leave through
    ``os._exit``, so nothing would run at interpreter exit)."""
    worker = _coarse(tracer, "shard.worker", fn)

    @functools.wraps(fn)
    def wrapper(task):
        forked = os.getpid() != tracer.pid
        if forked:
            tracer.reset()
        try:
            return worker(task)
        finally:
            if forked:
                tracer.dump(directory)

    return wrapper


def _run_attrs(args, result) -> dict:
    experiment = args[0]
    store = experiment.monitor.scrape_log_store
    return {
        "script_runs": experiment.runtime.runs_executed,
        "quota_trips": experiment.runtime.quota_trips,
        "scrapes": len(store),
        # The scraper's own login is always one of the rows it reads
        # back; a scrape is useful when it found anything else.
        "useful_scrapes": sum(1 for count in store.event_counts if count > 1),
    }


def _boundaries(directory: Path):
    """``(owner, attribute, wrap)`` for every traced boundary."""
    import repro.api.envelope as envelope
    import repro.analysis.dataset as dataset
    import repro.service as service
    import repro.shard as shard
    from repro.core.experiment import Experiment
    from repro.core.monitor import MonitorInfrastructure
    from repro.core.script import HoneyMonitorScript
    from repro.corpus.enron import CorpusGenerator
    from repro.service.classifier import OnlineClassifier
    from repro.service.server import ReproService
    from repro.service.state import ServiceState
    from repro.service.wal import WriteAheadLog
    from repro.sim.engine import Simulator
    from repro.telemetry.stores import (
        AccessStore,
        NotificationStore,
        ScrapeLogStore,
    )
    from repro.webmail.activity import ActivityPage
    from repro.webmail.service import WebmailService

    def coarse(name, attrs=None):
        return lambda tracer, fn: _coarse(tracer, name, fn, attrs)

    def hot(name):
        return lambda tracer, fn: _hot(tracer, name, fn)

    yield Experiment, "build", coarse("core.build")
    yield Experiment, "provision_accounts", coarse("core.provision")
    yield Experiment, "leak_credentials", coarse("core.leak")
    yield Experiment, "schedule_case_studies", coarse("core.case_studies")
    yield Experiment, "run", coarse("core.run", _run_attrs)
    yield CorpusGenerator, "generate_mailbox", coarse(
        "corpus.generate", lambda args, result: {"emails": len(result)}
    )
    yield Simulator, "run_until", coarse(
        "sim.run_until", lambda args, result: {"events": result}
    )
    yield HoneyMonitorScript, "run", hot("script.run")
    yield MonitorInfrastructure, "notification_sink", hot("monitor.notify")
    # The scrape tick has no public entry point (``start`` schedules
    # it); spanning it is what splits monitor logins from attacker ones.
    yield MonitorInfrastructure, "_scrape_all", hot("monitor.scrape_tick")
    yield WebmailService, "login", hot("webmail.login")
    for action in (
        "read_message",
        "star_message",
        "search",
        "create_draft",
        "send_email",
        "change_password",
    ):
        yield WebmailService, action, hot("webmail.action")
    yield ActivityPage, "read_from", hot("webmail.activity_read")
    yield AccessStore, "append_fields", hot("telemetry.append_access")
    yield NotificationStore, "append_fields", hot(
        "telemetry.append_notification"
    )
    yield ScrapeLogStore, "append_fields", hot("telemetry.append_scrape_log")
    yield envelope, "analyze", coarse("analysis.analyze")
    yield dataset, "extract_unique_accesses", coarse(
        "analysis.extract",
        lambda args, result: {
            "rows_scanned": len(args[0].access_store),
            "rows_kept": sum(u.observation_count for u in result),
        },
    )
    yield dataset, "classify_accesses", coarse("analysis.classify")
    yield shard, "merge_shard_runs", coarse(
        "shard.merge",
        lambda args, result: {
            "rows": len(result[0].access_store)
            + len(result[0].notification_store)
            + len(result[0].failure_log)
        },
    )
    yield shard, "supervise_iter", _supervised
    yield shard, "_execute_shard", (
        lambda tracer, fn: _shard_worker(tracer, fn, directory)
    )
    # One span per POST /events batch: the HTTP layer's hand-off to the
    # single-writer state.
    yield ReproService, "_ingest_body", coarse("service.ingest_batch")
    yield ServiceState, "apply", hot("service.apply")
    yield ServiceState, "stats", coarse("service.stats")
    yield OnlineClassifier, "ingest", hot("classifier.ingest")
    yield WriteAheadLog, "append", hot("wal.append")
    yield service, "restore_service_state", coarse(
        "service.restore",
        lambda args, result: {"events": result.classifier.events_ingested},
    )


def install(tracer: Tracer, directory: str | Path) -> None:
    """Wrap every traced boundary, for the rest of this process's life.

    ``directory`` receives the dumps of forked shard workers.  Install
    before the run forks, so workers inherit the wrappers.
    """
    for owner, attribute, wrap in _boundaries(Path(directory)):
        setattr(owner, attribute, wrap(tracer, owner.__dict__[attribute]))


def load_dumps(directory: str | Path) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


#: Every per-layer metric and its unit, in report order.  ``BENCHMARK.json``
#: lists the same names; the benchmark's tests hold the two together.
LAYER_METRICS = {
    "sim.events": "count",
    "sim.run_until_s": "s",
    "sim.self_s": "s",
    "appsscript.script_runs": "count",
    "appsscript.quota_trips": "count",
    "script.run_s": "s",
    "script.notifications": "count",
    "script.useful_ratio": "ratio",
    "webmail.login.monitor": "count",
    "webmail.login.attacker": "count",
    "webmail.login_s": "s",
    "webmail.activity_reads": "count",
    "webmail.activity_read_s": "s",
    "webmail.attacker_actions": "count",
    "monitor.scrapes": "count",
    "monitor.scrape_useful_ratio": "ratio",
    "core.provision_s": "s",
    "core.leak_s": "s",
    "corpus.emails": "count",
    "corpus.generate_s": "s",
    "telemetry.access_rows": "count",
    "telemetry.notification_rows": "count",
    "telemetry.scrape_log_rows": "count",
    "telemetry.append_s": "s",
    "analysis.analyze_s": "s",
    "analysis.classify_s": "s",
    "analysis.rows_scanned": "count",
    "analysis.rows_kept": "count",
    "analysis.keep_ratio": "ratio",
    "shard.worker_s.max": "s",
    "shard.worker_s.min": "s",
    "shard.provision_s.sum": "s",
    "shard.merge_s": "s",
    "shard.rows_merged": "count",
    "supervise.attempts": "count",
    "service.apply_calls": "count",
    "service.apply_s": "s",
    "classifier.ingest_s": "s",
    "wal.records": "count",
    "wal.bytes": "bytes",
    "wal.append_s": "s",
    "service.stats_s": "s",
    "service.http_s": "s",
    "wal.replay_s": "s",
    "wal.replay_eps": "events/s",
    "trace.overhead_ratio": "ratio",
}


def profile(dumps: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds per boundary name, over every
    process of a repetition.

    Self time is a boundary's time minus the time of the traced
    boundaries it called directly; it is where the layer itself, or
    untraced code below it, spent the time.
    """
    table: dict[str, dict] = {}
    children: dict[str, float] = {}

    def add(name, parent, count, seconds):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0})
        row["calls"] += count
        row["total_s"] += seconds
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + seconds

    for dump in dumps:
        own = dump["spans"]
        for span in own:
            parent = span["parent"]
            add(
                span["name"],
                None if parent is None else own[parent]["name"],
                1,
                span["end"] - span["start"],
            )
        for entry in dump["hot"]:
            add(entry["name"], entry["parent"], entry["count"], entry["seconds"])
    for name, row in table.items():
        row["self_s"] = row["total_s"] - children.get(name, 0.0)
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    dumps: list[dict],
    *,
    client_request_s: float = 0.0,
    wal_bytes: int = 0,
    overhead_ratio: float = 0.0,
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition.

    ``dumps`` are the per-process records of that repetition.  The
    three keywords are measured by the load generator, not by a span:
    the summed client-observed time of every request (for
    ``service.http_s``), the WAL's size on disk, and traced ÷ untraced
    wall time.  A layer a workload does not exercise reads 0.
    """
    table = profile(dumps)
    every_span = [span for dump in dumps for span in dump["spans"]]
    hot = [entry for dump in dumps for entry in dump["hot"]]

    def total(name: str, key: str = "total_s") -> float:
        return table.get(name, {}).get(key, 0)

    def attr(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in every_span if s["name"] == name)

    def under(name: str, parent: str, key: str = "count") -> float:
        return sum(
            h[key] for h in hot if h["name"] == name and h["parent"] == parent
        )

    worker_s = [
        s["end"] - s["start"] for s in every_span if s["name"] == "shard.worker"
    ]
    shard_provision_s = sum(
        s["end"] - s["start"]
        for dump in dumps
        if any(s["name"] == "shard.worker" for s in dump["spans"])
        for s in dump["spans"]
        if s["name"] == "core.provision"
    )
    script_runs = attr("core.run", "script_runs")
    scrapes = attr("core.run", "scrapes")
    notifications = under("monitor.notify", "script.run")
    login_monitor = under("webmail.login", "monitor.scrape_tick")
    rows_scanned = attr("analysis.extract", "rows_scanned")
    rows_kept = attr("analysis.extract", "rows_kept")
    apply_s = total("service.apply")
    stats_s = total("service.stats")
    replay_s = total("service.restore")
    return {
        "sim.events": attr("sim.run_until", "events"),
        "sim.run_until_s": total("sim.run_until"),
        "sim.self_s": total("sim.run_until", "self_s"),
        "appsscript.script_runs": script_runs,
        "appsscript.quota_trips": attr("core.run", "quota_trips"),
        "script.run_s": total("script.run"),
        "script.notifications": notifications,
        "script.useful_ratio": _ratio(notifications, script_runs),
        "webmail.login.monitor": login_monitor,
        "webmail.login.attacker": total("webmail.login", "calls") - login_monitor,
        "webmail.login_s": total("webmail.login"),
        "webmail.activity_reads": total("webmail.activity_read", "calls"),
        "webmail.activity_read_s": total("webmail.activity_read"),
        "webmail.attacker_actions": total("webmail.action", "calls"),
        "monitor.scrapes": scrapes,
        "monitor.scrape_useful_ratio": _ratio(
            attr("core.run", "useful_scrapes"), scrapes
        ),
        "core.provision_s": total("core.provision"),
        "core.leak_s": total("core.leak"),
        "corpus.emails": attr("corpus.generate", "emails"),
        "corpus.generate_s": total("corpus.generate"),
        "telemetry.access_rows": total("telemetry.append_access", "calls"),
        "telemetry.notification_rows": total(
            "telemetry.append_notification", "calls"
        ),
        "telemetry.scrape_log_rows": total("telemetry.append_scrape_log", "calls"),
        "telemetry.append_s": total("telemetry.append_access")
        + total("telemetry.append_notification")
        + total("telemetry.append_scrape_log"),
        "analysis.analyze_s": total("analysis.analyze"),
        "analysis.classify_s": total("analysis.classify"),
        "analysis.rows_scanned": rows_scanned,
        "analysis.rows_kept": rows_kept,
        "analysis.keep_ratio": _ratio(rows_kept, rows_scanned),
        "shard.worker_s.max": max(worker_s, default=0.0),
        "shard.worker_s.min": min(worker_s, default=0.0),
        "shard.provision_s.sum": shard_provision_s,
        "shard.merge_s": total("shard.merge"),
        "shard.rows_merged": attr("shard.merge", "rows"),
        "supervise.attempts": attr("shard.supervise", "attempts"),
        "service.apply_calls": total("service.apply", "calls"),
        "service.apply_s": apply_s,
        "classifier.ingest_s": under("classifier.ingest", "service.apply", "seconds"),
        "wal.records": total("wal.append", "calls"),
        "wal.bytes": wal_bytes,
        "wal.append_s": total("wal.append"),
        "service.stats_s": stats_s,
        "service.http_s": (
            client_request_s - apply_s - stats_s if client_request_s else 0.0
        ),
        "wal.replay_s": replay_s,
        "wal.replay_eps": _ratio(attr("service.restore", "events"), replay_s),
        "trace.overhead_ratio": overhead_ratio,
    }

"""The benchmark's three workloads and the checks on their outputs.

``paper_serial`` and ``scaled_sharded`` hand a scenario to
``run_scenario`` and wait for ``RunResult.analysis``; each repetition
runs in a child forked from this lean process, so its CPU time and peak
RSS are the system's alone.  ``live_ingest`` drives the ingestion
service, running in processes of its own, with a closed-loop HTTP
client: one client, one keep-alive connection, each request waiting for
its reply.

The seed picks the inputs; the system only ever receives the scenario
(or, for ``live_ingest``, the encoded event batches) built from it.
"""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import pickle
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: WALs, checkpoints, span dumps,
#: and the temporary files the system makes (``TMPDIR`` points here).
SCRATCH = ROOT / ".perfbench"

#: The phases ``RunResult.perf`` reports before simulated time advances.
SETUP_PHASES = ("build", "provision", "leak", "case_studies")
#: Events ``live_ingest`` sends: 1,000 POSTs, so the p99 latency has
#: ten samples beyond it.  Every seed's ``fast`` run streams more.
STREAM_EVENTS = 100_000
#: Events per ``POST /events`` and POSTs per ``GET /stats``.
POST_BATCH = 100
POSTS_PER_READ = 10
#: Bound on every wait for a service process, in seconds.
PROCESS_DEADLINE = 60.0


def scratch_dir(prefix: str) -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH))


def in_child(fn, *args):
    """``fn(*args)`` in a forked child; returns its result or raises.

    Forked, not spawned: the child starts with the package already
    imported, so import time stays out of every measurement.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child side
        code = 0
        try:
            os.close(read_fd)
            try:
                payload = ("ok", fn(*args))
            except BaseException:  # noqa: BLE001 - shipped to the parent
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as handle:
                pickle.dump(payload, handle)
        except BaseException:  # noqa: BLE001 - never unwind into the parent's code
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("benchmark child died without a result")
    status, value = pickle.loads(data)
    if status != "ok":
        raise RuntimeError(f"benchmark child failed:\n{value}")
    return value


def _usage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MB) of this process and its reaped
    children (the shard workers), as of now."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    return cpu, max(own.ru_maxrss, children.ru_maxrss) / 1024.0


# ----------------------------------------------------------------------
# pipeline workloads: paper_serial, scaled_sharded
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunInputs:
    """One pipeline workload's input: a scenario, its seed, its pool."""

    scenario_json: str
    jobs: int


def paper_serial_inputs(seed: int) -> RunInputs:
    from repro import scenarios

    return RunInputs(scenarios.get("paper_default").with_seed(seed).to_json(), 1)


def scaled_sharded_inputs(seed: int) -> RunInputs:
    from repro import scenarios

    scenario = scenarios.get("scaled", n_accounts=200).with_shards(2)
    return RunInputs(scenario.with_seed(seed).to_json(), 2)


def setup_seconds(result) -> float:
    """Time before simulated time advances; the slowest shard's when
    the run was sharded."""
    if result.shard_perf:
        return max(
            sum(shard["phases"].get(p, 0.0) for p in SETUP_PHASES)
            for shard in result.shard_perf
        )
    return sum(result.perf.get(p, 0.0) for p in SETUP_PHASES)


def run_once(inputs: RunInputs, trace_dir: Path | None = None) -> dict:
    """One repetition: ``run_scenario`` until ``.analysis`` returns.

    Runs in a forked child (:func:`in_child`).  With ``trace_dir`` the
    span wrappers are installed first, so the shard workers this run
    forks inherit them, and every process's spans land in
    ``trace_dir``.
    """
    from repro.analysis.fingerprint import fingerprint_digest
    from repro.api.envelope import run_scenario
    from repro.api.scenario import Scenario

    scenario = Scenario.from_json(inputs.scenario_json)
    tracer = None
    if trace_dir is not None:
        tracer = spans.Tracer(run_id=trace_dir.name)
        spans.install(tracer, trace_dir)
        root = tracer.open("bench.run")
    started = perf_counter()
    result = run_scenario(scenario, jobs=inputs.jobs)
    analysis = result.analysis
    run_s = perf_counter() - started
    cpu_s, peak_rss_mb = _usage()
    if tracer is not None:
        tracer.close(root)
        tracer.dump(trace_dir)
    return {
        "run_s": run_s,
        "setup_s": setup_seconds(result),
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "fingerprint": fingerprint_digest(analysis),
    }


def serial_reference(inputs: RunInputs) -> str:
    """Analysis fingerprint of the same scenario and seed run serially."""
    from repro.analysis.fingerprint import fingerprint_digest
    from repro.api.envelope import run_scenario
    from repro.api.scenario import Scenario

    scenario = Scenario.from_json(inputs.scenario_json).with_shards(1)
    return fingerprint_digest(run_scenario(scenario).analysis)


def traced(once):
    """``once(trace_dir)`` with span recording; returns its result and
    the span dumps of every process it ran."""
    trace_dir = scratch_dir("trace-")
    try:
        result = once(trace_dir)
        return result, spans.load_dumps(trace_dir)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# live_ingest
# ----------------------------------------------------------------------
@dataclass
class LiveInputs:
    """The encoded event stream and what the service must end up with."""

    bodies: list[bytes]
    batch_sizes: list[int]
    events: int
    batch_fingerprint: str
    generate_s: float


def prefix_dataset(dataset, events: list[dict]):
    """The dataset holding exactly the rows of ``events``.

    ``events_from_dataset`` merges the stores without reordering any of
    them, so a stream prefix holds a prefix of every store.
    """
    from repro.core.records import ObservedDataset
    from repro.service.events import (
        ACCESS_FIELD_NAMES,
        LOCKOUT_FIELD_NAMES,
        NOTIFICATION_FIELD_NAMES,
    )

    prefix = ObservedDataset()
    prefix.monitor_ips = dataset.monitor_ips
    prefix.monitor_city = dataset.monitor_city
    prefix.provenance = dataset.provenance
    stores = {
        "access": (prefix.access_store, ACCESS_FIELD_NAMES),
        "notification": (prefix.notification_store, NOTIFICATION_FIELD_NAMES),
        "lockout": (prefix.failure_log, LOCKOUT_FIELD_NAMES),
    }
    for event in events:
        if event["type"] in stores:
            store, names = stores[event["type"]]
            store.append(tuple(event[name] for name in names))
    return prefix


def live_inputs(seed: int, scenario=None, events: int = STREAM_EVENTS) -> LiveInputs:
    """The first ``events`` events of the ``fast`` run's stream for
    ``seed``, in POST batches, plus the batch pipeline's classification
    fingerprint of the same events (the online classifier must
    reproduce it).

    A fixed count keeps the work the same from seed to seed: lockouts
    make a whole run's stream vary by a third across seeds.
    """
    from repro import scenarios
    from repro.analysis.accesses import extract_unique_accesses
    from repro.analysis.taxonomy import classify_accesses
    from repro.api.envelope import run_scenario
    from repro.service import classification_fingerprint, events_from_dataset

    started = perf_counter()
    scenario = scenario if scenario is not None else scenarios.get("fast")
    run = run_scenario(scenario.with_seed(seed))
    scan_period = run.config.scan_period
    stream = list(
        itertools.islice(
            events_from_dataset(run.dataset, scan_period=scan_period), events
        )
    )
    dataset = prefix_dataset(run.dataset, stream)
    fingerprint = classification_fingerprint(
        classify_accesses(
            dataset, extract_unique_accesses(dataset), scan_period=scan_period
        )
    )
    batches = [
        stream[i : i + POST_BATCH] for i in range(0, len(stream), POST_BATCH)
    ]
    return LiveInputs(
        bodies=[json.dumps(batch).encode() for batch in batches],
        batch_sizes=[len(batch) for batch in batches],
        events=len(stream),
        batch_fingerprint=fingerprint,
        generate_s=perf_counter() - started,
    )


class ServiceProcess:
    """One service process: launch, health wait, signals, reaping."""

    def __init__(self, wal: Path, checkpoint: Path, trace_dir: Path | None):
        command = [sys.executable, str(HERE / "service_main.py")]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        command += ["serve", "--wal", str(wal), "--checkpoint", str(checkpoint)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.launched = perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=ROOT
        )
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        try:
            self.host, self.port = self._announced()
        except BaseException:
            self.stop(signal.SIGKILL)
            raise

    def _announced(self) -> tuple[str, int]:
        """The address from the ``serving on http://HOST:PORT`` line."""
        deadline = time.monotonic() + PROCESS_DEADLINE
        fd = self.process.stdout.fileno()
        output = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("service exited before serving")
            output += chunk
            for line in output.decode().splitlines():
                if line.startswith("serving on http://"):
                    host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
                    return host, int(port)
        raise RuntimeError("service did not announce its address in time")

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=PROCESS_DEADLINE
        )

    def healthy_at(self) -> float:
        """Poll ``/healthz`` until its first 200; returns that moment."""
        deadline = time.monotonic() + PROCESS_DEADLINE
        while time.monotonic() < deadline:
            connection = self.connect()
            try:
                status, _ = request(connection, "GET", "/healthz")
                if status == 200:
                    return perf_counter()
            except OSError:
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError("service never answered 200 on /healthz")

    def dump_spans(self, trace_dir: Path) -> None:
        """Ask a traced service for its spans and wait until written."""
        path = trace_dir / f"spans-{self.process.pid}.json"
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + PROCESS_DEADLINE
        while not path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced service never wrote its spans")
            time.sleep(0.01)

    def stop(self, signum: int) -> int:
        """Signal the process, reap it, keep its CPU time and peak RSS;
        returns its exit status.  A process still alive at the deadline
        is killed."""
        process = self.process
        if process.returncode is None:
            process.send_signal(signum)
            deadline = time.monotonic() + PROCESS_DEADLINE
            while True:
                pid, status, usage = os.wait4(process.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    process.kill()
                    pid, status, usage = os.wait4(process.pid, 0)
                    break
                time.sleep(0.005)
            process.returncode = os.waitstatus_to_exitcode(status)
            self.cpu_s = usage.ru_utime + usage.ru_stime
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        process.stdout.close()
        return process.returncode


def request(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes | None = None,
) -> tuple[int, dict]:
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: ``len(samples) * (1 - q)`` lie beyond it."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q - 1e-9)) - 1]


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)


@dataclass
class LiveRep:
    """What one ``live_ingest`` repetition measured and checked."""

    metrics: dict = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    #: Summed client-observed time of every request (for
    #: ``service.http_s``) and the WAL's size on disk.
    client_request_s: float = 0.0
    wal_bytes: int = 0


def live_once(inputs: LiveInputs, trace_dir: Path | None = None) -> LiveRep:
    """One ``live_ingest`` repetition.

    Launch the service with an empty WAL, POST the stream in batches
    (a ``GET /stats`` after every 10th POST), SIGKILL it after the last
    ack, restart it over the same WAL, and check the restored state.
    """
    from repro.errors import ServiceError
    from repro.service import OnlineClassifier, load_service_checkpoint

    rep = LiveRep()
    check = rep.tally.check
    work = scratch_dir("live-")
    wal, checkpoint = work / "events.wal", work / "service.ckpt"
    services: list[ServiceProcess] = []
    try:
        first = ServiceProcess(wal, checkpoint, trace_dir)
        services.append(first)
        setup_s = first.healthy_at() - first.launched
        connection = first.connect()
        post_ms, stats_ms = [], []
        acked = 0
        started = perf_counter()
        for index, body in enumerate(inputs.bodies):
            sent = perf_counter()
            status, reply = request(connection, "POST", "/events", body)
            post_ms.append((perf_counter() - sent) * 1e3)
            size = inputs.batch_sizes[index]
            check(
                status == 200 and reply.get("accepted") == size,
                f"POST /events #{index}: {status} {reply}",
            )
            acked += reply.get("accepted", 0)
            if (index + 1) % POSTS_PER_READ == 0:
                sent = perf_counter()
                status, _ = request(connection, "GET", "/stats")
                stats_ms.append((perf_counter() - sent) * 1e3)
                check(status == 200, f"GET /stats: {status}")
        post_phase_s = perf_counter() - started
        sent = perf_counter()
        status, before = request(connection, "GET", "/stats")
        last_read_s = perf_counter() - sent
        check(status == 200, f"GET /stats before kill: {status}")
        connection.close()
        rep.client_request_s = (sum(post_ms) + sum(stats_ms)) / 1e3 + last_read_s
        if trace_dir is not None:
            first.dump_spans(trace_dir)
        first.stop(signal.SIGKILL)
        rep.wal_bytes = wal.stat().st_size

        second = ServiceProcess(wal, checkpoint, trace_dir)
        services.append(second)
        healthy = second.healthy_at()
        restore_s = healthy - second.launched
        run_s = healthy - started
        connection = second.connect()
        sent = perf_counter()
        status, after = request(connection, "GET", "/stats")
        rep.client_request_s += perf_counter() - sent
        connection.close()
        check(status == 200, f"GET /stats after restore: {status}")
        check(after == before, "restored /stats differ from pre-kill /stats")
        check(
            before.get("wal_position") == acked,
            f"wal_position {before.get('wal_position')} != {acked} acked",
        )
        # Every acked event is an operation that must survive the kill.
        restored = after.get("events", {}).get("total", 0)
        rep.tally.attempted += acked
        missing = max(0, acked - restored)
        if missing:
            rep.tally.failed += missing
            rep.tally.failures.append(f"{missing} acked events missing after restore")
        # A graceful stop writes the checkpoint: the restored service's
        # classifier state, to compare against the batch pipeline.
        check(second.stop(signal.SIGTERM) == 0, "service shutdown failed")
        try:
            online = OnlineClassifier.from_dict(
                load_service_checkpoint(checkpoint)["classifier"]
            ).fingerprint()
        except ServiceError as exc:
            online = str(exc)
        check(
            online == inputs.batch_fingerprint,
            "online classification differs from batch classify_accesses",
        )
        rep.metrics = {
            "run_s": run_s,
            "setup_s": setup_s,
            "cpu_s": first.cpu_s + second.cpu_s,
            "peak_rss_mb": max(first.peak_rss_mb, second.peak_rss_mb),
            "ingest_eps": acked / post_phase_s,
            "post_p50_ms": _percentile(post_ms, 0.50),
            "post_p99_ms": _percentile(post_ms, 0.99),
            "stats_p50_ms": _percentile(stats_ms, 0.50),
            "stats_p90_ms": _percentile(stats_ms, 0.90),
            "restore_s": restore_s,
        }
    finally:
        for service in services:
            service.stop(signal.SIGKILL)
        shutil.rmtree(work, ignore_errors=True)
    return rep

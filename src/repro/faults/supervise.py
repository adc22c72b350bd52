"""Supervised execution of forked workers: timeouts, heartbeats,
kill-and-requeue.

:func:`supervise_iter` is the one way this package forks a worker:
pooled shards, :class:`~repro.api.runner.BatchRunner` cells and the
pooled sweep backend all go through it, and the benchmarks fork their
isolated measurements with it too (``benchmarks/_harness.py``).  Each
task runs in its own forked child (so a SIGKILL takes out exactly one
task, never a shared pool); the child ships its result back through a
pickle file written atomically, and touches a heartbeat file from a
daemon thread while it works.  The parent polls children against two
clocks:

* a **wall-clock deadline** per attempt (``timeout``) — catches tasks
  that run but never finish;
* a **heartbeat staleness** bound (``stale_after``) — catches tasks
  that stop making progress entirely (a hung interpreter stops
  touching its heartbeat; so does an injected hang fault, by design).

A child that dies, times out, or goes silent is killed and the task
requeued up to ``retries`` times.  Because every workload in this
repository is deterministic in (task, seed), re-execution is safe: the
rerun produces bit-identical output, which is what the chaos suite
asserts.

The fault-free overhead is one ``fork`` per task plus a poll loop —
benchmarked in ``benchmarks/bench_faults.py`` and gated at ≤5 % over
a bare process pool running the same shards (a baseline the benchmark
builds for itself).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.atomic import atomic_write
from repro.faults.plan import hang_active


@dataclass
class SupervisedOutcome:
    """What happened to one supervised task.

    Attributes:
        index: position of the task in the input sequence.
        result: the worker's return value (``None`` on failure).
        error: ``None`` on success, else a one-line description of the
            *last* failure ("died with SIGKILL", "timed out after
            2.0s", "heartbeat stale ...").
        attempts: executions consumed (1 = first try succeeded).
        elapsed_seconds: wall time from first launch to resolution.
    """

    index: int
    result: object = None
    error: str | None = None
    attempts: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class _Attempt:
    """One running child: process + result/heartbeat paths + clocks."""

    def __init__(
        self,
        index: int,
        attempt: int,
        process,
        result_path: Path,
        heartbeat_path: Path,
        deadline: float | None,
    ) -> None:
        self.index = index
        self.attempt = attempt
        self.process = process
        self.result_path = result_path
        self.heartbeat_path = heartbeat_path
        self.deadline = deadline
        self.started = time.monotonic()


def _child_main(
    worker: Callable,
    task,
    result_path: Path,
    heartbeat_path: Path,
    heartbeat_interval: float,
) -> None:
    """Child-side wrapper: heartbeat thread + worker + atomic result.

    Runs in the forked child.  The heartbeat thread goes silent while
    :func:`~repro.faults.plan.hang_active` reports an injected hang, so
    supervision observes injected hangs exactly as it would a wedged
    interpreter.  All exceptions are contained into the result file —
    the parent decides whether a failure is retryable.
    """
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_interval):
            if hang_active():
                continue
            try:
                os.utime(heartbeat_path)
            except OSError:
                return

    heartbeat_path.touch()
    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    try:
        try:
            payload = ("ok", worker(task))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            payload = ("error", f"{type(exc).__name__}: {exc}")
        # A handoff between live processes: a crash of this child is
        # the only failure to survive, so no fsync.
        atomic_write(result_path, pickle.dumps(payload), durable=False)
    finally:
        stop.set()


def supervise_iter(
    worker: Callable,
    tasks: Sequence,
    *,
    jobs: int,
    timeout: float | None = None,
    retries: int = 0,
    heartbeat_interval: float = 0.2,
    stale_after: float | None = None,
    poll_interval: float = 0.02,
    on_event: Callable[[str, int, int, str], None] | None = None,
) -> Iterator[SupervisedOutcome]:
    """Run ``worker(task)`` for every task under supervision, yielding
    :class:`SupervisedOutcome`s as they resolve (not in input order).

    Args:
        worker: picklable callable executed in a forked child.
        tasks: the task sequence; each must be picklable.
        jobs: concurrent children.
        timeout: per-attempt wall-clock limit in seconds; ``None``
            disables the deadline (heartbeats still apply).
        retries: requeues allowed per task after a crash/hang/timeout.
        heartbeat_interval: how often children touch their heartbeat.
        stale_after: kill a child whose heartbeat is older than this;
            ``None`` disables the watchdog.  Must comfortably exceed
            ``heartbeat_interval`` (a 4x margin is a good floor).
        poll_interval: parent poll cadence.
        on_event: optional observer ``(kind, index, attempt, detail)``
            with kind in {"start", "retry", "fail", "done"} — the shard
            coordinator uses it for progress lines.

    The generator owns every child it forks: closing it early (or a
    ``KeyboardInterrupt`` unwinding through it) kills outstanding
    children and removes their scratch files — no orphans.
    """
    ctx = multiprocessing.get_context("fork")
    pending: deque[tuple[int, int]] = deque(
        (index, 1) for index in range(len(tasks))
    )
    first_start: dict[int, float] = {}
    running: list[_Attempt] = []
    notify = on_event or (lambda kind, index, attempt, detail: None)

    with tempfile.TemporaryDirectory(prefix="repro-supervise-") as scratch:
        scratch_dir = Path(scratch)

        def _launch(index: int, attempt: int) -> None:
            result_path = scratch_dir / f"task{index}.a{attempt}.result"
            heartbeat_path = scratch_dir / f"task{index}.a{attempt}.hb"
            process = ctx.Process(
                target=_child_main,
                args=(
                    worker,
                    tasks[index],
                    result_path,
                    heartbeat_path,
                    heartbeat_interval,
                ),
            )
            process.start()
            first_start.setdefault(index, time.monotonic())
            deadline = (
                time.monotonic() + timeout if timeout is not None else None
            )
            running.append(
                _Attempt(
                    index,
                    attempt,
                    process,
                    result_path,
                    heartbeat_path,
                    deadline,
                )
            )
            notify("start", index, attempt, "")

        def _overdue(att: _Attempt, now: float) -> str | None:
            """Why a live attempt must be killed, or ``None``."""
            if att.deadline is not None and now > att.deadline:
                return f"timed out after {timeout:.6g}s"
            if stale_after is not None:
                try:
                    age = time.time() - att.heartbeat_path.stat().st_mtime
                except OSError:
                    # Not yet touched: measure from launch so a slow
                    # fork gets the same grace.
                    age = now - att.started
                if age > stale_after:
                    return f"heartbeat stale ({age:.2f}s > {stale_after:.6g}s)"
            return None

        def _resolve(
            att: _Attempt, reason: str | None
        ) -> SupervisedOutcome | None:
            """Outcome/requeue for an attempt that exited, or was killed
            for ``reason`` (a kill can race a completed result write, so
            a result that landed is honoured either way)."""
            failure: str | None = None
            result = None
            if att.result_path.exists():
                try:
                    with open(att.result_path, "rb") as handle:
                        status, payload = pickle.load(handle)
                except (OSError, pickle.PickleError, EOFError) as exc:
                    failure = f"unreadable result: {exc}"
                else:
                    if status == "ok":
                        result = payload
                    else:
                        failure = payload
            elif reason is not None:
                failure = reason
            else:
                code = att.process.exitcode
                failure = (
                    f"died with exit code {code}"
                    if code is not None
                    else "died without result"
                )
            elapsed = time.monotonic() - first_start[att.index]
            if failure is None:
                notify("done", att.index, att.attempt, "")
                return SupervisedOutcome(
                    index=att.index,
                    result=result,
                    attempts=att.attempt,
                    elapsed_seconds=elapsed,
                )
            if att.attempt <= retries:
                notify("retry", att.index, att.attempt, failure)
                pending.append((att.index, att.attempt + 1))
                return None
            notify("fail", att.index, att.attempt, failure)
            return SupervisedOutcome(
                index=att.index,
                error=failure,
                attempts=att.attempt,
                elapsed_seconds=elapsed,
            )

        try:
            while pending or running:
                while pending and len(running) < jobs:
                    index, attempt = pending.popleft()
                    _launch(index, attempt)
                time.sleep(poll_interval)
                now = time.monotonic()
                still_running: list[_Attempt] = []
                for att in running:
                    reason = None
                    if att.process.is_alive():
                        reason = _overdue(att, now)
                        if reason is None:
                            still_running.append(att)
                            continue
                        att.process.kill()
                    att.process.join()
                    outcome = _resolve(att, reason)
                    if outcome is not None:
                        yield outcome
                running[:] = still_running
        finally:
            for att in running:
                if att.process.is_alive():
                    att.process.kill()
                att.process.join()
            running.clear()

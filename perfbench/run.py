"""The repro benchmark: the measurement pipeline and the live service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``BENCHMARK.json`` says why each one exists):

* ``paper_serial`` — ``paper_default`` run serially, ``run_scenario``
  through ``RunResult.analysis``;
* ``scaled_sharded`` — ``scaled(200)`` on 2 shards with 2 worker
  processes, same boundary;
* ``live_ingest`` — the ``fast`` run's event stream POSTed to the
  ingestion service (closed loop, 1 client, 1 connection), then a
  SIGKILL and a restart over the same write-ahead log.

Repetitions run until the next one would overrun ``--seconds`` (at
least two, or one untraced/traced pair with ``--trace 1``), and every
metric is the median over them.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` pairs each untraced repetition with a traced one
and prints the per-layer metrics, including the tracing overhead.

Stdout ends with two JSON lines: a report (provenance, load-generator
numbers, the service-only metrics, ``error_rate``, failures), then the
result ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 1 when any output check failed and 2 when there is no
``src/repro`` package next to this directory.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402

#: End-to-end metrics: measured with tracing off, printed on every
#: workload, bounded in ``BENCHMARK.json``.
END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
#: Metrics only ``live_ingest`` has; printed in the report line, since
#: the result line carries the same metric set on every workload.
SERVICE_METRICS = {
    "ingest_eps": "events/s",
    "post_p50_ms": "ms",
    "post_p99_ms": "ms",
    "stats_p50_ms": "ms",
    "stats_p90_ms": "ms",
    "restore_s": "s",
}


#: What a failed service lifetime raises: a dead or unresponsive process,
#: a broken connection, a malformed reply.
LIVE_ERRORS = (OSError, RuntimeError, ValueError, http.client.HTTPException)


def repeat(seconds: float, once, minimum: int) -> int:
    """Call ``once()`` until the next call would end past ``seconds``."""
    started = perf_counter()
    count = 0
    while True:
        once()
        count += 1
        elapsed = perf_counter() - started
        if count >= minimum and elapsed + elapsed / count > seconds:
            return count


def _median(rows: list[dict], name: str) -> float:
    return statistics.median(row[name] for row in rows)


@dataclass
class Measured:
    """Everything one benchmark run measured and checked."""

    tally: workloads.Tally = field(default_factory=workloads.Tally)
    #: The load generator's own numbers, kept apart from the metrics.
    load: dict = field(default_factory=dict)
    #: Metrics of each untraced repetition.
    reps: list[dict] = field(default_factory=list)
    #: Per-layer metrics of each traced repetition.
    layers: list[dict] = field(default_factory=list)
    #: Span dumps of the last traced repetition.
    dumps: list[dict] = field(default_factory=list)
    runs: int = 0


def pipeline(inputs, seconds: float, trace: bool, sharded: bool) -> Measured:
    """``paper_serial`` / ``scaled_sharded``: repeated runs of one
    scenario.  The check: every run's analysis fingerprint equals the
    reference — a serial run of the same scenario and seed (computed
    before timing starts) when sharded, the first run's otherwise."""
    out = Measured()
    reference = None
    if sharded:
        started = perf_counter()
        try:
            reference = workloads.in_child(workloads.serial_reference, inputs)
        except RuntimeError as exc:
            out.tally.check(False, f"serial reference: {exc}")
            reference = "unavailable"
        out.load["serial_reference_s"] = perf_counter() - started

    def run_once(trace_dir=None) -> dict:
        nonlocal reference
        rep = workloads.in_child(workloads.run_once, inputs, trace_dir)
        if reference is None:
            reference = rep["fingerprint"]
        traced = "traced " if trace_dir is not None else ""
        out.tally.check(
            rep["fingerprint"] == reference, f"{traced}run fingerprint differs"
        )
        return rep

    def once() -> None:
        try:
            rep = run_once()
            out.reps.append(rep)
            if trace:
                traced, out.dumps = workloads.traced(run_once)
                out.layers.append(
                    spans.layer_metrics(
                        out.dumps, overhead_ratio=traced["run_s"] / rep["run_s"]
                    )
                )
        except RuntimeError as exc:
            out.tally.check(False, str(exc))

    out.runs = repeat(seconds, once, minimum=1 if trace else 2)
    return out


def live(inputs, seconds: float, trace: bool) -> Measured:
    """``live_ingest``: repeated service lifetimes over one stream; each
    lifetime checks itself (:func:`workloads.live_once`)."""
    out = Measured(
        load={
            "generate_s": inputs.generate_s,
            "events": inputs.events,
            "posts": len(inputs.bodies),
            "reads": len(inputs.bodies) // workloads.POSTS_PER_READ,
            "batch": workloads.POST_BATCH,
            "clients": 1,
            "connections": 1,
            "loop": "closed",
        }
    )

    def once() -> None:
        try:
            rep = workloads.live_once(inputs)
            out.tally.add(rep.tally)
            out.reps.append(rep.metrics)
            if trace:
                traced, out.dumps = workloads.traced(
                    lambda trace_dir: workloads.live_once(inputs, trace_dir)
                )
                out.tally.add(traced.tally)
                out.layers.append(
                    spans.layer_metrics(
                        out.dumps,
                        client_request_s=traced.client_request_s,
                        wal_bytes=traced.wal_bytes,
                        overhead_ratio=traced.metrics["run_s"] / rep.metrics["run_s"],
                    )
                )
        except LIVE_ERRORS as exc:
            out.tally.check(False, f"live_ingest repetition: {exc!r}")

    out.runs = repeat(seconds, once, minimum=1 if trace else 2)
    return out


def git_head() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree."""
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    return head if Path(top).resolve() == ROOT else "unknown"


def format_profile(table: dict[str, dict]) -> list[str]:
    """The traced report: boundaries by self time, largest first."""
    lines = [f"{'boundary':<32}{'calls':>12}{'total_s':>12}{'self_s':>12}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"{name:<32}{row['calls']:>12}{row['total_s']:>12.4f}"
            f"{row['self_s']:>12.4f}"
        )
    return lines


WORKLOADS = {
    "paper_serial": lambda seed, seconds, trace: pipeline(
        workloads.paper_serial_inputs(seed), seconds, trace, sharded=False
    ),
    "scaled_sharded": lambda seed, seconds, trace: pipeline(
        workloads.scaled_sharded_inputs(seed), seconds, trace, sharded=True
    ),
    "live_ingest": lambda seed, seconds, trace: live(
        workloads.live_inputs(seed), seconds, trace
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The system's own temporary files (shard supervision scratch) stay
    # inside the checkout too.
    workloads.SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(workloads.SCRATCH)
    tempfile.tempdir = None

    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    rows, units = (
        (out.layers, spans.LAYER_METRICS) if args.trace else (out.reps, END_TO_END)
    )
    values = {name: _median(rows, name) for name in units} if rows else {}
    service = {
        name: {"value": _median(out.reps, name), "unit": unit}
        for name, unit in SERVICE_METRICS.items()
        if out.reps and name in out.reps[0]
    }
    tally = out.tally
    report = {
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "repetitions": out.runs,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_head": git_head(),
        },
        "load_generator": out.load,
        "service_metrics": service,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures[:20],
    }
    if out.dumps:
        table = spans.profile(out.dumps)
        print("\n".join(format_profile(table)))
        trace_path = workloads.SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps({"report": report, "profile": table, "processes": out.dumps})
        )
        report["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

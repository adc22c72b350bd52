"""End-to-end simulation-run benchmark with a batching regression gate.

Measures what ``BENCH_telemetry.json`` never did: the cost of **running**
a measurement, not analysing it.  Three workloads cover the hot paths:

* **fast** — the paper's leak plan at relaxed monitoring cadences (the
  default test/dev loop);
* **scaled(200)** — 2x the paper's account population over the full
  236-day window: the workload whose ``run()`` wall-clock the committed
  baseline tracks;
* **credential_stuffing** — the machine-paced persona mix (bursty
  login-only probes), exercising the attacker visit loop.

Per workload it records wall-clock seconds, events executed, simulation
events/second, the per-phase breakdown from ``RunResult.perf``, the
process peak RSS, and the activity scraper's CPU cost per visit (CPU
seconds inside the scrape ticks ÷ scrape-log rows; every visit, failed
logins included, logs exactly one row).

The **regression gate** re-runs a mid-size scenario with Apps-Script
trigger batching disabled (one heap event per script per tick — the
pre-batch scheduling) and requires the batched fast path to be at least
``BATCHING_REGRESSION_LIMIT``x faster, while producing a bit-identical
headline analysis.  Machine-independent, like the telemetry bench's
gates: it compares two code paths in the same process instead of
absolute seconds.

Usage::

    PYTHONPATH=src python benchmarks/bench_run.py [--quick] \
        [--out BENCH_run.json]

``--quick`` shrinks the workloads for CI; the gate runs in every mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from _harness import in_child

from repro.api.envelope import run_scenario
from repro.api.registry import scenarios
from repro.perf import peak_rss_kb

#: The batched trigger path must beat the unbatched replica by at least
#: this factor; below it, the fast path has regressed toward one heap
#: event per script per tick.
BATCHING_REGRESSION_LIMIT = 1.25


def _scenario(name: str, duration_days: float | None, **kwargs):
    scenario = scenarios.get(name, **kwargs)
    if duration_days is not None:
        scenario = (
            scenario.to_builder().with_duration_days(duration_days).build()
        )
    return scenario


def _time_scrapes(experiment, spent: list[float]) -> None:
    """Sum the CPU seconds of every scrape tick into ``spent[0]``.

    Wraps the monitor's tick on the instance before ``start`` hands it
    to the periodic process, so nothing outside the tick is counted.
    """
    monitor = experiment.monitor
    tick = monitor._scrape_all

    def timed_tick() -> None:
        started = time.process_time()
        tick()
        spent[0] += time.process_time() - started

    monitor._scrape_all = timed_tick


def bench_one(label: str, scenario, seed: int = 2016) -> dict:
    """One full measurement run, timed end to end."""
    built = []
    scrape_cpu = [0.0]

    def on_built(experiment) -> None:
        built.append(experiment)
        _time_scrapes(experiment, scrape_cpu)

    started = time.perf_counter()
    run = run_scenario(scenario, seed=seed, on_built=on_built)
    elapsed = time.perf_counter() - started
    analysis = run.analysis
    visits = len(built[0].monitor.scrape_log_store)
    return {
        "scenario": scenario.name,
        "label": label,
        "seed": seed,
        "duration_days": run.config.duration_days,
        "account_count": run.account_count,
        "run_seconds": elapsed,
        "events_executed": run.events_executed,
        "events_per_second": run.events_per_second,
        "phases": dict(run.perf),
        "access_rows": len(run.dataset.access_store),
        "notification_rows": len(run.dataset.notification_store),
        "unique_accesses": analysis.total_unique_accesses,
        "peak_rss_kb": peak_rss_kb(),
        "scrape_visits": visits,
        "scrape_cpu_seconds": scrape_cpu[0],
        "scrape_cpu_us_per_visit": scrape_cpu[0] / max(visits, 1) * 1e6,
    }


def _gate_run(scenario, disable_batching: bool):
    """One gate measurement (runs inside a fresh forked child)."""
    on_built = None
    if disable_batching:
        def on_built(experiment) -> None:
            experiment.runtime.batch_triggers = False
    return run_scenario(scenario, seed=2016, on_built=on_built)


def bench_batching_gate(
    n_accounts: int, duration_days: float, rounds: int = 3
) -> dict:
    """Batched vs unbatched trigger scheduling on the same scenario.

    Alternates the two modes ``rounds`` times and compares best-of-N
    simulate-phase seconds (individual runs are sub-second, so a single
    sample is too noisy to gate on).  Also asserts the two modes
    observe identical datasets: trigger batching must be a pure
    scheduling optimisation, invisible to the analysis.

    Every run happens in a fresh forked child so process-global
    allocators (the webmail message-id counter) restart from the same
    state — two runs in one process get different raw message ids, which
    would trip the row-level equality below for reasons that have
    nothing to do with batching.

    The gate scenario runs at the paper's 10-minute scan cadence so the
    per-event scheduling overhead — the thing batching removes — is the
    dominant cost and the ratio stays well clear of run-to-run noise.
    """
    scenario = (
        _scenario("scaled", duration_days, n_accounts=n_accounts)
        .to_builder()
        .with_scan_period(600.0)
        .build()
    )

    batched = unbatched = None
    batched_simulate = unbatched_simulate = float("inf")
    for _ in range(rounds):
        batched = in_child(_gate_run, scenario, False)
        unbatched = in_child(_gate_run, scenario, True)
        batched_simulate = min(batched_simulate, batched.perf["simulate"])
        unbatched_simulate = min(
            unbatched_simulate, unbatched.perf["simulate"]
        )

    # Row-level, order-sensitive equality of everything both runs
    # observed: the column dumps decode every access and notification
    # field in append order, so any reordered or divergent row fails.
    if batched.dataset.access_store.to_json_dict() != (
        unbatched.dataset.access_store.to_json_dict()
    ) or batched.dataset.notification_store.to_json_dict() != (
        unbatched.dataset.notification_store.to_json_dict()
    ):
        raise AssertionError(
            "batched and unbatched trigger scheduling observed different "
            "datasets — batching is no longer order-preserving"
        )

    return {
        "n_accounts": n_accounts,
        "duration_days": duration_days,
        "rounds": rounds,
        "batched_events": batched.events_executed,
        "unbatched_events": unbatched.events_executed,
        "batched_simulate_seconds": batched_simulate,
        "unbatched_simulate_seconds": unbatched_simulate,
        "speedup": unbatched_simulate / max(batched_simulate, 1e-9),
        "limit": BATCHING_REGRESSION_LIMIT,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads for CI smoke runs",
    )
    parser.add_argument(
        "--out", default="BENCH_run.json", metavar="FILE",
        help="machine-readable results file (default: BENCH_run.json)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        workloads = [
            ("fast", _scenario("fast", 30.0)),
            ("scaled_60", _scenario("scaled", 30.0, n_accounts=60)),
            ("credential_stuffing", _scenario("credential_stuffing", 30.0)),
        ]
    else:
        workloads = [
            ("fast", _scenario("fast", None)),
            ("scaled_200", _scenario("scaled", None, n_accounts=200)),
            ("credential_stuffing", _scenario("credential_stuffing", None)),
        ]
    # Same gate workload in both modes: the ratio (not absolute seconds)
    # is what gates, and ~0.5M unbatched events is already well past the
    # noise floor while staying CI-sized.
    gate_accounts, gate_days = 60, 60.0

    runs = {}
    for label, scenario in workloads:
        record = in_child(bench_one, label, scenario)
        runs[label] = record
        print(
            f"{label}: {record['run_seconds']:.2f}s end-to-end, "
            f"{record['events_executed']} events "
            f"({record['events_per_second']:,.0f} events/s in the loop), "
            f"{record['access_rows']} access rows, "
            f"{record['scrape_cpu_us_per_visit']:.2f} us CPU per scrape "
            f"visit, peak RSS {record['peak_rss_kb'] / 1024:.0f} MB"
        )

    gate = bench_batching_gate(gate_accounts, gate_days)
    print(
        f"batching gate (scaled({gate_accounts}), {gate_days:g}d): "
        f"unbatched {gate['unbatched_simulate_seconds']:.3f}s "
        f"({gate['unbatched_events']} events) vs batched "
        f"{gate['batched_simulate_seconds']:.3f}s "
        f"({gate['batched_events']} events) = {gate['speedup']:.2f}x "
        f"(limit {gate['limit']}x)"
    )

    payload = {
        "quick": args.quick,
        "runs": runs,
        "batching_gate": gate,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {out}")

    if gate["speedup"] < BATCHING_REGRESSION_LIMIT:
        print(
            "FAIL: batched trigger scheduling is only "
            f"{gate['speedup']:.2f}x faster than the unbatched replica "
            f"(limit {BATCHING_REGRESSION_LIMIT}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

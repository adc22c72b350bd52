"""Start the repro ingestion service for the benchmark, optionally traced.

    python3 perfbench/service_main.py [--trace-dir DIR] serve --wal FILE ...

Everything after the optional ``--trace-dir DIR`` goes to the package's
own command line (``python -m repro ...``).  With ``--trace-dir`` the
span wrappers are installed before the service starts, and the process
writes its spans to ``DIR`` on ``SIGUSR1`` (the load generator asks for
them just before it kills the service) and again when it exits.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    if argv[:1] != ["--trace-dir"]:
        return repro_main(argv)
    from spans import Tracer, install

    trace_dir = Path(argv[1])
    tracer = Tracer(run_id=trace_dir.name)
    install(tracer, trace_dir)
    signal.signal(signal.SIGUSR1, lambda signum, frame: tracer.dump(trace_dir))
    try:
        return repro_main(argv[2:])
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

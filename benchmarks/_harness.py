"""Plumbing shared by the benchmark scripts.

Import it from a script run as ``python benchmarks/bench_<name>.py``
(the script's directory is then on ``sys.path``).
"""

from __future__ import annotations

from repro.faults.supervise import supervise_iter


def _apply(task):
    function, args = task
    return function(*args)


def in_child(function, *args):
    """Return ``function(*args)`` computed in a fresh forked child.

    ``ru_maxrss`` is a process-lifetime high-water mark, so a child per
    measurement keeps peak RSS a per-run number (tracemalloc would
    isolate it too, but its tracing overhead would distort timings).
    The child runs under :func:`~repro.faults.supervise.supervise_iter`,
    the package's one way to fork a worker; a child that raises or dies
    re-raises here as :class:`RuntimeError`.
    """
    (outcome,) = supervise_iter(_apply, [(function, args)], jobs=1)
    if not outcome.ok:
        raise RuntimeError(
            f"{function.__name__} failed in its child: {outcome.error}"
        )
    return outcome.result

"""Run isolation, set-up timing, memory and percentile helpers."""

from __future__ import annotations

import multiprocessing
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.spice.cache import SolveCache, use_cache
from repro.telemetry import Telemetry, use_telemetry

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Imported by a fresh interpreter to time the stack's import, the part
#: of set-up a tester program pays once per process.
IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); "
    "import repro.compiler, repro.service, repro.workloads, "
    "repro.cascade, repro.core.engines; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    #: name -> value; run.py takes the units from BENCHMARK.json.
    metrics: Dict[str, float]
    #: name -> number of samples a percentile or median rests on.
    samples: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


@contextmanager
def fresh_scope() -> Iterator[Telemetry]:
    """A fresh solve cache and telemetry registry for one timed pass.

    Nothing a previous pass memoized or counted in this process is
    visible inside the block, and nothing persists on disk.
    """
    with use_cache(SolveCache()), use_telemetry() as tele:
        yield tele


def timed_setups(build: Callable[[], object], reps: int = SETUP_REPS,
                 ) -> Tuple[object, List[float]]:
    """Build the workload ``reps`` times, each in a fresh scope.

    Returns the last build and every build's wall time.
    """
    times: List[float] = []
    state = None
    for _ in range(reps):
        with fresh_scope():
            start = time.perf_counter()
            state = build()
            times.append(time.perf_counter() - start)
    return state, times


#: Import-timing interpreters now running (ended on SIGTERM).
_IMPORTERS: List[subprocess.Popen] = []


def import_seconds(reps: int = SETUP_REPS) -> List[float]:
    """Stack import time in ``reps`` fresh interpreters (each waited)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(reps):
        with subprocess.Popen(
            [sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            _IMPORTERS.append(proc)
            try:
                stdout, _ = proc.communicate(timeout=120)
            finally:
                proc.kill()  # a no-op once it has exited
                _IMPORTERS.remove(proc)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        out.append(float(stdout.strip().splitlines()[-1]))
    return out


def setup_seconds(build_times: Sequence[float]) -> float:
    """``setup_s``: median stack import plus median workload build."""
    return statistics.median(import_seconds()) + statistics.median(
        build_times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child.

    Call before :func:`import_seconds` so the import interpreters are
    not the children counted.  Forked workers count the parent pages
    they share.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def stop_resource_tracker() -> None:
    """Stop the multiprocessing resource tracker and wait for it to exit.

    ``multiprocessing.shared_memory`` (the service's process transport)
    starts a tracker process that would otherwise outlive this
    interpreter until it notices the closed pipe.  A no-op when no
    tracker was started.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def install_sigterm_handler() -> None:
    """On SIGTERM, stop every child process, wait for it, then exit.

    Unwinding through a running event loop and a busy process pool is
    not reliable, so the handler ends the children itself: pool workers
    (``multiprocessing`` children), import-timing interpreters and the
    resource tracker.  Forked workers inherit the handler; in them it
    only exits.
    """
    main_pid = os.getpid()

    def on_sigterm(signum: int, frame: object) -> None:
        if os.getpid() == main_pid:
            for child in multiprocessing.active_children():
                child.terminate()
            for proc in list(_IMPORTERS):
                proc.terminate()
            for child in multiprocessing.active_children():
                child.join()
            for proc in list(_IMPORTERS):
                proc.wait()
            stop_resource_tracker()
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_sigterm)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of raw samples (never bucketed)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def warm_up(one_round: Callable[[], Dict]) -> None:
    """One untimed round in a fresh scope, its result discarded.

    It pays what only a process's first round pays (lazy imports, the
    first pool fork, first-touch page faults) outside the timed rounds.
    """
    with fresh_scope():
        one_round()


def run_rounds(one_round: Callable[[], Dict], seconds: float) -> List[Dict]:
    """Repeat ``one_round`` (each in a fresh scope) until ``seconds`` pass.

    Every round records its own ``wall_s``; at least one round runs.
    """
    rounds: List[Dict] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        with fresh_scope() as tele:
            t0 = time.perf_counter()
            result = one_round()
            result["wall_s"] = time.perf_counter() - t0
            result["telemetry"] = tele.snapshot()
        rounds.append(result)
    return rounds

"""Measurement kit shared by every workload.

Everything here is benchmark-side: nothing under ``src/`` is edited or
monkey-patched, and the program is only ever reached through its
public functions, its command line and its HTTP surface.

**Speed-normalised time.**  The box this benchmark was written on is a
shared 2-vCPU sandbox whose per-core speed drifts by a factor of 1.6
over tens of seconds (the same pure-Python loop takes 75 ms, then
120 ms, with CPU time equal to wall time — the core itself is slower,
nothing is preempted).  Raw wall times therefore do not repeat within
20 %, let alone within a 10 % regression bound.  The
:class:`Speedometer` runs a small fixed pure-Python kernel between
operations and every reported time is the wall time multiplied by
``NOMINAL_S / kernel time`` measured right next to it: a time *at the
reference speed at which the kernel takes NOMINAL_S*.  The kernel and
the constant live here, outside the program, so a later change to
``src/`` cannot move them.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perf" / "out"

#: seconds one kernel pass takes at the reference speed — this box on
#: a calm day with the heaters running; reported times are wall times
#: scaled to that speed
NOMINAL_S = 0.0015

_CLK_TCK = os.sysconf("SC_CLK_TCK")
clock = time.perf_counter
thread_cpu = time.thread_time


def require_program() -> None:
    """Put ``src/`` on the path, or stop: the benchmark measures the
    checkout it sits in and never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: no program to measure: {SRC}/repro is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- speed normalisation -----------------------------------------------------

def _kernel() -> int:
    """Fixed interpreter-bound work of the two kinds the program's
    operators are made of: allocation with list/dict traffic and a
    sort, then a strided walk over a list too large for the cache.
    Either half alone tracks the machine's drift worse than both (see
    perf/README.md)."""
    pairs = []
    table = {}
    for i in range(4000):
        pair = (i, i ^ 21)
        pairs.append(pair)
        table[i & 63] = pair
    pairs.sort(key=_second)
    total = 0
    for _, second, _ in _ROWS[::5]:
        total += second
    return total + len(pairs) + len(table)


def _second(pair: tuple) -> int:
    return pair[1]


_ROWS = [(i, i ^ 77, i % 9) for i in range(100_000)]


class Speedometer:
    """Samples the machine's current speed; scales times to NOMINAL_S."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> None:
        """Kernel passes until the fastest stops improving; it is the
        sample.  Three passes do in a busy loop (a timer tick lands on
        one pass, contention slows them all); after an idle wait the
        core needs up to ten to come back to speed, and a generator
        waiting on its server is mostly idle."""
        start = clock()
        best = math.inf
        stale = 0
        for _ in range(12):
            began = clock()
            _kernel()
            took = clock() - began
            if took < best * 0.99:
                stale = 0
            else:
                stale += 1
            best = min(best, took)
            if stale == 2:
                break
        self._starts.append(start)
        self._ends.append(clock())
        self._seconds.append(best)

    def sample_if_older(self, seconds: float) -> None:
        if not self._ends or clock() - self._ends[-1] > seconds:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Scale for an interval: NOMINAL_S over the mean kernel time
        of the nearest sample before *start* and after *end*."""
        before = max(bisect.bisect_right(self._ends, start) - 1, 0)
        after = min(bisect.bisect_left(self._starts, end),
                    len(self._starts) - 1)
        near = self._seconds[before:after + 1] or [self._seconds[before]]
        return NOMINAL_S / statistics.fmean(near)

    def ms(self, start: float, end: float) -> float:
        """The interval's length in milliseconds at reference speed."""
        return (end - start) * self.factor(start, end) * 1e3

    def busy(self, start: float, end: float) -> tuple[float, float]:
        """(wall, normalised) seconds of [start, end] spent outside
        the kernel — the gaps between consecutive samples."""
        wall = normalised = 0.0
        first = bisect.bisect_left(self._starts, start)
        for i in range(first, len(self._starts) - 1):
            gap_start, gap_end = self._ends[i], self._starts[i + 1]
            if gap_end > end:
                break
            gap = gap_end - gap_start
            wall += gap
            normalised += gap * NOMINAL_S / (
                (self._seconds[i] + self._seconds[i + 1]) / 2)
        return wall, normalised


# -- operations --------------------------------------------------------------

class Recorder:
    """Every attempted operation of one measured run.

    An operation has a *kind* (what was asked: a query name, an
    algorithm, ``commit``); ``latency_p50_ms`` is the geometric mean
    over kinds of each kind's median, so a workload mixing 3 ms and
    150 ms queries reports a figure every kind moves and none
    dominates, and the median of each kind is taken over repeats of
    identical work.  A failed operation has no latency.
    """

    def __init__(self, speed: Speedometer) -> None:
        self.speed = speed
        self.attempted = 0
        self.failures: list[str] = []
        # (kind, start, end, CPU the calling thread spent inside)
        self._ops: list[tuple[str, float, float, float]] = []
        #: kept by :meth:`set_window`: seconds the measured operations
        #: took and the calling thread's CPU inside them (both at the
        #: reference speed, over all windows), and the latest window's
        #: reference-speed / wall scale
        self.elapsed = 0.0
        self.cpu_seconds = 0.0
        self.scale = 1.0

    def op(self, kind: str, start: float, end: float,
           ok: bool = True, why: str = "", cpu: float = 0.0) -> None:
        """*cpu* is what an in-process workload's thread burned inside
        the operation, so the benchmark's own work between operations
        (oracle counts, drawing inputs) is never billed to the program."""
        self.attempted += 1
        if ok:
            self._ops.append((kind, start, end, cpu))
        else:
            self.failures.append(f"{kind}: {why}")

    def set_window(self, start: float, end: float,
                   loop: str = "serial") -> None:
        """Close one measured window [start, end]; a run measures one
        window per set-up and pools their operations.

        ``serial``: one operation at a time on this thread.  Elapsed
        is the time inside operations, each counted at its kind's
        median: the time the run takes when every operation costs what
        it typically costs, which a stall of the sandbox (they come in
        bursts, and a mean never forgets one) cannot move.
        ``closed``: operations overlap on several connections — elapsed
        is the window outside the speed kernel.  Both run as fast as
        the machine lets them, so they are scaled to the reference
        speed like every other time.  ``open``: the arrival schedule
        sets the duration; elapsed is plain wall time.
        """
        if loop == "open":
            self.elapsed += end - start
            self.scale = self.speed.factor(start, end)
        elif loop == "closed":
            wall, elapsed = self.speed.busy(start, end)
            self.elapsed += elapsed
            self.scale = elapsed / wall
        else:
            factors = [self.speed.factor(s, e) for _, s, e, _ in self._ops]
            self.elapsed = _typical_total(
                (kind, (e - s) * f)
                for (kind, s, e, _), f in zip(self._ops, factors))
            self.cpu_seconds = _typical_total(
                (kind, cpu * f)
                for (kind, _, _, cpu), f in zip(self._ops, factors))
            self.scale = statistics.fmean(factors)

    def absorb(self, other: "Recorder") -> None:
        """Count *other*'s attempts and failures here (the traced
        passes of a traced run, the reads after a recovery); its
        latencies stay its own."""
        self.attempted += other.attempted
        self.failures += other.failures

    @property
    def completed(self) -> int:
        return len(self._ops)

    def latencies_ms(self, wall: bool = False) -> dict[str, list[float]]:
        """Per kind, each operation's time at the reference speed (or,
        with *wall*, as the clock read it)."""
        by_kind: dict[str, list[float]] = {}
        for kind, start, end, _ in self._ops:
            by_kind.setdefault(kind, []).append(
                (end - start) * 1e3 if wall
                else self.speed.ms(start, end))
        return by_kind

    def latency_p50_ms(self, prefix: str = "",
                       wall: bool = False) -> float:
        medians = [statistics.median(values)
                   for kind, values in self.latencies_ms(wall).items()
                   if kind.startswith(prefix)]
        return geomean(medians)

    def percentile_ms(self, fraction: float) -> float:
        values = sorted(v for vs in self.latencies_ms().values()
                        for v in vs)
        return percentile(values, fraction)


def _typical_total(samples) -> float:
    """Sum over (kind, value) samples with every value replaced by its
    kind's median."""
    by_kind: dict[str, list[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    return sum(len(values) * statistics.median(values)
               for values in by_kind.values())


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def geomean(values: list[float]) -> float:
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def percentile(ordered: list[float], fraction: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1,
                       round(fraction * (len(ordered) - 1)))]


# -- process accounting (CPU and memory of the program's processes) ----------

def _children(helpers: set[int]) -> list[int]:
    """Live child processes, the benchmark's own *helpers* excepted."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = _stat_fields(int(entry))
            except OSError:
                continue  # exited between listdir and open
            if fields[1] == me and int(entry) not in helpers:
                pids.append(int(entry))
    return pids


def _stat_fields(pid: int) -> list[str]:
    """``/proc/<pid>/stat`` after the parenthesised command name."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rpartition(")")[2].split()


def children_cpu_seconds(helpers: set[int]) -> float:
    """CPU burned so far by this process's live children (the server,
    the shard workers)."""
    total = 0.0
    for pid in _children(helpers):
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def stop_stragglers() -> None:
    """Stops, and waits for, every child process still there after a
    workload's own tear-down.

    The first spawned shard worker starts ``multiprocessing``'s
    resource tracker, which only exits once this process has — and is
    then nobody's child to wait for, so it stays behind as a zombie.
    Closing its pipe here ends it while it can still be reaped; any
    other child (a worker that survived its pool's ``terminate``) is
    killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    try:
        tracker._stop()
    except (AttributeError, OSError):
        pass  # swept up below
    for pid in _children(set()):
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            continue  # already gone, or reaped by its Popen


def program_peak_rss_mb(in_process: bool, helpers: set[int]) -> float:
    """Peak resident memory of the processes the program runs in: the
    children, and this process when it hosts the program."""
    pids = _children(helpers) + ([os.getpid()] if in_process else [])
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# -- run environment ---------------------------------------------------------

def environment(seed: int, seconds: float) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg()[0],
        "seed": seed,
        "seconds": seconds,
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    empty in an exported tree."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return ""

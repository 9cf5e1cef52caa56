"""Keeps one CPU from going idle while a workload is measured.

A vCPU of the sandbox that has sat idle for a few milliseconds runs
its next 10-15 ms of work up to 30 % slower (measured: the same kernel
pass takes 1.70 ms right after a 20 ms sleep and 1.32 ms in a busy
loop), and erratically so — a server answering 40 requests a second is
idle most of the time, and its CPU per request swung between 7 and
12 ms from run to run until its core was kept warm (then 6.4-6.9 ms).
One heater per CPU spins at ``SCHED_IDLE`` priority: it runs only when
nothing else wants the CPU and is preempted the moment anything does.

``python3 perf/heater.py CPU PARENT_PID``; exits when the parent does,
so a killed benchmark leaves no spinner behind.
"""

from __future__ import annotations

import os
import sys


def main() -> None:
    cpu, parent = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)  # the next best thing where the policy is refused
    total = 0
    while os.getppid() == parent:
        for i in range(50_000):
            total += i


if __name__ == "__main__":
    main()

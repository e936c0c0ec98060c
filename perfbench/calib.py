"""Host-speed calibration: fixed reference work timed next to every task.

The reference host's speed drifts by 30-90 % in phases that last from
seconds to minutes.  A run is over before such a phase is, so instead
of hoping to average it out, the benchmark times reference work right
after every task and divides the task's time by the host factor: the
reference work's time over its time here in a quiet phase.  Normalised
times thus read as seconds on the reference host at its usual speed.
The reference work runs no cycwitt code, so a change to the program
moves the task times and not the factors.

There are two kinds of reference work, because the two kinds of task
drift apart: in a trial of 60 one-shot CLI calls, the calls spread
21 % (interquartile range over median); divided by the time of a bare
interpreter launch right after each, 7 %; divided by in-process chunks,
37 %.

* In-process tasks are followed by calibration chunks, pure-Python
  integer and table work, for SHARE of the task's time and at least one
  chunk.  A chunk allocates no object the garbage collector tracks, so
  it never collects the program's objects and its time does not depend
  on what the tasks left on the heap.
* A task that launches a process (a CLI call, or a worker's set-up) is
  paired with one bare `python -c pass` launch.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_CHUNK_S = 0.0007  # a chunk's time on the reference host in a quiet phase
REF_LAUNCH_S = 0.065  # a bare interpreter launch there
SHARE = 0.1  # calibration time after an in-process task, as a share of the task's time

_TABLE = [0] * 4096


def chunk() -> int:
    """One unit of calibration work: int arithmetic and table traffic."""
    t = _TABLE
    x = 12345
    acc = 1
    for _ in range(1200):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFFFFFF
        k = x & 4095
        t[k] ^= x >> 7
        acc = (acc * 3 + t[(k * 7) & 4095]) % 1000000007
    return acc


def chunk_factor(task_s: float) -> float:
    """Run whole chunks for SHARE of task_s, at least one; their mean time over the reference."""
    clock = time.perf_counter
    t0 = clock()
    n = 0
    while True:
        chunk()
        n += 1
        elapsed = clock() - t0
        if elapsed >= SHARE * task_s:
            return elapsed / n / REF_CHUNK_S


def launch_factor(env=None, cwd=None) -> float:
    """Time one bare interpreter launch; its time over the reference."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - t0) / REF_LAUNCH_S

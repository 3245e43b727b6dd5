"""A fixed reference kernel that gauges how fast the host runs right now.

The benchmark host is shared: its speed switches between phases up to
1.5-2x apart that last from a few seconds to half a minute, so the same
operation's wall time moves by as much from one run to the next.  Every
measured call therefore runs beside this kernel (before and after it, off
the clock; the median of the nearest few runs damps a single cold-cache
kernel), and its wall time is scaled by ``REFERENCE_S / kernel time``:
the time the call would take on a host that runs the kernel in
``REFERENCE_S``.  The kernel mixes the two kinds of work the program does,
a numpy argsort and interpreter-bound loops, so a contended phase slows
it about as much as it slows the program.

The kernel runs in a process of its own (``Pace`` starts it; this file
is its program).  It shares no heap, no garbage collector and no
interpreter state with the benchmark process, so a heap or garbage the
program leaves behind slows the next operation without slowing the
kernel, and the normalized figure shows it.  What the kernel cannot tell
from host noise is a busy thread or process the program leaves running;
the workloads check after every operation that none is left
(``workloads.lingering``).

The kernel is benchmark code; no change to the program changes it.
"""

from __future__ import annotations

import subprocess
import sys
import time

__all__ = ["REFERENCE_S", "Pace", "normalized"]

#: Kernel time on an uncontended core of the reference host (2-core Intel
#: Xeon VM, Python 3.11, numpy 2.4), so normalized figures read as that
#: host's uncontended wall times.
REFERENCE_S = 0.010


def kernel(keys) -> float:
    """One run of the reference kernel on ``keys``; its wall time."""
    import numpy as np

    start = time.perf_counter()
    np.argsort(keys, axis=1)
    total = 0
    for j in range(60_000):
        total += j * j
    table = {}
    for j in range(30_000):
        table[j % 97] = j
    return time.perf_counter() - start


class Pace:
    """Call to time one run of the reference kernel (seconds).

    The kernel runs in a child process, one run per call; ``close`` (or
    leaving the ``with`` block) ends it and waits for it.
    """

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference kernel process ended")
        return float(line)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Pace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def normalized(wall: float, kernel_s: float) -> float:
    """``wall`` rescaled to the reference host's speed."""
    return wall * REFERENCE_S / kernel_s


def _serve() -> None:
    """The kernel process: one kernel run per line read on stdin."""
    import numpy as np

    keys = np.random.default_rng(12345).random((256, 1024))
    for _ in sys.stdin:
        print(kernel(keys), flush=True)


if __name__ == "__main__":
    _serve()

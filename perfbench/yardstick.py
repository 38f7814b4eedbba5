"""A fixed piece of pure-Python work that never touches the program.

The benchmark times it next to every operation and reports each
operation's time in units of it, scaled to seconds at the reference
speed: ``time * REFERENCE_S / yardstick time``.  On the reference
machine, a shared VM, the speed of a core switches between states up to
1.5 times apart, in spells from under a second to several minutes.  An
operation and the yardstick timed next to it run in the same spell, so
their ratio stays put when the machine's speed moves, and it moves when
the program's speed does, because the yardstick's work is fixed.

Run as a script:

    python3 perfbench/yardstick.py          # one probe in a fresh interpreter
    python3 perfbench/yardstick.py --serve  # one probe per line read on stdin

The first is the yardstick of set-up, which is mostly interpreter start
and import.  The second is the helper behind ``Helper``.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# The scales of every adjusted time: the probe's time, and the wall time
# of this file run as a script, on the reference machine.  Fixed, so
# that results stay comparable.
REFERENCE_S = 0.014
REFERENCE_START_S = 0.15
PROBE_RUNS = 3


def _work() -> int:
    # a dict of 20 000 tuple keys, then a sort and a set: allocation and a
    # working set of a few MB, like sumset-lab's sweeps.  A loop that stays
    # in the L1 cache missed slow spells that slowed the sweeps by a quarter.
    table = {}
    for i in range(20000):
        table[(i, i * 7 & 1023, i >> 3)] = len(table)
    ranks = sorted(table.values(), reverse=True)
    return len(set(ranks[::3]))


def probe() -> float:
    """Seconds of the median of PROBE_RUNS runs of the fixed work.

    The median, because single runs are thrown far out by interrupts and
    the fastest run follows a short fast moment, not the spell.
    """
    times = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Helper:
    """Probes run in a helper process, on request.

    The probe's few MB would otherwise raise the client's peak resident
    set, and a child inherits its parent's peak at exec, so the peak RSS
    measured for every program process, and for the in-process queries,
    would be the yardstick's.  The helper inherits the client's CPU
    affinity, so it measures the CPU the operations run on.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__, "--serve"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"yardstick helper exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Helper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        for _request in sys.stdin:
            print(repr(probe()), flush=True)
    else:
        probe()

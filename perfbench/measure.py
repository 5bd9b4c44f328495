"""Timed loop and summary statistics shared by the untraced and traced runs."""

import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Loop:
    """Operations run in one timed loop."""
    durations: list = field(default_factory=list)   # seconds, passed ops only
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0                                # loop start to last end

    @property
    def completed(self):
        return self.attempted - self.failed

    def ops_per_s(self):
        return self.completed / self.wall if self.wall > 0 else 0.0

    def op_p50_s(self):
        return statistics.median(self.durations) if self.durations else float("nan")


def run_op(op, inp, loop, clock=time.perf_counter):
    """Run one operation, time it, and record it in `loop` as passed or failed.

    An operation fails when it raises or returns a non-empty list of missed
    oracles; the first message of each failure goes to stderr."""
    t0 = clock()
    try:
        misses = op(inp)
    except Exception as err:  # a crashed operation counts as failed
        misses = ["raised %r" % (err,)]
    dt = clock() - t0
    loop.attempted += 1
    if misses:
        loop.failed += 1
        print("operation %d failed: %s" % (loop.attempted, misses[0]),
              file=sys.stderr)
    else:
        loop.durations.append(dt)


def timed_loop(step, seconds, clock=time.perf_counter):
    """Call step(0), step(1), ... and stop at the step end nearest `seconds`.

    Steps run whole.  After each one the loop starts another only if, at the
    median step time so far, that step would end nearer to `seconds` than
    the loop is now; so a run measures about `seconds` whatever the step
    time, and at least one step runs.  Returns the wall time from the start
    to the end of the last step."""
    start = clock()
    times = []
    while True:
        t0 = clock()
        step(len(times))
        times.append(clock() - t0)
        elapsed = clock() - start
        if elapsed + 0.5 * statistics.median(times) >= seconds:
            return elapsed

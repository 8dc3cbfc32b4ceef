"""Machine speed, read from a fixed pure-Python loop, for scaling timings.

On a shared virtual machine the CPU speed can drift by up to 1.6x for
seconds to minutes at a time.  The benchmark times reference_loop next to
every span it measures and reports the span at the reference speed: its time
multiplied by REF_NOMINAL_S over the loop's measured time.  A change to the
program moves a scaled time as it moves the raw one; a change in machine
speed moves the loop too and cancels.

A loop timed in a process that has just waited idle reads the CPU waking up,
not its speed, so spans that run in a child process (set-up probes, CLI
calls) are scaled by a loop the child times itself, once its work is done,
and reports on its standard output or error after REF_PREFIX.
"""

import json
import time

perf = time.perf_counter

# The reference loop's time, warm, on an uncontended core of a 2-vCPU Intel
# Xeon (2.0 GHz) virtual machine under CPython 3.11 (about the 15th
# percentile of 400 runs).
REF_NOMINAL_S = 0.0015
REF_PREFIX = "bench-ref "


def reference_loop():
    """A fixed piece of pure-Python work: integer arithmetic and dict updates.

    It calls nothing in schurtrails and allocates no object the garbage
    collector tracks, so neither a change to the program nor the size of its
    heap can move its time; a change in machine speed moves it as it moves
    the program.
    """
    table = {}
    for i in range(9000):
        key = (i * 7919) % 1259
        table[key] = table.get(key, 0) + (i ^ key)
    return sum(table.values())


def timed_reference():
    """Seconds of one reference loop, timed after an untimed one warms it up.

    The warm-up keeps the time of the CPU caches refilling after a check or
    a subprocess out of the measured speed.
    """
    reference_loop()
    started = perf()
    reference_loop()
    return perf() - started


def at_reference_speed(seconds, ref_before, ref_after):
    """A span's time scaled by the reference loop's nominal over measured time."""
    return seconds * REF_NOMINAL_S * 2.0 / (ref_before + ref_after)


def child_report(**extra):
    """The line a child process ends with: its loop time, the loops' total cost, extra fields.

    The loop time is the median of three, so that one loop the scheduler
    interrupts cannot skew the child's whole span.
    """
    started = perf()
    ref_s = sorted(timed_reference() for _ in range(3))[1]
    payload = dict(extra, ref_s=ref_s, ref_cost_s=perf() - started)
    return REF_PREFIX + json.dumps(payload)


def parse_child_report(text):
    """(payload or None, text without the report line)."""
    payload, rest = None, []
    for line in text.splitlines():
        if line.startswith(REF_PREFIX):
            payload = json.loads(line[len(REF_PREFIX):])
        else:
            rest.append(line)
    return payload, "\n".join(rest)

"""Measurement helpers of the repository benchmark: percentiles, spans and
provenance.

Nothing here imports ``repro``; the workloads (``workloads.py``) and the
command (``run.py``) build on these helpers, and ``test_perfbench.py``
pins their arithmetic.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import random
import signal
import subprocess
import sys
import time

#: a tail percentile is reported only when at least this many samples lie
#: beyond it, so one slow outlier cannot be the whole tail
MIN_BEYOND = 10

#: the ladder of percentiles the tail helper chooses from
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def quantile(samples, q):
    """Linear-interpolation quantile (``q`` in [0, 1]) of ``samples``."""
    if not samples:
        raise ValueError("quantile of no samples")
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(samples):
    return quantile(samples, 0.5)


def tail_percentile(samples, min_beyond=MIN_BEYOND):
    """The highest percentile of :data:`PERCENTILES` with at least
    ``min_beyond`` samples strictly above its rank, as ``(percentile,
    value)``; ``(None, None)`` when not even the median qualifies."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        # in tenths of a percent, so that 99.9 is exact
        if n * (1000 - round(p * 10)) >= min_beyond * 1000:
            best = p
    if best is None:
        return None, None
    return best, quantile(samples, best / 100)


#: seconds the calibration kernel takes on the reference host (about its
#: time on a 2-vCPU Xeon VM in a quiet phase); calibrated times read as if
#: the host always ran at that speed
CAL_REF_S = 0.011


class _Cell:
    __slots__ = ("value", "table", "next")

    def step(self, x):
        return self.value + x


class HostSpeed:
    """Host-speed calibration interleaved with the measured work.

    On a cloud VM whose physical cores are shared with other tenants (a
    2-vCPU Xeon, measured), the speed one process sees shifts by up to
    ~1.9x in phases of several seconds, for every step of a run alike.
    Repetition inside a run of tens of seconds cannot average that out,
    so every timed operation is scaled by the
    speed of a fixed kernel measured around and during it: a pointer chase
    over 20k objects with a method call and a dict store per step.  Over
    the simulator, the scalar and the lane-batched explorer it cut the
    phase-to-phase swing of 2.5 s medians from 1.5-1.9x to 1.1-1.2x.  The
    kernel touches no program code, so a change to the program cannot
    move it.

    ``measure()`` calibrates now.  ``start_timer()`` also calibrates from
    a SIGALRM handler every ``interval`` seconds, inside long operations;
    only use it while this process alone does the measured work (a
    process waiting on a server on the same CPU must calibrate between
    requests instead).  Kernel time is taken out of the operations it
    interrupted.
    """

    #: seconds around an operation whose calibrations count for it
    window = 1.0

    def __init__(self, interval=0.5, steps=60000):
        self.interval = interval
        self.steps = steps
        self.clock = time.perf_counter
        rng = random.Random(1)
        tables = [{} for _ in range(64)]
        cells = [_Cell() for _ in range(20000)]
        for i, cell in enumerate(cells):
            cell.value = rng.random()
            cell.table = tables[i % 64]
        for cell in cells:
            cell.next = cells[rng.randrange(len(cells))]
        self._head = cells[0]
        self.starts = []          # clock at each calibration's start
        self.ends = []            # ... and end
        self.seconds = []         # kernel seconds of each

    def measure(self, *_signal):
        cell = self._head
        total = 0.0
        start = self.clock()
        for i in range(self.steps):
            total = cell.step(total)
            cell.table[i & 7] = total
            cell = cell.next
        end = self.clock()
        self.starts.append(start)
        self.ends.append(end)
        self.seconds.append(end - start)
        return end - start

    def maybe_measure(self):
        """Calibrate if the last calibration is ``interval`` old."""
        if not self.ends or self.clock() - self.ends[-1] >= self.interval:
            self.measure()

    def start_timer(self):
        signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop_timer(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start, end):
        """Seconds between ``start`` and ``end`` not spent calibrating."""
        inside = 0.0
        first = bisect.bisect_left(self.ends, start)
        for i in range(first, len(self.starts)):
            if self.starts[i] >= end:
                break
            inside += min(end, self.ends[i]) - max(start, self.starts[i])
        return (end - start) - inside

    def factor(self, start, end):
        """Calibrated seconds per measured second for work between
        ``start`` and ``end``: from the calibrations within ``window``
        seconds of it, or else the nearest ones before and after it.  A
        phase of host speed lasts several seconds, so the window smooths
        the kernel's own noise without blurring the phases."""
        if not self.seconds:
            raise ValueError("no calibration yet")
        lo = bisect.bisect_left(self.starts, start - self.window)
        hi = bisect.bisect_right(self.starts, end + self.window)
        near = self.seconds[lo:hi]
        if not near:
            first = max(bisect.bisect_right(self.starts, start) - 1, 0)
            last = min(bisect.bisect_left(self.starts, end),
                       len(self.seconds) - 1)
            near = self.seconds[first:last + 1]
        return CAL_REF_S * sum(1 / s for s in near) / len(near)

    def calibrated(self, start, end):
        return self.busy(start, end) * self.factor(start, end)


class Tracer:
    """In-memory spans: name, start, end and parent, kept until the run
    ends.  ``span(name)`` is a context manager; spans opened inside it
    become its children."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [id, name, start, end, parent]
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def self_times(self):
        return self_times(self.spans)


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        parent = tracer._stack[-1][0] if tracer._stack else None
        self.record = [len(tracer.spans), self.name, tracer.clock(), None,
                       parent]
        tracer.spans.append(self.record)
        tracer._stack.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[3] = self.tracer.clock()
        self.tracer._stack.pop()
        return False

    @property
    def seconds(self):
        return self.record[3] - self.record[2]


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """``{name: seconds}``: each span's duration minus the part of it its
    children cover, summed per name.  ``spans`` are ``[id, name, start,
    end, parent]`` records."""
    children = {}
    for span_id, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for span_id, name, start, end, _parent in spans:
        inner = [(max(s, start), min(e, end))
                 for s, e in children.get(span_id, ()) if e > start and s < end]
        own = (end - start) - _covered(inner)
        totals[name] = totals.get(name, 0.0) + own
    return totals


def source_digest(root):
    """SHA-256 over the program and benchmark sources, so a result from a
    checkout without git history still names the code it measured."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__"
                                 and d != "out")
            for name in sorted(filenames):
                if name.endswith(".py") or name.endswith(".json"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git(root, *args):
    # Only ask git when the checkout is itself a repository: discovery
    # must not climb into directories outside the checkout.
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True,
                             text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root, workload, seed):
    """Where a result came from: commit, dirty flag, source digest,
    interpreter, CPU count, platform and the workload seed."""
    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit or "unknown",
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(root),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

"""Host-speed calibration: timings reported at one nominal speed.

On a shared host the interpreter's speed drifts by tens of percent
within seconds (other tenants load the same cores, caches and memory),
so raw wall-clock figures of the same code on the same seed disagree by
more than any useful regression bound.  A fixed probe kernel -- pure
Python, the same mix of dict, tuple, object, list and ``struct`` work
the engine does, and independent of the engine's code -- is timed
between measured intervals.  Each interval is scaled by
``PROBE_NOMINAL_S / probe``, with ``probe`` the median of the probes
around it (:class:`Stopwatch`): the interval's duration at the speed at
which the probe takes ``PROBE_NOMINAL_S``.

An engine change moves its own intervals and not the probe, so it shows
undiluted; host drift moves both and cancels.  Raw figures are kept
beside the calibrated ones in the run's detail line.

Work done in child processes -- the sharded runtime's workers -- is not
calibrated: the two workers' speed depends on how they contend with
each other for the host, which a probe in the parent does not see, and
scaling by it was measured to widen the spread of rounds, not narrow it.
"""

from __future__ import annotations

import statistics
import struct
from collections import deque
from time import perf_counter

#: the probe's duration at the nominal speed (roughly its median on an
#: unloaded 2-core x86-64 VM with CPython 3.11)
PROBE_NOMINAL_S = 30e-6

_BLOB = bytes(range(256)) * 2
_UNPACK = struct.Struct("!HHI").unpack_from


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y

    def total(self) -> int:
        return self.x + self.y


def _kernel() -> int:
    groups: dict = {}
    out = []
    for i in range(24):
        key = (i & 7, i >> 2)
        groups[key] = groups.get(key, 0) + i
        point = _Point(i, key[0])
        out.append((point.total(), _UNPACK(_BLOB, i)))
    return len(out) + len(groups)


def probe() -> float:
    """The fastest of three kernel runs, in seconds.

    The fastest, because an interrupt can only lengthen a run.
    """
    best = float("inf")
    for _ in range(3):
        began = perf_counter()
        _kernel()
        elapsed = perf_counter() - began
        if elapsed < best:
            best = elapsed
    return best


class Stopwatch:
    """Raw and calibrated totals of a sequence of measured intervals.

    The speed estimate for an interval is the median of the last
    ``WINDOW`` probes, the one taken just after it included: in a chunked
    capture loop that spans some 40 ms, short against the drift it
    tracks and long enough that one probe's jitter does not move it.
    """

    WINDOW = 9

    def __init__(self, calibrate: bool = True) -> None:
        self._recent = (deque((probe() for _ in range(self.WINDOW)),
                              maxlen=self.WINDOW) if calibrate else None)
        self.wall_raw = 0.0
        self.wall = 0.0
        self.cpu = 0.0

    def add(self, wall: float, cpu: float = 0.0) -> float:
        """Fold in an interval that just ended; returns its speed factor."""
        factor = 1.0
        if self._recent is not None:
            self._recent.append(probe())
            factor = PROBE_NOMINAL_S / statistics.median(self._recent)
        self.wall_raw += wall
        self.wall += wall * factor
        self.cpu += cpu * factor
        return factor

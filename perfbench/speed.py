"""Host-speed normalisation of wall times.

On a shared 2-core host the speed of pure-Python code drifts by up to
2x over tens of seconds, far more than the changes the benchmark must
resolve, and CPU time drifts with it.  SpeedClock runs a fixed
pure-Python loop (``_probe_loop``, which never touches richelot) every
PROBE_PERIOD_S from a SIGALRM handler, in the measured process itself.
A timed interval is then reported at reference speed:

    scaled = (wall time - probe time inside it) * REF_PROBE_S / probe

where ``probe`` is the mean probe duration within one period of the
interval.  A change to richelot leaves the probe alone, so it moves the
scaled time as much as the wall time; host drift moves both the work
and the probe, and cancels.  The unscaled work time is kept as "raw".
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_ITERATIONS = 10000
PROBE_PERIOD_S = 0.1
# The probe's duration at the reference speed: about its median on a
# busy 2-core host with Python 3.11 (4.9-7.9 ms across runs).
REF_PROBE_S = 0.006


class _ProbeElement:
    """Stand-in for a GF(p^2) element: slots, small-int products, mod."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, o):
        return _ProbeElement((self.a * o.a + 3 * self.b * o.b) % 1000003,
                             (self.a * o.b + self.b * o.a) % 1000003)


def _probe_loop() -> float:
    x, y = _ProbeElement(5, 7), _ProbeElement(11, 13)
    t = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        x = x * y
    return time.perf_counter() - t


class SpeedClock:
    """Periodic speed probes in this process (SIGALRM, main thread)."""

    def __init__(self):
        self.probes = []   # (perf_counter at probe start, duration)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _on_alarm(self, _signum, _frame):
        start = time.perf_counter()
        self.probes.append((start, _probe_loop()))

    def stop(self):
        """Disarm the timer and take a closing probe, so the last
        interval has a probe after its end."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._on_alarm(None, None)

    def scaled(self, start: float, end: float):
        """(scaled, raw) seconds of work in [start, end] (perf_counter)."""
        inside = sum(d for t, d in self.probes if start <= t < end)
        near = [d for t, d in self.probes
                if start - PROBE_PERIOD_S <= t < end + PROBE_PERIOD_S]
        if not near:   # the handler was held off by a long native call
            near = [min(self.probes, key=lambda p: abs(p[0] - start))[1]]
        raw = end - start - inside
        return raw * REF_PROBE_S / statistics.mean(near), raw

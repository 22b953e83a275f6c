"""Timing at the reference host's speed.

On a shared host the same code ran up to twice as slow for seconds to
minutes at a time, interpreter and numpy work alike, in CPU time as much
as in wall time. A :class:`Clock` therefore reads the host's speed while
the benchmark runs, by timing a fixed piece of work
(:func:`reference_work`), and reports every span in seconds at the speed
of the host the bounds were set on: the span's own seconds times the
host's mean speed during it, where a reading of ``r`` seconds is a speed
of ``REFERENCE_S / r``.

With ``meter=True`` a ``SIGALRM`` every :data:`PERIOD` seconds takes a
reading in the main thread; the readings' own time is left out of every
span. That suits work done in the main thread. Where other threads carry
the work (the serving workload), a reading would compete with them, so
the caller takes readings with :meth:`Clock.sample` between spans
instead.

Round trips between threads over a socket, what the serving workload's
``status`` calls are made of, slowed by up to 1.7 times for seconds at a
time, more than the reference work did. A :class:`Handoff` meter reads
the host's speed for that kind of work.
"""

from __future__ import annotations

import signal
import socket
import statistics
import threading
import time

import numpy

__all__ = ["Clock", "Handoff", "reference_work", "HANDOFF_S", "REFERENCE_S", "WINDOW"]

#: Typical seconds of :func:`reference_work` between workload operations
#: on the 2-CPU host the bounds were set on.
REFERENCE_S = 0.004
#: Seconds between readings of the meter.
PERIOD = 0.2
#: Readings before a span that count for it: one reading alone varies by
#: a fifth, and a span shorter than ``PERIOD`` holds none.
WINDOW = 5

#: Typical seconds of one :class:`Handoff` round trip on the reference
#: host, with the process on one CPU.
HANDOFF_S = 5.5e-6
#: Round trips in one :class:`Handoff` reading; the reading is their
#: median.
HANDOFF_ROUNDS = 100

_MATRIX = numpy.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)


def reference_work() -> float:
    """A fixed mix of interpreter work and small-array numpy work."""
    total = 0
    for i in range(30_000):
        total += i * i % 7
    product = _MATRIX
    for _ in range(40):
        product = numpy.tanh(product @ _MATRIX)
        product.argsort(axis=0)
    return total + float(product.sum())


class Clock:
    """Spans in seconds at the reference host's speed.

    ``start()`` returns a mark; ``stop(mark)`` the seconds since it.
    Without readings the seconds are the host's own.
    """

    def __init__(self, meter: bool = False) -> None:
        self.meter = meter
        #: Seconds each reading took.
        self.readings: list[float] = []
        #: Seconds spent taking readings so far.
        self.metered = 0.0

    def sample(self, *_signal) -> None:
        """Take one reading (also the ``SIGALRM`` handler)."""
        started = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - started
        self.readings.append(elapsed)
        self.metered += elapsed

    def __enter__(self) -> "Clock":
        if self.meter:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.meter:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.metered, len(self.readings)

    def scale(self, mark) -> float:
        """The host's mean speed over the :data:`WINDOW` readings before
        ``mark`` and all after it, as a share of the reference host's.

        The mean, not the median: readings come evenly spaced in time, so
        their mean speed is the share of reference work the host did per
        second, also when it switched between a fast and a slow pace."""
        readings = self.readings[max(0, mark[2] - WINDOW):]
        if not readings:
            return 1.0
        return statistics.fmean(REFERENCE_S / r for r in readings)

    def stop(self, mark) -> float:
        """Seconds since ``mark`` at the reference speed, readings left out."""
        wall, metered, _ = mark
        elapsed = time.perf_counter() - wall - (self.metered - metered)
        return elapsed * self.scale(mark)

    def speed(self) -> float:
        """The host's mean speed over the clock's life, 1 = reference."""
        return self.scale((0, 0, 0))


class Handoff:
    """Reads the host's speed for hand-offs between threads.

    A reading is the median of :data:`HANDOFF_ROUNDS` one-byte round
    trips between the calling thread and an echo thread over a socket
    pair; a reading of ``r`` seconds is a speed of ``HANDOFF_S / r``.
    The echo thread lives as long as the ``with`` block.
    """

    def __enter__(self) -> "Handoff":
        self._near, self._far = socket.socketpair()
        self._echo = threading.Thread(target=self._serve, daemon=True)
        self._echo.start()
        self.speed()  # the first round trips wake the echo thread
        return self

    def __exit__(self, *exc_info) -> None:
        self._near.close()
        self._echo.join()
        self._far.close()

    def _serve(self) -> None:
        while data := self._far.recv(64):
            self._far.sendall(data)

    def speed(self) -> float:
        """One reading, as a share of the reference host's speed."""
        times = []
        for _ in range(HANDOFF_ROUNDS):
            started = time.perf_counter()
            self._near.sendall(b"x")
            self._near.recv(64)
            times.append(time.perf_counter() - started)
        return HANDOFF_S / statistics.median(times)

"""Host speed, sampled through a run, to scale times to a reference speed.

On a shared host the same code runs at visibly different speeds from one
second to the next (other tenants' load on the same cores): burst times
of one run swing between levels some 1.6x apart, for seconds at a time.
A run's raw times therefore depend on how much of it fell in the slow
periods.

:class:`Pace` times a fixed probe (:meth:`Pace.probe`) every
:data:`PERIOD_NS` of the run, outside every timed region.
:meth:`Pace.scale` multiplies a time measured at instant ``t`` by
``reference / probe(t)``, with ``probe(t)`` interpolated between the
probes either side of ``t``: the time as it would read on a host where
the probe takes the reference time.  The benchmark reports scaled times;
the raw ones are printed next to them.

The slow periods do not slow all code alike: interpreter-bound code and
numpy array code move by different factors.  The probe therefore does the
kind of work the workload's serving time is made of: interpreter work
(keyed lookups, attribute updates, int bit operations, short-lived
objects, a read through a list bigger than the nearest caches) and, for
a workload served mostly by numpy array code, also a few array
operations of the shape that code uses.
"""

from __future__ import annotations

import bisect
import gc
import time

#: How often the probe runs (at the next gap between timed regions); the
#: host's speed changes on a scale of seconds.
PERIOD_NS = 50_000_000
#: The probe time reported times are scaled to, per probe kind: about
#: what the probe takes on the 2-core host the bounds were set on.
REFERENCE_NS = {"interpreter": 400_000, "numpy": 620_000}

_clock = time.perf_counter_ns


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


class _Record:
    def __init__(self, i: int):
        self.meta = {"id": i, "flag": 1}
        self.headers = [i]


def _interpreter_work(scan: list[int]) -> None:
    table: dict[int, _Node] = {}
    out: list[int] = []
    mask = 0
    for i in range(300):
        node = table.get(i & 127)
        if node is None:
            node = table[i & 127] = _Node(i & 127, 0)
        node.value += i
        mask |= 1 << (node.key & 63)
        out.append(mask & -mask)
    records = []
    for i in range(200):
        record = _Record(i)
        record.meta["bits"] = record.headers[0] & 7
        records.append(record)
    sum(r.meta["bits"] for r in records)
    sum(out)
    sum(scan[::16])


def _array_work(np, matrix, order) -> None:
    """Reorder a bool matrix's columns, keep each row's first set bit,
    scatter back and pack: the batch engine's min/max step."""
    ranked = matrix[:, order]
    kept = ranked & (np.cumsum(ranked, axis=1) <= 1)
    out = np.zeros_like(matrix)
    out[:, order] = kept
    np.packbits(out, axis=1)


class Pace:
    """Probe times through a run, and the scaling they imply.

    Every tick times the interpreter work; with ``arrays`` it also times
    the array work.  :meth:`scale` takes the ``kind`` of work the
    measured time was made of: ``"interpreter"``, or ``"numpy"``
    (interpreter plus array work) for serving a numpy-heavy workload.
    """

    def __init__(self, arrays: bool = False) -> None:
        self._times: list[int] = []
        self._probes: dict[str, list[float]] = {"interpreter": []}
        self._last = 0
        self._scan = list(range(40_000))
        self._array = None
        if arrays:
            import numpy as np

            rng = np.random.default_rng(0)
            self._array = (np, rng.random((32, 512)) < 0.5,
                           rng.permutation(512))
            self._probes["numpy"] = []

    def _median_of_three(self, work, *args) -> int:
        took = []
        for _ in range(3):
            t0 = _clock()
            work(*args)
            took.append(_clock() - t0)
        return sorted(took)[1]

    def tick(self, force: bool = False) -> None:
        """Probe if :data:`PERIOD_NS` has passed (or ``force``); each
        part is the median of three, so one preempted probe does not
        count."""
        now = _clock()
        if force or now - self._last >= PERIOD_NS:
            # The collector stays off so that no collection of the
            # program's garbage lands in (and slows) the probe.
            gc.disable()
            try:
                interp = self._median_of_three(_interpreter_work, self._scan)
                self._probes["interpreter"].append(interp)
                if self._array is not None:
                    self._probes["numpy"].append(
                        interp + self._median_of_three(_array_work,
                                                       *self._array))
            finally:
                gc.enable()
            self._times.append(now)
            self._last = _clock()

    def factor(self, at: int, kind: str = "interpreter") -> float:
        """The reference time over the host's probe time at ``at``,
        interpolated between the probes either side of it."""
        times, probes = self._times, self._probes[kind]
        i = bisect.bisect_left(times, at)
        if i == 0:
            took = probes[0]
        elif i == len(times):
            took = probes[-1]
        else:
            share = (at - times[i - 1]) / (times[i] - times[i - 1])
            took = probes[i - 1] + share * (probes[i] - probes[i - 1])
        return REFERENCE_NS[kind] / took

    def scale(self, at: int, duration: float,
              kind: str = "interpreter") -> float:
        return duration * self.factor(at, kind)

"""The data path: 256-packet bursts through ``SwitchBackend.process_batch``.

One closed-loop generator, one thread: the next burst is sent when the
previous ``process_batch`` call returns.  Only that call is timed.
Between calls, outside the timed region, :class:`Checker` compares each
burst's outputs with :class:`~repro.core.policy.PolicyInterpreter` run on
a replay twin of each tenant's table, the next burst is made as new
packets from its generated inputs, and the host-speed probe
(:mod:`pace`) runs when due.
"""

from __future__ import annotations

import random
import time

from repro import obs
from repro.core.bitvector import BitVector
from repro.core.policy import PolicyInterpreter
from repro.core.smbm import SMBM
from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_SELECTED,
)
from repro.errors import ReproError
from repro.rmt.packet import META_TENANT

from pace import Pace
from scenario import METRICS, ROWS, TENANTS, DataInputs

#: Masked rows checked per burst (a seeded sample; every row elsewhere).
MASKED_SAMPLE = 16
#: Bursts served before timing starts.
WARMUP_BURSTS = 8

_clock = time.perf_counter_ns


class _Restricted:
    """A table view holding only the rows of ``mask``: the reference
    semantics of a row that carries a candidate mask."""

    def __init__(self, smbm: SMBM, mask: int):
        self._smbm = smbm
        self._mask = mask

    def id_vector(self) -> BitVector:
        return BitVector.from_int(self._smbm.capacity,
                                  self._smbm.id_mask() & self._mask)

    def __contains__(self, resource_id: int) -> bool:
        return resource_id in self._smbm

    def __getattr__(self, name: str):
        return getattr(self._smbm, name)


class Checker:
    """Replays each burst's table writes on a twin and checks outputs."""

    def __init__(self, inputs: DataInputs, seed: int):
        self._inputs = inputs
        self._twins: dict[str, SMBM] = {}
        self._interps: dict[str, PolicyInterpreter] = {}
        for name in TENANTS:
            # Built outside any metrics registry: the twin's own index
            # rebuilds must not count as the program's.
            with obs.use_registry(obs.NULL_REGISTRY):
                twin = SMBM(ROWS, METRICS)
            for rid, row in enumerate(inputs.tables[name]):
                twin.add(rid, row)
            self._twins[name] = twin
            self._interps[name] = PolicyInterpreter(inputs.pols[name])
        self._full: dict[str, tuple[int, int]] = {}
        self._rng = random.Random(f"check:{seed}")
        self.checked = 0
        self.mismatches = 0
        self.examples: list[str] = []

    def _expected(self, tenant: str, mask: int | None) -> int:
        twin = self._twins[tenant]
        if mask is not None:
            return self._interps[tenant].evaluate(
                _Restricted(twin, mask)).value
        cached = self._full.get(tenant)
        if cached is None or cached[0] != twin.version:
            cached = (twin.version,
                      self._interps[tenant].evaluate(twin).value)
            self._full[tenant] = cached
        return cached[1]

    def check(self, index: int, burst) -> None:
        writes = self._inputs.writes[index]
        write_at = {pos: (tenant, rid, row) for pos, tenant, rid, row in writes}
        sample = None
        if self._inputs.workload == "masked":
            sample = set(self._rng.sample(range(len(burst)), MASKED_SAMPLE))
        for pos, packet in enumerate(burst):
            write = write_at.get(pos)
            if write is not None:
                tenant, rid, row = write
                self._twins[tenant].update(rid, row)
                continue
            if sample is not None and pos not in sample:
                continue
            meta = packet.metadata
            want = self._expected(meta[META_TENANT],
                                  meta.get(META_FILTER_INPUT))
            got = meta.get(META_FILTER_OUTPUT)
            want_sel = ((want & -want).bit_length() - 1
                        if want.bit_count() == 1 else -1)
            self.checked += 1
            if got != want or meta.get(META_FILTER_SELECTED) != want_sel:
                self.mismatches += 1
                if len(self.examples) < 5:
                    shown = f"{got:#x}" if isinstance(got, int) else repr(got)
                    self.examples.append(
                        f"burst {index} packet {pos}: output {shown} "
                        f"selected {meta.get(META_FILTER_SELECTED)!r}, "
                        f"reference {want:#x} selected {want_sel}")


class Server:
    """The closed-loop generator over a run's cycle of bursts."""

    def __init__(self, inputs: DataInputs, checker: Checker, pace: Pace):
        self._inputs = inputs
        self._checker = checker
        self._pace = pace
        self._next = 0
        self.failed = 0

    def serve(self, backend, *, seconds: float = 0.0, bursts: int = 0,
              samples: list[tuple[int, int]] | None = None,
              rec=None) -> int:
        """Serve for ``seconds`` of wall time or ``bursts`` bursts;
        returns packets attempted.  Only ``process_batch`` is timed, into
        ``samples`` as ``(start_ns, duration_ns)``."""
        inputs, check, tick = self._inputs, self._checker.check, self._pace.tick
        cycle = len(inputs.bursts)
        end = _clock() + int(seconds * 1e9)
        served = packets = 0
        while (served < bursts) if bursts else (_clock() < end):
            tick()
            index = self._next % cycle
            burst = inputs.burst(index)
            t0 = _clock()
            try:
                backend.process_batch(burst)
            except ReproError:
                # All-or-nothing admission: a refused burst served
                # nothing, so the twin must not replay its writes.
                t1 = _clock()
                self.failed += len(burst)
            else:
                t1 = _clock()
                if rec is not None:
                    rec.phase = "check"
                check(index, burst)
                if rec is not None:
                    rec.phase = "run"
            if samples is not None:
                samples.append((t0, t1 - t0))
            packets += len(burst)
            served += 1
            self._next += 1
        return packets

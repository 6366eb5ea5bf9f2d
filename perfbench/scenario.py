"""The shape every workload shares, and seeded input generation.

Two tenants on the default ``PipelineParams``, 512 resource rows each
(together the paper's N=1024 SMBM), metrics ``cpu``/``mem``:

* ``alpha`` runs the load-balancer policy: the minimum-``cpu`` rows among
  those with ``cpu < 80`` and ``mem > 4``;
* ``beta`` runs a single predicate, ``cpu < 50``.

Everything a run feeds the program is generated here from the seed,
before any timing starts.  :func:`build_switch` is the timed set-up:
build the backend, admit both tenants (compile, verify, symbolic
analysis) and seed their tables through the public
:class:`~repro.serving.backend.SwitchBackend` API.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field

from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
from repro.engine.batch import META_FILTER_INPUT, META_FILTER_REQUEST
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec
from repro.serving import TableWrite, build_backend
from repro.tenancy.manager import TenantManager, TenantSpec

ROWS = 512
TENANTS = ("alpha", "beta")
METRICS = ("cpu", "mem")
BURST = 256
#: Distinct bursts generated per data-path run; the timed loop cycles them.
CYCLE = 32
#: One probe (table write) per this many packets on ``churn``.
CHURN_PERIOD = 8
#: A data-path run serves in this many slices; after each, outside the
#: timed region, one more set-up and one recovery are timed
#: (``setup_s`` and ``recovery_s`` are their medians).
SLICES = 12


def settle() -> None:
    """Collect garbage and freeze what survives, so every timed region
    starts from the same collector state: no pending young objects, and
    the long-lived heap (inputs, the switch) out of every collection."""
    gc.collect()
    gc.freeze()


def policies() -> dict[str, Policy]:
    table = TableRef()
    return {
        "alpha": Policy(
            min_of(intersection(predicate(table, "cpu", RelOp.LT, 80),
                                predicate(table, "mem", RelOp.GT, 4)),
                   "cpu"),
            name="alpha-lb",
        ),
        "beta": Policy(predicate(TableRef(), "cpu", RelOp.LT, 50),
                       name="beta-pred"),
    }


def random_row(rng: random.Random) -> dict[str, int]:
    return {"cpu": rng.randrange(100), "mem": rng.randrange(64)}


def initial_tables(rng: random.Random) -> dict[str, list[dict[str, int]]]:
    """Each tenant's seeded table: row ``i`` is resource id ``i``."""
    return {name: [random_row(rng) for _ in range(ROWS)] for name in TENANTS}


def new_manager() -> TenantManager:
    return TenantManager(METRICS, smbm_capacity=ROWS * len(TENANTS))


def tenant_specs(pols: dict[str, Policy]) -> list[TenantSpec]:
    return [TenantSpec(name, pols[name], smbm_quota=ROWS) for name in TENANTS]


def seed_writes(tables: dict[str, list[dict[str, int]]],
                name: str) -> list[TableWrite]:
    return [TableWrite(name, rid, row) for rid, row in enumerate(tables[name])]


def build_switch(pols: dict[str, Policy],
                 tables: dict[str, list[dict[str, int]]]):
    """The timed set-up of a data-path run; returns (backend, seconds)."""
    t0 = time.perf_counter()
    backend = build_backend("batched", new_manager())
    for spec in tenant_specs(pols):
        backend.program_tenant(spec)
    for name in TENANTS:
        backend.write_batch(seed_writes(tables, name))
    return backend, time.perf_counter() - t0


@dataclass
class DataInputs:
    """A data-path run's generated inputs.

    ``writes[b]`` lists burst ``b``'s probes as ``(position, tenant,
    resource_id, row)`` — what the correctness twin replays.
    ``metas[b]`` keeps each packet's metadata as generated, which the
    timed loop never sees mutated.
    """

    workload: str
    pols: dict[str, Policy]
    tables: dict[str, list[dict[str, int]]]
    bursts: list[list[Packet]] = field(default_factory=list)
    writes: list[list[tuple[int, str, int, dict[str, int]]]] = field(
        default_factory=list)
    metas: list[list[dict[str, int]]] = field(default_factory=list)

    def burst(self, index: int) -> list[Packet]:
        """Burst ``index`` as new packets, made from the generated headers
        and metadata: every pass arrives like fresh traffic, and cannot
        pass a check on the outputs of an earlier pass."""
        return [Packet(headers=list(packet.headers), metadata=dict(meta))
                for packet, meta in zip(self.bursts[index], self.metas[index])]


def data_inputs(workload: str, seed: int) -> DataInputs:
    """Seeded bursts for ``uniform``, ``masked`` or ``churn``."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = DataInputs(workload, policies(), initial_tables(rng))
    codec = ProbeCodec(METRICS)
    parser = codec.build_parser()
    for _ in range(CYCLE):
        burst: list[Packet] = []
        writes = []
        for pos in range(BURST):
            tenant = rng.choice(TENANTS)
            if workload == "churn" and pos % CHURN_PERIOD == 0:
                rid, row = rng.randrange(ROWS), random_row(rng)
                packet = parser.parse(codec.encode(rid, row))
                packet.metadata[META_TENANT] = tenant
                writes.append((pos, tenant, rid, row))
            else:
                meta = {META_FILTER_REQUEST: 1, META_TENANT: tenant}
                if workload == "masked":
                    meta[META_FILTER_INPUT] = rng.getrandbits(ROWS)
                packet = Packet(metadata=meta)
            burst.append(packet)
        inputs.bursts.append(burst)
        inputs.writes.append(writes)
        inputs.metas.append([dict(p.metadata) for p in burst])
    return inputs


@dataclass
class ControlInputs:
    """A control run's generated inputs: per tenant, the cycle of
    ``(resource_id, row)`` updates its client submits in order."""

    pols: dict[str, Policy]
    tables: dict[str, list[dict[str, int]]]
    plans: dict[str, list[tuple[int, dict[str, int]]]]


#: Length of each tenant's generated update cycle on ``control``.
PLAN_LEN = 4096


def control_inputs(seed: int) -> ControlInputs:
    rng = random.Random(f"control:{seed}")
    tables = initial_tables(rng)
    plans = {name: [(rng.randrange(ROWS), random_row(rng))
                    for _ in range(PLAN_LEN)]
             for name in TENANTS}
    return ControlInputs(policies(), tables, plans)

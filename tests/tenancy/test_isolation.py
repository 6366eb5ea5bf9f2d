"""Two-tenant chaos acceptance: faults in one slice never touch the other.

The acceptance contract of the virtualization layer: with tenants A and
B sharing one pipeline, a seeded chaos schedule of Cell faults injected
into A's strip (healed by A's per-tenant fail-around) leaves B's entire
output trace **bit-identical** to a golden solo run of B's policy — and
leaves B's fault/degradation observability series untouched.
"""

from __future__ import annotations

from repro import obs
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.rmt.packet import META_TENANT, Packet
from repro.switch.filter_module import (
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    FilterModule,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy import TenantManager, TenantSpec

PARAMS = PipelineParams(n=8)
METRICS = ("q", "load")
QUOTA = 8
#: A run length the batched isolation test must see runs on both sides
#: of (16 was once the shortest run served columnar).
LONG_RUN = 16


def _policy_a() -> Policy:
    return Policy(min_of(TableRef(), "q"), name="pa")


def _policy_b() -> Policy:
    return Policy(predicate(TableRef(), "load", RelOp.LT, 500), name="pb")


def _schedule(rng, rounds: int, write_p: float = 0.4):
    """A seeded interleaving of table writes and filter packets for both
    tenants.  Returned as a list of ("write", tenant, rid, metrics) and
    ("packet", tenant) steps, deterministic in the rng; each step is a
    write with probability ``write_p``."""
    steps = []
    for _ in range(rounds):
        tenant = rng.choice(("a", "b"))
        if rng.random() < write_p:
            steps.append((
                "write", tenant, rng.randrange(QUOTA),
                {"q": rng.randrange(1000), "load": rng.randrange(1000)},
            ))
        else:
            steps.append(("packet", tenant))
    return steps


def _chaos_points(rng, steps):
    """Seeded chaos: pick step indices at which to fault tenant A's strip."""
    packet_steps = [i for i, s in enumerate(steps) if s[0] == "packet"]
    return set(rng.sample(packet_steps, min(3, len(packet_steps))))


def _golden_trace(steps, policy, tenant: str) -> list[int]:
    """Run one tenant's projection of the schedule on a dedicated solo
    module: the trace B would produce if it had the switch to itself."""
    solo = FilterModule(QUOTA, METRICS, policy, PARAMS)
    trace = []
    for step in steps:
        if step[1] != tenant:
            continue
        if step[0] == "write":
            _, _, rid, metrics = step
            solo.update_resource(rid, metrics)
        else:
            trace.append(solo.evaluate().value)
    return trace


def _fault_a(tenant_a, rng) -> None:
    """Kill one Cell tenant A's plan currently occupies (so the fault is
    guaranteed to be *detected* and healed on A's next evaluation) —
    skipping stage-1 Cells when only one stage-1 Cell survives, which
    would sever the strip."""
    module = tenant_a.module
    candidates = sorted(
        pos for pos in _occupied(module.compiled)
        if pos not in module.routed_around
    )
    stage1_alive = [
        c for c in sorted(tenant_a.columns)
        if (1, c) not in module.routed_around
        and (1, c) not in module.compiled.dead_cells
    ]
    if len(stage1_alive) <= 1:
        candidates = [pos for pos in candidates if pos[0] != 1]
    if candidates:
        stage, index = rng.choice(candidates)
        module.inject_cell_kill(stage, index)


def _occupied(compiled):
    from repro.core.operators import BinaryOp, UnaryOp

    cells = set()
    for s, stage in enumerate(compiled.config.stages, start=1):
        for c, cfg in enumerate(stage.cells):
            if (cfg.kufpu1.opcode is not UnaryOp.NO_OP
                    or cfg.kufpu2.opcode is not UnaryOp.NO_OP
                    or cfg.bfpu1.opcode is not BinaryOp.NO_OP
                    or cfg.bfpu2.opcode is not BinaryOp.NO_OP):
                cells.add((s, c))
    return cells


def test_two_tenant_chaos_isolation(rng):
    """Chaos-fault tenant A; tenant B's trace stays bit-identical to its
    solo golden run and B's fault series never move."""
    steps = _schedule(rng, rounds=120)
    chaos_at = _chaos_points(rng, steps)
    golden_b = _golden_trace(steps, _policy_b(), "b")
    golden_a_writes = [s for s in steps if s[0] == "write" and s[1] == "a"]
    assert golden_b, "seeded schedule produced no B packets"
    assert golden_a_writes, "seeded schedule produced no A writes"

    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        mgr = TenantManager(METRICS, PARAMS, smbm_capacity=4 * QUOTA)
        tenant_a = mgr.admit(TenantSpec(
            "a", _policy_a(), smbm_quota=QUOTA, columns=2,
            self_healing=True,
        ))
        tenant_b = mgr.admit(TenantSpec(
            "b", _policy_b(), smbm_quota=QUOTA, columns=1,
        ))
        switch = ThanosSwitch.multi_tenant(mgr)

        trace_b = []
        for i, step in enumerate(steps):
            if i in chaos_at:
                _fault_a(tenant_a, rng)
            if step[0] == "write":
                _, tenant, rid, metrics = step
                mgr.update_resource(tenant, rid, metrics)
            else:
                packet = Packet(metadata={
                    META_FILTER_REQUEST: 1, META_TENANT: step[1],
                })
                switch.process(packet)
                if step[1] == "b":
                    trace_b.append(packet.metadata[META_FILTER_OUTPUT])
        snap = obs.snapshot(registry)

    # Bit-identical: B never noticed A's faults or heals.
    assert trace_b == golden_b
    # A really did take (and heal) faults — the chaos was not a no-op.
    assert tenant_a.module.routed_around
    assert tenant_a.module.degraded
    counters = snap["counters"]
    a_faults = sum(
        v for k, v in counters.items()
        if k.startswith("faults_detected_total") and 'tenant="a"' in k
    )
    b_faults = sum(
        v for k, v in counters.items()
        if k.startswith("faults_detected_total") and 'tenant="b"' in k
    )
    assert a_faults == len(tenant_a.module.routed_around) > 0
    assert b_faults == 0
    gauges = snap["gauges"]
    b_degraded = [
        v for k, v in gauges.items()
        if k.startswith("degraded_mode") and 'tenant="b"' in k
    ]
    assert all(v == 0 for v in b_degraded)
    # B served exactly its golden number of evaluations, under its own
    # tenant-labelled series.
    b_evals = [
        v for k, v in counters.items()
        if k.startswith("filter_evaluations_total") and 'tenant="b"' in k
    ]
    assert sum(b_evals) == tenant_b.module.evaluations == len(golden_b)


def test_batched_two_tenant_isolation(rng):
    """The same isolation contract on the batched path: a mixed packet
    stream through process_batch demuxes into per-tenant sub-batches
    whose outputs match each tenant's solo trace.  A write-free stretch
    and a low write rate put runs both shorter and longer than
    :data:`LONG_RUN` in the stream."""
    steps = (_schedule(rng, rounds=80)
             + _schedule(rng, rounds=2 * LONG_RUN, write_p=0.0)
             + _schedule(rng, rounds=80, write_p=0.1))
    golden_a = _golden_trace(steps, _policy_a(), "a")
    golden_b = _golden_trace(steps, _policy_b(), "b")

    mgr = TenantManager(METRICS, PARAMS, smbm_capacity=4 * QUOTA)
    mgr.admit(TenantSpec("a", _policy_a(), smbm_quota=QUOTA, columns=2))
    mgr.admit(TenantSpec("b", _policy_b(), smbm_quota=QUOTA, columns=1))
    switch = ThanosSwitch.multi_tenant(mgr)

    # Writes act as batch boundaries; build maximal packet runs between
    # them, exactly like the probe-path batching contract.
    trace = {"a": [], "b": []}
    run: list[Packet] = []
    lengths = []

    def flush():
        if run:
            lengths.append(len(run))
            switch.process_batch(run)
            for p in run:
                trace[p.metadata[META_TENANT]].append(
                    p.metadata[META_FILTER_OUTPUT]
                )
            run.clear()

    for step in steps:
        if step[0] == "write":
            flush()
            _, tenant, rid, metrics = step
            mgr.update_resource(tenant, rid, metrics)
        else:
            run.append(Packet(metadata={
                META_FILTER_REQUEST: 1, META_TENANT: step[1],
            }))
    flush()

    assert min(lengths) < LONG_RUN <= max(lengths)
    assert trace["a"] == golden_a
    assert trace["b"] == golden_b

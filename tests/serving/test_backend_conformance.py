"""The serving backend's conformance suite.

:class:`SwitchBackend` serves a packet stream per packet (``process``)
or in one pass that filters each run of data packets between probes as
per-tenant batches (``process_batch``); both must be observably
identical.  The same traffic must produce the golden trace of a solo
FilterModule oracle whichever entry point serves it, ``process`` and
``process_batch`` must agree packet for packet, routing errors must keep
their all-violations shape and leave a rejected batch wholly unserved on
the columnar and the pipeline path alike, and checkpoints must
round-trip TH015-clean.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis.conformance import verify_checkpoint_roundtrip
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, intersection, min_of, predicate
from repro.engine.batch import (
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
)
from repro.errors import ConfigurationError, RoutingError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.pipeline import MatchActionStage
from repro.rmt.probe import ProbeCodec
from repro.serving.backend import SwitchBackend, TableWrite, build_backend
from repro.switch.filter_module import META_FILTER_EPOCH, FilterModule
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _policy_a() -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name="least-cpu")


def _policy_b() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 80),
                            predicate(table, "mem", RelOp.GT, 2)), "mem"),
        name="eligible-min-mem",
    )


def _make_backend():
    manager = TenantManager(METRICS, smbm_capacity=16)
    backend = SwitchBackend(manager)
    backend.program_tenant(TenantSpec("a", _policy_a(), smbm_quota=8))
    backend.program_tenant(TenantSpec("b", _policy_b(), smbm_quota=8))
    return backend


#: Packets per run in tests that serve one run; long enough that a
#: per-run cost would show against per-packet serving.
RUN = 16

#: Data-run lengths between probes: empty, single-packet, short and long
#: runs (16 was once the shortest run served columnar).
RUNS = (4, 4, 20, 3, 1, RUN - 1, RUN, 33, 0, 7)


def _schedule():
    """A deterministic mixed schedule for two tenants: a probe (a table
    write on the wire) before each run of :data:`RUNS` filtering data
    packets.  Every third data packet carries a candidate mask
    (``META_FILTER_INPUT``), so both paths see masked rows."""
    steps = []
    i = 0
    for j, length in enumerate(RUNS):
        tenant = "a" if j % 2 else "b"
        steps.append(("probe", tenant, j % 8,
                      {"cpu": (j * 13) % 100, "mem": (j * 7) % 50}))
        for _ in range(length):
            i += 1
            tenant = "a" if i % 2 else "b"
            mask = 0b1111 << (i % 5) if i % 3 == 0 else None
            steps.append(("data", tenant, mask))
    return steps


def _traffic(codec: ProbeCodec, steps):
    """Fresh packet objects for one backend run (metadata is mutated)."""
    parser = codec.build_parser()
    packets = []
    for step in steps:
        if step[0] == "probe":
            _, tenant, rid, metrics = step
            packet = parser.parse(codec.encode(rid, metrics))
        else:
            _, tenant, mask = step
            packet = Packet(metadata={META_FILTER_REQUEST: 1})
            if mask is not None:
                packet.metadata[META_FILTER_INPUT] = mask
        packet.metadata[META_TENANT] = tenant
        packets.append(packet)
    return packets


def _golden_traces(steps):
    """Solo per-tenant FilterModules: the differential oracle both
    serving paths are held to."""
    modules = {"a": FilterModule(8, METRICS, _policy_a()),
               "b": FilterModule(8, METRICS, _policy_b())}
    traces = {"a": [], "b": []}
    for step in steps:
        if step[0] == "probe":
            _, tenant, rid, metrics = step
            modules[tenant].update_resource(rid, metrics)
        else:
            _, tenant, mask = step
            module = modules[tenant]
            if mask is None:
                traces[tenant].append(module.evaluate().value)
            else:
                traces[tenant].append(module.compiled.evaluate_restricted(
                    module.smbm, mask).value)
    return traces


#: How a test hands the traffic to the backend: one ``process`` call per
#: packet, or the whole stream to ``process_batch``.
ENTRY_POINTS = {
    "scalar": lambda backend, packets: [backend.process(p) for p in packets],
    "batched": lambda backend, packets: backend.process_batch(packets),
}


def _run(backend, steps, serve=ENTRY_POINTS["batched"]):
    """Serve ``steps`` and return each tenant's (output, epoch) trace."""
    packets = _traffic(ProbeCodec(METRICS), steps)
    serve(backend, packets)
    traces = {"a": [], "b": []}
    for step, packet in zip(steps, packets):
        if step[0] == "data":
            meta = packet.metadata
            traces[step[1]].append(
                (meta[META_FILTER_OUTPUT], meta[META_FILTER_EPOCH]))
    return traces


def _outputs(traces):
    return {name: [out for out, _epoch in trace]
            for name, trace in traces.items()}


def _requesting(tenant, n):
    return [Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: tenant})
            for _ in range(n)]


def _serve(backend, tenant, entry):
    """Serve one run of :data:`RUN` requesting packets of ``tenant``
    through ``entry``: per packet (``scalar``) or as one
    ``process_batch`` the switch serves columnar (``batched``).  Returns
    the (output, epoch) stamped on each packet."""
    packets = _requesting(tenant, RUN)
    ENTRY_POINTS[entry](backend, packets)
    return [(p.metadata[META_FILTER_OUTPUT], p.metadata[META_FILTER_EPOCH])
            for p in packets]


def _probe(tenant, rid, metrics):
    codec = ProbeCodec(METRICS)
    packet = codec.build_parser().parse(codec.encode(rid, metrics))
    packet.metadata[META_TENANT] = tenant
    return packet


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_backend_matches_solo_module_oracle(entry):
    steps = _schedule()
    traces = _run(_make_backend(), steps, ENTRY_POINTS[entry])
    assert _outputs(traces) == _golden_traces(steps)


def test_process_and_process_batch_serve_identical_traces():
    """Per-packet ``process`` and one-pass ``process_batch`` agree on every output and every epoch stamp, masked rows and a
    hot-swap between two halves of the stream included."""
    steps = _schedule()
    assert any(step[0] == "data" and step[2] is not None for step in steps)
    half = len(steps) // 2
    traces = {}
    for entry, serve in ENTRY_POINTS.items():
        backend = _make_backend()
        first = _run(backend, steps[:half], serve)
        backend.hot_swap("a", _policy_b())
        second = _run(backend, steps[half:], serve)
        traces[entry] = {name: first[name] + second[name] for name in first}
    assert traces["scalar"] == traces["batched"]
    epochs = {epoch for _out, epoch in traces["batched"]["a"]}
    assert epochs == {0, 1}


def _runs_by_path(registry):
    return {path: registry.value_of("switch_runs_total", {"path": path})
            for path in ("columnar", "pipeline")}


@pytest.mark.parametrize("length", [1, RUN - 1, RUN])
def test_run_length_picks_the_serving_path(length):
    """A run of any length on the backend's filter-only switch is one
    columnar run: one batch whose single evaluation is broadcast to
    every row, with no packet through the pipeline."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        backend = _make_backend()
        backend.process_batch(_requesting("a", length))
    assert _runs_by_path(registry) == {"columnar": 1, "pipeline": 0}
    batches = registry.value_of("filter_batches_total")
    evaluations = registry.value_of("filter_evaluations_total")
    assert (batches, evaluations) == (1, 1)


def test_a_switch_with_an_egress_stage_serves_runs_per_packet():
    """With another RMT stage a run goes through the pipeline; so does
    every ``process`` call, counted as a run of one."""
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        backend = _make_backend()
        switch = ThanosSwitch.multi_tenant(
            backend.manager,
            egress_stages=[MatchActionStage("egress", hook=lambda p: None)])
        switch.process_batch(_requesting("a", RUN))
        assert _runs_by_path(registry) == {"columnar": 0, "pipeline": 1}
        assert registry.value_of("filter_batches_total") == 0
        assert registry.value_of("filter_evaluations_total") == RUN
        backend.process(_requesting("b", 1)[0])
        assert _runs_by_path(registry) == {"columnar": 0, "pipeline": 2}


def _serve_columnar(backend, batch):
    backend.process_batch(batch)


def _serve_pipeline(backend, batch):
    """The same batch through a switch over the backend's tenants whose
    egress stage forces the per-packet pipeline path."""
    ThanosSwitch.multi_tenant(
        backend.manager,
        egress_stages=[MatchActionStage("egress", hook=lambda p: None)],
    ).process_batch(batch)


@pytest.mark.parametrize("serve", [_serve_pipeline, _serve_columnar],
                         ids=("scalar", "batched"))
def test_unknown_labels_aggregate_into_one_routing_error(serve):
    """The violations follow a run of valid packets that the per-packet
    pipeline (``scalar``) or the columnar pass (``batched``) would
    serve; either way the batch is rejected whole with every
    violation."""
    backend = _make_backend()
    batch = _requesting("a", RUN) + [
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "zombie"}),
        Packet(metadata={META_FILTER_REQUEST: 1}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
    ]
    with pytest.raises(RoutingError) as excinfo:
        serve(backend, batch)
    assert excinfo.value.unknown == ("ghost", "zombie")
    assert excinfo.value.unlabelled == 1
    # All-or-nothing: the known tenant's packets were not served either.
    assert not any(META_FILTER_OUTPUT in p.metadata for p in batch)


def test_unroutable_probe_rejects_the_batch_before_any_write():
    """A probe naming no tenant, behind a probe and a data packet of a
    known tenant: the batch raises with the known tenant's table
    unwritten and its data packet unserved."""
    backend = _make_backend()
    smbm = backend.manager.get("a").module.smbm
    before = (smbm.version, smbm.snapshot())
    batch = [_probe("a", 1, {"cpu": 7, "mem": 9}), *_requesting("a", 1),
             _probe("zzz", 2, {"cpu": 1, "mem": 1})]
    with pytest.raises(RoutingError) as excinfo:
        backend.process_batch(batch)
    assert excinfo.value.unknown == ("zzz",)
    assert (smbm.version, smbm.snapshot()) == before
    assert META_FILTER_OUTPUT not in batch[1].metadata
    assert backend.switch.probes_processed == 0


def test_switch_names_every_unknown_label_across_probes():
    """Called directly, the switch checks the whole batch too: both
    unknown labels, split by a probe, are named, and no probe applies."""
    backend = _make_backend()
    smbm = backend.manager.get("a").module.smbm
    before = (smbm.version, smbm.snapshot())
    batch = [_probe("a", 1, {"cpu": 7, "mem": 9}), *_requesting("x", 1),
             _probe("a", 2, {"cpu": 3, "mem": 4}), *_requesting("y", 1)]
    with pytest.raises(RoutingError) as excinfo:
        backend.switch.process_batch(batch)
    assert excinfo.value.unknown == ("x", "y")
    assert (smbm.version, smbm.snapshot()) == before
    assert not any(META_FILTER_OUTPUT in p.metadata for p in batch)


def test_backend_packet_counter_counts_both_entry_points():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        backend = _make_backend()
        backend.process(_requesting("a", 1)[0])
        backend.process_batch(_requesting("b", 3))
    assert obs.snapshot(registry)["counters"]["backend_packets_total"] == 4


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_write_batch_and_health(entry):
    backend = _make_backend()
    applied = backend.write_batch([
        TableWrite("a", 1, {"cpu": 5, "mem": 9}),
        TableWrite("a", 2, {"cpu": 3, "mem": 1}),
        TableWrite("a", 1, None),
        TableWrite("b", 4, {"cpu": 50, "mem": 8}),
    ])
    assert applied == 4
    module = backend.manager.get("a").module
    assert len(module.smbm) == 1
    # The written table is what either serving path answers from.
    assert _serve(backend, "a", entry) == \
        [(module.evaluate().value, 0)] * RUN
    health = backend.health()
    assert health["healthy"] is True
    assert health["tenants"] == 2
    assert health["degraded_tenants"] == []


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_lifecycle_returns_slice_to_pool(entry):
    backend = _make_backend()
    free_before = len(backend.manager.free_columns)
    backend.unprogram_tenant("b")
    assert len(backend.manager.free_columns) == free_before + 1
    epoch = backend.hot_swap("a", _policy_b())
    assert epoch == 1
    assert backend.manager.get("a").module.policy.name == "eligible-min-mem"
    # Packets served after the swap carry the new epoch on either path.
    assert {e for _out, e in _serve(backend, "a", entry)} == {1}


@pytest.mark.parametrize("src,dst", [(s, d) for s in sorted(ENTRY_POINTS)
                                     for d in sorted(ENTRY_POINTS)],
                         ids=lambda entry: entry)
def test_checkpoint_roundtrip_is_th015_clean(src, dst):
    """The source serves through ``src`` before the checkpoint, the
    destination through ``dst`` after the restore: both answer alike."""
    source = _make_backend()
    source.write_batch([
        TableWrite("a", i, {"cpu": i * 11 % 60, "mem": i}) for i in range(6)
    ])
    source.hot_swap("a", _policy_b())  # epoch lineage must survive
    served = _serve(source, "a", src)
    dest = SwitchBackend(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert report.clean, report.describe()
    assert dest.manager.get("a").plan_epoch == 1
    assert _serve(dest, "a", dst) == served


def test_th015_flags_post_restore_divergence():
    source = _make_backend()
    source.write_batch([TableWrite("a", 1, {"cpu": 4, "mem": 2})])
    dest = SwitchBackend(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    # Perturb the restored table behind the checkpoint's back.
    dest.manager.get("a").module.update_resource(1, {"cpu": 99, "mem": 2})
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert not report.clean
    assert {f.rule for f in report.findings} == {"TH015"}


def test_failed_restore_leaves_no_half_tenant():
    source = _make_backend()
    ckpt = source.snapshot_tenant("a")
    broken = ckpt.__class__(**{**ckpt.payload(),
                               "smbm_state": {"capacity": 99}})
    dest = SwitchBackend(TenantManager(METRICS, smbm_capacity=16))
    with pytest.raises(Exception):
        dest.restore_tenant(broken)
    assert "a" not in dest.manager
    assert len(dest.manager.free_columns) == 2


def test_build_backend_factory():
    manager = TenantManager(METRICS, smbm_capacity=16)
    assert type(build_backend("batched", manager)) is SwitchBackend
    with pytest.raises(ConfigurationError):
        build_backend("scalar", manager)

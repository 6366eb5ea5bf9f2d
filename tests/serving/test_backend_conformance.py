"""The shared backend conformance suite.

Every :class:`SwitchBackend` must be observably interchangeable: same
traffic produces the same golden trace (checked against a solo
FilterModule oracle *and* across backends), the same routing errors with
the same all-violations shape, the same obs series names (modulo the
``backend`` label), and checkpoints that round-trip between any two
backends TH015-clean.
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
from repro.rmt.probe import ProbeCodec
from repro.serving.backend import (
    BatchedBackend,
    ScalarBackend,
    TableWrite,
    build_backend,
)
from repro.switch.filter_module import FilterModule
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")
BACKENDS = (ScalarBackend, BatchedBackend)


def _policy_a() -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name="least-cpu")


def _policy_b() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 80),
                            predicate(table, "mem", RelOp.GT, 2)), "mem"),
        name="eligible-min-mem",
    )


def _make_backend(cls):
    manager = TenantManager(METRICS, smbm_capacity=16)
    backend = cls(manager)
    backend.program_tenant(TenantSpec("a", _policy_a(), smbm_quota=8))
    backend.program_tenant(TenantSpec("b", _policy_b(), smbm_quota=8))
    return backend


def _schedule():
    """A deterministic mixed schedule: probes (table writes on the wire)
    interleaved with filtering data packets, for two tenants.  Every
    third data packet carries a candidate mask (``META_FILTER_INPUT``)."""
    steps = []
    for i in range(40):
        tenant = "a" if i % 2 else "b"
        if i % 5 == 0:
            steps.append(("probe", tenant, i % 8,
                          {"cpu": (i * 13) % 100, "mem": (i * 7) % 50}))
        elif i % 3 == 0:
            steps.append(("data", tenant, 0b1111 << (i % 5)))
        else:
            steps.append(("data", tenant, None))
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
    backends are held to."""
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


def _run(backend, steps):
    codec = ProbeCodec(METRICS)
    packets = _traffic(codec, steps)
    backend.process_batch(packets)
    traces = {"a": [], "b": []}
    for step, packet in zip(steps, packets):
        if step[0] == "data":
            traces[step[1]].append(packet.metadata[META_FILTER_OUTPUT])
    return traces


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_backend_matches_solo_module_oracle(cls):
    steps = _schedule()
    assert _run(_make_backend(cls), steps) == _golden_traces(steps)


def test_backends_serve_identical_traces():
    """Masked packets included: the scalar hook restricts to table ∩ mask
    exactly like the batch path, so the backends differ only in batch
    size."""
    steps = _schedule()
    assert any(step[0] == "data" and step[2] is not None for step in steps)
    scalar = _run(_make_backend(ScalarBackend), steps)
    batched = _run(_make_backend(BatchedBackend), steps)
    assert scalar == batched


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_unknown_labels_aggregate_into_one_routing_error(cls):
    backend = _make_backend(cls)
    batch = [
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "a"}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "zombie"}),
        Packet(metadata={META_FILTER_REQUEST: 1}),
        Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: "ghost"}),
    ]
    with pytest.raises(RoutingError) as excinfo:
        backend.process_batch(batch)
    assert excinfo.value.unknown == ("ghost", "zombie")
    assert excinfo.value.unlabelled == 1
    # All-or-nothing: the known tenant's packet was not served either.
    assert META_FILTER_OUTPUT not in batch[1].metadata


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_write_batch_and_health(cls):
    backend = _make_backend(cls)
    applied = backend.write_batch([
        TableWrite("a", 1, {"cpu": 5, "mem": 9}),
        TableWrite("a", 2, {"cpu": 3, "mem": 1}),
        TableWrite("a", 1, None),
        TableWrite("b", 4, {"cpu": 50, "mem": 8}),
    ])
    assert applied == 4
    assert len(backend.manager.get("a").module.smbm) == 1
    health = backend.health()
    assert health["backend"] == cls.name
    assert health["healthy"] is True
    assert health["tenants"] == 2
    assert health["degraded_tenants"] == []


@pytest.mark.parametrize("cls", BACKENDS, ids=lambda c: c.name)
def test_lifecycle_returns_slice_to_pool(cls):
    backend = _make_backend(cls)
    free_before = len(backend.manager.free_columns)
    backend.unprogram_tenant("b")
    assert len(backend.manager.free_columns) == free_before + 1
    epoch = backend.hot_swap("a", _policy_b())
    assert epoch == 1
    assert backend.manager.get("a").module.policy.name == "eligible-min-mem"


def test_obs_series_names_identical_across_backends():
    def series_names(cls):
        registry = obs.MetricsRegistry()
        with obs.use_registry(registry):
            backend = _make_backend(cls)
            backend.process_batch(_traffic(ProbeCodec(METRICS), _schedule()))
            backend.write_batch([TableWrite("a", 1, {"cpu": 1, "mem": 2})])
            ckpt = backend.snapshot_tenant("a")
            backend.unprogram_tenant("a")
            backend.restore_tenant(ckpt)
            snap = obs.snapshot(registry)
        names = set()
        for kind in snap.values():
            for series in kind:
                names.add(series.split("{")[0])
        return names

    assert series_names(ScalarBackend) == series_names(BatchedBackend)


@pytest.mark.parametrize("src_cls", BACKENDS, ids=lambda c: c.name)
@pytest.mark.parametrize("dst_cls", BACKENDS, ids=lambda c: c.name)
def test_checkpoint_roundtrip_is_th015_clean(src_cls, dst_cls):
    source = _make_backend(src_cls)
    source.write_batch([
        TableWrite("a", i, {"cpu": i * 11 % 60, "mem": i}) for i in range(6)
    ])
    source.hot_swap("a", _policy_b())  # epoch lineage must survive
    dest = dst_cls(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert report.clean, report.describe()
    assert dest.manager.get("a").plan_epoch == 1


def test_th015_flags_post_restore_divergence():
    source = _make_backend(ScalarBackend)
    source.write_batch([TableWrite("a", 1, {"cpu": 4, "mem": 2})])
    dest = BatchedBackend(TenantManager(METRICS, smbm_capacity=16))
    dest.restore_tenant(source.snapshot_tenant("a"))
    # Perturb the restored table behind the checkpoint's back.
    dest.manager.get("a").module.update_resource(1, {"cpu": 99, "mem": 2})
    report = verify_checkpoint_roundtrip(source, dest, "a")
    assert not report.clean
    assert {f.rule for f in report.findings} == {"TH015"}


def test_failed_restore_leaves_no_half_tenant():
    source = _make_backend(ScalarBackend)
    ckpt = source.snapshot_tenant("a")
    broken = ckpt.__class__(**{**ckpt.payload(),
                               "smbm_state": {"capacity": 99}})
    dest = ScalarBackend(TenantManager(METRICS, smbm_capacity=16))
    with pytest.raises(Exception):
        dest.restore_tenant(broken)
    assert "a" not in dest.manager
    assert len(dest.manager.free_columns) == 2


def test_build_backend_factory():
    manager = TenantManager(METRICS, smbm_capacity=16)
    assert isinstance(build_backend("scalar", manager), ScalarBackend)
    assert isinstance(
        build_backend("batched", TenantManager(METRICS, smbm_capacity=16)),
        BatchedBackend,
    )
    with pytest.raises(ConfigurationError):
        build_backend("quantum", manager)

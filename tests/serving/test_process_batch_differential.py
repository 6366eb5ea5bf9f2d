"""Differential: one-pass ``process_batch`` against per-packet ``process``.

The same generated stream goes through :meth:`ThanosSwitch.process_batch`
on one switch and through one :meth:`ThanosSwitch.process` call per packet
on a twin.  Both must stamp equal outputs, selected ids and epochs on
every packet and leave equal tables behind; a stream with routing
violations must raise the same :class:`~repro.errors.RoutingError`
content the per-packet twin accumulates, with nothing served and no table
written on the batch side.

Streams cover runs of 0–40 data packets between probes, masked and
non-requesting rows, unknown and missing ``META_TENANT`` labels on probes
and data, a stateful (round-robin) tenant, a hot-swap between two
batches, and a tenant with ``sanitize=True``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Policy,
    TableRef,
    intersection,
    max_of,
    min_of,
    predicate,
    round_robin,
)
from repro.engine.batch import (
    META_FILTER_EPOCH,
    META_FILTER_INPUT,
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
)
from repro.errors import RoutingError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.probe import ProbeCodec
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")
PARAMS = PipelineParams(n=8)
QUOTA = 8
#: Labels a generated packet may carry: the two admitted tenants, one
#: unknown label, and no label at all.
LABELS = ("a", "b", "ghost", None)
STAMPS = (META_FILTER_OUTPUT, META_FILTER_SELECTED, META_FILTER_EPOCH)


def _least_cpu() -> Policy:
    table = TableRef()
    return Policy(
        min_of(intersection(predicate(table, "cpu", RelOp.LT, 80),
                            predicate(table, "mem", RelOp.GT, 4)), "cpu"),
        name="least-cpu",
    )


def _most_mem() -> Policy:
    return Policy(max_of(TableRef(), "mem"), name="most-mem")


def _rotate() -> Policy:
    return Policy(round_robin(predicate(TableRef(), "cpu", RelOp.LT, 90),
                              "cpu"), name="rotate")


def _metrics():
    return st.fixed_dictionaries({"cpu": st.integers(0, 99),
                                  "mem": st.integers(0, 63)})


def _label(clean: bool):
    # Unclean streams still label most packets correctly, so violations
    # sit among packets the batch would otherwise serve.
    return st.sampled_from(LABELS[:2] * (1 if clean else 3)
                           + (() if clean else LABELS[2:]))


def _data(clean: bool):
    return st.tuples(
        st.just("data"),
        _label(clean),
        st.integers(0, 9).map(lambda r: r != 0),  # request, ~1 in 10 not
        st.none() | st.integers(0, (1 << QUOTA) - 1),  # candidate mask
    )


def _probe(clean: bool):
    return st.tuples(st.just("probe"), _label(clean),
                     st.integers(0, QUOTA - 1), _metrics())


@st.composite
def streams(draw, clean: bool):
    """A stream of steps: runs of 0–40 data packets, each run followed by
    a probe except the last.  ``clean`` streams carry only admitted
    labels."""
    runs = draw(st.lists(st.integers(0, 40), min_size=1, max_size=5))
    steps = []
    for i, length in enumerate(runs):
        steps += draw(st.lists(_data(clean), min_size=length,
                               max_size=length))
        if i < len(runs) - 1:
            steps.append(draw(_probe(clean)))
    return steps


@st.composite
def scenarios(draw, clean: bool = True):
    """Initial rows, a stream, and where between two batches the
    hot-swap falls."""
    rows = draw(st.lists(_metrics(), min_size=1, max_size=QUOTA))
    steps = draw(streams(clean))
    cut = draw(st.integers(0, len(steps)))
    return rows, steps, cut


def _packets(steps, codec: ProbeCodec) -> list[Packet]:
    parser = codec.build_parser()
    packets = []
    for step in steps:
        if step[0] == "probe":
            _, label, rid, metrics = step
            packet = parser.parse(codec.encode(rid, metrics))
        else:
            _, label, request, mask = step
            packet = Packet()
            if request:
                packet.metadata[META_FILTER_REQUEST] = 1
            if mask is not None:
                packet.metadata[META_FILTER_INPUT] = mask
        if label is not None:
            packet.metadata[META_TENANT] = label
        packets.append(packet)
    return packets


def _two_tenant(rows) -> tuple[ThanosSwitch, TenantManager]:
    manager = TenantManager(METRICS, PARAMS, smbm_capacity=2 * QUOTA)
    manager.admit(TenantSpec("a", _least_cpu(), smbm_quota=QUOTA,
                             columns=2, sanitize=True))
    manager.admit(TenantSpec("b", _rotate(), smbm_quota=QUOTA, columns=2))
    for name in ("a", "b"):
        for rid, metrics in enumerate(rows):
            manager.update_resource(name, rid, metrics)
    return ThanosSwitch.multi_tenant(manager), manager


def _dedicated(rows, policy: Policy) -> ThanosSwitch:
    switch = ThanosSwitch(QUOTA, METRICS, policy, PARAMS)
    for rid, metrics in enumerate(rows):
        switch.filter_module.update_resource(rid, metrics)
    return switch


def _stamps(packets):
    return [tuple(p.metadata.get(key) for key in STAMPS) for p in packets]


def _tables(modules):
    return [(m.smbm.version, m.smbm.snapshot()) for m in modules]


def _per_packet(switch: ThanosSwitch, packets) -> tuple[set, int]:
    """Serve packet by packet, accumulating the routing violations the
    twin meets: (unknown labels, unlabelled count)."""
    unknown: set = set()
    unlabelled = 0
    for packet in packets:
        try:
            switch.process(packet)
        except RoutingError as exc:
            unknown.update(exc.unknown)
            unlabelled += exc.unlabelled
    return unknown, unlabelled


def _serve_both(batch_switch, twin_switch, packets, twin_packets):
    """One batch against its per-packet twin; returns True when the batch
    was served (False when both sides reported the same violations)."""
    want = _per_packet(twin_switch, twin_packets)
    try:
        batch_switch.process_batch(packets)
    except RoutingError as exc:
        assert (set(exc.unknown), exc.unlabelled) == want
        assert list(exc.unknown) == sorted(exc.unknown)
        assert not any(META_FILTER_OUTPUT in p.metadata for p in packets)
        return False
    assert want == (set(), 0)
    assert _stamps(packets) == _stamps(twin_packets)
    return True


def _modules(manager):
    return [manager.get(name).module for name in ("a", "b")]


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_two_tenant_batch_matches_per_packet_twin(scenario):
    """Clean streams with a hot-swap of the sanitized tenant between two
    batches: every stamp and both final tables agree."""
    rows, steps, cut = scenario
    (switch, manager), (twin, twin_manager) = _two_tenant(rows), \
        _two_tenant(rows)
    codec = ProbeCodec(METRICS)
    packets, twin_packets = _packets(steps, codec), _packets(steps, codec)
    assert _serve_both(switch, twin, packets[:cut], twin_packets[:cut])
    for mgr in (manager, twin_manager):
        assert mgr.hot_swap("a", _most_mem()) == 1
    assert _serve_both(switch, twin, packets[cut:], twin_packets[cut:])
    assert _tables(_modules(manager)) == _tables(_modules(twin_manager))
    epochs = {p.metadata.get(META_FILTER_EPOCH) for p in packets[cut:]
              if p.metadata.get(META_TENANT) == "a"
              and p.metadata.get(META_FILTER_REQUEST)}
    assert epochs <= {1}


@settings(max_examples=40, deadline=None)
@given(scenarios(clean=False))
def test_two_tenant_routing_errors_match_per_packet_twin(scenario):
    """Streams with unknown and missing labels on probes and data: the
    batch raises the violations the twin meets one by one, before any
    probe is applied, and serves nothing."""
    rows, steps, _cut = scenario
    (switch, manager), (twin, _) = _two_tenant(rows), _two_tenant(rows)
    codec = ProbeCodec(METRICS)
    packets, twin_packets = _packets(steps, codec), _packets(steps, codec)
    before = _tables(_modules(manager))
    if not _serve_both(switch, twin, packets, twin_packets):
        assert _tables(_modules(manager)) == before
        assert switch.probes_processed == 0


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.sampled_from((_least_cpu, _rotate)))
def test_dedicated_batch_matches_per_packet_twin(scenario, policy):
    """A dedicated switch ignores tenant labels: every stream is clean,
    stateless or stateful."""
    rows, steps, cut = scenario
    switch, twin = _dedicated(rows, policy()), _dedicated(rows, policy())
    codec = ProbeCodec(METRICS)
    packets, twin_packets = _packets(steps, codec), _packets(steps, codec)
    assert _serve_both(switch, twin, packets[:cut], twin_packets[:cut])
    for sw in (switch, twin):
        sw.filter_module.hot_swap(_most_mem())
    assert _serve_both(switch, twin, packets[cut:], twin_packets[cut:])
    assert _tables([switch.filter_module]) == _tables([twin.filter_module])

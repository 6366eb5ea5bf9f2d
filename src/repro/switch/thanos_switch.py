"""The integrated Thanos switch (section 3, Figure 8).

Ties together the four tasks of implementing a filter policy:

1. **Calculate resource metric values** — probe packets are parsed by the
   RMT parser and decoded into metric updates (remote metrics); local
   metrics arrive through event hooks (:meth:`ThanosSwitch.on_event`,
   modelling the event-driven RMT extension the paper cites).
2. **Store resources and their metrics** — the filter module's SMBM.
3. **Implement the filter policy** — the compiled filter pipeline, run
   inline between ingress and egress match-action stages.
4. **Process the filter output** — egress RMT stages read the result from
   packet metadata (e.g. to pick an output port).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.rmt.packet import META_TENANT, Packet
from repro.rmt.pipeline import MatchActionStage, RMTPipeline
from repro.rmt.probe import ProbeCodec, ProbeUpdate
from repro.switch.filter_module import META_FILTER_REQUEST, FilterModule
from repro.tenancy.demux import TenantDemux

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime switch<->tenancy cycle
    from repro.tenancy.manager import TenantManager

__all__ = ["ThanosSwitch", "META_TENANT"]

#: Shortest data run :meth:`ThanosSwitch.process_batch` serves through the
#: columnar tiers; shorter runs go packet by packet.  Columnarizing a run
#: (build the batch, demux it, scatter the outputs) costs a fixed overhead
#: that the per-row savings repay only over enough rows.  Measured on two
#: tenants of 512 rows (the perfbench tables), a probe every L packets so
#: runs hold L-1 data packets, us per packet, per-packet vs columnar
#: (2-core Xeon, CPython 3.11): L=12 10.8 vs 12.4, L=16 9.5 vs 10.1,
#: L=20 9.5 vs 8.6, L=32 8.3 vs 7.0; with a candidate mask on every row,
#: L=16 11.9 vs 12.6 and L=20 12.6 vs 12.2.  Both cross between runs of
#: 15 and 19 packets.
_MIN_COLUMNAR_RUN = 16

#: A local-metric event handler maps (event name, event args) to SMBM writes.
EventHandler = Callable[["ThanosSwitch", Mapping[str, int]], None]


class ThanosSwitch:
    """A switch with one RMT pipeline and one inline filter module — or,
    in multi-tenant mode (:meth:`multi_tenant`), one demuxed filter stage
    serving every admitted tenant's slice of the shared pipeline."""

    def __init__(
        self,
        capacity: int,
        metric_names: Sequence[str],
        policy: Policy | None,
        params: PipelineParams | None = None,
        ingress_stages: list[MatchActionStage] | None = None,
        egress_stages: list[MatchActionStage] | None = None,
        *,
        lfsr_seed: int = 1,
        tenants: "TenantManager | None" = None,
    ):
        if (policy is None) == (tenants is None):
            raise ConfigurationError(
                "exactly one of policy (dedicated switch) or tenants "
                "(multi-tenant switch) must be given"
            )
        self._tenants = tenants
        self._demux = None if tenants is None else TenantDemux(tenants)
        if tenants is not None:
            metric_names = tenants.metric_names
        self._codec = ProbeCodec(metric_names)
        self._parser = self._codec.build_parser()
        if tenants is None:
            assert policy is not None
            self._filter: FilterModule | None = FilterModule(
                capacity, metric_names, policy, params,
                lfsr_seed=lfsr_seed,
            )
            hook = self._filter.hook
        else:
            # Per-tenant demux: the filter stage routes each requesting
            # packet to its owning tenant's module by the META_TENANT
            # metadata key (set by the ingress classifier).
            self._filter = None
            hook = self._tenant_hook
        filter_stage = MatchActionStage(name="thanos-filter", hook=hook)
        stages = list(ingress_stages or [])
        stages.append(filter_stage)
        stages.extend(egress_stages or [])
        # Batched serving is only sound when the filter is the sole stage:
        # other stages' tables and register charges must interleave with
        # each packet, which a columnar pass cannot reproduce.
        self._filter_only = len(stages) == 1
        self._pipeline = RMTPipeline(stages)
        self._event_handlers: dict[str, EventHandler] = {}
        self._probes_processed = 0

    @classmethod
    def multi_tenant(
        cls,
        tenants: "TenantManager",
        ingress_stages: list[MatchActionStage] | None = None,
        egress_stages: list[MatchActionStage] | None = None,
    ) -> "ThanosSwitch":
        """A virtualized switch serving every tenant admitted on
        ``tenants``.  Probe and data packets must carry the
        ``META_TENANT`` metadata key; the switch demuxes to the owning
        tenant's filter module and SMBM and never guesses."""
        return cls(
            0, tenants.metric_names, None, tenants.params,
            ingress_stages, egress_stages, tenants=tenants,
        )

    @property
    def filter_module(self) -> FilterModule:
        if self._filter is None:
            raise ConfigurationError(
                "a multi-tenant switch has one filter module per tenant: "
                "use tenants.get(name).module"
            )
        return self._filter

    @property
    def tenants(self) -> "TenantManager | None":
        """The tenant manager, or ``None`` for a dedicated switch."""
        return self._tenants

    def _tenant_of(self, packet: Packet) -> FilterModule:
        """Demux: the filter module owning this packet's traffic."""
        assert self._demux is not None
        return self._demux.resolve(packet).module

    def _tenant_hook(self, packet: Packet) -> None:
        """The demuxed filter stage: route to the owner, bypass otherwise."""
        if not packet.metadata.get(META_FILTER_REQUEST):
            return
        self._tenant_of(packet).hook(packet)

    @property
    def pipeline(self) -> RMTPipeline:
        return self._pipeline

    @property
    def probes_processed(self) -> int:
        return self._probes_processed

    # -- remote metrics: the probe path (section 3, task 1) -----------------------------

    def receive_bytes(self, data: bytes) -> Packet:
        """Parse wire bytes and process the resulting packet."""
        return self.process(self._parser.parse(data))

    def process(self, packet: Packet) -> Packet:
        """Process one packet: probe packets update the SMBM, data packets
        traverse the pipeline (and trigger filtering when they request it)."""
        update = self._codec.decode(packet)
        if update is not None:
            self._apply_probe(packet, update)
            return packet
        return self._pipeline.process(packet)

    def _apply_probe(self, packet: Packet, update: ProbeUpdate) -> None:
        module = (self._filter if self._tenants is None
                  else self._tenant_of(packet))
        assert module is not None
        module.update_resource(update.resource_id, update.metrics)
        self._probes_processed += 1

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream with the per-packet semantics of
        :meth:`process`, serving long data runs in columnar batches.

        Probe packets are applied to the SMBM **in arrival order** — they
        act as batch boundaries, so every data packet sees exactly the
        table state it would have seen under :meth:`process`.  A run of
        data packets between probes goes through
        :meth:`FilterModule.evaluate_batch` when the filter is the only
        RMT stage and the run holds at least :data:`_MIN_COLUMNAR_RUN`
        packets; otherwise each packet traverses the per-packet pipeline
        (ingress/egress stages' tables and register charges must
        interleave per packet, and a short run does not repay the cost of
        columnarizing it).  Only the per-packet path advances the RMT
        pipeline's ``packets_processed`` counter; columnar rows are
        counted by the filter module's batch counters.

        On a multi-tenant switch the batch is all-or-nothing: every probe
        and every requesting packet is checked for a routable
        ``META_TENANT`` label before any probe is applied or any packet
        served, and all violations surface in one
        :class:`~repro.errors.RoutingError`.
        """
        decode = self._codec.decode
        # One pass decodes each packet once and cuts the stream into
        # (data run, probe ending it) segments; nothing is applied yet.
        segments: list[tuple[list[Packet], Packet, ProbeUpdate]] = []
        routed: list[Packet] = []
        run: list[Packet] = []
        for packet in packets:
            update = decode(packet)
            if update is None:
                run.append(packet)
                if packet.metadata.get(META_FILTER_REQUEST):
                    routed.append(packet)
            else:
                segments.append((run, packet, update))
                routed.append(packet)
                run = []
        if self._demux is not None:
            self._demux.check(routed)
        for data, probe, update in segments:
            self._serve_run(data)  # writes may not reorder past reads
            self._apply_probe(probe, update)
        self._serve_run(run)
        return list(packets)

    def _serve_run(self, run: list[Packet]) -> None:
        if not self._filter_only or len(run) < _MIN_COLUMNAR_RUN:
            for packet in run:
                self._pipeline.process(packet)
        elif self._tenants is None:
            assert self._filter is not None
            self._filter.evaluate_batch(run)
        else:
            # Demux the run into per-tenant sub-batches.  Tenants' tables
            # are disjoint, so sub-batch order is immaterial; within each
            # tenant arrival order is preserved.
            assert self._demux is not None
            for name, pkts in self._demux.partition(run).items():
                self._tenants.get(name).module.evaluate_batch(pkts)

    def filter_for(self, packet: Packet) -> Packet:
        """Convenience: mark the packet for filtering and process it."""
        packet.metadata[META_FILTER_REQUEST] = 1
        return self.process(packet)

    # -- local metrics: event-driven updates (section 3, task 1) ------------------------

    def register_event(self, name: str, handler: EventHandler) -> None:
        """Register a custom event (e.g. queue enqueue/dequeue)."""
        if name in self._event_handlers:
            raise ConfigurationError(f"event {name!r} already registered")
        self._event_handlers[name] = handler

    def on_event(self, name: str, **args: int) -> None:
        """Fire a local event; the handler typically updates the SMBM."""
        handler = self._event_handlers.get(name)
        if handler is None:
            raise ConfigurationError(f"no handler for event {name!r}")
        handler(self, args)

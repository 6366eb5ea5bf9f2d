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

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro import obs
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
        # Data runs served, by path: plain ints published at collect time
        # (the FilterModule counter discipline).
        self._columnar_runs = 0
        self._pipeline_runs = 0
        registry = obs.get_registry()
        if registry.enabled:
            registry.add_hook(self._obs_collect)

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

    def _obs_collect(self):
        """Collect hook: publish the run counters as samples."""
        for path, runs in (("columnar", self._columnar_runs),
                           ("pipeline", self._pipeline_runs)):
            yield obs.Sample(
                "switch_runs_total", runs, labels=(("path", path),),
                help="data runs served, by path: columnar = one batch "
                     "call per tenant group, pipeline = packet by packet "
                     "through the RMT stages (a process() call is a run "
                     "of one)",
            )

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
        self._pipeline.process(packet)
        self._pipeline_runs += 1
        return packet

    def _apply_probe(self, packet: Packet, update: ProbeUpdate) -> None:
        module = (self._filter if self._tenants is None
                  else self._tenant_of(packet))
        assert module is not None
        module.update_resource(update.resource_id, update.metrics)
        self._probes_processed += 1

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Process a packet stream with the per-packet semantics of
        :meth:`process`, in one pass over the stream.

        The pass decodes each packet once and cuts the stream at probes
        into data runs.  Probes are applied to the SMBM **in arrival
        order**, each after the run before it is served, so every data
        packet sees exactly the table state it would have seen under
        :meth:`process`.  When the filter is the only RMT stage, each
        run's requesting packets are grouped by ``META_TENANT`` (one
        group on a dedicated switch) and each group is filtered by one
        :meth:`FilterModule.evaluate_batch` call, which writes the
        outputs straight into packet metadata; packets that do not
        request filtering are left alone.  With ingress or egress stages
        every packet traverses the per-packet pipeline instead: other
        stages' tables and register charges must interleave per packet.
        Only the pipeline advances the RMT pipeline's
        ``packets_processed`` counter; ``switch_runs_total`` counts the
        runs each path served.

        On a multi-tenant switch the batch is all-or-nothing: every probe
        and every requesting packet is checked for a routable
        ``META_TENANT`` label before any probe is applied or any packet
        served, and all violations surface in one
        :class:`~repro.errors.RoutingError`.
        """
        decode = self._codec.decode
        fused = self._filter_only
        keyed = self._tenants is not None
        # A fused run maps tenant label (None on a dedicated switch) to
        # its requesting packets; a pipeline run lists every data packet.
        # runs[i] is served before probes[i] is applied.
        run: Any = {} if fused else []
        runs = [run]
        probes: list[tuple[Packet, ProbeUpdate]] = []
        for packet in packets:
            update = decode(packet)
            if update is not None:
                probes.append((packet, update))
                run = {} if fused else []
                runs.append(run)
            elif not fused:
                run.append(packet)
            else:
                meta = packet.metadata
                if meta.get(META_FILTER_REQUEST):
                    key = meta.get(META_TENANT) if keyed else None
                    group = run.get(key)
                    if group is None:
                        run[key] = [packet]
                    else:
                        group.append(packet)
        if keyed:
            self._check_routing(runs, probes)
        serve = self._serve_groups if fused else self._serve_pipeline
        for before, (probe, update) in zip(runs, probes):
            serve(before)  # writes may not reorder past reads
            self._apply_probe(probe, update)
        serve(runs[-1])
        return list(packets)

    def _check_routing(self, runs: list, probes: list) -> None:
        """Count the probes and requesting packets per ``META_TENANT``
        label and let the demux reject the batch if any label is unknown
        or missing."""
        assert self._demux is not None
        counts: dict[str | None, int] = {}
        for probe, _update in probes:
            label = probe.metadata.get(META_TENANT)
            counts[label] = counts.get(label, 0) + 1
        for run in runs:
            if self._filter_only:
                for label, group in run.items():
                    counts[label] = counts.get(label, 0) + len(group)
                continue
            for packet in run:
                meta = packet.metadata
                if meta.get(META_FILTER_REQUEST):
                    label = meta.get(META_TENANT)
                    counts[label] = counts.get(label, 0) + 1
        self._demux.check_labels(counts)

    def _serve_groups(self, run: dict) -> None:
        """Filter one run's per-tenant groups, one batch call each.
        Tenants' tables are disjoint, so group order is immaterial;
        within a group arrival order is kept."""
        if not run:
            return
        self._columnar_runs += 1
        if self._tenants is None:
            assert self._filter is not None
            self._filter.evaluate_batch(run[None])
            return
        for label, group in run.items():
            self._tenants.get(label).module.evaluate_batch(group)

    def _serve_pipeline(self, run: list) -> None:
        if not run:
            return
        self._pipeline_runs += 1
        process = self._pipeline.process
        for packet in run:
            process(packet)

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

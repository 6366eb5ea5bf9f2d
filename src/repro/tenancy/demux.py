"""Backend-neutral tenant demux over ``META_TENANT`` labels.

Every serving path that multiplexes many tenants onto one physical switch
— the scalar per-packet hook, the batched columnar path, and any
:class:`~repro.serving.backend.SwitchBackend` built on top of them —
needs the same routing decision: *which admitted tenant owns this
packet?*  This module centralises that decision so the rule is written
once:

* a requesting packet with no ``META_TENANT`` label is a routing error
  (the ingress classifier must label every probe/data packet);
* a label naming no admitted tenant is a routing error;
* batch demux reports **all** violations of a batch in one
  :class:`~repro.errors.RoutingError` (every distinct unknown label plus
  the count of unlabelled packets), in the all-violations style of
  :class:`~repro.errors.ConfigError` — a client replaying a rejected
  batch learns the complete fix, not one label per round trip.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.batch import META_FILTER_REQUEST
from repro.errors import ConfigurationError, RoutingError
from repro.rmt.packet import META_TENANT, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.tenancy.manager import Tenant, TenantManager

__all__ = ["TenantDemux"]


class TenantDemux:
    """Route packets to their owning tenant by ``META_TENANT`` label."""

    def __init__(self, manager: "TenantManager"):
        self._manager = manager

    @property
    def manager(self) -> "TenantManager":
        return self._manager

    def resolve(self, packet: Packet) -> "Tenant":
        """The admitted tenant owning this packet's traffic.

        Single-packet (scalar path) variant: raises on the first problem,
        since there is only one packet to report on.
        """
        name = packet.metadata.get(META_TENANT)
        if name is None:
            raise RoutingError(
                "packet on a multi-tenant switch carries no META_TENANT "
                "metadata; the ingress classifier must label every "
                "probe/data packet with its tenant",
                unlabelled=1,
            )
        try:
            return self._manager.get(name)
        except ConfigurationError as exc:
            raise RoutingError(str(exc), unknown=(name,)) from None

    def check_labels(self, counts: Mapping[str | None, int]) -> None:
        """Require every routed packet to name an admitted tenant.

        ``counts`` maps each ``META_TENANT`` label seen on the packets
        that must route (a switch counts its probes and requesting data
        packets) to how many carried it; ``None`` counts the unlabelled
        ones.  The check has no side effect, so a batch can be checked
        whole before any packet of it is served.
        """
        admitted = self._manager
        unknown = [name for name in counts
                   if name is not None and name not in admitted]
        unlabelled = counts.get(None, 0)
        if not (unknown or unlabelled):
            return
        parts = []
        if unknown:
            parts.append(
                f"{len(unknown)} unknown META_TENANT label(s) "
                f"{sorted(unknown)} (admitted: "
                f"{sorted(t.name for t in admitted)})"
            )
        if unlabelled:
            parts.append(
                f"{unlabelled} routed packet(s) carry no META_TENANT "
                "metadata"
            )
        raise RoutingError(
            "batch demux on a multi-tenant switch failed: "
            + "; ".join(parts),
            unknown=tuple(sorted(unknown)),
            unlabelled=unlabelled,
        )

    # Off the packet path; kept because perfbench/spans.py patches it.
    def partition(self, packets: Sequence[Packet]) -> dict[str, list[Packet]]:
        """Split a batch's requesting packets into per-tenant sub-batches,
        arrival order kept: ``{tenant_name: [packets...]}``.

        Packets not carrying ``META_FILTER_REQUEST`` bypass demux
        entirely — they touch no tenant's module, so they need no label.
        The batch must have passed :meth:`check_labels`; routing is not checked
        again here.
        """
        by_tenant: dict[str, list[Packet]] = {}
        for packet in packets:
            meta = packet.metadata
            if meta.get(META_FILTER_REQUEST):
                by_tenant.setdefault(meta[META_TENANT], []).append(packet)
        return by_tenant

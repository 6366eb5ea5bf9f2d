"""Backend-neutral serving: one interface, two conforming switch paths.

:class:`SwitchBackend` is the contract the control plane programs against:
tenant lifecycle (program / unprogram / hot-swap), table write-batches,
packet serving (scalar and batch), checkpoint / restore, and a health
probe.  Everything above this interface — the asyncio
:class:`~repro.serving.controller.Controller`, live migration, the chaos
harness — is written once and runs unchanged on any backend.

Two backends conform today, both multiplexing tenants over one
:class:`~repro.switch.thanos_switch.ThanosSwitch`:

* :class:`ScalarBackend` — the per-packet reference path: every packet
  traverses the RMT pipeline individually (``switch.process``);
* :class:`BatchedBackend` — the columnar engine path: probe packets act
  as batch boundaries and the data runs between them go through the
  batch tiers (``switch.process_batch``).

The shared machinery — tenant demux, admission, the epoch watermark
stamped on filter outputs, serving-cache resets on plan or table change —
lives in :class:`_ManagerBackend` (and below it, in
:class:`~repro.tenancy.demux.TenantDemux` and
:class:`~repro.switch.filter_module.FilterModule`), so the backends
differ *only* in how a run of data packets is served.  That is what the
conformance suite checks: same inputs, same outputs, same error shapes,
same observability series (distinguished only by the ``backend`` label).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.findings import Report
from repro.analysis.symbolic import require_semantically_clean
from repro.analysis.verifier import TableSchema
from repro.core.policy import Policy
from repro.errors import ConfigurationError
from repro.rmt.packet import Packet
from repro.serving.checkpoint import (
    SwitchCheckpoint,
    TenantCheckpoint,
    policy_from_dict,
    policy_to_dict,
)
from repro.switch.thanos_switch import ThanosSwitch
from repro.tenancy.demux import TenantDemux
from repro.tenancy.manager import Tenant, TenantManager, TenantSpec

__all__ = [
    "TableWrite",
    "SwitchBackend",
    "ScalarBackend",
    "BatchedBackend",
    "build_backend",
    "conformance_report",
    "spec_from_checkpoint",
]


@dataclass(frozen=True)
class TableWrite:
    """One resource-table mutation addressed to a tenant.

    ``metrics=None`` deletes the resource; otherwise the write is the
    composite delete+add update of section 5.1.2.
    """

    tenant: str
    resource_id: int
    metrics: Mapping[str, int] | None = None


def spec_from_checkpoint(ckpt: TenantCheckpoint) -> TenantSpec:
    """The admission spec a checkpointed tenant re-enters with.

    The policy admitted is the checkpoint's *live* policy (post any
    hot-swaps on the source), so the destination compiles exactly the plan
    that was serving; the epoch lineage is re-stamped by
    :meth:`FilterModule.restore_table` after admission.
    """
    return TenantSpec(
        name=ckpt.name,
        policy=policy_from_dict(ckpt.policy),
        smbm_quota=ckpt.smbm_quota,
        columns=ckpt.columns,
        cell_quota=ckpt.cell_quota,
        lfsr_seed=ckpt.lfsr_seed,
        memoize=ckpt.memoize,
        self_healing=ckpt.self_healing,
        sanitize=ckpt.sanitize,
    )


class SwitchBackend(abc.ABC):
    """The serving contract a control plane programs against."""

    #: Short identifier used as the ``backend`` label on obs series.
    name: str = "abstract"

    # -- tenant lifecycle --------------------------------------------------------------

    @abc.abstractmethod
    def program_tenant(self, spec: TenantSpec) -> Tenant:
        """Admit and program a tenant; static TH013/TH014 gates apply."""

    @abc.abstractmethod
    def unprogram_tenant(self, name: str) -> None:
        """Evict a tenant, returning its slice to the free pools."""

    @abc.abstractmethod
    def hot_swap(self, name: str, policy: Policy, *,
                 allow_semantic_change: bool = True) -> int:
        """Hitlessly replace a tenant's policy; returns the new epoch.

        The serving path escalates the TH017–TH019 reachability lints to
        errors — a policy with a provably-dead region must not be swapped
        in live.  With ``allow_semantic_change=False`` a swap that
        *widens* the admitted match region is additionally rejected
        (TH020): only equivalent or narrowing replacements install.
        """

    # -- table maintenance -------------------------------------------------------------

    @abc.abstractmethod
    def write_batch(self, writes: Iterable[TableWrite]) -> int:
        """Apply table writes in order; returns the count applied."""

    # -- serving -----------------------------------------------------------------------

    @abc.abstractmethod
    def process(self, packet: Packet) -> Packet:
        """Serve one packet (probe or data)."""

    @abc.abstractmethod
    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Serve a packet stream, preserving per-packet semantics."""

    # -- checkpoint / restore ----------------------------------------------------------

    @abc.abstractmethod
    def snapshot_tenant(self, name: str) -> TenantCheckpoint:
        """Capture one tenant's complete serving state."""

    @abc.abstractmethod
    def restore_tenant(self, ckpt: TenantCheckpoint) -> Tenant:
        """Recreate a tenant from a checkpoint: admit its spec, restore
        its table bit-faithfully, re-stamp its epoch watermark."""

    @abc.abstractmethod
    def snapshot(self) -> SwitchCheckpoint:
        """Capture the whole switch: geometry plus every tenant."""

    # -- health ------------------------------------------------------------------------

    @abc.abstractmethod
    def health(self) -> dict[str, object]:
        """A liveness/degradation summary for the control plane."""


class _ManagerBackend(SwitchBackend):
    """Shared implementation over a :class:`TenantManager` and a
    multi-tenant :class:`ThanosSwitch`.

    Subclasses override only :meth:`_serve_batch`.  Routing of a whole
    batch is validated *up front* through the shared
    :class:`TenantDemux` — all distinct unknown labels and the unlabelled
    count in one :class:`~repro.errors.RoutingError`, before any packet
    is served — so both backends present identical all-or-nothing batch
    admission regardless of how they serve.
    """

    def __init__(self, manager: TenantManager):
        self._manager = manager
        self._switch = ThanosSwitch.multi_tenant(manager)
        self._demux = TenantDemux(manager)
        registry = obs.get_registry()
        labels = {"backend": self.name}
        self._obs_packets = registry.counter(
            "backend_packets_total", labels,
            help="packets served through the backend (scalar + batch)",
        )
        self._obs_writes = registry.counter(
            "backend_table_writes_total", labels,
            help="table writes applied through write_batch",
        )
        self._obs_snapshots = registry.counter(
            "backend_snapshots_total", labels,
            help="tenant checkpoints captured",
        )
        self._obs_restores = registry.counter(
            "backend_restores_total", labels,
            help="tenants recreated from checkpoints",
        )

    # -- introspection -----------------------------------------------------------------

    @property
    def manager(self) -> TenantManager:
        """The admission path every tenant-lifecycle op serializes through."""
        return self._manager

    @property
    def switch(self) -> ThanosSwitch:
        return self._switch

    # -- tenant lifecycle --------------------------------------------------------------

    def program_tenant(self, spec: TenantSpec) -> Tenant:
        return self._manager.admit(spec)

    def unprogram_tenant(self, name: str) -> None:
        self._manager.evict(name)

    def hot_swap(self, name: str, policy: Policy, *,
                 allow_semantic_change: bool = True) -> int:
        # Serving-time escalation: reachability lints that compile as
        # warnings (TH017–TH019) are install-blocking here — a live swap
        # to a policy with provably-dead regions is operator error.
        tenant = self._manager.get(name)
        require_semantically_clean(
            policy,
            schema=TableSchema(
                tenant.slice.smbm_quota, self._manager.metric_names
            ),
            context=f"hot-swap of tenant {name!r}",
        )
        return self._manager.hot_swap(
            name, policy, allow_semantic_change=allow_semantic_change
        )

    # -- table maintenance -------------------------------------------------------------

    def write_batch(self, writes: Iterable[TableWrite]) -> int:
        applied = 0
        for write in writes:
            module = self._manager.get(write.tenant).module
            if write.metrics is None:
                module.remove_resource(write.resource_id)
            else:
                module.update_resource(write.resource_id, write.metrics)
            applied += 1
        self._obs_writes.inc(applied)
        return applied

    # -- serving -----------------------------------------------------------------------

    def process(self, packet: Packet) -> Packet:
        out = self._switch.process(packet)
        self._obs_packets.inc()
        return out

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        # One demux pass over the whole batch surfaces every routing
        # violation before any packet is served; per-packet serving later
        # re-resolves each label against the (unchanged) admitted set.
        self._demux.partition(packets)
        out = self._serve_batch(packets)
        self._obs_packets.inc(len(packets))
        return out

    @abc.abstractmethod
    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """The one point the two backends differ."""

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot_tenant(self, name: str) -> TenantCheckpoint:
        tenant = self._manager.get(name)
        spec = tenant.spec
        ckpt = TenantCheckpoint(
            name=tenant.name,
            # The live policy, not the admitted one: hot-swaps must
            # survive a checkpoint.
            policy=policy_to_dict(tenant.module.policy),
            smbm_state=tenant.module.smbm.export_state(),
            plan_epoch=tenant.module.plan_epoch,
            smbm_quota=spec.smbm_quota,
            # Count, not physical indices: the destination allocates its
            # own strip, and snapshots stay comparable across switches.
            columns=len(tenant.columns),
            cell_quota=spec.cell_quota,
            lfsr_seed=spec.lfsr_seed,
            memoize=spec.memoize,
            self_healing=spec.self_healing,
            sanitize=spec.sanitize,
        )
        self._obs_snapshots.inc()
        return ckpt

    def restore_tenant(self, ckpt: TenantCheckpoint) -> Tenant:
        tenant = self._manager.admit(spec_from_checkpoint(ckpt))
        try:
            tenant.module.restore_table(
                ckpt.smbm_state, plan_epoch=ckpt.plan_epoch
            )
        except Exception:
            # Never leave a half-restored tenant serving: a tenant that
            # admitted but failed to restore is evicted before the error
            # propagates.
            self._manager.evict(ckpt.name)
            raise
        self._obs_restores.inc()
        return tenant

    def snapshot(self) -> SwitchCheckpoint:
        return SwitchCheckpoint.build(
            self._manager.metric_names,
            self._manager.params,
            self._manager.smbm_capacity,
            [self.snapshot_tenant(t.name) for t in self._manager],
        )

    # -- health ------------------------------------------------------------------------

    def health(self) -> dict[str, object]:
        degraded = sorted(
            t.name for t in self._manager if t.module.degraded
        )
        return {
            "backend": self.name,
            "healthy": not degraded,
            "tenants": len(self._manager),
            "degraded_tenants": degraded,
            "free_columns": len(self._manager.free_columns),
            "free_smbm_rows": self._manager.free_smbm_rows,
            "probes_processed": self._switch.probes_processed,
        }


class ScalarBackend(_ManagerBackend):
    """The per-packet reference path: every packet, probe or data,
    traverses the RMT pipeline individually."""

    name = "scalar"

    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        return [self._switch.process(p) for p in packets]


class BatchedBackend(_ManagerBackend):
    """The columnar engine path: probes are batch boundaries, data runs
    between them go through the batch tiers."""

    name = "batched"

    def _serve_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        return self._switch.process_batch(packets)


def build_backend(kind: str, manager: TenantManager) -> _ManagerBackend:
    """Backend factory for CLIs and harnesses (``scalar`` | ``batched``)."""
    backends = {"scalar": ScalarBackend, "batched": BatchedBackend}
    try:
        cls = backends[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {kind!r}; choose from {sorted(backends)}"
        ) from None
    return cls(manager)


def conformance_report(
    left: SwitchBackend, right: SwitchBackend, name: str
) -> Report:
    """Compare one tenant's snapshots across two backends (delegates to
    the analysis layer's TH015 checkpoint-faithfulness rule)."""
    from repro.analysis.conformance import verify_checkpoint_roundtrip

    return verify_checkpoint_roundtrip(left, right, name)

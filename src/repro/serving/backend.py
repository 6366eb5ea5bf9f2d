"""The serving backend: the one switch a control plane programs against.

:class:`SwitchBackend` covers tenant lifecycle (program / unprogram /
hot-swap), table write-batches, packet serving, checkpoint / restore and
a health probe, over a :class:`~repro.tenancy.manager.TenantManager` and
the multi-tenant :class:`~repro.switch.thanos_switch.ThanosSwitch` it
drives.  Everything above it — the asyncio
:class:`~repro.serving.controller.Controller`, live migration, crash
recovery, the chaos harness — is written against this class.

Serving has no mode to choose: :meth:`SwitchBackend.process_batch` hands
the stream to :meth:`ThanosSwitch.process_batch`, which makes one pass
over it, checks the whole batch's routing before any packet is served,
applies probes in arrival order and filters each run of data packets
between them as one batch per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import obs
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
from repro.tenancy.manager import Tenant, TenantManager, TenantSpec

__all__ = [
    "TableWrite",
    "SwitchBackend",
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


class SwitchBackend:
    """The serving contract a control plane programs against: one
    multi-tenant switch over a :class:`TenantManager`."""

    def __init__(self, manager: TenantManager):
        self._manager = manager
        self._switch = ThanosSwitch.multi_tenant(manager)
        registry = obs.get_registry()
        self._obs_packets = registry.counter(
            "backend_packets_total",
            help="packets served through the backend (scalar + batch)",
        )
        self._obs_writes = registry.counter(
            "backend_table_writes_total",
            help="table writes applied through write_batch",
        )
        self._obs_snapshots = registry.counter(
            "backend_snapshots_total",
            help="tenant checkpoints captured",
        )
        self._obs_restores = registry.counter(
            "backend_restores_total",
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
        """Admit and program a tenant; static TH013/TH014 gates apply."""
        return self._manager.admit(spec)

    def unprogram_tenant(self, name: str) -> None:
        """Evict a tenant, returning its slice to the free pools."""
        self._manager.evict(name)

    def hot_swap(self, name: str, policy: Policy, *,
                 allow_semantic_change: bool = True) -> int:
        """Hitlessly replace a tenant's policy; returns the new epoch.

        The serving path escalates the TH017–TH019 reachability lints to
        errors — a policy with a provably-dead region must not be swapped
        in live.  With ``allow_semantic_change=False`` a swap that
        *widens* the admitted match region is additionally rejected
        (TH020): only equivalent or narrowing replacements install.
        """
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
        """Apply table writes in order; returns the count applied."""
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
        """Serve one packet (probe or data)."""
        out = self._switch.process(packet)
        self._obs_packets.inc()
        return out

    def process_batch(self, packets: Sequence[Packet]) -> list[Packet]:
        """Serve a packet stream with per-packet semantics; a routing
        violation anywhere in it raises before any packet is served."""
        out = self._switch.process_batch(packets)
        self._obs_packets.inc(len(packets))
        return out

    # -- checkpoint / restore ----------------------------------------------------------

    def snapshot_tenant(self, name: str) -> TenantCheckpoint:
        """Capture one tenant's complete serving state."""
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
        """Recreate a tenant from a checkpoint: admit its spec, restore
        its table bit-faithfully, re-stamp its epoch watermark."""
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
        """Capture the whole switch: geometry plus every tenant."""
        return SwitchCheckpoint.build(
            self._manager.metric_names,
            self._manager.params,
            self._manager.smbm_capacity,
            [self.snapshot_tenant(t.name) for t in self._manager],
        )

    # -- health ------------------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """A liveness/degradation summary for the control plane."""
        degraded = sorted(
            t.name for t in self._manager if t.module.degraded
        )
        return {
            "healthy": not degraded,
            "tenants": len(self._manager),
            "degraded_tenants": degraded,
            "free_columns": len(self._manager.free_columns),
            "free_smbm_rows": self._manager.free_smbm_rows,
            "probes_processed": self._switch.probes_processed,
        }


#: Kept for ``perfbench/``, which imports and patches this name.
BatchedBackend = SwitchBackend


def build_backend(kind: str, manager: TenantManager) -> SwitchBackend:
    """Kept for ``perfbench/``, which builds its backend by this name."""
    if kind != "batched":
        raise ConfigurationError(
            f"unknown backend {kind!r}; the one backend is 'batched'"
        )
    return SwitchBackend(manager)


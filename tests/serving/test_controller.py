"""The asyncio control plane: concurrency, ordering, and observability.

The repo carries no asyncio pytest plugin, so every test is a plain sync
function driving its scenario through ``asyncio.run`` — the controller's
public API is awaitable either way.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import obs
from repro.core.operators import RelOp
from repro.core.policy import Policy, TableRef, min_of, predicate
from repro.errors import CompilationError, ConfigurationError
from repro.engine.batch import META_FILTER_OUTPUT, META_FILTER_REQUEST
from repro.rmt.packet import META_TENANT, Packet
from repro.serving.backend import SwitchBackend, TableWrite
from repro.serving.controller import Controller
from repro.tenancy.manager import TenantManager, TenantSpec

METRICS = ("cpu", "mem")


def _policy(name="ll") -> Policy:
    return Policy(min_of(TableRef(), "cpu"), name=name)


def _spec(name: str) -> TenantSpec:
    return TenantSpec(name=name, policy=_policy(), smbm_quota=8)


def _backend():
    return SwitchBackend(TenantManager(METRICS, smbm_capacity=16))


@pytest.mark.parametrize("entry", ["batched", "scalar"])
def test_concurrent_clients_admit_and_write(entry):
    backend = _backend()

    async def client(ctl: Controller, name: str) -> None:
        await ctl.add_tenant(_spec(name))
        for i in range(10):
            await ctl.update_resource(name, i % 4, {"cpu": i, "mem": i})

    async def scenario():
        async with Controller(backend) as ctl:
            await asyncio.gather(client(ctl, "a"), client(ctl, "b"))

    asyncio.run(scenario())
    assert len(backend.manager) == 2
    for name in ("a", "b"):
        module = backend.manager.get(name).module
        assert len(module.smbm) == 4
        # The controller's writes are what the data path serves, per
        # packet (scalar) or as a columnar run (batched).
        packets = [Packet(metadata={META_FILTER_REQUEST: 1, META_TENANT: name})
                   for _ in range(16)]
        if entry == "scalar":
            for packet in packets:
                backend.process(packet)
        else:
            backend.process_batch(packets)
        assert {p.metadata[META_FILTER_OUTPUT] for p in packets} == \
            {module.evaluate().value}


def test_per_tenant_ops_apply_in_submission_order():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            # Fire a dependent sequence without awaiting intermediates:
            # all land on tenant t's FIFO queue and must apply in order.
            writes = [
                asyncio.ensure_future(
                    ctl.update_resource("t", 1, {"cpu": i, "mem": i})
                )
                for i in range(50)
            ]
            await asyncio.gather(*writes)

    asyncio.run(scenario())
    smbm = backend.manager.get("t").module.smbm
    assert smbm.snapshot()[1] == {"cpu": 49, "mem": 49}  # last write wins
    # 1 add + 49 updates, each an SMBM version bump (update = delete+add
    # composite commits once per op through update_resource).
    assert len(smbm) == 1


def test_interleaved_tenants_do_not_block_each_other():
    backend = _backend()
    order: list[str] = []

    async def client(ctl, name, n):
        await ctl.add_tenant(_spec(name))
        for i in range(n):
            await ctl.update_resource(name, 0, {"cpu": i, "mem": 0})
            order.append(name)

    async def scenario():
        async with Controller(backend) as ctl:
            await asyncio.gather(client(ctl, "a", 20), client(ctl, "b", 20))

    asyncio.run(scenario())
    # Both tenants' streams completed and genuinely interleaved (neither
    # ran to completion before the other started).
    assert order.count("a") == order.count("b") == 20
    assert order[:20].count("a") < 20 and order[:20].count("b") < 20


def test_errors_relay_to_the_submitting_client():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(CompilationError):
                await ctl.add_tenant(_spec("t"))  # double admission
            with pytest.raises(ConfigurationError):
                await ctl.update_resource("ghost", 1, {"cpu": 1, "mem": 1})
            # The controller survives client errors: next op applies.
            await ctl.update_resource("t", 1, {"cpu": 1, "mem": 1})

    asyncio.run(scenario())
    assert len(backend.manager.get("t").module.smbm) == 1


def test_hot_swap_serializes_with_writes():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            futures = [
                asyncio.ensure_future(
                    ctl.update_resource("t", i, {"cpu": i, "mem": i})
                )
                for i in range(5)
            ]
            swap = asyncio.ensure_future(ctl.hot_swap(
                "t", Policy(predicate(TableRef(), "cpu", RelOp.LT, 3),
                            name="swapped"),
            ))
            await asyncio.gather(*futures, swap)
            return swap.result()

    epoch = asyncio.run(scenario())
    assert epoch == 1
    assert backend.manager.get("t").module.policy.name == "swapped"


def test_write_batch_rejects_foreign_tenant_writes():
    backend = _backend()

    async def scenario():
        async with Controller(backend) as ctl:
            await ctl.add_tenant(_spec("t"))
            with pytest.raises(ConfigurationError):
                await ctl.write_batch("t", [
                    TableWrite("other", 1, {"cpu": 1, "mem": 1}),
                ])
            return await ctl.write_batch("t", [
                TableWrite("t", 1, {"cpu": 1, "mem": 1}),
                TableWrite("t", 2, {"cpu": 2, "mem": 2}),
                TableWrite("t", 1, None),
            ])

    assert asyncio.run(scenario()) == 3
    assert sorted(backend.manager.get("t").module.smbm.snapshot()) == [2]


def test_closed_controller_rejects_submissions():
    backend = _backend()

    async def scenario():
        ctl = Controller(backend)
        await ctl.add_tenant(_spec("t"))
        await ctl.aclose()
        with pytest.raises(ConfigurationError):
            await ctl.add_tenant(_spec("u"))

    asyncio.run(scenario())


def test_controller_obs_series():
    registry = obs.MetricsRegistry()
    with obs.use_registry(registry):
        backend = _backend()

        async def scenario():
            async with Controller(backend) as ctl:
                await ctl.add_tenant(_spec("t"))
                for i in range(3):
                    await ctl.update_resource("t", i, {"cpu": i, "mem": i})
                try:
                    await ctl.update_resource("ghost", 0,
                                              {"cpu": 0, "mem": 0})
                except ConfigurationError:
                    pass

        asyncio.run(scenario())
        snap = obs.snapshot(registry)
    counters = snap["counters"]
    assert counters[
        'controller_ops_total{op="add_tenant",outcome="ok"}'
    ] == 1
    assert counters[
        'controller_ops_total{op="update_resource",outcome="ok"}'
    ] == 3
    assert counters[
        'controller_ops_total{op="update_resource",outcome="error"}'
    ] == 1
    gauges = snap["gauges"]
    assert 'controller_queue_depth{tenant="t"}' in gauges
    assert any(k.startswith("controller_apply_ns") for k in snap["histograms"])


def test_module_smoke_entrypoint(capsys):
    from repro.serving.controller import main

    assert main(["--writes", "4"]) == 0
    out = capsys.readouterr().out
    assert "healthy" in out
    assert "controller_ops_total" in out

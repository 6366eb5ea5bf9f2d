"""Differential tests: batched columnar evaluation vs N scalar evaluations.

``FilterModule.evaluate_batch`` must be observationally identical to
looping :meth:`FilterModule.evaluate` (uniform rows) /
:meth:`CompiledPolicy.evaluate_restricted` (masked rows) — across
randomized policies, random per-row candidate masks, table mutations
between batches, both masked-row engines (the specialized kernel of a
verified plan and the interpreted :class:`BatchedEvaluator` of a
``verify=False`` build), and stateful policies served by the per-row
fallback path.
"""

from __future__ import annotations

import random

import pytest

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Node,
    Policy,
    TableRef,
    difference,
    intersection,
    max_of,
    min_of,
    predicate,
    round_robin,
    union,
)
from repro.core.smbm import SMBM
from repro.engine import BatchedEvaluator
from repro.errors import CompilationError, ConfigurationError
from repro.switch.filter_module import FilterModule, PacketBatch

CAP = 32
METRICS = ("a", "b")
VALUE_RANGE = 16


def _random_write(rng: random.Random, smbm: SMBM) -> None:
    rid = rng.randrange(CAP)
    metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
    if rid in smbm:
        if rng.random() < 0.5:
            smbm.delete(rid)
        else:
            smbm.update(rid, metrics)
    elif not smbm.is_full():
        smbm.add(rid, metrics)
    else:
        smbm.delete(rid)


def _random_stateless_node(rng: random.Random, depth: int) -> Node:
    """A random stateless policy node (batch-engine eligible shapes)."""
    if depth <= 0 or rng.random() < 0.3:
        attr = rng.choice(METRICS)
        kind = rng.randrange(3)
        if kind == 0:
            return predicate(
                TableRef(), attr, rng.choice(list(RelOp)),
                rng.randrange(-2, VALUE_RANGE + 2),
            )
        k = rng.choice((1, 1, 2))
        return (min_of if kind == 1 else max_of)(TableRef(), attr, k=k)
    if rng.random() < 0.55:
        combine = rng.choice([union, intersection, difference])
        return combine(
            _random_stateless_node(rng, depth - 1),
            _random_stateless_node(rng, depth - 1),
        )
    attr = rng.choice(METRICS)
    child = _random_stateless_node(rng, depth - 1)
    if rng.random() < 0.5:
        return predicate(child, attr, rng.choice(list(RelOp)),
                         rng.randrange(-2, VALUE_RANGE + 2))
    return (min_of if rng.random() < 0.5 else max_of)(child, attr)


def _random_stateless_root(rng: random.Random) -> Node:
    """A random policy root; Conditionals are only legal at the root
    (the selecting MUX lives in the RMT stage after the filter)."""
    if rng.random() < 0.25:
        return Conditional(
            primary=_random_stateless_node(rng, rng.randrange(2)),
            fallback=_random_stateless_node(rng, rng.randrange(2)),
        )
    return _random_stateless_node(rng, rng.randrange(3))


def _build_module(rng: random.Random, name: str, **kwargs) -> FilterModule:
    """A FilterModule over a random policy that fits the pipeline."""
    for attempt in range(50):
        node = _random_stateless_root(rng)
        try:
            return FilterModule(
                CAP, METRICS, Policy(node, name=f"{name}{attempt}"),
                PipelineParams(), **kwargs,
            )
        except CompilationError:
            continue
    raise AssertionError("no random policy compiled in 50 tries")


def _random_masked_batch(rng: random.Random, size: int) -> PacketBatch:
    masks = [
        None if rng.random() < 0.2 else rng.getrandbits(CAP)
        for _ in range(size)
    ]
    request = [rng.random() < 0.9 for _ in range(size)]
    return PacketBatch(size, request=request, input_masks=masks)


def _check_batch_matches_scalar(module: FilterModule,
                                batch: PacketBatch) -> None:
    """Every evaluated row equals the scalar path on the same mask."""
    out_batch = module.evaluate_batch(batch)
    full_out = module.evaluate().value
    masks = batch.input_masks or [None] * batch.size
    for row in range(batch.size):
        if not batch.request[row]:
            assert out_batch.outputs[row] is None
            continue
        if masks[row] is None:
            expected = full_out
        else:
            expected = module.compiled.evaluate_restricted(
                module.smbm, masks[row]
            ).value
        assert out_batch.outputs[row] == expected, (
            f"row {row} (mask {masks[row]!r}) disagrees with scalar path"
        )
        if expected.bit_count() == 1:
            assert out_batch.selected[row] == expected.bit_length() - 1
        else:
            assert out_batch.selected[row] == -1


class TestBatchVsScalarDifferential:
    """Randomized policies x masks x table mutations, both engines."""

    def _run(self, rng: random.Random, *, rounds: int, **kwargs) -> int:
        cases = 0
        for round_no in range(rounds):
            module = _build_module(rng, f"p{round_no}", **kwargs)
            for _ in range(rng.randrange(3, 30)):
                _random_write(rng, module.smbm)
            for _ in range(3):
                batch = _random_masked_batch(rng, rng.randrange(1, 24))
                _check_batch_matches_scalar(module, batch)
                cases += batch.size
                # Mutations between batches must invalidate the memo and
                # the engine's per-version constants.
                _random_write(rng, module.smbm)
            uniform = PacketBatch.uniform(rng.randrange(1, 16))
            _check_batch_matches_scalar(module, uniform)
            cases += uniform.size
        return cases

    def test_randomized_cases_fallback_lane(self, rng):
        """``verify=False`` builds have no kernel: masked rows take the
        interpreted int-mask walk of :class:`BatchedEvaluator`."""
        assert self._run(rng, rounds=20, verify=False) >= 200

    def test_randomized_kernel_lane(self, rng):
        """Verified builds serve masked rows through the plan's kernel."""
        assert self._run(rng, rounds=20) >= 200

    def test_lanes_agree_bit_for_bit(self, rng):
        """The specialized kernel and the interpreted columnar walk are the
        same function: identical outputs on identical 24-row batches."""
        verified = _build_module(rng, "lane")
        assert verified.codegen is not None
        unverified = FilterModule(
            CAP, METRICS, verified.policy, PipelineParams(), verify=False,
        )
        assert unverified.codegen is None
        for _ in range(20):
            rid = rng.randrange(CAP)
            metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
            verified.update_resource(rid, metrics)
            unverified.update_resource(rid, metrics)
        batch_kernel = _random_masked_batch(rng, 24)
        batch_walk = PacketBatch(
            batch_kernel.size,
            request=list(batch_kernel.request),
            input_masks=list(batch_kernel.input_masks),
        )
        verified.evaluate_batch(batch_kernel)
        unverified.evaluate_batch(batch_walk)
        assert batch_kernel.outputs == batch_walk.outputs
        assert batch_kernel.selected == batch_walk.selected
        _check_batch_matches_scalar(unverified, batch_walk)


class TestServingPaths:
    def test_uniform_stateless_broadcasts(self, rng):
        module = _build_module(rng, "bc")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch.uniform(16))
        counters = module.batch_counters()
        assert counters["batches"] == 1
        assert counters["broadcast_rows"] == 16
        assert counters["engine_rows"] == counters["fallback_rows"] == 0

    def test_masked_stateless_uses_engine(self, rng):
        module = _build_module(rng, "eng")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch(8, input_masks=[1] * 8))
        assert module.batch_counters()["engine_rows"] == 8
        assert module.batch_counters()["fallback_rows"] == 0

    def test_stateful_policy_falls_back_per_row(self, rng):
        """Stateful units advance per packet: the batch must replay them
        row by row, matching a scalar loop exactly."""
        policy = Policy(round_robin(TableRef(), "a"), name="rr")
        batched = FilterModule(CAP, METRICS, policy, PipelineParams())
        scalar = FilterModule(CAP, METRICS, policy, PipelineParams())
        for rid in range(6):
            metrics = {m: rng.randrange(VALUE_RANGE) for m in METRICS}
            batched.smbm.add(rid, metrics)
            scalar.smbm.add(rid, metrics)
        batch = PacketBatch.uniform(9)
        batched.evaluate_batch(batch)
        expected = [scalar.evaluate().value for _ in range(9)]
        assert batch.outputs == expected
        assert len(set(expected)) > 1  # the round-robin actually advanced
        assert batched.batch_counters()["fallback_rows"] == 9

    def test_memoized_broadcast_reuses_version_cache(self, rng):
        module = _build_module(rng, "memo")
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate_batch(PacketBatch.uniform(8))
        hits_before = module.counters()["cache_hits"]
        module.evaluate_batch(PacketBatch.uniform(8))
        assert module.counters()["cache_hits"] > hits_before

    def test_empty_and_non_requesting_batches(self, rng):
        module = _build_module(rng, "empty")
        out = module.evaluate_batch(PacketBatch(0))
        assert out.size == 0
        quiet = PacketBatch(4, request=[False] * 4)
        module.evaluate_batch(quiet)
        assert quiet.outputs == [None] * 4


class TestBatchedEvaluatorGuards:
    def test_rejects_stateful_policies(self):
        with pytest.raises(ConfigurationError):
            BatchedEvaluator(
                Policy(round_robin(TableRef(), "a"), name="rr"), CAP
            )

    def test_rejects_caller_supplied_inputs(self):
        with pytest.raises(ConfigurationError):
            BatchedEvaluator(
                Policy(min_of(TableRef(input_index=1), "a"), name="idx"), CAP
            )

    def test_rejects_capacity_mismatch(self, rng):
        module = _build_module(rng, "cap")
        evaluator = BatchedEvaluator(module.compiled.policy, CAP * 2)
        with pytest.raises(ConfigurationError):
            evaluator.evaluate_masks(module.smbm, [1])

"""Differential tests: specialized codegen kernels vs the interpreted plan.

The verified-then-specialized bargain only holds if the flat closure the
codegen tier emits is *observationally identical* to the interpreted Cell
pipeline it replaces.  These suites drive well over 1000 randomized
(policy x table-state) cases through both paths — full-table and
masked-row evaluations of the one int-bitmask kernel, cache invalidation
across SMBM writes — plus the path rule (a verified eligible plan gets a
kernel by default; ``verify=False``, naive and ineligible plans do not;
self-healing and injected Cell faults route misses through the Cells) and
the sanitizer's kernel-vs-oracle check.
"""

from __future__ import annotations

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler import PolicyCompiler
from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import (
    Conditional,
    Policy,
    TableRef,
    max_of,
    min_of,
    predicate,
    random_pick,
)
from repro.core.smbm import SMBM
from repro.engine import PlanCodegen, plan_hash_of
from repro.engine.codegen import generate_plan_source
from repro.errors import (
    CellFault,
    CompilationError,
    ConfigurationError,
    IntegrityError,
)
from repro.switch.filter_module import FilterModule, PacketBatch

from tests.engine.test_batch_differential import (
    CAP,
    METRICS,
    VALUE_RANGE,
    _build_module,
    _random_masked_batch,
    _random_stateless_root,
    _random_write,
)

PARAMS = PipelineParams()


def _compile_random(rng: random.Random, name: str):
    """A random codegen-eligible compiled policy (with the kernel attached)."""
    compiler = PolicyCompiler(PARAMS)
    from repro.analysis import TableSchema

    schema = TableSchema(CAP, METRICS)
    for attempt in range(50):
        policy = Policy(_random_stateless_root(rng), name=f"{name}{attempt}")
        try:
            return compiler.compile(policy, schema=schema)
        except CompilationError:
            continue
    raise AssertionError("no random policy compiled in 50 tries")


class TestCodegenVsInterpreted:
    """>= 1000 randomized differential cases, full-table and masked rows."""

    def test_randomized_cases(self, rng):
        cases = 0
        for round_no in range(60):
            compiled = _compile_random(rng, f"cg{round_no}")
            codegen = compiled.codegen
            assert codegen is not None
            smbm = SMBM(CAP, METRICS)
            for _ in range(rng.randrange(2, 25)):
                _random_write(rng, smbm)
            for _ in range(4):
                # Full-table kernel vs the interpreted Cell pipeline.
                assert codegen.evaluate(smbm) == compiled.evaluate(smbm).value
                cases += 1
                # Masked rows vs the restricted interpreted pipeline.
                masks = [rng.getrandbits(CAP) for _ in
                         range(rng.randrange(1, 12))]
                outs = codegen.evaluate_masks(smbm, masks)
                for mask, out in zip(masks, outs):
                    assert out == compiled.evaluate_restricted(
                        smbm, mask
                    ).value, (
                        f"kernel disagrees on mask {mask:#x} for "
                        f"{compiled.policy.name}"
                    )
                    cases += 1
                # Writes in between force respecialization on new versions.
                _random_write(rng, smbm)
        assert cases >= 1000, f"only {cases} differential cases ran"

    def test_fallback_lane_randomized(self, rng):
        """Multi-row batches (16 rows) through ``evaluate_masks`` equal the
        restricted interpreted pipeline row by row."""
        cases = 0
        for round_no in range(15):
            compiled = _compile_random(rng, f"py{round_no}")
            smbm = SMBM(CAP, METRICS)
            for _ in range(rng.randrange(2, 25)):
                _random_write(rng, smbm)
            masks = [rng.getrandbits(CAP) for _ in range(16)]
            outs = compiled.codegen.evaluate_masks(smbm, masks)
            for mask, out in zip(masks, outs):
                assert out == compiled.evaluate_restricted(smbm, mask).value
                cases += 1
        assert cases >= 200

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        writes=st.lists(
            st.tuples(st.integers(0, CAP - 1),
                      st.integers(0, VALUE_RANGE - 1),
                      st.integers(0, VALUE_RANGE - 1)),
            max_size=30,
        ),
        mask=st.integers(0, (1 << CAP) - 1),
    )
    def test_hypothesis_kernel_equals_interpreted(self, seed, writes, mask):
        rng = random.Random(seed)
        compiled = _compile_random(rng, "hyp")
        smbm = SMBM(CAP, METRICS)
        for rid, a, b in writes:
            if rid in smbm:
                smbm.update(rid, {"a": a, "b": b})
            else:
                smbm.add(rid, {"a": a, "b": b})
        assert compiled.codegen.evaluate(smbm) == \
            compiled.evaluate(smbm).value
        [out] = compiled.codegen.evaluate_masks(smbm, [mask])
        assert out == compiled.evaluate_restricted(smbm, mask).value

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 20),
    )
    def test_hypothesis_batch_equals_scalar_loop(self, seed, size):
        """evaluate_batch == N scalar evaluations, module level."""
        rng = random.Random(seed)
        module = _build_module(rng, "hb")
        assert module.codegen is not None
        for _ in range(rng.randrange(1, 20)):
            _random_write(rng, module.smbm)
        batch = _random_masked_batch(rng, size)
        module.evaluate_batch(batch)
        masks = batch.input_masks or [None] * size
        full = module.evaluate().value
        for row in range(size):
            if not batch.request[row]:
                assert batch.outputs[row] is None
            elif masks[row] is None:
                assert batch.outputs[row] == full
            else:
                assert batch.outputs[row] == \
                    module.compiled.evaluate_restricted(
                        module.smbm, masks[row]
                    ).value


class TestSpecializationCache:
    def test_version_keyed_invalidation(self, rng):
        compiled = _compile_random(rng, "cache")
        codegen = compiled.codegen
        smbm = SMBM(CAP, METRICS)
        _random_write(rng, smbm)
        codegen.evaluate(smbm)
        misses = codegen.cache_misses
        codegen.evaluate(smbm)          # unchanged version: a hit
        assert codegen.cache_misses == misses
        assert codegen.cache_hits >= 1
        _random_write(rng, smbm)        # version moved: respecialize
        codegen.evaluate(smbm)
        assert codegen.cache_misses == misses + 1

    def test_source_cache_shared_across_equal_plans(self):
        node = lambda: min_of(  # noqa: E731 - tiny local factory
            predicate(TableRef(), "a", RelOp.LT, 9), "b"
        )
        first = PolicyCompiler(PARAMS).compile(
            Policy(node(), name="one"),
        )
        second = PolicyCompiler(PARAMS).compile(
            Policy(node(), name="two"),
        )
        assert first.codegen.plan_hash == second.codegen.plan_hash
        assert first.codegen.source == second.codegen.source

    def test_plan_hash_sensitivity(self):
        base = Policy(
            predicate(TableRef(), "a", RelOp.LT, 9), name="p"
        )
        same = Policy(
            predicate(TableRef(), "a", RelOp.LT, 9), name="renamed"
        )
        different_val = Policy(
            predicate(TableRef(), "a", RelOp.LT, 10), name="p"
        )
        different_op = Policy(
            predicate(TableRef(), "a", RelOp.GE, 9), name="p"
        )
        assert plan_hash_of(base) == plan_hash_of(same)
        assert plan_hash_of(base) != plan_hash_of(different_val)
        assert plan_hash_of(base) != plan_hash_of(different_op)

    def test_generated_source_is_flat(self):
        policy = Policy(
            Conditional(
                primary=min_of(predicate(TableRef(), "a", RelOp.LT, 5), "b",
                               k=2),
                fallback=max_of(TableRef(), "a"),
            ),
            name="flat",
        )
        source, plan_hash, relops = generate_plan_source(policy)
        assert plan_hash == plan_hash_of(policy)
        assert "def specialize(smbm)" in source
        assert "specialize_batch" not in source
        assert relops == (RelOp.LT,)
        # The kernel body is straight-line mask arithmetic: no branches on
        # policy structure, no attribute lookups into the AST.
        assert "node" not in source and "Unary" not in source


def _fill(module: FilterModule) -> None:
    for rid in range(6):
        module.update_resource(rid, {"a": rid, "b": 10 - rid})


def _count_kernel_calls(module: FilterModule, monkeypatch) -> list[int]:
    """Wrap the module's kernel so the test sees which path served."""
    calls: list[int] = []
    real = module.codegen.evaluate

    def counted(smbm):
        calls.append(smbm.version)
        return real(smbm)

    monkeypatch.setattr(module.codegen, "evaluate", counted)
    return calls


class TestConfigurationGuards:
    def test_codegen_requires_verify(self):
        """``verify=False`` never attaches a kernel: generated code elides
        the runtime checks only a verified plan may drop."""
        policy = Policy(min_of(TableRef(), "a"), name="t")
        assert PolicyCompiler(PARAMS).compile(policy).codegen is not None
        assert PolicyCompiler(PARAMS).compile(
            policy, verify=False
        ).codegen is None
        module = FilterModule(CAP, METRICS, policy, PARAMS, verify=False)
        assert module.codegen is None

    def test_codegen_excludes_self_healing(self, monkeypatch):
        """A self-healing module keeps its kernel for masked rows but serves
        every memo miss through the Cells."""
        module = FilterModule(
            CAP, METRICS, Policy(min_of(TableRef(), "a"), name="t"),
            PARAMS, self_healing=True,
        )
        assert module.codegen is not None
        calls = _count_kernel_calls(module, monkeypatch)
        _fill(module)
        assert module.evaluate().value == 1 << 0
        assert calls == []

    def test_ineligible_policy_interpreted(self):
        """An ineligible plan constructs fine, has no kernel, and carries
        no TH012 lint finding (the TH012 report stays with the verifier)."""
        module = FilterModule(
            CAP, METRICS, Policy(random_pick(TableRef()), name="t"), PARAMS,
        )
        assert module.codegen is None
        assert all(f.rule != "TH012" for f in module.compiled.lint_findings)
        _fill(module)
        assert module.evaluate().popcount() == 1

    def test_plancodegen_rejects_blocked_plans(self):
        compiled = PolicyCompiler(PARAMS).compile(
            Policy(random_pick(TableRef()), name="t"),
        )
        with pytest.raises(ConfigurationError):
            PlanCodegen(compiled)


class TestPathRule:
    """Which path serves a memo miss: the kernel by default, the Cells once
    a fault could be hiding behind it."""

    def test_eligible_module_serves_misses_through_kernel(self, monkeypatch):
        module = FilterModule(
            CAP, METRICS, Policy(min_of(TableRef(), "a"), name="t"), PARAMS,
        )
        assert module.codegen is not None
        calls = _count_kernel_calls(module, monkeypatch)
        _fill(module)
        filled = module.smbm.version
        assert module.evaluate().value == 1 << 0
        assert module.evaluate().value == 1 << 0   # memo hit
        module.update_resource(0, {"a": 9, "b": 1})
        assert module.evaluate().value == 1 << 1
        assert calls == [filled, module.smbm.version]
        assert module.cache_misses == 2 and module.cache_hits == 1

    def test_cell_kill_surfaces_on_non_healing_module(self):
        module = FilterModule(
            CAP, METRICS, Policy(min_of(TableRef(), "a"), name="t"), PARAMS,
        )
        _fill(module)
        module.evaluate()
        stage, index = next(iter(module.compiled.pipeline.active_cells()))
        module.inject_cell_kill(stage, index)
        module.update_resource(0, {"a": 7, "b": 3})  # invalidate the memo
        with pytest.raises(CellFault):
            module.evaluate()

    def test_cell_kill_is_routed_around_by_healing_module(self):
        module = FilterModule(
            CAP, METRICS, Policy(min_of(TableRef(), "a"), name="t"), PARAMS,
            self_healing=True,
        )
        _fill(module)
        module.evaluate()
        pos = next(iter(module.compiled.pipeline.active_cells()))
        module.inject_cell_kill(*pos)
        module.update_resource(0, {"a": 7, "b": 3})
        assert module.evaluate().value == 1 << 1
        assert pos in module.routed_around

    def test_stuck_cell_disarms_the_kernel_until_removed(self, monkeypatch):
        module = FilterModule(
            CAP, METRICS, Policy(min_of(TableRef(), "a"), name="t"), PARAMS,
            memoize=False,
        )
        calls = _count_kernel_calls(module, monkeypatch)
        _fill(module)
        module.evaluate()
        assert len(calls) == 1
        pos = next(iter(module.compiled.pipeline.active_cells()))
        module.inject_cell_stuck(*pos, side=1, stuck=0)
        module.evaluate()
        assert len(calls) == 1   # served by the (faulty) Cells
        module.remove_cell_stuck(*pos, side=1)
        module.evaluate()
        assert len(calls) == 2


class TestSanitizerDifferential:
    def test_sanitize_checks_kernel_against_interpreter(self, rng):
        module = _build_module(rng, "san", sanitize=True, memoize=False)
        for _ in range(10):
            _random_write(rng, module.smbm)
        module.evaluate()  # agreeing paths: no complaint

    def test_sanitize_catches_a_tampered_kernel(self, rng, monkeypatch):
        module = _build_module(rng, "evil", sanitize=True, memoize=False)
        for _ in range(10):
            _random_write(rng, module.smbm)
        good = module.evaluate().value
        monkeypatch.setattr(
            module.codegen, "evaluate",
            lambda smbm: good ^ module.smbm.id_mask() ^ (1 << (CAP - 1)),
        )
        with pytest.raises(IntegrityError):
            module.evaluate()

    def test_sanitize_catches_a_tampered_masked_row(self, rng, monkeypatch):
        module = _build_module(rng, "evil_row", sanitize=True)
        for _ in range(10):
            _random_write(rng, module.smbm)
        kernel = module.codegen.kernel(module.smbm)
        monkeypatch.setattr(
            module.codegen, "kernel",
            lambda smbm: lambda t: kernel(t) ^ (1 << (CAP - 1)),
        )
        with pytest.raises(IntegrityError, match="interpreted plan"):
            module.evaluate_batch(PacketBatch(2, input_masks=[1, 3]))

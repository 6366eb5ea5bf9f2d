"""The chained multi-dimensional filter module (Figure 8).

Bundles the SMBM resource table with a compiled filter policy.  The module
is triggered per packet: the packet passes through unmodified while the
programmed policy is applied to the resource table, and the output — the
filtered set of resource ids — is written to the packet's metadata for the
RMT stages that follow (section 3).

Packets that do not want filtering simply bypass the module
(:meth:`FilterModule.hook` leaves packets without the trigger flag alone).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.analysis.domains import Region
from repro.analysis.symbolic import analyze_policy
from repro.analysis.verifier import TableSchema
from repro.core.bitvector import BitVector
from repro.core.cell import Cell
from repro.core.compiler import CompiledPolicy, PolicyCompiler
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy
from repro.core.smbm import SMBM
from repro.core.ufpu_reference import GoldenOracle
from repro.engine.batch import (  # re-exported: the metadata protocol is
    META_FILTER_EPOCH,            # defined at the engine layer so the
    META_FILTER_INPUT,            # batch buffer needs no switch imports
    META_FILTER_OUTPUT,
    META_FILTER_REQUEST,
    META_FILTER_SELECTED,
    PacketBatch,
)
from repro.engine.columnar import BatchedEvaluator
from repro.errors import (
    CellFault,
    ConfigError,
    ConfigurationError,
    IntegrityError,
)
from repro.rmt.packet import Packet

__all__ = [
    "FilterModule",
    "PacketBatch",
    "META_FILTER_REQUEST",
    "META_FILTER_OUTPUT",
    "META_FILTER_SELECTED",
    "META_FILTER_INPUT",
    "META_FILTER_EPOCH",
]


#: Why each pair of constructor flags is mutually exclusive; the single
#: :class:`~repro.errors.ConfigError` raised for a bad combination quotes
#: every violated pair's rationale, not just the first one hit.
_FLAG_CONFLICTS: dict[tuple[str, str], str] = {
    ("naive", "tenant"): (
        "tenant slicing confines the plan to a Cell-column slice of the "
        "shared pipeline; the O(N) reference data path models a private "
        "full-table pipeline and cannot express a slice"
    ),
}


class FilterModule:
    """One filter module instance: resource table + programmed policy.

    For **stateless** policies (no round-robin/random units) the module
    memoizes the evaluation result keyed on the SMBM's write-version
    counter: back-to-back packets against an unchanged table cost a single
    comparison — the software analogue of the hardware answering the same
    table every clock cycle.  Any committed write bumps the version and so
    invalidates the cache.  Stateful policies are never memoized (their
    outputs advance per packet by design).

    A memo miss runs the plan's specialized kernel
    (:attr:`codegen`) when the verifying compiler attached one, and the
    cycle-accurate pipeline otherwise.  The pipeline also serves every
    miss while ``self_healing`` is on or any Cell fault has been
    injected: Cells must be traversed in order to fail.  Rows carrying a
    candidate mask (``META_FILTER_INPUT``) use the kernel whenever it
    exists, in :meth:`hook` and :meth:`evaluate_batch` alike.
    """

    def __init__(
        self,
        capacity: int,
        metric_names: Sequence[str],
        policy: Policy,
        params: PipelineParams | None = None,
        *,
        lfsr_seed: int = 1,
        naive: bool = False,
        memoize: bool = True,
        self_healing: bool = False,
        sanitize: bool = False,
        verify: bool = True,
        tenant: str | None = None,
        reserved_cells: "Iterable[tuple[int, int]]" = (),
        input_lines: "Iterable[int] | None" = None,
    ):
        tenant_mode = (
            tenant is not None
            or bool(reserved_cells)
            or input_lines is not None
        )
        flags = {"naive": naive, "tenant": tenant_mode}
        conflicts = [pair for pair in _FLAG_CONFLICTS
                     if flags[pair[0]] and flags[pair[1]]]
        if conflicts:
            detail = "; ".join(
                f"{a}+{b}: {_FLAG_CONFLICTS[(a, b)]}" for a, b in conflicts
            )
            raise ConfigError(
                f"mutually exclusive FilterModule flags: {detail}",
                conflicts=conflicts,
            )
        self._tenant = tenant
        self._reserved = frozenset(
            (int(stage), int(index)) for stage, index in reserved_cells
        )
        self._input_lines = (
            None if input_lines is None
            else frozenset(int(line) for line in input_lines)
        )
        self._smbm = SMBM(capacity, metric_names, sanitize=sanitize,
                          tenant=tenant)
        # Compile inputs are kept so fail-around can recompile the same
        # policy onto the surviving Cells after a hardware fault.
        self._policy = policy
        self._params = params
        self._lfsr_seed = lfsr_seed
        self._naive = naive
        self._memoize_requested = memoize
        self._self_healing = self_healing
        self._sanitize = sanitize
        self._verify = verify
        # The table dimensions the static verifier checks the plan against
        # (width compatibility, timing closure at this N).
        self._schema = TableSchema(capacity, tuple(metric_names))
        # Shared golden model: compiled lazily, used by both self_test()
        # and the sanitizer's on-demand output check.
        self._oracle = GoldenOracle(policy, params, lfsr_seed=lfsr_seed)
        # Physical faults: everything ever injected (re-applied to every
        # recompiled pipeline — the hardware does not heal) vs the subset
        # *detected* so far, which compilation routes around.
        self._hw_dead: set[tuple[int, int]] = set()
        self._hw_stuck: dict[tuple[int, int], dict[int, int]] = {}
        self._routed_around: set[tuple[int, int]] = set()
        # A hitless hot-swap bumps the epoch; the watermark is stamped on
        # every filter output (scalar and batched) so a packet stream
        # spanning a swap separates cleanly into old-plan/new-plan halves.
        self._plan_epoch = 0
        self._swap_version: int | None = None
        self._compiled: CompiledPolicy = self._compile_policy(policy)
        self._codegen = self._compiled.codegen
        # The interpreted batch tier for stateless plans without a kernel;
        # built lazily on the first masked row.
        self._batch_eval: BatchedEvaluator | None = None
        self._batch_eval_tried = False
        self._evaluations = 0
        self._memoize = memoize and self._compiled.stateless
        # Single-entry memo: the SMBM version only moves forward, so older
        # results can never become valid again.
        self._memo_version: int | None = None
        self._memo_output: BitVector | None = None
        # Sanitizer-side soundness witness for the symbolic analyzer:
        # the feasible output region of the live plan, cached per
        # compiled plan (a hot-swap or fail-around recompile re-derives).
        self._semantic_cache: tuple[CompiledPolicy, Region] | None = None
        self._cache_hits = 0
        self._cache_misses = 0
        # Batch-tier attribution: how many rows each serving path handled.
        # "broadcast" = uniform rows collapsed to one memoized evaluation,
        # "engine" = the kernel or the interpreted columnar walk,
        # "fallback" = the scalar per-row loop (stateful policies,
        # caller-supplied inputs).
        self._batches = 0
        self._batch_rows = 0
        self._batch_broadcast_rows = 0
        self._batch_engine_rows = 0
        self._batch_fallback_rows = 0
        if sanitize:
            # Memo-version coherence: a committed write bumps the table
            # version, so a memo entry keyed at (or past) the post-write
            # version means a stale result could be served as fresh.
            self._smbm.add_write_listener(self._sanitize_memo_listener)
        # Observability.  The memo-hit path runs in ~0.4us, so the hot
        # counters stay plain ints (above) and are turned into registry
        # samples only at collect time by a weakly-held hook — the enabled
        # and disabled paths execute identical per-packet code.  Only the
        # (much slower) miss path, which runs the whole pipeline, pays for a
        # timing capture, and only when a real registry is active.
        registry = obs.get_registry()
        self._obs_enabled = registry.enabled
        self._obs_policy = policy.name
        if self._obs_enabled:
            registry.add_hook(self._obs_collect)
            self._make_plan_instruments(registry)
        # Fault/repair instruments live off the per-packet path (faults are
        # rare events), so they are created unconditionally: against the null
        # registry they are shared no-op singletons.  With a tenant set they
        # carry the tenant label: each tenant's fault domain is a separate
        # series, so a fault in one tenant's slice never moves another's
        # counters.
        tlabels = {} if tenant is None else {"tenant": tenant}
        self._obs_cell_dead = registry.counter(
            "faults_detected_total", {"kind": "cell_dead", **tlabels},
            help="dead Cells detected (CellFault) and routed around",
        )
        self._obs_cell_stuck = registry.counter(
            "faults_detected_total", {"kind": "cell_stuck", **tlabels},
            help="silently corrupting Cells localized by self-test",
        )
        self._obs_repair_ns = registry.histogram(
            "repair_latency_ns", {"component": "filter_module", **tlabels},
            help="fault-to-recompiled recovery wall time (ns, pow2 buckets)",
        )
        self._obs_degraded = registry.gauge(
            "degraded_mode", {"policy": policy.name, **tlabels},
            help="Cells currently routed around (0 = healthy hardware)",
        )
        self._obs_swaps = registry.counter(
            "filter_hot_swaps_total", {"policy": policy.name, **tlabels},
            help="hitless policy hot-swaps installed on this module",
        )
        self._obs_cache_resets = registry.counter(
            "serving_cache_resets_total", tlabels or None,
            help="serving-cache invalidations (memo, batch evaluator, "
                 "specialized kernel) on install, hot-swap, fail-around, "
                 "and table restore",
        )
        # Count the install itself: construction runs the same
        # invalidation sequence every later plan/table change does.
        self._reset_serving_caches()

    def _plan_labels(self) -> dict[str, str]:
        """Labels of the per-plan series: policy name, plus the tenant when
        this module is one slice of a shared pipeline."""
        labels = {"policy": self._obs_policy}
        if self._tenant is not None:
            labels["tenant"] = self._tenant
        return labels

    def _make_plan_instruments(self, registry) -> None:
        """(Re)create the policy-labelled hot-path instruments.  Called at
        construction and again after a hot-swap: the policy label is part of
        the series identity, so a new plan gets fresh series."""
        labels = self._plan_labels()
        self._obs_eval_ns = registry.histogram(
            "filter_eval_ns", labels,
            help="miss-path policy evaluation wall time (ns, pow2 buckets)",
        )
        self._obs_cycles = registry.counter(
            "filter_eval_cycles_total", labels,
            help="modelled hardware cycles spent in miss-path evaluations",
        )
        self._obs_batch_size = registry.histogram(
            "filter_batch_size", labels,
            help="requesting rows per evaluate_batch call (pow2 buckets)",
        )

    def _obs_collect(self):
        """Collect hook: publish the per-packet int counters as samples."""
        labels = tuple(sorted(self._plan_labels().items()))
        yield obs.Sample("filter_evaluations_total", self._evaluations,
                         labels=labels, help="per-packet policy evaluations")
        yield obs.Sample("filter_memo_hits_total", self._cache_hits,
                         labels=labels,
                         help="evaluations served from the version memo")
        yield obs.Sample("filter_memo_misses_total", self._cache_misses,
                         labels=labels,
                         help="memoized evaluations that ran the pipeline")
        yield obs.Sample("filter_batches_total", self._batches,
                         labels=labels,
                         help="evaluate_batch calls")
        yield obs.Sample("filter_batch_rows_total", self._batch_rows,
                         labels=labels,
                         help="requesting rows seen by evaluate_batch")
        for path, rows in (("broadcast", self._batch_broadcast_rows),
                           ("engine", self._batch_engine_rows),
                           ("fallback", self._batch_fallback_rows)):
            yield obs.Sample(
                "filter_batch_path_rows_total", rows,
                labels=labels + (("path", path),),
                help="batch rows served, by serving path",
            )

    def _compile_policy(self, policy: Policy) -> CompiledPolicy:
        """Compile ``policy`` under this module's standing constraints: the
        tenant slice (reserved Cells + allowed input lines) and any Cells
        routed around after faults."""
        return PolicyCompiler(self._params).compile(
            policy, lfsr_seed=self._lfsr_seed, naive=self._naive,
            dead_cells=self._reserved | self._routed_around,
            input_lines=self._input_lines,
            verify=self._verify, schema=self._schema,
        )

    @property
    def smbm(self) -> SMBM:
        """The resource table (writable through add/delete/update)."""
        return self._smbm

    @property
    def tenant(self) -> str | None:
        """The owning tenant, or ``None`` for a dedicated (solo) module."""
        return self._tenant

    @property
    def reserved_cells(self) -> frozenset[tuple[int, int]]:
        """Cells outside this module's slice of the shared pipeline —
        statically excluded from every compilation."""
        return self._reserved

    @property
    def input_lines(self) -> frozenset[int] | None:
        """Pipeline input lines this module may drive, or ``None`` when it
        owns the whole input stage."""
        return self._input_lines

    @property
    def plan_epoch(self) -> int:
        """Plan generation counter: 0 at construction, +1 per hot-swap."""
        return self._plan_epoch

    @property
    def swap_version(self) -> int | None:
        """The SMBM version the last hot-swap flipped on (``None`` = no
        swap yet).  Outputs produced at or past this version under the new
        epoch; the pair (version, epoch) is the swap boundary."""
        return self._swap_version

    @property
    def compiled(self) -> CompiledPolicy:
        return self._compiled

    @property
    def policy(self) -> Policy:
        """The currently programmed policy (the live one after a swap)."""
        return self._policy

    def restore_table(
        self, state: "Mapping[str, object]", *, plan_epoch: int | None = None
    ) -> None:
        """Restore the resource table from an SMBM checkpoint state.

        Every serving cache is dropped *before* the restore lands: the
        restored version counter may be lower than (or collide with) the
        live one, so version-keyed reuse across a restore is unsound — the
        memo, batch evaluator, and specialized kernel all rebuild against the
        restored table.  ``plan_epoch`` optionally re-stamps the module's
        epoch watermark so a migrated tenant's outputs keep the epoch
        lineage of the source module.
        """
        self._reset_serving_caches()
        self._smbm.restore_state(state)
        if plan_epoch is not None:
            if plan_epoch < 0:
                raise ConfigurationError(
                    f"plan_epoch must be >= 0, got {plan_epoch}"
                )
            self._plan_epoch = int(plan_epoch)

    @property
    def evaluations(self) -> int:
        """Number of per-packet policy evaluations performed."""
        return self._evaluations

    @property
    def memoized(self) -> bool:
        """Whether evaluations are being served from the version cache."""
        return self._memoize

    @property
    def cache_hits(self) -> int:
        """Evaluations answered from the memo without running the pipeline."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Memoized evaluations that had to run the pipeline (cold or
        invalidated by a table write)."""
        return self._cache_misses

    @property
    def codegen(self):
        """The plan's :class:`~repro.engine.codegen.PlanCodegen` kernel, or
        ``None`` for naive, ``verify=False`` and TH012-ineligible plans."""
        return self._codegen

    def counters(self) -> dict[str, int]:
        """Evaluation/cache counters for benchmark attribution reports."""
        return {
            "evaluations": self._evaluations,
            "cache_hits": self._cache_hits,
            "cache_misses": self._cache_misses,
        }

    def batch_counters(self) -> dict[str, int]:
        """Batch-tier row attribution for benchmark reports."""
        return {
            "batches": self._batches,
            "batch_rows": self._batch_rows,
            "broadcast_rows": self._batch_broadcast_rows,
            "engine_rows": self._batch_engine_rows,
            "fallback_rows": self._batch_fallback_rows,
        }

    @property
    def latency_cycles(self) -> int:
        """Deterministic processing latency added to a packet's pipeline
        traversal (the packet itself is unmodified and un-delayed relative
        to the pipeline: the module is fully pipelined)."""
        return self._compiled.latency_cycles

    # -- resource table maintenance --------------------------------------------------

    def update_resource(self, resource_id: int, metrics: Mapping[str, int]) -> None:
        """Delete+add update, the composite write of section 5.1.2."""
        if resource_id in self._smbm:
            self._smbm.update(resource_id, metrics)
        else:
            self._smbm.add(resource_id, metrics)

    def remove_resource(self, resource_id: int) -> None:
        self._smbm.delete(resource_id)

    # -- per-packet processing --------------------------------------------------------

    def evaluate(self) -> BitVector:
        """Apply the programmed policy to the current table once.

        Stateless policies are served from the version-keyed memo when the
        table is unchanged since the last evaluation.  Callers receive an
        independent copy, so mutating the result cannot corrupt the cache.

        Exception-safe: the memo entry is dropped *before* the pipeline
        runs and re-installed only on success, and only if the table version
        is unchanged after the run — a fault (or a concurrent table write
        from a fault handler) mid-evaluation can therefore never leave a
        half-populated entry keyed on a version the output does not match.
        """
        self._evaluations += 1
        if not self._memoize:
            return self._run_guarded()
        version = self._smbm.version
        if version == self._memo_version:
            assert self._memo_output is not None
            self._cache_hits += 1
            return self._memo_output.copy()
        self._memo_version = None
        self._memo_output = None
        out = self._run_guarded()
        if self._smbm.version == version:
            self._memo_version = version
            self._memo_output = out
        self._cache_misses += 1
        return out.copy()

    def _run_guarded(self) -> BitVector:
        """The miss path, with fail-around when self-healing is enabled."""
        if not self._self_healing:
            return self._run_pipeline()
        while True:
            try:
                return self._run_pipeline()
            except CellFault as fault:
                self._heal_dead(fault)

    def _run_pipeline(self) -> BitVector:
        """The miss path: run the specialized kernel when it may serve, else
        the compiled pipeline, attributing wall time and deterministic hardware
        latency when metrics are enabled."""
        if not self._obs_enabled:
            return self._evaluate_once()
        t0 = time.perf_counter_ns()
        out = self._evaluate_once()
        self._obs_eval_ns.observe(time.perf_counter_ns() - t0)
        self._obs_cycles.inc(self._compiled.latency_cycles)
        return out

    def _cells_faulted(self) -> bool:
        """True once any Cell fault has been injected (dead or stuck)."""
        return bool(self._hw_dead or self._hw_stuck)

    def _evaluate_once(self) -> BitVector:
        # With self-healing on or any Cell fault injected, the miss must
        # traverse the Cells: the kernel would hide the fault.
        kernel = (None if self._self_healing or self._cells_faulted()
                  else self._codegen)
        if kernel is None:
            out = self._compiled.evaluate(self._smbm)
            if self._sanitize:
                self._check_semantic_containment(out.value)
            return out
        out = BitVector.from_int(
            self._smbm.capacity, kernel.evaluate(self._smbm)
        )
        if self._sanitize:
            # The interpreted plan stays the differential oracle of the
            # generated code (the GoldenOracle pattern, one tier up).
            self._check_kernel_output(
                out.value, self._compiled.evaluate(self._smbm).value, None
            )
            self._check_semantic_containment(out.value)
        return out

    def _check_kernel_output(self, actual: int, expected: int,
                             mask: int | None) -> None:
        """Sanitizer: one kernel output against the interpreted plan."""
        if actual != expected:
            row = "" if mask is None else f" (candidate mask {mask:#x})"
            raise IntegrityError(
                f"sanitizer: codegen kernel output {actual:#x}{row} "
                f"disagrees with the interpreted plan {expected:#x} on "
                f"policy {self._policy.name!r}",
                component="filter_module",
            )

    def _semantic_root_region(self) -> Region:
        """The symbolic analyzer's over-approximation of the rows the
        live plan can ever select, cached per compiled plan."""
        cache = self._semantic_cache
        if cache is None or cache[0] is not self._compiled:
            analysis = analyze_policy(
                self._compiled.policy, schema=self._schema
            )
            cache = (self._compiled, analysis.root_region)
            self._semantic_cache = cache
        return cache[1]

    def _check_semantic_containment(self, output_bits: int) -> None:
        """Sanitizer half of the soundness contract: every selected row
        must lie inside the plan's feasible region.  A hit outside it
        means a region the analyzer proved unreachable (TH017/TH018)
        received traffic — the analysis would be unsound."""
        if not output_bits:
            return
        region = self._semantic_root_region()
        bits = output_bits
        while bits:
            low = bits & -bits
            bits ^= low
            rid = low.bit_length() - 1
            if rid not in self._smbm:
                continue  # stale-bit checks belong to the oracle paths
            row = self._smbm.metrics_of(rid)
            if not region.contains(row):
                raise IntegrityError(
                    f"sanitizer: selected resource {rid} ({row}) lies "
                    f"outside the plan's feasible region "
                    f"{region.describe()} on policy "
                    f"{self._policy.name!r} — symbolic analysis unsound "
                    "or plan mis-evaluated",
                    component="filter_module",
                    resource=rid,
                )

    # -- runtime sanitizer -------------------------------------------------------------

    @property
    def sanitize(self) -> bool:
        """True when commit-time invariant checking is armed."""
        return self._sanitize

    def _sanitize_memo_listener(self, kind: str, resource_id: int, row) -> None:
        """Commit-time check: no memo entry may survive a committed write."""
        if (self._memo_version is not None
                and self._memo_version >= self._smbm.version):
            raise IntegrityError(
                f"sanitizer: memo keyed at version {self._memo_version} "
                f"but a {kind} of resource {resource_id} just committed "
                f"version {self._smbm.version} — stale results would be "
                "served as fresh",
                component="filter_module",
                resource=resource_id,
            )

    def sanitize_check(self) -> BitVector:
        """On-demand oracle comparison: fast path vs the O(N) reference.

        Evaluates the compiled fast path and the shared
        :class:`~repro.core.ufpu_reference.GoldenOracle` on the live table
        and raises :class:`~repro.errors.IntegrityError` on any mismatch.
        Returns the (agreed) output.  Only valid for stateless policies —
        a stateful unit's outputs advance per evaluation, so the two paths
        legitimately diverge.
        """
        if not self._compiled.stateless:
            raise ConfigurationError(
                "sanitize_check requires a stateless policy: stateful "
                "units legitimately diverge from the golden oracle"
            )
        expected = self._oracle.expected(self._smbm)
        actual = self._compiled.evaluate(self._smbm)
        if actual != expected:
            raise IntegrityError(
                f"sanitizer: fast path output {actual.value:#x} disagrees "
                f"with golden oracle {expected.value:#x} on policy "
                f"{self._policy.name!r}",
                component="filter_module",
            )
        self._check_semantic_containment(actual.value)
        return actual

    # -- fault injection, detection and fail-around ----------------------------------

    @property
    def self_healing(self) -> bool:
        return self._self_healing

    @property
    def routed_around(self) -> frozenset[tuple[int, int]]:
        """Detected-faulty Cells the current compilation avoids."""
        return frozenset(self._routed_around)

    @property
    def degraded(self) -> bool:
        """True while the policy runs on a reduced set of Cells."""
        return bool(self._routed_around)

    def inject_cell_kill(self, stage: int, index: int) -> None:
        """Physical fault: the Cell at (stage, index) dies.

        The fault persists across recompilations (hardware does not heal);
        detection happens on the next evaluation that routes through the
        Cell (loud :class:`~repro.errors.CellFault`) or via
        :meth:`self_test`.
        """
        self._hw_dead.add((stage, index))
        self._compiled.pipeline.cell_at(stage, index).kill()

    def inject_cell_stuck(self, stage: int, index: int, side: int,
                          stuck: int) -> None:
        """Physical fault: output column ``side`` wedges at ``stuck``.

        Silent corruption — nothing raises; only :meth:`self_test` (golden
        model comparison) can detect and localize it.
        """
        self._hw_stuck.setdefault((stage, index), {})[side] = stuck
        self._compiled.pipeline.cell_at(stage, index).inject_stuck(side, stuck)

    def remove_cell_stuck(self, stage: int, index: int, side: int) -> None:
        """Undo an injected stuck fault (an injector reverting a flip that
        turned out to be unobservable on the programmed policy)."""
        pos = (stage, index)
        sides = self._hw_stuck.get(pos)
        if sides is not None:
            sides.pop(side, None)
            if not sides:
                del self._hw_stuck[pos]
        self._compiled.pipeline.cell_at(stage, index).clear_stuck(side)

    def _recompile(self) -> None:
        """Map the policy onto the surviving Cells and re-arm the faults.

        Raises :class:`~repro.errors.CompilationError` only when the policy
        truly no longer fits the surviving Cells.
        """
        compiled = self._compile_policy(self._policy)
        self._rearm_faults(compiled)
        self._install(compiled)

    def _rearm_faults(self, compiled: CompiledPolicy) -> None:
        """The physical faults outlive any recompile: re-apply every
        injected fault not already excluded (excluded Cells are killed by
        the compilation itself and never routed through)."""
        pipeline = compiled.pipeline
        for pos in self._hw_dead - compiled.dead_cells:
            pipeline.cell_at(*pos).kill()
        for pos, sides in self._hw_stuck.items():
            if pos in compiled.dead_cells:
                continue
            cell = pipeline.cell_at(*pos)
            for side, stuck in sides.items():
                cell.inject_stuck(side, stuck)

    def _reset_serving_caches(self) -> None:
        """Drop every serving cache derived from the plan or the table.

        One sequence, used everywhere a cache could go stale: module
        install (construction), hitless hot-swap, fail-around
        recompilation, and checkpoint restore.  Covers the version-keyed
        scalar memo, the lazily-built interpreted batch evaluator, and the
        plan's specialized kernel; counted once per reset on
        ``serving_cache_resets_total``.
        """
        self._memo_version = None
        self._memo_output = None
        self._batch_eval = None
        self._batch_eval_tried = False
        if self._codegen is not None:
            self._codegen.invalidate()
        self._obs_cache_resets.inc()

    def _install(self, compiled: CompiledPolicy) -> None:
        """Atomically make ``compiled`` the live plan: flip the plan
        reference and drop every plan-derived cache in one step, so no
        later evaluation can mix old-plan state with the new plan."""
        self._compiled = compiled
        self._codegen = compiled.codegen
        self._memoize = self._memoize_requested and compiled.stateless
        self._reset_serving_caches()

    def hot_swap(
        self,
        policy: Policy,
        *,
        gate: "Callable[[CompiledPolicy], None] | None" = None,
    ) -> int:
        """Hitlessly replace the programmed policy with ``policy``.

        The replacement is compiled *beside* the live plan (under the same
        tenant slice and fault exclusions), optionally vetted by ``gate``
        (e.g. a tenant manager's slice verifier — it may raise to abort the
        swap with the live plan untouched), then flipped in atomically on
        an SMBM version boundary: :attr:`swap_version` records the table
        version the flip observed, and every plan-derived cache (the
        version memo, the batched evaluator, the codegen kernel — which
        lives on the compiled plan itself) is invalidated in the same step.
        No packet ever sees a mix: outputs stamped with the old
        :attr:`plan_epoch` came entirely from the old plan, outputs with
        the new epoch entirely from the new one.

        Returns the new plan epoch.
        """
        compiled = self._compile_policy(policy)
        if gate is not None:
            gate(compiled)
        self._rearm_faults(compiled)
        # Flip.  Single-threaded cycle model: everything between here and
        # the epoch bump happens on one packet boundary.
        self._swap_version = self._smbm.version
        self._policy = policy
        self._obs_policy = policy.name
        self._oracle = GoldenOracle(policy, self._params,
                                    lfsr_seed=self._lfsr_seed)
        self._install(compiled)
        self._plan_epoch += 1
        self._obs_swaps.inc()
        if self._obs_enabled:
            # New policy label = new series identity for the hot-path
            # instruments; the old plan's series stay behind, frozen.
            self._make_plan_instruments(obs.get_registry())
        return self._plan_epoch

    def _heal_dead(self, fault: CellFault) -> tuple[int, int]:
        """Route around the dead Cell a CellFault just reported."""
        if fault.stage is None or fault.index is None:
            raise fault  # unlocatable: nothing to route around
        pos = (fault.stage, fault.index)
        if pos in self._routed_around:
            raise fault  # already excluded yet faulted again: give up loudly
        t0 = time.perf_counter_ns()
        self._routed_around.add(pos)
        try:
            self._recompile()
        except Exception:
            self._routed_around.discard(pos)
            raise
        self._obs_cell_dead.inc()
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
        self._obs_degraded.set(len(self._routed_around))
        return pos

    def self_test(self) -> list[dict[str, object]]:
        """Built-in self-test: golden-model comparison with per-Cell
        localization, healing every fault it finds.

        Compares the fast-path pipeline against the shared
        :class:`~repro.core.ufpu_reference.GoldenOracle` (the O(N)
        reference pipeline, compiled once and reused by both this BIST and
        :meth:`sanitize_check`) on the live table.  On mismatch, each
        active physical Cell is replayed against a golden clone *on the
        inputs it actually saw*, so exactly the corrupted Cells are
        implicated; they are then routed around by recompilation.  Dead
        Cells discovered along the way are healed the same way.  Returns
        the faults found, e.g. ``[{"stage": 2, "index": 0, "kind":
        "cell_stuck"}]`` (empty = healthy).

        Only valid for stateless policies: a stateful unit's outputs advance
        per packet, so fast path and golden model legitimately disagree.
        """
        if not self._compiled.stateless:
            raise ConfigurationError(
                "self_test requires a stateless policy: stateful units "
                "legitimately diverge from a golden replay"
            )
        healed: list[dict[str, object]] = []
        while True:
            expected = self._oracle.expected(self._smbm)
            try:
                actual = self._compiled.evaluate(self._smbm)
                if actual == expected:
                    return healed
                found = self._localize_stuck()
            except CellFault as fault:
                stage, index = self._heal_dead(fault)
                healed.append(
                    {"stage": stage, "index": index, "kind": "cell_dead"}
                )
                continue
            healed.extend(found)

    def _localize_stuck(self) -> list[dict[str, object]]:
        """Replay each active Cell against a golden clone; heal the liars."""
        t0 = time.perf_counter_ns()
        probes = self._compiled.pipeline.evaluate_probed(self._smbm)
        chain = self._compiled.params.chain_length
        suspects: list[dict[str, object]] = []
        for (stage, index), (in1, in2, out1, out2) in sorted(probes.items()):
            cfg = self._compiled.config.stages[stage - 1].cells[index]
            golden_cell = Cell(chain, cfg, naive=True)
            g1, g2 = golden_cell.evaluate(in1, in2, self._smbm)
            if g1 != out1 or g2 != out2:
                suspects.append(
                    {"stage": stage, "index": index, "kind": "cell_stuck"}
                )
        if not suspects:
            raise IntegrityError(
                "fast path disagrees with the golden model but no Cell "
                "could be localized",
                component="filter_module",
            )
        for s in suspects:
            self._routed_around.add((s["stage"], s["index"]))
        try:
            self._recompile()
        except Exception:
            for s in suspects:
                self._routed_around.discard((s["stage"], s["index"]))
            raise
        self._obs_cell_stuck.inc(len(suspects))
        self._obs_repair_ns.observe(time.perf_counter_ns() - t0)
        self._obs_degraded.set(len(self._routed_around))
        return suspects

    def select(self) -> int | None:
        """Evaluate and return the singleton selection, if any."""
        out = self.evaluate()
        if out.popcount() != 1:
            return None
        return out.first_set()

    def hook(self, packet: Packet) -> None:
        """The per-stage module hook: filter on request, bypass otherwise.

        A packet carrying a candidate mask (``META_FILTER_INPUT``) is
        filtered over ``table ∩ mask`` through the same masked-row path
        :meth:`evaluate_batch` uses; otherwise over the full table.
        """
        meta = packet.metadata
        if not meta.get(META_FILTER_REQUEST):
            return
        mask = meta.get(META_FILTER_INPUT)
        if mask is None:
            out = self.evaluate().value
        else:
            [out], _ = self._evaluate_masked([int(mask)])
        meta[META_FILTER_OUTPUT] = out
        meta[META_FILTER_SELECTED] = _singleton(out)
        meta[META_FILTER_EPOCH] = self._plan_epoch

    # -- batched processing -------------------------------------------------------------

    def _batch_engine(self):
        """The masked-row engine: the plan's kernel when it has one, else
        the interpreted columnar tier when the plan is expressible there
        (stateless, no caller-supplied inputs), else ``None``."""
        if self._codegen is not None:
            return self._codegen
        if not self._batch_eval_tried:
            self._batch_eval_tried = True
            if self._compiled.stateless and not self._compiled.tap_lines:
                try:
                    self._batch_eval = BatchedEvaluator(
                        self._policy, self._smbm.capacity
                    )
                except ConfigurationError:
                    self._batch_eval = None
        return self._batch_eval

    def _evaluate_masked(self, masks: Sequence[int]) -> tuple[list[int], bool]:
        """Outputs of rows restricted to ``table ∩ mask``, and whether the
        batch engine served them (else the per-row restricted pipeline).

        Under ``sanitize`` every kernel output is checked against the
        interpreted plan (while no Cell fault has been injected: a faulty
        pipeline is no oracle), and every output against the plan's
        feasible region: masked rows restrict the *input* table, so the
        region still over-approximates each output.
        """
        engine = self._batch_engine()
        if engine is None:
            outs = [
                self._compiled.evaluate_restricted(self._smbm, m).value
                for m in masks
            ]
            self._evaluations += len(masks)
        else:
            outs = engine.evaluate_masks(self._smbm, masks)
        if self._sanitize:
            oracle = self._codegen is not None and not self._cells_faulted()
            for mask, out in zip(masks, outs):
                if oracle:
                    self._check_kernel_output(
                        out,
                        self._compiled.evaluate_restricted(
                            self._smbm, mask).value,
                        mask,
                    )
                self._check_semantic_containment(out)
        return outs, engine is not None

    def evaluate_batch(
        self, packets: "Sequence[Packet] | PacketBatch"
    ) -> PacketBatch | None:
        """Filter a whole batch of packets through the batch tiers.

        Accepts a packet sequence or a prepared :class:`PacketBatch`;
        both go through the same row split (:meth:`_filter_rows`):

        * **uniform rows** (no ``META_FILTER_INPUT`` mask) of a stateless
          policy collapse to a *single* memoized policy evaluation per
          batch, broadcast to every row;
        * **masked rows** run through the plan's kernel when it has one,
          else the interpreted columnar evaluator;
        * a stateful policy's rows go one by one in arrival order (its
          outputs advance per packet), as do masked rows of a plan
          neither tier can express, preserving exact per-packet
          semantics.

        Rows not requesting filtering are left untouched.  A packet
        sequence gets output, selected id and epoch written straight
        into each requesting packet's metadata (returns ``None``); a
        :class:`PacketBatch` gets them in its columns and is returned.
        """
        if isinstance(packets, PacketBatch):
            batch = packets
            rows = batch.requesting_indices()
            col = batch.input_masks
            shared, out, own, outs = self._filter_rows(
                rows, [None] * len(rows) if col is None
                else [col[i] for i in rows])
            outputs, selected, epochs = (batch.outputs, batch.selected,
                                         batch.epochs)
            epoch = self._plan_epoch
            sel = _singleton(out)
            for i in shared:
                outputs[i] = out
                selected[i] = sel
                epochs[i] = epoch
            for i, out in zip(own, outs):
                outputs[i] = out
                selected[i] = _singleton(out)
                epochs[i] = epoch
            return batch
        metas = []
        masks = []
        for packet in packets:
            meta = packet.metadata
            if meta.get(META_FILTER_REQUEST):
                metas.append(meta)
                masks.append(meta.get(META_FILTER_INPUT))
        shared, out, own, outs = self._filter_rows(metas, masks)
        epoch = self._plan_epoch
        if shared:
            # The broadcast rows share one stamp: one dict update each.
            stamp = {META_FILTER_OUTPUT: out,
                     META_FILTER_SELECTED: _singleton(out),
                     META_FILTER_EPOCH: epoch}
            for meta in shared:
                meta.update(stamp)
        for meta, out in zip(own, outs):
            meta[META_FILTER_OUTPUT] = out
            # _singleton inlined: this loop runs once per masked row.
            meta[META_FILTER_SELECTED] = (
                (out & -out).bit_length() - 1 if out.bit_count() == 1 else -1
            )
            meta[META_FILTER_EPOCH] = epoch
        return None

    def _filter_rows(
        self, rows: list, masks: "list[int | None]"
    ) -> tuple[list, int, list, list[int]]:
        """The row split of :meth:`evaluate_batch`.

        ``rows`` are the requesting rows in arrival order (whatever the
        caller writes results to) and ``masks[i]`` is row ``i``'s
        candidate mask, ``None`` for the full table.  Returns
        ``(shared, output, own, outputs)``: the ``shared`` rows all get
        ``output``, and each of the ``own`` rows gets its entry of
        ``outputs``.  The uniform rows of a stateless plan are shared and
        cost one memoized evaluation; its masked rows are served by one
        masked-engine call; a stateful plan's rows are all its own,
        evaluated one by one in arrival order.
        """
        n = len(rows)
        self._batches += 1
        self._batch_rows += n
        if self._obs_enabled:
            self._obs_batch_size.observe(n)
        uniform = masks.count(None)
        if not self._compiled.stateless:
            # Stateful outputs advance per packet: no collapse is legal.
            outs = []
            for mask in masks:
                if mask is None:
                    outs.append(self.evaluate().value)
                else:
                    [out], by_engine = self._evaluate_masked([int(mask)])
                    outs.append(out)
                    self._count_masked_rows(1, by_engine)
            self._batch_fallback_rows += uniform
            return [], 0, rows, outs
        out = 0
        if uniform:
            self._batch_broadcast_rows += uniform
            out = self.evaluate().value
        if uniform == n:
            return rows, out, [], []
        shared = [row for row, mask in zip(rows, masks) if mask is None]
        own = [row for row, mask in zip(rows, masks) if mask is not None]
        outs, by_engine = self._evaluate_masked(
            [int(mask) for mask in masks if mask is not None])
        self._count_masked_rows(len(own), by_engine)
        return shared, out, own, outs

    def _count_masked_rows(self, rows: int, by_engine: bool) -> None:
        if by_engine:
            self._batch_engine_rows += rows
        else:
            self._batch_fallback_rows += rows


def _singleton(out: int) -> int:
    """The ``filter_selected`` value: the one set id, or -1."""
    return (out & -out).bit_length() - 1 if out.bit_count() == 1 else -1

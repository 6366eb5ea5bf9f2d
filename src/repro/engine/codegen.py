"""Per-plan policy codegen: verified plans become flat specialized closures.

The interpreted fast path pays Python dispatch per operator object per
packet, plus the bounds/width/liveness checks the pipeline model carries.
Once the static verifier (TH001-TH011) has proven a plan safe and the
TH012 eligibility lint has proven it *specializable* — stateless, no
caller-supplied inputs, no interior taps — all of that is provably dead
weight: the plan's meaning is a pure function of the table contents.

:class:`PlanCodegen` therefore emits, once per distinct plan, one small
Python module of straight-line code with one entry point,
``specialize(smbm)``: it resolves everything that is constant for one
table version (predicate satisfying-sets as raw int masks, bound min/max
bisect methods) and returns a flat ``kernel(mask) -> mask`` closure over
those constants — no operator objects, no checks, no dispatch.  The same
kernel serves a full-table evaluation (``kernel(table)``) and a masked row
(``kernel(table & mask)``).

Sources are cached module-wide on ``plan_hash`` (a digest of the
canonical DAG serialization) and exec'd once; specialized kernels are
cached per instance on ``smbm.version`` — exactly the key the scalar
memo invalidates on, so a committed table write respecializes on the
next evaluation and nothing staler can ever be served.

The interpreted pipeline stays available as the differential oracle
(:meth:`~repro.switch.filter_module.FilterModule.sanitize_check`
pattern); the generated code is the optimisation, never the spec.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Sequence

from repro import obs
from repro.core.operators import BinaryOp, RelOp, UnaryOp
from repro.core.policy import Binary, Conditional, Node, Policy, TableRef, Unary
from repro.core.smbm import SMBM
from repro.engine.columnar import select_k_scalar
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.compiler import CompiledPolicy

__all__ = ["PlanCodegen", "generate_plan_source", "plan_hash_of"]


#: exec'd namespaces keyed by plan hash: each distinct plan shape is
#: generated and compiled exactly once per process, however many modules
#: (or benchmark sweeps) instantiate it.
_SOURCE_CACHE: dict[str, dict] = {}


def _walk_postorder(policy: Policy) -> list[Node]:
    """Every reachable node once, children before parents (shared sub-DAGs
    appear a single time, so they are evaluated once per packet)."""
    order: list[Node] = []
    seen: set[int] = set()

    def visit(node: Node) -> None:
        if node.node_id in seen:
            return
        seen.add(node.node_id)
        for child in node.children():
            visit(child)
        order.append(node)

    visit(policy.root)
    return order


def _canonical(policy: Policy) -> tuple[str, tuple[RelOp, ...]]:
    """Canonical DAG serialization + the plan's relational-operator table.

    Node identity (sharing) is captured through post-order ordinals, so
    ``union(p, p)`` of one shared predicate and ``union(p1, p2)`` of two
    structurally equal predicates serialize differently — they are
    different plans (one evaluation vs two).
    """
    order = _walk_postorder(policy)
    ordinal = {node.node_id: i for i, node in enumerate(order)}
    relops: list[RelOp] = []
    tokens: list[str] = []
    for node in order:
        if isinstance(node, TableRef):
            tokens.append(f"T({node.input_index})")
        elif isinstance(node, Unary):
            cfg = node.config
            rel = ""
            if cfg.rel_op is not None:
                rel = f",{cfg.rel_op.value}"
                if cfg.rel_op not in relops:
                    relops.append(cfg.rel_op)
            tokens.append(
                f"U({cfg.opcode.value},k={cfg.k},a={cfg.attr!r}{rel},"
                f"v={cfg.val},{ordinal[node.child.node_id]})"
            )
        elif isinstance(node, Binary):
            tokens.append(
                f"B({node.opcode.value},c={node.choice},"
                f"{ordinal[node.left.node_id]},{ordinal[node.right.node_id]})"
            )
        elif isinstance(node, Conditional):
            tokens.append(
                f"C({ordinal[node.primary.node_id]},"
                f"{ordinal[node.fallback.node_id]})"
            )
        else:  # pragma: no cover - exhaustive over node types
            raise ConfigurationError(f"unknown node type {type(node)!r}")
    return ";".join(tokens), tuple(relops)


def plan_hash_of(policy: Policy) -> str:
    """The plan hash: a stable digest of the canonical DAG serialization."""
    canon, _relops = _canonical(policy)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def generate_plan_source(policy: Policy) -> tuple[str, str, tuple[RelOp, ...]]:
    """Emit the plan's specialized source.

    Returns ``(source, plan_hash, relops)``; ``relops`` is the table the
    generated code indexes as ``RELOPS[j]`` (enum members cannot be
    spelled as literals).  The source is capacity-independent: everything
    table-shaped is resolved inside ``specialize`` at run time.
    """
    canon, relops = _canonical(policy)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
    relop_index = {op: j for j, op in enumerate(relops)}
    order = _walk_postorder(policy)
    ordinal = {node.node_id: i for i, node in enumerate(order)}

    idx_vars: dict[str, str] = {}      # metric attr -> preamble index var
    pre: list[str] = []                # specialize preamble
    body: list[str] = []               # kernel body
    name: dict[int, str] = {}          # node id -> kernel variable/alias

    def index_var(attr: str) -> str:
        var = idx_vars.get(attr)
        if var is None:
            var = f"i{len(idx_vars)}"
            idx_vars[attr] = var
            pre.append(f"{var} = smbm.metric_index({attr!r})")
        return var

    for node in order:
        i = ordinal[node.node_id]
        if isinstance(node, TableRef):
            if node.input_index is not None:
                raise ConfigurationError(
                    f"cannot specialize {node.describe()}: caller-supplied "
                    "input tables are per-packet, not per-version"
                )
            name[node.node_id] = "t"
        elif isinstance(node, Unary):
            cfg = node.config
            op = cfg.opcode
            child = name[node.child.node_id]
            if op is UnaryOp.NO_OP:
                name[node.node_id] = child
            elif op is UnaryOp.PREDICATE:
                assert cfg.rel_op is not None and cfg.val is not None
                sat = (f"{index_var(cfg.attr or '')}.predicate_mask("
                       f"RELOPS[{relop_index[cfg.rel_op]}], {cfg.val}, full)")
                pre.append(f"c{i} = {sat}")
                body.append(f"v{i} = {child} & c{i}")
                name[node.node_id] = f"v{i}"
            elif op in (UnaryOp.MIN, UnaryOp.MAX):
                var = index_var(cfg.attr or "")
                method = "min_mask" if op is UnaryOp.MIN else "max_mask"
                pre.append(f"p{i} = {var}.{method}")
                if cfg.k == 1:
                    body.append(f"v{i} = p{i}({child})")
                else:
                    body.append(
                        f"v{i} = select_k_scalar(p{i}, {child}, {cfg.k})"
                    )
                name[node.node_id] = f"v{i}"
            else:
                raise ConfigurationError(
                    f"cannot specialize stateful operator {cfg.describe()}: "
                    "its output advances per packet, not per table version"
                )
        elif isinstance(node, Binary):
            left = name[node.left.node_id]
            right = name[node.right.node_id]
            if node.opcode is BinaryOp.NO_OP:
                name[node.node_id] = left if node.choice == 0 else right
            else:
                expr = {
                    BinaryOp.UNION: f"{left} | {right}",
                    BinaryOp.INTERSECTION: f"{left} & {right}",
                    BinaryOp.DIFFERENCE: f"{left} & ~{right}",
                }[node.opcode]
                body.append(f"v{i} = {expr}")
                name[node.node_id] = f"v{i}"
        elif isinstance(node, Conditional):
            primary = name[node.primary.node_id]
            fallback = name[node.fallback.node_id]
            body.append(f"v{i} = {primary} if {primary} else {fallback}")
            name[node.node_id] = f"v{i}"
        else:  # pragma: no cover - exhaustive over node types
            raise ConfigurationError(f"unknown node type {type(node)!r}")

    root = name[policy.root.node_id]

    def block(lines: list[str], indent: str) -> str:
        return "\n".join(indent + line for line in lines) if lines else ""

    # The header names only the plan hash: equal plans must emit
    # byte-identical source (the module-wide cache is keyed on the hash,
    # and the policy's display name is metadata, not plan content).
    parts = [f"# plan {digest}", "", "def specialize(smbm):",
             "    full = (1 << smbm.capacity) - 1"]
    if pre:
        parts.append(block(pre, "    "))
    parts.append("    def kernel(t):")
    if body:
        parts.append(block(body, "        "))
    parts.append(f"        return {root}")
    parts.append("    return kernel")
    return "\n".join(parts) + "\n", digest, relops


class PlanCodegen:
    """The specialized int-bitmask kernel of one compiled plan.

    Construction requires a specialization-eligible plan (no TH012
    blockers — see
    :func:`repro.analysis.verifier.specialization_blockers`); the
    verifying compiler checks eligibility before building one, and
    construction re-raises :class:`ConfigurationError` on an ineligible
    plan as defense in depth.
    """

    def __init__(self, compiled: "CompiledPolicy"):
        from repro.analysis.verifier import specialization_blockers

        blockers = specialization_blockers(compiled)
        if blockers:
            raise ConfigurationError(
                "plan is not specialization-eligible (TH012): "
                + "; ".join(blockers)
            )
        policy = compiled.policy
        self._policy = policy
        source, digest, relops = generate_plan_source(policy)
        self._source = source
        self._hash = digest
        namespace = _SOURCE_CACHE.get(digest)
        if namespace is None:
            namespace = {
                "__builtins__": {},
                "RELOPS": relops,
                "select_k_scalar": select_k_scalar,
            }
            exec(compile(source, f"<plan {digest}>", "exec"), namespace)
            _SOURCE_CACHE[digest] = namespace
        self._specialize = namespace["specialize"]
        # Single-entry version-keyed kernel cache: the SMBM version only
        # moves forward, so older kernels can never become valid again —
        # same invalidation point as the FilterModule memo.
        self._version: int | None = None
        self._kernel = None
        # Hot-path counters stay plain ints; a weakly-held collect hook
        # publishes them only when a real registry is active.
        self._specializations = 0
        self._hits = 0
        self._misses = 0
        registry = obs.get_registry()
        self._obs_policy = policy.name
        if registry.enabled:
            registry.add_hook(self._obs_collect)

    def _obs_collect(self):
        labels = (("policy", self._obs_policy),)
        yield obs.Sample(
            "codegen_cache_hits_total", self._hits, labels=labels,
            help="evaluations served by an already-specialized kernel",
        )
        yield obs.Sample(
            "codegen_cache_misses_total", self._misses, labels=labels,
            help="evaluations that had to respecialize (table version moved)",
        )
        yield obs.Sample(
            "codegen_specializations_total", self._specializations,
            labels=labels,
            help="specialized kernels built (one per table version)",
        )

    @property
    def policy(self) -> Policy:
        return self._policy

    @property
    def plan_hash(self) -> str:
        """Digest of the canonical DAG: the source-cache key."""
        return self._hash

    @property
    def source(self) -> str:
        """The generated module source (for inspection and tests)."""
        return self._source

    @property
    def specializations(self) -> int:
        """Kernels built so far (one per table version touched)."""
        return self._specializations

    @property
    def cache_hits(self) -> int:
        return self._hits

    @property
    def cache_misses(self) -> int:
        return self._misses

    def counters(self) -> dict[str, int]:
        return {
            "specializations": self._specializations,
            "cache_hits": self._hits,
            "cache_misses": self._misses,
        }

    def invalidate(self) -> None:
        """Drop the specialized kernel unconditionally.

        The version-keyed cache assumes the SMBM version only moves
        forward; a checkpoint *restore* can move it backward (or land on a
        reused version number over different contents), so the serving
        layer's cache-reset path calls this alongside dropping the scalar
        memo.
        """
        self._version = None
        self._kernel = None

    def kernel(self, smbm: SMBM):
        """The flat ``kernel(mask) -> mask`` closure for the current table
        version, specializing if the version moved."""
        version = smbm.version
        if version == self._version:
            self._hits += 1
        else:
            # Drop the stale kernel first: it pins the previous version's
            # metric indexes, which would otherwise coexist with the ones
            # being rebuilt.
            self.invalidate()
            self._kernel = self._specialize(smbm)
            self._version = version
            self._specializations += 1
            self._misses += 1
        return self._kernel

    def evaluate(self, smbm: SMBM) -> int:
        """One packet's policy output as a raw int mask."""
        return self.kernel(smbm)(smbm.id_mask())

    def evaluate_masks(self, smbm: SMBM, masks: Sequence[int]) -> list[int]:
        """One output mask per input mask (inputs are intersected with the
        table's presence mask, like the interpreted batch tier)."""
        if not masks:
            return []
        present = smbm.id_mask()
        kern = self.kernel(smbm)
        return [kern(present & m) for m in masks]

"""Batched columnar policy evaluation over id-mask columns.

The scalar fast path walks interpreted operator objects once *per packet*.
:class:`BatchedEvaluator` walks the policy DAG once *per batch* instead,
carrying a column of raw int masks through every operator via the same
:class:`~repro.core.smbm.MetricIndex` bisect primitives the scalar fast
path uses.

It computes the DAG semantics of
:class:`~repro.core.policy.PolicyInterpreter` — legal exactly for plans
with no cross-packet state and no caller-supplied inputs.  It serves
masked rows for plans without a specialized kernel (naive builds and
``verify=False`` compilations); :func:`select_k_scalar` is shared with
the generated kernels in :mod:`repro.engine.codegen`.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.operators import BinaryOp, UnaryOp
from repro.core.policy import Binary, Conditional, Node, Policy, TableRef, Unary
from repro.core.smbm import SMBM
from repro.errors import ConfigurationError

__all__ = ["BatchedEvaluator", "select_k_scalar"]


# -- shared column primitive (also used by generated kernels) -----------------


def select_k_scalar(pick, bits: int, k: int) -> int:
    """Equation 1 on one raw int mask: union of k select-and-strip rounds.

    ``pick`` is a bound :meth:`~repro.core.smbm.MetricIndex.min_mask` or
    :meth:`~repro.core.smbm.MetricIndex.max_mask`.
    """
    acc = 0
    cur = bits
    for _ in range(k):
        one = pick(cur)
        if not one:
            break
        acc |= one
        cur &= ~one
    return acc


# -- the interpreted batch tier ---------------------------------------------------


class BatchedEvaluator:
    """Columnar DAG evaluation of one stateless policy.

    Construction rejects policies the columnar semantics cannot express:
    stateful operators (their outputs advance per packet, so per-batch
    evaluation would change meaning) and explicitly-indexed table inputs
    (their tables arrive from the caller per packet, not from the SMBM).
    """

    def __init__(self, policy: Policy, capacity: int):
        self._policy = policy
        self._capacity = capacity
        self._full = (1 << capacity) - 1
        seen: set[int] = set()

        def check(node: Node) -> None:
            if node.node_id in seen:
                return
            seen.add(node.node_id)
            if isinstance(node, TableRef) and node.input_index is not None:
                raise ConfigurationError(
                    f"batched evaluation cannot supply {node.describe()}: "
                    "caller-provided input tables are per-packet"
                )
            if isinstance(node, Unary) and node.config.opcode.is_stateful:
                raise ConfigurationError(
                    f"batched evaluation requires a stateless policy; "
                    f"{node.config.describe()} keeps per-packet state"
                )
            for child in node.children():
                check(child)

        check(policy.root)

    @property
    def policy(self) -> Policy:
        return self._policy

    def evaluate_masks(self, smbm: SMBM, masks: Sequence[int]) -> list[int]:
        """One output mask per input mask, against the current table.

        Each input mask is first intersected with the table's presence
        mask — the mask names the candidate subset of the *stored*
        resources the policy may consider for that row.
        """
        if smbm.capacity != self._capacity:
            raise ConfigurationError(
                f"evaluator built for capacity {self._capacity}, "
                f"table has {smbm.capacity}"
            )
        if not masks:
            return []
        present = smbm.id_mask()
        base = [present & m for m in masks]
        full = self._full
        memo: dict[int, list[int]] = {}

        def walk(node: Node) -> list[int]:
            cached = memo.get(node.node_id)
            if cached is not None:
                return cached
            if isinstance(node, TableRef):
                col = base
            elif isinstance(node, Unary):
                child = walk(node.child)
                cfg = node.config
                op = cfg.opcode
                if op is UnaryOp.NO_OP:
                    col = child
                elif op is UnaryOp.PREDICATE:
                    assert cfg.attr is not None and cfg.rel_op is not None
                    assert cfg.val is not None
                    sat = smbm.metric_index(cfg.attr).predicate_mask(
                        cfg.rel_op, cfg.val, full
                    )
                    col = [c & sat for c in child]
                elif op in (UnaryOp.MIN, UnaryOp.MAX):
                    assert cfg.attr is not None
                    index = smbm.metric_index(cfg.attr)
                    pick = (index.min_mask if op is UnaryOp.MIN
                            else index.max_mask)
                    k = cfg.k
                    col = [select_k_scalar(pick, c, k) for c in child]
                else:  # pragma: no cover - rejected at construction
                    raise ConfigurationError(f"stateful opcode {op} in batch")
            elif isinstance(node, Binary):
                left = walk(node.left)
                right = walk(node.right)
                op = node.opcode
                if op is BinaryOp.NO_OP:
                    col = left if node.choice == 0 else right
                elif op is BinaryOp.UNION:
                    col = [a | b for a, b in zip(left, right)]
                elif op is BinaryOp.INTERSECTION:
                    col = [a & b for a, b in zip(left, right)]
                else:
                    col = [a & ~b for a, b in zip(left, right)]
            elif isinstance(node, Conditional):
                primary = walk(node.primary)
                fallback = walk(node.fallback)
                col = [p if p else f for p, f in zip(primary, fallback)]
            else:  # pragma: no cover
                raise ConfigurationError(f"unknown node type {type(node)!r}")
            memo[node.node_id] = col
            return col

        return walk(self._policy.root)

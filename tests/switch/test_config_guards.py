"""FilterModule flag-conflict guards: one typed error, every conflict.

The module's constructor takes several mode flags whose pairwise
combinations are not all meaningful.  The contract under test:

* every *conflicting* pair raises a single :class:`ConfigError` (a
  :class:`ConfigurationError` subclass, so existing callers keep
  working) that names **all** violated pairs, not just the first;
* every *compatible* pair constructs a working module;
* the error's ``conflicts`` attribute is machine-readable, so callers
  can branch on which flags collided.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.operators import RelOp
from repro.core.pipeline import PipelineParams
from repro.core.policy import Policy, TableRef, predicate
from repro.errors import ConfigError, ConfigurationError
from repro.switch.filter_module import FilterModule

PARAMS = PipelineParams()
METRICS = ("q", "load")

#: Every mode flag the guard matrix covers, mapped to the constructor
#: kwargs that turn it on.  "tenant" is a mode, not a boolean: it is
#: enabled by any of the slicing parameters.
FLAG_KWARGS = {
    "self_healing": {"self_healing": True},
    "naive": {"naive": True},
    "sanitize": {"sanitize": True},
    "memoize_off": {"memoize": False},
    "tenant": {
        "tenant": "alice",
        "reserved_cells": ((1, 1), (2, 1), (3, 1), (4, 1)),
        "input_lines": (0, 1),
    },
}

#: The pairs that must conflict; every other pair must construct.
CONFLICTS = {
    frozenset({"naive", "tenant"}),
}


def _build(**kwargs) -> FilterModule:
    return FilterModule(
        8, METRICS,
        Policy(predicate(TableRef(), "q", RelOp.LT, 5), name="p"),
        PARAMS,
        **kwargs,
    )


@pytest.mark.parametrize(
    "a,b",
    list(itertools.combinations(sorted(FLAG_KWARGS), 2)),
    ids=lambda v: v,
)
def test_pairwise_flag_matrix(a: str, b: str):
    """Every pairwise flag combination either conflicts loudly (typed
    ConfigError naming the pair) or builds a working module."""
    kwargs = {**FLAG_KWARGS[a], **FLAG_KWARGS[b]}
    if frozenset({a, b}) in CONFLICTS:
        with pytest.raises(ConfigError) as exc_info:
            _build(**kwargs)
        err = exc_info.value
        assert err.involves(a) and err.involves(b)
        # Typed subclass: legacy except-clauses still catch it.
        assert isinstance(err, ConfigurationError)
    else:
        module = _build(**kwargs)
        assert module.evaluate() is not None


@pytest.mark.parametrize("flag", sorted(FLAG_KWARGS), ids=lambda v: v)
def test_each_flag_alone_constructs(flag: str):
    module = _build(**FLAG_KWARGS[flag])
    assert module.evaluate() is not None


def test_all_conflicts_reported_at_once():
    """naive + every tenant-slicing parameter (+ compatible flags) is one
    violated pair; the single raised error lists exactly it,
    machine-readably."""
    with pytest.raises(ConfigError) as exc_info:
        _build(naive=True, self_healing=True, sanitize=True,
               **FLAG_KWARGS["tenant"])
    err = exc_info.value
    assert set(map(frozenset, err.conflicts)) == {
        frozenset({"naive", "tenant"}),
    }
    assert "naive" in str(err) and "tenant" in str(err)


def test_tenant_mode_triggers_on_any_slicing_parameter():
    """naive+tenant conflicts however the tenant mode is switched on."""
    for kwargs in (
        {"tenant": "alice"},
        {"reserved_cells": ((1, 1),)},
        {"input_lines": (0, 1)},
    ):
        with pytest.raises(ConfigError) as exc_info:
            _build(naive=True, **kwargs)
        assert exc_info.value.involves("tenant")


def test_tenant_mode_composes_with_self_healing():
    """Per-tenant fault domains: a sliced module may self-heal inside its
    own strip."""
    # Two columns: fail-around needs a surviving path through the strip
    # (a one-column strip whose only stage-1 Cell dies is severed — the
    # compiler rightly refuses, which is its own guarantee).
    params = PipelineParams(n=8)
    module = FilterModule(
        8, METRICS,
        Policy(predicate(TableRef(), "q", RelOp.LT, 5), name="p"),
        params,
        self_healing=True,
        tenant="alice",
        reserved_cells=tuple(
            (stage, col)
            for stage in range(1, params.k + 1) for col in (2, 3)
        ),
        input_lines=(0, 1, 2, 3),
    )
    assert module.tenant == "alice"
    assert module.self_healing
    module.update_resource(0, {"q": 3, "load": 1})
    module.update_resource(1, {"q": 7, "load": 2})
    out = module.evaluate()
    # A fault in the tenant's own column heals by recompiling within the
    # slice: the reserved Cells stay excluded afterwards.  (A table write
    # invalidates the memo so the next evaluation really routes through
    # the pipeline and trips the dead Cell.)
    module.inject_cell_kill(1, 0)
    module.update_resource(2, {"q": 9, "load": 3})
    healed = module.evaluate()
    assert healed.value == out.value
    assert (1, 0) in module.routed_around
    assert module.reserved_cells <= module.compiled.dead_cells

"""Workload registry: named parametric workloads with tiers and gates.

A *workload* is one benchmark scenario (e.g. ``gf2-backends`` or
``fig5-uniqueness``) declared once and runnable at any tier.  The declaration
carries:

* ``tiers`` — the scale knobs per tier (word counts, code sizes, sweep
  shapes, seeds).  ``smoke`` must be minimal (it runs inside the tier-1 test
  suite), ``quick`` is the CI tier, ``full`` produces baseline numbers.
* ``run`` — a callable ``(params, BenchContext) -> WorkloadResult`` that
  performs the measurements and fills per-condition metrics and oracles.
* ``gates`` — which metrics the comparator checks against the committed
  baseline, each with its own tolerance (see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import UnknownNameError, ValidationError
from repro.bench.schema import ConditionRecord
from repro.bench.timing import RunControl
from repro.obs import TRACER


@dataclass(frozen=True)
class MetricGate:
    """A comparator rule for one metric of one (or every) condition.

    ``rel_tol`` is the allowed *relative regression* versus the baseline
    value: with ``higher_is_better`` a new value ``v`` passes against
    baseline ``b`` iff ``v >= b * (1 - rel_tol)``; with lower-is-better
    metrics iff ``v <= b * (1 + rel_tol)``.  A regression of exactly
    ``rel_tol`` therefore passes; one of ``rel_tol + ε`` fails.  A
    ``rel_tol`` of 0 demands the baseline be matched or beaten exactly —
    the right setting for deterministic counts.
    """

    metric: str
    rel_tol: float = 0.0
    higher_is_better: bool = True
    condition: Optional[str] = None  # None: every condition carrying the metric

    def applies_to(self, condition_name: str) -> bool:
        return self.condition is None or self.condition == condition_name


class BenchContext:
    """Everything a workload runner needs besides its parameters."""

    def __init__(self, tier: str, control: RunControl):
        self.tier = tier
        self.control = control

    @property
    def is_full(self) -> bool:
        return self.tier == "full"


@dataclass
class WorkloadResult:
    """What a workload runner returns; the driver wraps it into a record."""

    conditions: List[ConditionRecord] = field(default_factory=list)
    artifacts: Dict[str, Any] = field(default_factory=dict)
    _obs_counters: Dict[str, float] = field(default_factory=dict, repr=False)

    def add(
        self,
        condition: str,
        metrics: Optional[Mapping[str, Any]] = None,
        oracles: Optional[Mapping[str, Any]] = None,
    ) -> ConditionRecord:
        metric_values = dict(metrics or {})
        # With the tracer live (the driver enables metrics-only collection
        # around each workload) every condition also carries the library
        # counters it moved — ``obs.*`` deltas since the previous condition.
        # The comparator only gates metrics present in the baseline, so
        # these ride along without touching any committed numbers.
        if TRACER.enabled:
            totals = TRACER.counter_totals()
            for name in sorted(totals):
                delta = totals[name] - self._obs_counters.get(name, 0.0)
                if delta:
                    metric_values[f"obs.{name}"] = delta
            self._obs_counters = totals
        record = ConditionRecord(
            condition=condition,
            metrics=metric_values,
            oracles=dict(oracles or {}),
        )
        self.conditions.append(record)
        return record


@dataclass(frozen=True)
class Workload:
    """A registered parametric benchmark workload."""

    name: str
    description: str
    tiers: Mapping[str, Mapping[str, Any]]
    run: Callable[[Mapping[str, Any], BenchContext], WorkloadResult]
    gates: Tuple[MetricGate, ...] = ()
    tags: Tuple[str, ...] = ()

    def params_for(self, tier: str) -> Dict[str, Any]:
        if tier not in self.tiers:
            raise UnknownNameError(f"workload {self.name!r} has no tier {tier!r}")
        return dict(self.tiers[tier])


_REGISTRY: Dict[str, Workload] = {}


def register_workload(
    name: str,
    description: str,
    tiers: Mapping[str, Mapping[str, Any]],
    run: Callable[[Mapping[str, Any], BenchContext], WorkloadResult],
    gates: Sequence[MetricGate] = (),
    tags: Sequence[str] = (),
) -> Workload:
    """Register a workload under a unique name (import-time declaration)."""
    if name in _REGISTRY:
        raise ValidationError(f"workload {name!r} is already registered")
    missing = {"smoke", "quick", "full"} - set(tiers)
    if missing:
        raise ValidationError(f"workload {name!r} is missing tiers: {sorted(missing)}")
    workload = Workload(
        name=name,
        description=description,
        tiers={tier: dict(params) for tier, params in tiers.items()},
        run=run,
        gates=tuple(gates),
        tags=tuple(tags),
    )
    _REGISTRY[name] = workload
    return workload


def get_workload(name: str) -> Workload:
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownNameError(
            f"unknown workload {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def workload_names() -> List[str]:
    _ensure_loaded()
    return list(_REGISTRY)


def all_workloads() -> List[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


def gates_by_workload() -> Dict[str, Tuple[MetricGate, ...]]:
    _ensure_loaded()
    return {name: workload.gates for name, workload in _REGISTRY.items()}


def _ensure_loaded() -> None:
    # Workload declarations live in repro.bench.workloads and register
    # themselves on import; pulling them in lazily keeps `import repro.bench`
    # cheap for consumers that only need the schema or comparator.
    import repro.bench.workloads  # noqa: F401

"""Merged benchmark results schema: workload × condition × metrics.

Every benchmark in the repository — the four perf benchmarks that used to
write ad-hoc ``BENCH_*.json`` files and the paper-figure reproductions —
reports its measurements through one schema:

* a :class:`BenchRun` is one invocation of the driver: a tier (``smoke`` /
  ``quick`` / ``full``), an environment fingerprint, and a list of workload
  records;
* a :class:`WorkloadRecord` is one parametric workload at its tier's scale:
  the resolved parameters, the per-condition measurements, and a free-form
  ``artifacts`` payload carrying workload-level data (shape information the
  reports and figure tables need);
* a :class:`ConditionRecord` is one named condition of a workload (e.g.
  ``bulk-decode:packed`` or ``k16:incremental``): a flat ``metrics`` mapping
  of numbers/booleans plus an ``oracles`` mapping of correctness gates.

Oracle values are ``True`` (gate passed), ``False`` (gate violated — the
comparator hard-fails on these), or the string ``"skipped"`` (the gate could
not run, e.g. the parallel-sweep speedup floor on a machine with fewer than
4 CPUs; the comparator downgrades these to warnings).

Serialisation is canonical: :func:`canonical_json` sorts keys and uses a
fixed layout, so ``serialize → parse → serialize`` is byte-identical (the
round-trip property the schema tests pin down).
"""

from __future__ import annotations

from repro.exceptions import UnknownNameError
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Union

SCHEMA_VERSION = 1

#: The valid oracle states beyond plain pass/fail.
ORACLE_SKIPPED = "skipped"

OracleValue = Union[bool, str]


class SchemaError(ValueError):
    """A benchmark results document does not conform to the merged schema."""


@dataclass
class ConditionRecord:
    """One named condition of a workload: metrics plus correctness oracles."""

    condition: str
    metrics: Dict[str, Any] = field(default_factory=dict)
    oracles: Dict[str, OracleValue] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "condition": self.condition,
            "metrics": dict(self.metrics),
            "oracles": dict(self.oracles),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ConditionRecord":
        _require(payload, ("condition", "metrics", "oracles"), "condition record")
        for name, value in payload["oracles"].items():
            if not (isinstance(value, bool) or value == ORACLE_SKIPPED):
                raise SchemaError(
                    f"oracle {name!r} must be true/false/{ORACLE_SKIPPED!r}, "
                    f"got {value!r}"
                )
        return cls(
            condition=payload["condition"],
            metrics=dict(payload["metrics"]),
            oracles=dict(payload["oracles"]),
        )


@dataclass
class WorkloadRecord:
    """One workload run at one scale: params, conditions, workload artifacts."""

    workload: str
    params: Dict[str, Any] = field(default_factory=dict)
    conditions: List[ConditionRecord] = field(default_factory=list)
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def condition(self, name: str) -> ConditionRecord:
        for record in self.conditions:
            if record.condition == name:
                return record
        raise UnknownNameError(f"workload {self.workload!r} has no condition {name!r}")

    def condition_names(self) -> List[str]:
        return [record.condition for record in self.conditions]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "conditions": [record.to_dict() for record in self.conditions],
            "artifacts": dict(self.artifacts),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadRecord":
        _require(
            payload, ("workload", "params", "conditions", "artifacts"), "workload record"
        )
        return cls(
            workload=payload["workload"],
            params=dict(payload["params"]),
            conditions=[ConditionRecord.from_dict(c) for c in payload["conditions"]],
            artifacts=dict(payload["artifacts"]),
        )


@dataclass
class BenchRun:
    """One driver invocation: tier, environment fingerprint, workload records."""

    tier: str
    environment: Dict[str, Any] = field(default_factory=dict)
    workloads: List[WorkloadRecord] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    def workload(self, name: str) -> WorkloadRecord:
        for record in self.workloads:
            if record.workload == name:
                return record
        raise UnknownNameError(f"run has no workload {name!r}")

    def workload_names(self) -> List[str]:
        return [record.workload for record in self.workloads]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "suite": "repro.bench",
            "tier": self.tier,
            "environment": dict(self.environment),
            "workloads": [record.to_dict() for record in self.workloads],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BenchRun":
        _require(
            payload,
            ("schema_version", "tier", "environment", "workloads"),
            "bench run",
        )
        version = payload["schema_version"]
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
            )
        return cls(
            tier=payload["tier"],
            environment=dict(payload["environment"]),
            workloads=[WorkloadRecord.from_dict(w) for w in payload["workloads"]],
            schema_version=version,
        )

    # -- canonical serialisation ------------------------------------------------
    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "BenchRun":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SchemaError(f"not a JSON document: {error}") from error
        if not isinstance(payload, dict):
            raise SchemaError("a bench run must be a JSON object")
        return cls.from_dict(payload)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def read(cls, path) -> "BenchRun":
        with open(path) as handle:
            return cls.from_json(handle.read())


def canonical_json(payload: Mapping[str, Any]) -> str:
    """Serialise ``payload`` deterministically (sorted keys, fixed layout).

    The canonical form is what makes baselines diffable and the round-trip
    ``serialize → parse → serialize`` byte-identical.
    """
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require(payload: Mapping[str, Any], keys, what: str) -> None:
    missing = [key for key in keys if key not in payload]
    if missing:
        raise SchemaError(f"{what} is missing required keys: {missing}")

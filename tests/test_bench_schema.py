"""Merged-schema serialisation properties.

``serialize → parse → serialize`` must be byte-identical for any valid
document (a hypothesis property).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.schema import (
    ORACLE_SKIPPED,
    SCHEMA_VERSION,
    BenchRun,
    ConditionRecord,
    SchemaError,
    WorkloadRecord,
    canonical_json,
)


# -- hypothesis strategies for valid documents ---------------------------------------
names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)
metric_values = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    names,
)
oracle_values = st.one_of(st.booleans(), st.just(ORACLE_SKIPPED))
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), names)

conditions = st.builds(
    ConditionRecord,
    condition=names,
    metrics=st.dictionaries(names, metric_values, max_size=4),
    oracles=st.dictionaries(names, oracle_values, max_size=3),
)
workload_records = st.builds(
    WorkloadRecord,
    workload=names,
    params=st.dictionaries(names, json_scalars, max_size=4),
    conditions=st.lists(conditions, max_size=3),
    artifacts=st.dictionaries(names, json_scalars, max_size=3),
)
bench_runs = st.builds(
    BenchRun,
    tier=st.sampled_from(["smoke", "quick", "full"]),
    environment=st.dictionaries(names, json_scalars, max_size=4),
    workloads=st.lists(workload_records, max_size=3),
)


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(bench_runs)
    def test_serialize_parse_serialize_is_byte_identical(self, run):
        first = run.to_json()
        second = BenchRun.from_json(first).to_json()
        assert second == first

    @settings(max_examples=50, deadline=None)
    @given(bench_runs)
    def test_parse_preserves_every_field(self, run):
        parsed = BenchRun.from_json(run.to_json())
        assert parsed.tier == run.tier
        assert parsed.environment == run.environment
        assert parsed.schema_version == SCHEMA_VERSION
        assert [w.to_dict() for w in parsed.workloads] == [
            w.to_dict() for w in run.workloads
        ]

    def test_canonical_json_is_deterministic_under_key_order(self):
        assert canonical_json({"b": 1, "a": {"d": 2, "c": 3}}) == canonical_json(
            {"a": {"c": 3, "d": 2}, "b": 1}
        )

    def test_file_round_trip(self, tmp_path):
        run = BenchRun(tier="quick", environment={"x": 1}, workloads=[])
        path = tmp_path / "run.json"
        run.write(path)
        assert BenchRun.read(path).to_json() == run.to_json()
        # the on-disk form IS the canonical form
        assert path.read_text() == run.to_json()


class TestValidation:
    def test_rejects_unknown_schema_version(self):
        payload = BenchRun(tier="quick").to_dict()
        payload["schema_version"] = 99
        with pytest.raises(SchemaError, match="schema_version"):
            BenchRun.from_dict(payload)

    def test_rejects_missing_keys(self):
        with pytest.raises(SchemaError, match="missing required keys"):
            BenchRun.from_dict({"tier": "quick"})

    def test_rejects_bad_oracle_value(self):
        payload = {
            "condition": "c",
            "metrics": {},
            "oracles": {"gate": "maybe"},
        }
        with pytest.raises(SchemaError, match="gate"):
            ConditionRecord.from_dict(payload)

    def test_rejects_non_object_document(self):
        with pytest.raises(SchemaError):
            BenchRun.from_json("[1, 2, 3]")
        with pytest.raises(SchemaError):
            BenchRun.from_json("not json at all")

    def test_rejects_nan_metrics_at_serialisation(self):
        run = BenchRun(
            tier="quick",
            workloads=[
                WorkloadRecord(
                    workload="w",
                    conditions=[ConditionRecord("c", metrics={"m": float("nan")})],
                )
            ],
        )
        with pytest.raises(ValueError):
            run.to_json()

"""Tests for the typed row-schema layer (``repro.sweeps.schema``).

Covers the runtime descriptor itself (validation errors with cell
coordinates, JSON persistence, fingerprints), the TypedDict derivation
rules, the schema-driven NPZ extraction that fixed the first-row
type-sniffing heuristic, and — parametrized over **every** registered
experiment — JSON round-trip fidelity of schema-shaped rows, a tiny-grid
runner smoke proving schema↔row agreement, pinned-seed bit-identity of two
full sweeps, and the loud failure modes (schema drift on resume, corrupted
shard/aggregate documents).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import TypedDict

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, SchemaViolationError
from repro.sweeps.orchestrator import run_sweep
from repro.sweeps.registry import all_experiments, get_experiment
from repro.sweeps.schema import (
    Column,
    RowSchema,
    numeric_arrays,
    schema_from_typeddict,
)
from repro.sweeps.store import RunStore, numeric_columns

#: One representative value per column kind for synthetic rows.
SAMPLE_VALUES = {"int": 3, "float": 0.5, "bool": True, "str": "x"}

#: One *cheap* grid cell per registered experiment (grid keys only), small
#: enough that running every runner once stays a smoke test.
TINY_CELLS: dict[str, dict[str, object]] = {
    "ablation": {"graph": "complete n=7 f=2", "rounds": 30, "tolerance": 1e-6},
    "adversary_showdown": {
        "case": "complete n=7 f=2",
        "strategy": "static",
        "batch": 4,
        "rounds": 30,
    },
    "asynchronous": {
        "case": "complete n=6 f=1",
        "max_delay": 1,
        "update_probability": 0.75,
        "batch": 4,
        "rounds": 60,
        "tolerance": 1e-5,
    },
    "checker": {"case": "complete n=4 f=1", "random_attempts": 20},
    "checker_scaling": {"case": "chord n=16 f=1"},
    "churn_sweep": {"p_awake": 0.9, "batch": 4, "rounds": 30},
    "convergence_rate": {
        "case": "complete n=4 f=1",
        "batch": 4,
        "rounds": 60,
        "tolerance": 1e-7,
    },
    "corollaries": {"corollary": 2, "f": 1},
    "dynamic_topology": {
        "case": "complete n=7 f=2",
        "schedule_kind": "static",
        "batch": 4,
        "rounds": 30,
    },
    "families": {"study": "core"},
    "feasibility_at_scale": {
        "case": "hetring n=100 f=2 extra=0.5",
        "witness_attempts": 5,
    },
    "large_n": {"n": 200, "dtype": "float64", "batch": 2, "rounds": 10},
    "necessity": {"case": "chord n=7 f=2", "rounds": 30},
    "robustness": {"case": "complete n=4 f=1", "batch": 4},
    "validity": {"graph": "complete n=7 f=2", "rounds": 30},
}

#: Pinned-seed sweeps whose aggregate rows must stay bit-identical across
#: refactors (the hashes were captured from the pre-schema code path).
GOLDEN_SWEEPS = [
    (
        "convergence_rate",
        ("case=complete n=4 f=1,core n=7 f=2", "batch=4", "rounds=60"),
        "00307d051f6437d7cc66d0f120463f11b3d13ac3430c6b9421c3501ff747c266",
        2,
    ),
    (
        "necessity",
        ("case=ring n=6 f=1",),
        "d757e8683009b3da1b4a883a274978673cbd49fb717f87102c58854471d05033",
        1,
    ),
]


def rows_digest(rows: object) -> str:
    """The canonical digest the golden hashes were captured with."""
    return hashlib.sha256(
        json.dumps(rows, default=repr).encode()
    ).hexdigest()


class DemoRow(TypedDict):
    """Fixture row type exercising all four kinds plus an optional column."""

    case: str
    n: int
    spread: float
    converged: bool
    rounds: int | None


DEMO_ROLES = {
    "case": "label",
    "n": "parameter",
    "spread": "metric",
    "converged": "verdict",
    "rounds": "metric",
}

DEMO_SCHEMA = schema_from_typeddict(DemoRow, roles=DEMO_ROLES)

DEMO_ROW: DemoRow = {
    "case": "c",
    "n": 4,
    "spread": 0.25,
    "converged": True,
    "rounds": 7,
}


class TestColumn:
    def test_rejects_unknown_kind_and_role(self):
        with pytest.raises(InvalidParameterError, match="kind"):
            Column(name="a", kind="complex", role="metric")
        with pytest.raises(InvalidParameterError, match="role"):
            Column(name="a", kind="int", role="output")


class TestRowSchema:
    def test_duplicate_and_empty_columns_rejected(self):
        column = Column(name="a", kind="int", role="metric")
        with pytest.raises(InvalidParameterError, match="duplicate"):
            RowSchema(name="s", columns=(column, column))
        with pytest.raises(InvalidParameterError, match="no columns"):
            RowSchema(name="s", columns=())

    def test_column_lookup_names_known_columns_on_miss(self):
        with pytest.raises(InvalidParameterError, match="case, n, spread"):
            DEMO_SCHEMA.column("missing")

    def test_validate_row_accepts_the_typed_row(self):
        DEMO_SCHEMA.validate_row(DEMO_ROW)
        DEMO_SCHEMA.validate_row({**DEMO_ROW, "rounds": None})

    def test_unknown_column_names_the_schema(self):
        with pytest.raises(SchemaViolationError, match="unknown column 'typo'"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "typo": 1})

    def test_missing_required_column(self):
        row = dict(DEMO_ROW)
        del row["converged"]
        with pytest.raises(
            SchemaViolationError, match="missing required column 'converged'"
        ):
            DEMO_SCHEMA.validate_row(row)

    def test_none_only_allowed_for_optional_columns(self):
        with pytest.raises(SchemaViolationError, match="does not allow None"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "spread": None})

    def test_bool_is_not_an_int_or_float(self):
        with pytest.raises(SchemaViolationError, match="expects kind 'int'"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "n": True})
        with pytest.raises(SchemaViolationError, match="expects kind 'float'"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "spread": False})

    def test_int_accepted_where_float_expected(self):
        DEMO_SCHEMA.validate_row({**DEMO_ROW, "spread": 1})

    def test_numpy_scalars_rejected_with_conversion_hint(self):
        with pytest.raises(SchemaViolationError, match="int\\(\\)/bool\\(\\)"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "n": np.int64(4)})
        with pytest.raises(SchemaViolationError, match="converted with"):
            DEMO_SCHEMA.validate_row({**DEMO_ROW, "converged": np.bool_(True)})
        # np.floating is a float subclass and JSON-exact: accepted.
        DEMO_SCHEMA.validate_row({**DEMO_ROW, "spread": np.float64(0.5)})

    def test_context_and_row_index_reach_the_message(self):
        bad = {**DEMO_ROW, "spread": "oops"}
        with pytest.raises(
            SchemaViolationError, match="shard 3, cell 7, row 1"
        ):
            DEMO_SCHEMA.validate_rows(
                [DEMO_ROW, bad], context="shard 3, cell 7"
            )

    def test_rows_must_be_a_list_of_mappings(self):
        with pytest.raises(SchemaViolationError, match="must be a list"):
            DEMO_SCHEMA.validate_rows("nope")
        with pytest.raises(SchemaViolationError, match="row 0"):
            DEMO_SCHEMA.validate_rows([42])

    def test_json_round_trip_and_fingerprint_stability(self):
        document = json.loads(json.dumps(DEMO_SCHEMA.to_json()))
        rebuilt = RowSchema.from_json(document)
        assert rebuilt == DEMO_SCHEMA
        assert rebuilt.fingerprint() == DEMO_SCHEMA.fingerprint()

    def test_fingerprint_tracks_column_changes(self):
        changed = RowSchema(
            name=DEMO_SCHEMA.name,
            columns=DEMO_SCHEMA.columns[:-1]
            + (Column(name="rounds", kind="int", role="metric"),),
        )
        assert changed.fingerprint() != DEMO_SCHEMA.fingerprint()

    def test_from_json_rejects_malformed_documents(self):
        with pytest.raises(SchemaViolationError, match="'name' string"):
            RowSchema.from_json({"columns": []})
        with pytest.raises(SchemaViolationError, match="must be a mapping"):
            RowSchema.from_json({"name": "s", "columns": ["nope"]})
        with pytest.raises(SchemaViolationError, match="missing key"):
            RowSchema.from_json(
                {"name": "s", "columns": [{"name": "a", "kind": "int"}]}
            )


class TestSchemaFromTypedDict:
    def test_roles_must_cover_exactly_the_typeddict_keys(self):
        roles = dict(DEMO_ROLES)
        roles["extra"] = "metric"
        del roles["spread"]
        with pytest.raises(
            InvalidParameterError,
            match="missing from roles: spread; not in the TypedDict: extra",
        ):
            schema_from_typeddict(DemoRow, roles=roles)

    def test_optional_value_and_absent_key_are_distinct(self):
        class PartialRow(TypedDict, total=False):
            verdict: bool

        schema = schema_from_typeddict(PartialRow, roles={"verdict": "verdict"})
        assert schema.column("verdict").required is False
        assert schema.column("verdict").optional is False
        rounds = DEMO_SCHEMA.column("rounds")
        assert rounds.optional is True and rounds.required is True

    def test_column_order_follows_roles_declaration(self):
        reordered = {key: DEMO_ROLES[key] for key in reversed(DEMO_ROLES)}
        schema = schema_from_typeddict(DemoRow, roles=reordered)
        assert schema.names == tuple(reversed(DEMO_SCHEMA.names))

    def test_unsupported_value_type_rejected(self):
        class BadRow(TypedDict):
            values: list

        with pytest.raises(InvalidParameterError, match="unsupported value"):
            schema_from_typeddict(BadRow, roles={"values": "metric"})


class TestNumericColumnsWithSchema:
    """The satellite fix: no more first-row type sniffing."""

    def test_none_in_first_row_no_longer_drops_the_column(self):
        rows = [
            {**DEMO_ROW, "rounds": None},
            {**DEMO_ROW, "rounds": 9},
        ]
        columns = numeric_columns(rows, schema=DEMO_SCHEMA)
        assert columns["rounds"].dtype == np.float64
        assert math.isnan(columns["rounds"][0]) and columns["rounds"][1] == 9.0
        # The schema-less legacy heuristic drops it (pinned so the fix in
        # the schema path is visibly a behaviour change, not an accident).
        assert "rounds" not in numeric_columns(rows)

    def test_fully_present_columns_keep_their_exact_dtype(self):
        rows = [DEMO_ROW, {**DEMO_ROW, "n": 5}]
        columns = numeric_columns(rows, schema=DEMO_SCHEMA)
        assert columns["n"].dtype == np.int64
        assert columns["converged"].dtype == np.bool_
        assert "case" not in columns

    def test_extra_non_schema_keys_still_sniffed(self):
        rows = [dict(DEMO_ROW, cell_index=0), dict(DEMO_ROW, cell_index=1)]
        columns = numeric_columns(rows, schema=DEMO_SCHEMA)
        assert columns["cell_index"].tolist() == [0, 1]

    def test_all_none_column_is_omitted(self):
        rows = [{**DEMO_ROW, "rounds": None}, {**DEMO_ROW, "rounds": None}]
        assert "rounds" not in numeric_arrays(rows, DEMO_SCHEMA)


def synthetic_row(schema: RowSchema, sparse: bool) -> dict[str, object]:
    """A row matching ``schema``; ``sparse`` exercises None/absent/NaN."""
    row: dict[str, object] = {}
    for column in schema.columns:
        if sparse and not column.required:
            continue
        if sparse and column.optional:
            row[column.name] = None
        elif sparse and column.kind == "float":
            row[column.name] = float("nan")
        else:
            row[column.name] = SAMPLE_VALUES[column.kind]
    return row


class TestRegisteredSchemas:
    """Every registered experiment's schema, exercised uniformly."""

    @pytest.fixture(params=sorted(all_experiments()))
    def spec(self, request):
        return get_experiment(request.param)

    def test_schema_json_round_trip(self, spec):
        rebuilt = RowSchema.from_json(
            json.loads(json.dumps(spec.schema.to_json()))
        )
        assert rebuilt == spec.schema
        assert rebuilt.fingerprint() == spec.schema.fingerprint()

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_rows_survive_the_shard_json_encoding(self, spec, sparse):
        row = synthetic_row(spec.schema, sparse)
        spec.schema.validate_row(row)
        # The exact encoder configuration the store uses for shard files.
        decoded = json.loads(json.dumps({"rows": [row]}, default=repr))
        spec.schema.validate_rows(decoded["rows"])
        revived = decoded["rows"][0]
        assert list(revived) == list(row)
        for key, value in row.items():
            if isinstance(value, float) and math.isnan(value):
                assert math.isnan(revived[key])
            else:
                assert revived[key] == value
                assert type(revived[key]) is type(value)

    def test_schema_covered_by_tiny_cells(self, spec):
        assert spec.name in TINY_CELLS
        assert set(TINY_CELLS[spec.name]) <= set(spec.grid)


class TestTinyGridSmoke:
    """Every runner's real rows agree with its declared schema."""

    @pytest.mark.parametrize("name", sorted(TINY_CELLS))
    def test_runner_rows_match_schema(self, name):
        spec = get_experiment(name)
        cell = dict(TINY_CELLS[name])
        if spec.accepts_seed:
            cell["seed"] = 0
        rows = spec.runner(**cell)
        assert rows, name
        spec.schema.validate_rows(list(rows))
        # The first row carries only declared columns, in particular the
        # required ones — the schema is neither wider nor narrower than
        # what the runner actually emits.
        required = {
            column.name
            for column in spec.schema.columns
            if column.required
        }
        assert required <= set(rows[0]) <= set(spec.schema.names)


class TestGoldenBitIdentity:
    """Pinned-seed sweeps reproduce their pre-refactor aggregates exactly."""

    @pytest.mark.parametrize(
        "name, overrides, digest, row_count",
        GOLDEN_SWEEPS,
        ids=[entry[0] for entry in GOLDEN_SWEEPS],
    )
    def test_aggregate_rows_bit_identical(
        self, tmp_path, name, overrides, digest, row_count
    ):
        result = run_sweep(
            name,
            overrides,
            seed=0,
            workers=1,
            results_root=tmp_path,
            run_id="golden",
        )
        assert len(result.rows) == row_count
        assert rows_digest(result.rows) == digest
        aggregate = RunStore(tmp_path / "golden").read_aggregate()
        assert rows_digest(aggregate["rows"]) == digest


class TestSchemaDriftAndCorruption:
    """Stored runs from a different schema or edited by hand fail loudly."""

    OVERRIDES = ("case=ring n=6 f=1",)

    def _run(self, tmp_path, run_id="drift"):
        run_sweep(
            "necessity",
            self.OVERRIDES,
            results_root=tmp_path,
            run_id=run_id,
        )
        return RunStore(tmp_path / run_id)

    def test_resume_after_schema_drift_names_run_and_fingerprints(
        self, tmp_path
    ):
        store = self._run(tmp_path)
        manifest = json.loads(store.manifest_path.read_text())
        columns = manifest["row_schema"]["columns"]
        changed = next(c for c in columns if c["name"] == "final_spread")
        changed["kind"] = "int"
        store.write_manifest(manifest)
        stored_prefix = RowSchema.from_json(
            manifest["row_schema"]
        ).fingerprint()[:12]
        current_prefix = get_experiment("necessity").schema.fingerprint()[:12]
        with pytest.raises(SchemaViolationError) as excinfo:
            run_sweep(
                "necessity",
                self.OVERRIDES,
                results_root=tmp_path,
                run_id="drift",
            )
        message = str(excinfo.value)
        assert "'drift'" in message and "drifted" in message
        assert stored_prefix in message and current_prefix in message

    def test_manifest_missing_required_key_fails_on_read(self, tmp_path):
        store = self._run(tmp_path, "broken")
        manifest = json.loads(store.manifest_path.read_text())
        del manifest["row_schema"]
        store.write_manifest(manifest)
        with pytest.raises(SchemaViolationError, match="row_schema"):
            store.read_manifest()

    def test_manifest_that_is_not_a_json_object_names_the_file(self, tmp_path):
        store = self._run(tmp_path, "listed")
        store.manifest_path.write_text("[]\n")
        with pytest.raises(SchemaViolationError, match="must hold a JSON object"):
            store.read_manifest()

    def test_corrupted_shard_row_fails_with_coordinates(self, tmp_path):
        store = self._run(tmp_path, "shardfix")
        payload = json.loads(store.shard_path(0).read_text())
        payload["rows"][0]["rounds"] = "sixty"
        store.write_shard(0, payload)
        schema = get_experiment("necessity").schema
        with pytest.raises(
            SchemaViolationError, match="cell 0, row 0.*'rounds'"
        ):
            store.read_shard(0, schema=schema)

    def test_aggregate_row_count_mismatch_rejected(self, tmp_path):
        store = self._run(tmp_path, "agg")
        payload = json.loads(store.aggregate_path.read_text())
        payload["row_count"] += 1
        store.run_dir.mkdir(exist_ok=True)
        store.aggregate_path.write_text(json.dumps(payload))
        with pytest.raises(SchemaViolationError, match="row_count"):
            store.read_aggregate()

    def test_aggregate_schema_pin_mismatch_rejected(self, tmp_path):
        store = self._run(tmp_path, "pin")
        with pytest.raises(SchemaViolationError, match="does not match"):
            store.read_aggregate(schema=DEMO_SCHEMA)

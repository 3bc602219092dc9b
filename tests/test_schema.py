"""Tests for the typed row-schema layer (``repro.sweeps.schema``).

Covers the runtime descriptor itself (validation errors with cell
coordinates, JSON persistence, fingerprints), the TypedDict derivation
rules, the schema-driven NPZ extraction that fixed the first-row
type-sniffing heuristic, and — parametrized over **every** registered
experiment — JSON round-trip fidelity of schema-shaped rows, a tiny-grid
runner smoke proving schema↔row agreement, pinned-seed bit-identity of two
full sweeps and of every experiment's tiny cell, and the loud failure modes
(schema drift on resume, corrupted shard/aggregate documents).
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
from repro.sweeps.registry import (
    all_experiments,
    get_experiment,
    register_experiment,
)
from repro.sweeps.schema import (
    Column,
    Label,
    Metric,
    Parameter,
    RowSchema,
    Verdict,
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

#: ``(digest, row count)`` of each experiment's :data:`TINY_CELLS` cell at
#: seed 0, captured before the per-experiment drivers were folded into their
#: registry cells.
TINY_CELL_GOLDENS = {
    "ablation": (
        "c0aa5559b267d9cad72b134facd1a72e34bf52747682b00e9df61e9e8d975fe7",
        10,
    ),
    "adversary_showdown": (
        "845a2a41082c8d4b293ad6b5994c46eef06f585167593b128eb0ad9170f8cc38",
        1,
    ),
    "asynchronous": (
        "ed6abe4549db69b66850b2d7bcd44ff40c4dff9414bf30e20d4b26672c6ee8d8",
        1,
    ),
    "checker": (
        "d834c3ae142a100988af62847427aed35959afa9ab32a6b2bb61d026a0c4c9f9",
        1,
    ),
    "checker_scaling": (
        "4dc31b3014cc26b53dddc94456548fdf4626f5753eb9417f4abaa96c496aa426",
        1,
    ),
    "churn_sweep": (
        "73bf2a0f18a935b3ae6468aa9b8fb1285ade62d83a84f85a3fdbdbc4079e9803",
        1,
    ),
    "convergence_rate": (
        "c641780b9d5fab88f2600dd20947489d0adac1a9631e1a13ed236b471322cebb",
        1,
    ),
    "corollaries": (
        "7811a1a56baac653d58ae545eff44bfbebd5ca45bc6d7b2bb8cbffb9468c82ce",
        5,
    ),
    "dynamic_topology": (
        "813b214d0a4d9099ca52a65dc421086ef9295708815e214c2cd9800454c52c8a",
        1,
    ),
    "families": (
        "57e980ce9e7669b050a7c55d35525caa1efb43260e2c96002d23c5c92fc3b46a",
        5,
    ),
    "feasibility_at_scale": (
        "ce1ca11dd50fd27c34cbe8b3ca30471d8ec139e864bc9202f885672a4cfb4ec3",
        1,
    ),
    "large_n": (
        "2d4a366dda4a2403f96b65e7e8093ecc212b3741ba7fe886a21888db69a66783",
        1,
    ),
    "necessity": (
        "42fbd054be7fa21d0dbaa6dab3d7e4f5afaf2fd35841104b6f27aa0dcb66d715",
        1,
    ),
    "robustness": (
        "f994fd773ed0e2ce4aeb58d66584b245f89a678e6b173612c56ad9445f6b6ca6",
        1,
    ),
    "validity": (
        "08bcc91ce211d5a0a188266d453f6fe471317e9f66904790a7bb5d3226e6ca9e",
        15,
    ),
}

#: Pinned-seed sweeps whose aggregate rows must stay bit-identical across
#: refactors: two captured from the pre-schema code path, then every
#: experiment's tiny cell.
GOLDEN_SWEEPS = [
    pytest.param(
        "convergence_rate",
        ("case=complete n=4 f=1,core n=7 f=2", "batch=4", "rounds=60"),
        "00307d051f6437d7cc66d0f120463f11b3d13ac3430c6b9421c3501ff747c266",
        2,
        id="convergence_rate",
    ),
    pytest.param(
        "necessity",
        ("case=ring n=6 f=1",),
        "d757e8683009b3da1b4a883a274978673cbd49fb717f87102c58854471d05033",
        1,
        id="necessity",
    ),
    *(
        pytest.param(
            name,
            tuple(f"{key}={value}" for key, value in TINY_CELLS[name].items()),
            digest,
            row_count,
            id=f"tiny-{name}",
        )
        for name, (digest, row_count) in TINY_CELL_GOLDENS.items()
    ),
]

#: Every registered experiment's ``RowSchema.fingerprint()``, pinned so that
#: no change reorders, re-kinds or re-roles a column silently: a stored run's
#: manifest carries the fingerprint, and a drifted one refuses to resume.
SCHEMA_FINGERPRINTS = {
    "ablation": (
        "3b3360064a303e96a9afd9dff9559f95964c7911fc512c0f8d9b473c5bbba797"
    ),
    "adversary_showdown": (
        "75b30a26afd564727420df1a12939cb54fbe971b33ded56bf070253783baaf8b"
    ),
    "asynchronous": (
        "8a4f5152737c0b1b852a4f4a648d34e07c6837333d676e3c7df972a808980d82"
    ),
    "checker": (
        "a6f2c32a1e3e3a1b126ed4f7740b91843b9df4c71f6c62bab96b54e4340a534a"
    ),
    "checker_scaling": (
        "0a768f74ca5a4395585eb4ad80c41b5a86d57ad28ece1c8af0554b0489c62d1f"
    ),
    "churn_sweep": (
        "8cf12617c771f8c7419a5a28f035a96501b9ee4cbf5305339767c89485b71a2a"
    ),
    "convergence_rate": (
        "d40a86e37998e2141e4288fe07bebcd9c2bc10f480ccb1330337def93c06d2e3"
    ),
    "corollaries": (
        "d085e02ed7d6ce463558587903cb4d206d2f43e1476e5b56b21f967a73a8ec3b"
    ),
    "dynamic_topology": (
        "17564dc1eea48a71fd7da3e2b2e881bb9aa147f5c015b1f838dc7840c7f39fe3"
    ),
    "families": (
        "77c862646f207c6273331b3e8a004ce9478136e45ed3bbab36853e285aaef10e"
    ),
    "feasibility_at_scale": (
        "ebcd14a08152bd1f2133ba52ab1745eabd8dd871c9609b81ed024524c9a52dd9"
    ),
    "large_n": (
        "fb7fe3d7a84c9ae5ab32a453ded9b8ca44956865b15bf0b62e3fc871699c604d"
    ),
    "necessity": (
        "7ce505746ff4a04a64f6dd7f38ba7bf7d2fad635995f06281696884e10928cce"
    ),
    "robustness": (
        "62e554b7738b7af80cc8affe59bade93ffa737250b2b9b855a1de33451bfc2c1"
    ),
    "validity": (
        "466b4d7452356aebe08f9ff39f3e08c08ea71c88f6472e461cd1d9173ccd2107"
    ),
}

#: Name endings of wall-clock metric columns, left out of golden digests
#: (the same rule as ``perfbench/outputs.py``).
TIMING_SUFFIXES = ("_seconds", "_second", "_ms")


def rows_digest(rows: object) -> str:
    """The canonical digest the golden hashes were captured with."""
    return hashlib.sha256(
        json.dumps(rows, default=repr).encode()
    ).hexdigest()


def deterministic_rows(
    rows: list[dict[str, object]], schema: RowSchema
) -> list[dict[str, object]]:
    """``rows`` without their timing metric columns."""
    timing = {
        column.name
        for column in schema.columns
        if column.role == "metric" and column.name.endswith(TIMING_SUFFIXES)
    }
    return [
        {key: value for key, value in row.items() if key not in timing}
        for row in rows
    ]


class DemoRow(TypedDict):
    """Fixture row type exercising all four kinds and roles plus an optional
    column."""

    case: Label[str]
    n: Parameter[int]
    spread: Metric[float]
    converged: Verdict[bool]
    rounds: Metric[int | None]


DEMO_SCHEMA = schema_from_typeddict(DemoRow)

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


class _ChainKeys(TypedDict, total=False):
    n: Parameter[int]


class _ChainBase(_ChainKeys):
    holds: Verdict[bool]


class ChainRow(_ChainBase, total=False):
    method: Label[str]


class NoRoleRow(TypedDict):
    case: Label[str]
    rounds: int


class TwoRoleRow(TypedDict):
    case: Label[str]
    rounds: Metric[Label[int]]


class TestSchemaFromTypedDict:
    def test_kind_role_and_optionality_come_from_the_field(self):
        assert DEMO_SCHEMA.name == "DemoRow"
        assert DEMO_SCHEMA.columns == (
            Column(name="case", kind="str", role="label"),
            Column(name="n", kind="int", role="parameter"),
            Column(name="spread", kind="float", role="metric"),
            Column(name="converged", kind="bool", role="verdict"),
            Column(name="rounds", kind="int", role="metric", optional=True),
        )

    def test_optional_value_and_absent_key_are_distinct(self):
        class PartialRow(TypedDict, total=False):
            verdict: Verdict[bool]

        schema = schema_from_typeddict(PartialRow)
        assert schema.column("verdict").required is False
        assert schema.column("verdict").optional is False
        rounds = DEMO_SCHEMA.column("rounds")
        assert rounds.optional is True and rounds.required is True

    def test_column_order_follows_the_class_chain_base_first(self):
        schema = schema_from_typeddict(ChainRow)
        assert schema.names == ("n", "holds", "method")
        assert [column.required for column in schema.columns] == [
            False,
            True,
            False,
        ]

    @pytest.mark.parametrize(
        "row, found",
        [(NoRoleRow, "found none"), (TwoRoleRow, "found 'label', 'metric'")],
        ids=["no-role", "two-roles"],
    )
    def test_a_field_needs_exactly_one_role(self, row, found):
        with pytest.raises(
            InvalidParameterError, match=f"column 'rounds': .*{found}"
        ):
            schema_from_typeddict(row)

    def test_unsupported_value_type_rejected(self):
        class BadRow(TypedDict):
            values: Metric[list]

        with pytest.raises(InvalidParameterError, match="unsupported value"):
            schema_from_typeddict(BadRow)


def _register_probe(returns: object) -> None:
    """Register a probe runner whose return annotation is ``returns``."""

    def probe_cell() -> list:
        return []

    if returns is None:
        del probe_cell.__annotations__["return"]
    else:
        probe_cell.__annotations__["return"] = returns
    register_experiment(
        "schema_probe",
        paper_section="s",
        claim="c",
        engine="checker",
        grid={},
    )(probe_cell)


class TestRegistrationDerivesTheSchema:
    """``register_experiment`` reads the schema from ``-> list[Row]``."""

    @pytest.mark.parametrize(
        "returns",
        [None, list, list[dict], tuple[DemoRow], DemoRow],
        ids=["unannotated", "bare-list", "list-of-dict", "tuple", "row"],
    )
    def test_runner_without_a_row_list_annotation_refused(self, returns):
        with pytest.raises(
            InvalidParameterError,
            match=r"experiment 'schema_probe': .*'-> list\[Row\]'",
        ):
            _register_probe(returns)
        assert "schema_probe" not in all_experiments()

    @pytest.mark.parametrize(
        "row, found",
        [(NoRoleRow, "found none"), (TwoRoleRow, "found 'label', 'metric'")],
        ids=["no-role", "two-roles"],
    )
    def test_field_without_exactly_one_role_refused(self, row, found):
        with pytest.raises(
            InvalidParameterError,
            match=f"experiment 'schema_probe': .*column 'rounds': .*{found}",
        ):
            _register_probe(list[row])
        assert "schema_probe" not in all_experiments()


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

    def test_schema_fingerprint_is_pinned(self, spec):
        assert spec.schema.fingerprint() == SCHEMA_FINGERPRINTS[spec.name]

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
        "name, overrides, digest, row_count", GOLDEN_SWEEPS
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
        schema = get_experiment(name).schema
        assert len(result.rows) == row_count
        assert rows_digest(deterministic_rows(result.rows, schema)) == digest
        aggregate = RunStore(tmp_path / "golden").read_aggregate()
        assert rows_digest(deterministic_rows(aggregate["rows"], schema)) == digest


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

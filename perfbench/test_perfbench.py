"""Fast tests of the benchmark's own code: spans, names, goldens, checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from layers import PER_LAYER_METRICS
from memstore import MemoryResults
from outputs import StepOutcome, cell_digests, check_pass
from tracer import Tracer, check_metric_name
from workloads import END_TO_END, WHY, Step, run_pass

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_self_time_subtracts_direct_children_only() -> None:
    tracer = Tracer()
    root = tracer.record("pass", 0.0, 10.0, -1)
    cli = tracer.record("cli", 0.0, 9.0, root)
    sweep = tracer.record("sweeps", 1.0, 8.0, cli)
    tracer.record("sweeps.manifest", 2.0, 3.0, sweep)
    cell = tracer.record("experiments.cell", 4.0, 7.0, sweep)
    tracer.record("graphs.build", 4.5, 5.0, cell)
    tracer.record("graphs.build", 5.0, 6.5, cell)
    tracer.record("graphs.build", 11.0, 12.0, -1)

    times = tracer.self_times(tracer.descendants(root))

    assert times == pytest.approx(
        {
            "cli": 2.0,
            "sweeps": 3.0,
            "sweeps.manifest": 1.0,
            "experiments.cell": 1.0,
            "graphs.build": 2.0,
        }
    )
    assert sum(times.values()) == pytest.approx(9.0)


def test_recorded_spans_nest_and_skip_inside() -> None:
    tracer = Tracer()

    def checker() -> str:
        return "checked"

    traced_checker = tracer.wrap("conditions.checker", checker, skip_inside=["conditions.verdict"])
    verdict = tracer.wrap("conditions.verdict", lambda: traced_checker())

    assert traced_checker() == "checked"
    assert verdict() == "checked"
    assert tracer.names == ["conditions.checker", "conditions.verdict"]
    assert list(tracer.parents) == [-1, -1]
    assert tracer.open_count("conditions.verdict") == 0


def test_metric_name_check() -> None:
    for name in ("wall_s", "sweeps.manifest_s", "conditions.runs.witness", "a-b.c_d"):
        assert check_metric_name(name) == name
    for name in ("", "bad name", "slash/s", "ünï", ".dot-first", "x" * 65):
        with pytest.raises(ValueError):
            check_metric_name(name)
    for name, _, _ in PER_LAYER_METRICS:
        check_metric_name(name)


def test_benchmark_json_matches_the_reported_metrics() -> None:
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(metric) for metric in PER_LAYER_METRICS
    ]


def _aggregate(rows: list[dict[str, object]]) -> dict[str, object]:
    columns = [
        {"name": "case", "role": "label"},
        {"name": "rounds", "role": "metric"},
        {"name": "validity_ok", "role": "verdict"},
        {"name": "certificate_ok", "role": "verdict"},
        {"name": "elapsed_seconds", "role": "metric"},
        {"name": "screens_ms", "role": "metric"},
        {"name": "node_rounds_per_second", "role": "metric"},
    ]
    return {"experiment": "toy", "row_schema": {"columns": columns}, "rows": rows}


def _rows(**changes: object) -> list[dict[str, object]]:
    rows = []
    for cell in range(3):
        row: dict[str, object] = {
            "case": f"case-{cell}",
            "rounds": 10 + cell,
            "validity_ok": True,
            "certificate_ok": True,
            "elapsed_seconds": 0.5,
            "screens_ms": 1.25,
            "node_rounds_per_second": 1e6,
            "seed": 7,
            "cell_index": cell,
        }
        if cell == 1:
            row.update(changes)
        rows.append(row)
    return rows


def test_golden_comparator_skips_timing_columns() -> None:
    base = cell_digests(_aggregate(_rows()))
    retimed = cell_digests(
        _aggregate(_rows(elapsed_seconds=9.0, screens_ms=0.1, node_rounds_per_second=3.0))
    )
    assert retimed == base
    changed = cell_digests(_aggregate(_rows(rounds=99)))
    assert changed[1] != base[1]
    assert changed[0] == base[0] and changed[2] == base[2]
    assert cell_digests(_aggregate(_rows(seed=8)))[1] != base[1]


def _run(aggregate: dict[str, object] | None, exit_code: int | None = 0) -> StepOutcome:
    return StepOutcome("run", ("run", "toy"), "toy-run", 3, exit_code, "", None, aggregate)


def test_failures_are_counted_on_corrupted_output() -> None:
    golden = check_pass([_run(_aggregate(_rows()))], None)
    assert (golden.attempted, golden.failed) == (3, 0)

    corrupted = check_pass([_run(_aggregate(_rows(rounds=11.5)))], golden.record)
    assert (corrupted.attempted, corrupted.failed) == (3, 1)

    flag = check_pass([_run(_aggregate(_rows(certificate_ok=False)))], None)
    assert flag.failed == 1

    control = _rows(validity_ok=False, rule="linear-average")
    assert check_pass([_run(_aggregate(control))], None).failed == 0

    crashed = check_pass([_run(None, exit_code=None)], golden.record)
    assert (crashed.attempted, crashed.failed) == (3, 3)


def test_verdict_must_be_reverified_and_match() -> None:
    good = (
        "verdict:     FEASIBLE (f = 1, decided by exact, 9.1 ms): ...\n"
        "certificate: exact\nre-verified: yes\n"
    )
    outcome = StepOutcome("verdict", ("verdict", "chord"), None, 0, 0, good)
    first = check_pass([outcome], None)
    assert (first.attempted, first.failed, first.decided) == (1, 0, 1)
    again = StepOutcome("verdict", ("verdict", "chord"), None, 0, 0, good.replace("9.1", "7.7"))
    assert check_pass([again], first.record).failed == 0
    unverified = StepOutcome("verdict", ("verdict", "chord"), None, 0, 0, good.replace("yes", "NO"))
    assert check_pass([unverified], None).failed == 1


def test_a_pass_keeps_results_in_memory(tmp_path: Path) -> None:
    import repro.cli

    root = tmp_path / "results"
    tree = MemoryResults(root)
    run = Step(
        "run",
        ("run", "convergence_rate", "--grid", "case=complete n=4 f=1", "--grid", "batch=4",
         "--grid", "rounds=40", "--workers", "1", "--results-dir", str(root), "--run-id", "t"),
        "t",
        1,
    )
    steps = [run, Step("rerun", run.argv, "t"), Step("report", ("report", "t", "--results-dir", str(root)), "t")]
    with tree:
        wall, outcomes = run_pass(repro.cli, steps, tree)
    check = check_pass(outcomes, None)

    assert wall > 0
    assert (check.attempted, check.failed) == (3, 0), check.problems
    assert not tree.leaked() and not tmp_path.joinpath("results").exists()
    assert repro.cli.Path.__module__ == "pathlib"

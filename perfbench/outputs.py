"""Output checks: goldens, invariants and the per-operation failure count.

An **operation** is one experiment cell, one resumed rerun, one report or
one verdict.  It fails on an exception, a non-zero exit code or an output
mismatch.  A run's aggregate is compared cell by cell on its deterministic
columns: every column except the timing metrics (``*_seconds``,
``*_per_second``, ``*_ms``), floats rounded to 12 significant digits.  Each
cell's rows reduce to a short digest; a golden file holds one digest per
cell for one workload seed.  Seeds without a golden are held to the first
pass of the same run instead, so every pass after it must repeat it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

#: Name endings of wall-clock metric columns, excluded from comparisons.
TIMING_SUFFIXES = ("_seconds", "_second", "_ms")

#: Update rules that are expected to break validity (see false_flag_cells).
NEGATIVE_CONTROLS = frozenset({"linear-average"})

#: Verdict lines printed by ``repro verdict``.
_VERDICT_LINE = re.compile(r"^verdict:\s+(\w+) \(f = \d+, decided by ([\w-]+),")
_CERTIFICATE_LINE = re.compile(r"^certificate:\s+(.*)$")
_WITNESS_LINE = re.compile(r"^witness:\s+(.*)$")


def is_timing_column(name: str, role: str | None) -> bool:
    """Whether a column holds a wall-clock measurement (never compared)."""
    return role in (None, "metric") and name.endswith(TIMING_SUFFIXES)


def is_flag_column(name: str) -> bool:
    """Whether a column is a certificate or validity flag that must be true."""
    return name == "certificate_ok" or "validity" in name or name.endswith("hull_valid")


def column_roles(aggregate: Mapping[str, Any]) -> dict[str, str]:
    """Map each schema column of a stored aggregate to its role."""
    schema = aggregate["row_schema"]
    return {column["name"]: column["role"] for column in schema["columns"]}


def _canonical(value: object) -> object:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def cell_digests(aggregate: Mapping[str, Any]) -> list[str]:
    """One digest per cell of the deterministic columns of its rows."""
    roles = column_roles(aggregate)
    cells: dict[int, list[dict[str, object]]] = {}
    for row in aggregate["rows"]:
        kept = {
            key: _canonical(value)
            for key, value in row.items()
            if not is_timing_column(key, roles.get(key))
        }
        cells.setdefault(int(row["cell_index"]), []).append(kept)
    return [
        hashlib.sha256(
            json.dumps(cells[index], sort_keys=True).encode()
        ).hexdigest()[:16]
        for index in sorted(cells)
    ]


def false_flag_cells(aggregate: Mapping[str, Any]) -> set[int]:
    """Cells with a certificate or validity flag that is ``False``.

    Rows of a negative-control rule are exempt: the ablation and validity
    experiments run plain averaging to show that it breaks validity.
    """
    return {
        int(row["cell_index"])
        for row in aggregate["rows"]
        if row.get("rule") not in NEGATIVE_CONTROLS
        and any(value is False for key, value in row.items() if is_flag_column(key))
    }


def parse_verdict(stdout: str) -> dict[str, object]:
    """Read status, deciding layer, certificate and re-check of a verdict."""
    record: dict[str, object] = {
        "status": None,
        "decided_by": None,
        "certificate": None,
        "witness": None,
        "reverified": False,
    }
    for line in stdout.splitlines():
        if match := _VERDICT_LINE.match(line):
            record["status"], record["decided_by"] = match.groups()
        elif match := _CERTIFICATE_LINE.match(line):
            record["certificate"] = match.group(1)
        elif match := _WITNESS_LINE.match(line):
            record["witness"] = match.group(1)
        elif line.startswith("re-verified: yes"):
            record["reverified"] = True
    return record


@dataclass
class StepOutcome:
    """What one CLI command of a pass did: its argv, exit and output."""

    kind: str
    argv: tuple[str, ...]
    run_id: str | None
    cells: int
    exit_code: int | None
    stdout: str
    error: str | None = None
    aggregate: Mapping[str, Any] | None = None


@dataclass
class PassCheck:
    """Result of checking one pass: counts, digests and what went wrong."""

    attempted: int = 0
    failed: int = 0
    decided: int = 0
    verdicts: int = 0
    record: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        """Count ``count`` failed operations and remember why."""
        self.failed += count
        self.problems.append(problem)


def check_pass(
    outcomes: Sequence[StepOutcome],
    expected: Mapping[str, Any] | None,
) -> PassCheck:
    """Check one pass against ``expected`` (a golden or an earlier pass).

    Returns the operation counts, the number of decided verdicts (E12 rows
    and ``repro verdict`` runs) and ``record``, the deterministic summary
    later passes and golden files compare with.
    """
    check = PassCheck()
    runs: dict[str, list[str]] = {}
    verdicts: list[dict[str, object]] = []
    expected_runs = expected["runs"] if expected else {}
    for outcome in outcomes:
        where = " ".join(outcome.argv[:2])
        if outcome.kind == "run":
            _check_run(outcome, expected_runs, runs, check, where)
        elif outcome.kind == "rerun":
            _check_rerun(outcome, runs, check, where)
        elif outcome.kind == "report":
            check.attempted += 1
            if outcome.exit_code != 0 or "status:         complete" not in outcome.stdout:
                check.fail(1, f"{where}: report failed ({outcome.error or outcome.exit_code})")
        else:
            _check_verdict(outcome, expected, verdicts, check, where)
    check.record = {"runs": runs, "verdicts": verdicts}
    return check


def _check_run(
    outcome: StepOutcome,
    expected_runs: Mapping[str, Sequence[str]],
    runs: dict[str, list[str]],
    check: PassCheck,
    where: str,
) -> None:
    aggregate = outcome.aggregate
    golden = expected_runs.get(outcome.run_id or "")
    check.attempted += outcome.cells
    if outcome.exit_code != 0 or aggregate is None:
        check.fail(outcome.cells, f"{where}: exit {outcome.exit_code} {outcome.error or ''}")
        return
    digests = cell_digests(aggregate)
    runs[outcome.run_id or ""] = digests
    if len(digests) != outcome.cells or (golden is not None and len(golden) != outcome.cells):
        check.fail(outcome.cells, f"{where}: {len(digests)} cells stored, {outcome.cells} planned")
        return
    bad = set(false_flag_cells(aggregate))
    if golden is not None:
        bad |= {i for i, (got, want) in enumerate(zip(digests, golden)) if got != want}
    if bad:
        check.fail(len(bad), f"{where}: cells {sorted(bad)[:8]} differ or fail a flag")
    if aggregate["experiment"] == "feasibility_at_scale":
        check.verdicts += len(aggregate["rows"])
        check.decided += sum(1 for row in aggregate["rows"] if row["decided"])


def _check_rerun(
    outcome: StepOutcome, runs: Mapping[str, Sequence[str]], check: PassCheck, where: str
) -> None:
    check.attempted += 1
    first = runs.get(outcome.run_id or "")
    if outcome.exit_code != 0 or outcome.aggregate is None:
        check.fail(1, f"{where}: resumed rerun exit {outcome.exit_code} {outcome.error or ''}")
    elif ", 0 to run," not in outcome.stdout:
        check.fail(1, f"{where}: resumed rerun executed shards again")
    elif first is None or cell_digests(outcome.aggregate) != list(first):
        check.fail(1, f"{where}: resumed rerun changed the aggregate")


def _check_verdict(
    outcome: StepOutcome,
    expected: Mapping[str, Any] | None,
    verdicts: list[dict[str, object]],
    check: PassCheck,
    where: str,
) -> None:
    check.attempted += 1
    check.verdicts += 1
    record = parse_verdict(outcome.stdout)
    index = len(verdicts)
    verdicts.append(record)
    decided = record["status"] in ("FEASIBLE", "INFEASIBLE")
    check.decided += decided
    if outcome.exit_code != 0 or record["status"] is None:
        check.fail(1, f"{where}: verdict exit {outcome.exit_code} {outcome.error or ''}")
    elif decided and not record["reverified"]:
        check.fail(1, f"{where}: decided verdict not re-verified")
    elif expected and expected["verdicts"][index] != record:
        check.fail(1, f"{where}: verdict {record} differs from {expected['verdicts'][index]}")

"""Tests for the reprolint determinism & contract static-analysis suite.

Every rule ID gets a paired known-bad / known-good fixture proving it fires
and stays quiet; the pragma engine is exercised round-trip (suppression,
reason accounting, unused-pragma detection); and a self-check pins the
contract the CI lint gate enforces: ``src/repro`` lints clean with zero
unexplained suppressions.
"""

from __future__ import annotations

import ast
import configparser
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TOOLS_DIR = REPO_ROOT / "tools"
if str(TOOLS_DIR) not in sys.path:
    sys.path.insert(0, str(TOOLS_DIR))

from reprolint import all_rules, lint_paths, lint_source  # noqa: E402
from reprolint.__main__ import main as reprolint_main  # noqa: E402
from reprolint.pragmas import (  # noqa: E402
    UNEXPLAINED_SUPPRESSION,
    UNUSED_SUPPRESSION,
)

KERNEL_PATH = "src/repro/simulation/fixture_mod.py"
CANONICAL_PATH = "src/repro/conditions/fixture_mod.py"
EXPERIMENTS_PATH = "src/repro/experiments/fixture_mod.py"
GENERIC_PATH = "src/repro/analysis/fixture_mod.py"
PROVENANCE_PATH = "src/repro/sweeps/provenance.py"


def _package_data() -> dict[str, list[str]]:
    """The ``package_data`` literal of ``setup.py``'s ``setup()`` call."""
    tree = ast.parse((REPO_ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg == "package_data":
            return ast.literal_eval(node.value)
    raise AssertionError("setup.py passes no package_data")


def rules_fired(source: str, path: str, *rule_ids: str) -> list[str]:
    """Lint a dedented fixture with only ``rule_ids`` and return fired IDs."""
    report = lint_source(
        textwrap.dedent(source), path=path, select=list(rule_ids)
    )
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------------
# Per-rule fixtures: (rule id, path, known-bad snippet, known-good snippet).
# ---------------------------------------------------------------------------
RULE_FIXTURES = [
    (
        "RNG001",
        GENERIC_PATH,
        """
        import numpy as np
        rng = np.random.default_rng()
        """,
        """
        import numpy as np
        def make(seed: int) -> np.random.Generator:
            return np.random.default_rng(seed)
        """,
    ),
    (
        "RNG002",
        GENERIC_PATH,
        """
        import numpy as np
        np.random.seed(0)
        value = np.random.uniform(0.0, 1.0)
        """,
        """
        import numpy as np
        def draw(rng: np.random.Generator) -> float:
            return float(rng.uniform(0.0, 1.0))
        """,
    ),
    (
        "RNG003",
        GENERIC_PATH,
        """
        import random
        from random import shuffle
        """,
        """
        import numpy as np
        from numpy.random import default_rng
        """,
    ),
    (
        "RNG004",
        GENERIC_PATH,
        """
        import numpy as np
        rng = np.random.default_rng(12345)
        seq = np.random.SeedSequence(7)
        """,
        """
        import numpy as np
        def streams(seed: int, rows: int) -> list:
            return np.random.SeedSequence(seed).spawn(rows)
        """,
    ),
    (
        "CLK001",
        GENERIC_PATH,
        """
        import time
        import os
        stamp = time.time()
        token = os.urandom(8)
        """,
        """
        import time
        start = time.perf_counter()
        elapsed = time.perf_counter() - start
        """,
    ),
    (
        "ORD001",
        GENERIC_PATH,
        """
        def drain(pending: set, extra: set) -> list:
            out = [node for node in pending | extra]
            for node in set(pending):
                out.append(node)
            for node in list(pending.union(extra)):
                out.append(node)
            return out
        """,
        """
        def drain(pending: set, extra: set) -> list:
            out = [node for node in sorted(pending | extra, key=repr)]
            for node in sorted(set(pending), key=repr):
                out.append(node)
            return out
        """,
    ),
    (
        "ORD002",
        CANONICAL_PATH,
        """
        def collect(state: dict) -> list:
            out = [value for key, value in state.items()]
            for key in state.keys():
                out.append(key)
            return out
        """,
        """
        def collect(state: dict) -> list:
            out = [value for key, value in sorted(state.items(), key=lambda kv: repr(kv[0]))]
            for key in sorted(state, key=repr):
                out.append(key)
            return out
        """,
    ),
    (
        "EXA001",
        KERNEL_PATH,
        """
        import numpy as np
        def segment_sums(plane, starts):
            return np.add.reduceat(plane, starts, axis=1)
        """,
        """
        import numpy as np
        def segment_sums(plane):
            return np.cumsum(plane, axis=1)
        """,
    ),
    (
        "EXA002",
        KERNEL_PATH,
        (
            """
            import math
            def total(values):
                return math.fsum(values)
            """,
            """
            def mean(values):
                return sum(values) / len(values)
            """,
        ),
        """
        def total(values):
            acc = 0.0
            for value in values:
                acc += value
            return acc
        """,
    ),
    (
        "EXA003",
        KERNEL_PATH,
        """
        import numpy as np
        plane = np.zeros(8, dtype=np.float32)
        other = np.zeros(8, dtype="float16")
        """,
        """
        import numpy as np
        def make_plane(size: int, dtype: np.dtype) -> np.ndarray:
            return np.zeros(size, dtype=dtype)
        """,
    ),
    (
        "REG001",
        EXPERIMENTS_PATH,
        """
        def run_study(seed: int) -> list:
            return []
        """,
        """
        from repro.sweeps.registry import register_experiment

        @register_experiment(
            "study",
            paper_section="Thm 2",
            claim="c",
            engine="vectorized",
            grid={},
        )
        def run_study(seed: int) -> list:
            return []
        """,
    ),
    (
        "REG002",
        EXPERIMENTS_PATH,
        """
        from repro.sweeps.registry import register_experiment

        @register_experiment("study", claim="c", grid={})
        def study_cell(seed: int) -> list:
            return []
        """,
        """
        from repro.sweeps.registry import register_experiment

        @register_experiment(
            "study",
            paper_section="Thm 2",
            claim="c",
            engine="vectorized",
            grid={},
        )
        def study_cell(seed: int) -> list:
            return []
        """,
    ),
    (
        "EXC001",
        GENERIC_PATH,
        """
        def load() -> int:
            try:
                return 1
            except:
                return 0
        """,
        """
        def load() -> int:
            try:
                return 1
            except ValueError:
                return 0
        """,
    ),
    (
        "EXC002",
        GENERIC_PATH,
        """
        def load() -> None:
            try:
                work()
            except Exception:
                pass
        """,
        """
        import logging
        def load() -> None:
            try:
                work()
            except Exception:
                logging.exception("work failed")
                raise
        """,
    ),
    (
        "TYP001",
        GENERIC_PATH,
        """
        def convert(value, precision=3):
            return round(value, precision)
        """,
        """
        def convert(value: float, precision: int = 3) -> float:
            return round(value, precision)
        """,
    ),
]


class TestRuleFixtures:
    """Every rule fires on its bad fixture and stays quiet on the good one."""

    @pytest.mark.parametrize(
        "rule_id, path, bad, good",
        RULE_FIXTURES,
        ids=[fixture[0] for fixture in RULE_FIXTURES],
    )
    def test_bad_fixture_fires(
        self, rule_id: str, path: str, bad: str | tuple[str, ...], good: str
    ) -> None:
        for snippet in (bad,) if isinstance(bad, str) else bad:
            fired = rules_fired(snippet, path, rule_id)
            assert rule_id in fired, f"{rule_id} did not fire on {snippet}"

    @pytest.mark.parametrize(
        "rule_id, path, bad, good",
        RULE_FIXTURES,
        ids=[fixture[0] for fixture in RULE_FIXTURES],
    )
    def test_good_fixture_clean(
        self, rule_id: str, path: str, bad: str, good: str
    ) -> None:
        fired = rules_fired(good, path, rule_id)
        assert fired == [], f"{rule_id} false-positive: {fired}"

    def test_every_registered_rule_has_a_fixture(self) -> None:
        covered = {fixture[0] for fixture in RULE_FIXTURES}
        assert covered == set(all_rules())


class TestRuleScoping:
    """Scoped rules respect their module classes."""

    def test_dict_view_iteration_allowed_off_canonical_paths(self) -> None:
        source = """
        def collect(state: dict) -> list:
            return [value for key, value in state.items()]
        """
        assert rules_fired(source, GENERIC_PATH, "ORD002") == []

    def test_kernel_rules_silent_outside_kernels(self) -> None:
        source = """
        import numpy as np
        import math
        x = np.zeros(4, dtype=np.float32)
        y = math.fsum([1.0, 2.0])
        w = sum([1.0, 2.0])
        z = np.add.reduceat(np.arange(6.0), [0, 3])
        """
        assert (
            rules_fired(source, GENERIC_PATH, "EXA001", "EXA002", "EXA003")
            == []
        )

    def test_provenance_module_may_read_the_clock(self) -> None:
        source = """
        import datetime
        def utc_now_iso() -> str:
            return datetime.datetime.now(datetime.timezone.utc).isoformat()
        """
        assert rules_fired(source, PROVENANCE_PATH, "CLK001") == []

    def test_experiments_module_without_entry_points_needs_no_registry(
        self,
    ) -> None:
        source = """
        def format_table(rows: list) -> str:
            return str(rows)
        """
        assert rules_fired(source, EXPERIMENTS_PATH, "REG001") == []

    def test_private_and_nested_functions_exempt_from_typing_rule(
        self,
    ) -> None:
        source = """
        def _helper(value):
            return value

        def public(value: int) -> int:
            def inner(x):
                return x
            return inner(value)
        """
        assert rules_fired(source, GENERIC_PATH, "TYP001") == []


class TestPragmas:
    """Suppression round-trip: explained, unexplained, unused, comment-only."""

    BAD_LINE = "for node in set(range(4)):\n    print(node)\n"

    def test_explained_pragma_suppresses_and_is_accounted(self) -> None:
        source = (
            "for node in set(range(4)):  "
            "# reprolint: disable=ORD001 -- fixture exemption\n"
            "    print(node)\n"
        )
        report = lint_source(source, path=GENERIC_PATH, select=["ORD001"])
        assert report.findings == []
        assert [finding.rule for finding in report.suppressed] == ["ORD001"]
        assert report.unexplained_suppressions == 0

    def test_unexplained_pragma_is_a_finding(self) -> None:
        source = (
            "for node in set(range(4)):  # reprolint: disable=ORD001\n"
            "    print(node)\n"
        )
        report = lint_source(source, path=GENERIC_PATH, select=["ORD001"])
        assert [finding.rule for finding in report.findings] == [
            UNEXPLAINED_SUPPRESSION
        ]
        assert report.unexplained_suppressions == 1

    def test_unused_pragma_is_a_finding(self) -> None:
        source = "x = 1  # reprolint: disable=ORD001 -- nothing here\n"
        report = lint_source(source, path=GENERIC_PATH, select=["ORD001"])
        assert [finding.rule for finding in report.findings] == [
            UNUSED_SUPPRESSION
        ]

    def test_comment_only_pragma_covers_next_line(self) -> None:
        source = (
            "# reprolint: disable=ORD001 -- fixture exemption\n"
            + self.BAD_LINE
        )
        report = lint_source(source, path=GENERIC_PATH, select=["ORD001"])
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_pragma_only_suppresses_listed_rules(self) -> None:
        source = (
            "# reprolint: disable=EXA001 -- wrong rule on purpose\n"
            + self.BAD_LINE
        )
        report = lint_source(
            source, path=GENERIC_PATH, select=["ORD001", "EXA001"]
        )
        fired = {finding.rule for finding in report.findings}
        # The ORD001 finding survives and the EXA001 pragma is unused.
        assert fired == {"ORD001", UNUSED_SUPPRESSION}

    def test_disable_all_works_but_still_needs_a_reason(self) -> None:
        source = (
            "for node in set(range(4)):  # reprolint: disable=ALL -- fixture\n"
            "    print(node)\n"
        )
        report = lint_source(source, path=GENERIC_PATH, select=["ORD001"])
        assert report.findings == []


class TestDriver:
    """CLI behaviour: exit codes, JSON output, rule listing, budget."""

    def write(self, tmp_path: Path, source: str) -> Path:
        target = tmp_path / "src" / "repro" / "analysis" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(source))
        return target

    def test_exit_zero_on_clean_tree(self, tmp_path: Path, capsys) -> None:
        path = self.write(tmp_path, "CONSTANT: int = 3\n")
        assert reprolint_main([str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path: Path, capsys) -> None:
        path = self.write(tmp_path, "import random\n")
        assert reprolint_main([str(path)]) == 1
        assert "RNG003" in capsys.readouterr().out

    def test_json_format_round_trips(self, tmp_path: Path, capsys) -> None:
        path = self.write(tmp_path, "import random\n")
        assert reprolint_main([str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "reprolint"
        assert payload["files_scanned"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["RNG003"]

    def test_list_rules_names_every_rule(self, capsys) -> None:
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rules():
            assert rule_id in out

    def test_unknown_rule_is_a_usage_error(self, tmp_path: Path) -> None:
        path = self.write(tmp_path, "x = 1\n")
        assert reprolint_main([str(path), "--select", "NOPE99"]) == 2

    def test_budget_waives_unexplained_suppressions(
        self, tmp_path: Path
    ) -> None:
        path = self.write(
            tmp_path,
            "import random  # reprolint: disable=RNG003\n",
        )
        assert reprolint_main([str(path)]) == 1
        assert reprolint_main([str(path), "--budget-unexplained", "1"]) == 0

    def test_module_invocation_via_subprocess(self, tmp_path: Path) -> None:
        path = self.write(tmp_path, "import random\n")
        env_path = f"{REPO_ROOT / 'src'}:{TOOLS_DIR}"
        completed = subprocess.run(
            [sys.executable, "-m", "reprolint", str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )
        assert completed.returncode == 1
        assert "RNG003" in completed.stdout


class TestSelfCheck:
    """The gate the CI lint step enforces, pinned as a test."""

    def test_src_repro_lints_clean(self) -> None:
        report = lint_paths([str(REPO_ROOT / "src" / "repro")])
        formatted = "\n".join(f.format() for f in report.findings)
        assert report.findings == [], f"reprolint findings:\n{formatted}"
        assert report.unexplained_suppressions == 0
        # Suppressions that do exist are all explained pragmas.
        assert all(
            finding.rule not in {UNEXPLAINED_SUPPRESSION, UNUSED_SUPPRESSION}
            for finding in report.suppressed
        )

    def test_typed_api_gate_config_is_committed_and_parses(self) -> None:
        config = configparser.ConfigParser()
        assert config.read(REPO_ROOT / "mypy.ini")
        assert config.has_section("mypy")
        assert config.get("mypy", "mypy_path") == "src"

    def test_py_typed_marker_ships(self) -> None:
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
        assert "py.typed" in _package_data()["repro"]

    def test_plane_kernel_source_ships(self) -> None:
        # Without it an installed copy would always run the NumPy kernel.
        assert (REPO_ROOT / "src" / "repro" / "simulation" / "plane_kernel.c").exists()
        assert "plane_kernel.c" in _package_data()["repro.simulation"]

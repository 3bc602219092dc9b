"""End-to-end tests for the ``repro`` CLI (``python -m repro``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Grid small enough for a smoke run, matching the `make sweep-smoke` target.
SMOKE_ARGS = [
    "--grid",
    "case=complete n=4 f=1",
    "--grid",
    "batch=4",
    "--grid",
    "rounds=60",
]


class TestList:
    def test_lists_all_nine_experiments_with_sections(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in [
            "ablation",
            "asynchronous",
            "checker",
            "convergence_rate",
            "corollaries",
            "families",
            "necessity",
            "robustness",
            "validity",
        ]:
            assert name in out
        assert "Section 7" in out
        assert "Theorem 3" in out

    def test_verbose_prints_claims_and_grid_defaults(self, capsys):
        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "--grid case=" in out
        assert "split-brain" in out


class TestRunAndReport:
    def test_smoke_run_manifest_and_results_round_trip(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "convergence_rate",
                *SMOKE_ARGS,
                "--workers",
                "2",
                "--results-dir",
                str(tmp_path),
                "--run-id",
                "smoke",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run 'smoke' complete" in out
        assert "complete n=4 f=1" in out

        run_dir = tmp_path / "smoke"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["experiment"] == "convergence_rate"
        assert manifest["seed"] == 3
        aggregate = json.loads((run_dir / "aggregate.json").read_text())
        assert aggregate["row_count"] == len(aggregate["rows"]) == 1
        assert aggregate["rows"][0]["case"] == "complete n=4 f=1"

        # report re-opens the stored run by id and by path.
        assert main(["report", "smoke", "--results-dir", str(tmp_path)]) == 0
        by_id = capsys.readouterr().out
        assert "convergence_rate" in by_id
        assert "complete n=4 f=1" in by_id
        assert main(["report", str(run_dir)]) == 0
        by_path = capsys.readouterr().out
        assert "complete n=4 f=1" in by_path

    def test_quiet_run_prints_nothing(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "necessity",
                "--grid",
                "case=ring n=6 f=1",
                "--results-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_grid_key_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "necessity",
                "--grid",
                "bogus=1",
                "--results-dir",
                str(tmp_path),
            ]
        )
        assert code == 2
        assert "unknown grid parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, parameter",
        [
            (["--grid", "rounds=true"], "rounds"),
            (["--grid", "rounds=null"], "rounds"),
            (["--grid", "rounds=[1]"], "rounds"),
            (["--grid", "tolerance=abc"], "tolerance"),
            (["--seed", "-1"], "seed"),
            (["--grid", "seed=-1"], "seed"),
        ],
    )
    def test_mistyped_override_or_seed_exits_2_naming_it(
        self, tmp_path, capsys, args, parameter
    ):
        code = main(
            [
                "run",
                "convergence_rate",
                *SMOKE_ARGS,
                *args,
                "--results-dir",
                str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and parameter in err
        assert not any(tmp_path.iterdir())  # refused before planning a run

    def test_report_missing_run_exits_2(self, tmp_path, capsys):
        code = main(["report", "ghost", "--results-dir", str(tmp_path)])
        assert code == 2
        assert "no run directory" in capsys.readouterr().err

    def _truncated_run(self, tmp_path, name, damage=lambda text: text[:40]):
        args = ["run", "convergence_rate", *SMOKE_ARGS]
        args += ["--results-dir", str(tmp_path), "--run-id", "cut", "--quiet"]
        assert main(args) == 0
        path = tmp_path / "cut" / name
        path.write_text(damage(path.read_text()))
        return args, path

    def test_resume_over_truncated_shard_exits_2_naming_it(
        self, tmp_path, capsys
    ):
        args, path = self._truncated_run(tmp_path, "shard_0000.json")
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "not valid JSON" in err

    @pytest.mark.parametrize("key", ["cell_index", "params", "rows"])
    def test_resume_over_shard_without_key_exits_2_naming_it(
        self, tmp_path, capsys, key
    ):
        def drop_key(text):
            payload = json.loads(text)
            del payload[key]
            return json.dumps(payload)

        args, path = self._truncated_run(tmp_path, "shard_0000.json", drop_key)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert repr(key) in err

    def test_report_over_truncated_manifest_exits_2_naming_it(
        self, tmp_path, capsys
    ):
        _, path = self._truncated_run(tmp_path, "manifest.json")
        assert main(["report", "cut", "--results-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert "not valid JSON" in err


class TestModuleEntryPoint:
    def test_python_dash_m_repro_list(self):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = (
            src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "convergence_rate" in completed.stdout


class TestVerdict:
    def test_verdict_hypercube_is_infeasible_with_witness(self, capsys):
        assert main(["verdict", "hypercube", "--n", "3", "--f", "1"]) == 0
        out = capsys.readouterr().out
        assert "verdict:     INFEASIBLE" in out
        assert "certificate: witness" in out
        assert "re-verified: yes" in out
        assert "exhaustive" in out

    def test_verdict_core_like_is_feasible_via_screens(self, capsys):
        assert main(["verdict", "core-like", "--n", "100", "--f", "3"]) == 0
        out = capsys.readouterr().out
        assert "verdict:     FEASIBLE" in out
        assert "certificate: core-structure" in out
        assert "re-verified: yes" in out
        assert "screens" in out

    def test_verdict_sparse_erdos_renyi_fails_degree_screen(self, capsys):
        code = main(
            ["verdict", "erdos-renyi", "--n", "150", "--f", "2", "--p", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:     INFEASIBLE" in out
        assert "certificate: in-degree-screen" in out

    def test_verdict_erdos_renyi_30_is_feasible_via_exact(self, capsys):
        # n = 30 is past the enumeration cap, so the DPLL layer decides and
        # its certificate is re-checked by running the search again.
        code = main(
            ["verdict", "erdos-renyi", "--n", "30", "--p", "0.4", "--f", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:     FEASIBLE" in out
        assert "decided by exact" in out
        assert "certificate: exact" in out
        assert "re-verified: yes" in out

    def test_negative_seed_exits_2_naming_it(self, capsys):
        code = main(
            ["verdict", "erdos-renyi", "--n", "20", "--f", "1", "--seed", "-1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--seed" in err

    @pytest.mark.parametrize("extra_mean", ["nan", "inf", "1e300", "-1"])
    def test_out_of_range_extra_mean_exits_2_naming_it(self, capsys, extra_mean):
        code = main(
            [
                "verdict",
                "heterogeneous-ring-lattice",
                "--n",
                "10",
                "--f",
                "1",
                f"--extra-mean={extra_mean}",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "extra_mean" in err

    def test_zero_attempts_exits_2_even_when_the_screens_decide(self, capsys):
        code = main(["verdict", "complete", "--n", "5", "--f", "1", "--attempts", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "witness_attempts" in err

    def test_unknown_family_rejected_by_argparse(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["verdict", "petersen", "--n", "10", "--f", "1"])

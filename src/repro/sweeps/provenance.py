"""Machine and repository provenance for run manifests and benchmark files.

Every sweep manifest and every ``BENCH_*.json`` records where its numbers
came from: interpreter and NumPy versions, machine architecture, the CPUs
the process may use (the compiled plane kernel splits large rounds across
them, so timings depend on it), and the git revision of the working tree
(when available).
"""

from __future__ import annotations

import datetime
import platform
import subprocess
from pathlib import Path

import numpy as np

from repro.simulation.native import cpu_count


def utc_now_iso() -> str:
    """Current UTC wall-clock time as an ISO-8601 string.

    The clock-hygiene contract (reprolint ``CLK001``) confines wall-clock
    reads to this module: manifests and benchmark payloads stamp their
    metadata through this helper, and nothing on a simulation path may call
    it — a timestamp there would be an input the seed does not control.
    """
    return datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )

#: Schema version of sweep run manifests / shard files under ``results/``.
RUN_SCHEMA_VERSION = 2


def git_revision(cwd: Path | str | None = None) -> str | None:
    """Return the current git commit sha, or ``None`` outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    sha = completed.stdout.strip()
    return sha or None


def machine_provenance() -> dict[str, object]:
    """Return the provenance block stamped into manifests and BENCH files."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpus": cpu_count(),
        "git_sha": git_revision(Path(__file__).resolve().parent),
    }
